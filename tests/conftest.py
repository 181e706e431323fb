"""Session set-up: BLAS runs on one thread for the whole test suite.

At the suite's matrix sizes a second OpenBLAS thread costs wall time and
CPU rather than saving them, and it takes the core that a second process
would use. The variables only take effect if they are set before numpy
first loads BLAS, which is why they are set here, on import, and not in a
fixture. ``test_blas_threads.py`` reads OpenBLAS's own thread count to show
the pin holds, and checks that the batch-32 byte gate holds under one and
two threads alike.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
