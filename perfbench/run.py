"""ultrlab benchmark: three workloads through the public entry points.

    python3 perfbench/run.py --workload upe-ond --seed 3 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``src/ultrlab`` of that
checkout and nothing installed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced repeat. Everything a run writes goes under
``.perfbench_out/`` in the checkout. See ``perfbench/README.md`` for why the
workloads were chosen and which layer metric should move which end-to-end
metric.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads it: the load model is one client in
# one thread, and a second BLAS thread on a shared 2-vCPU host measures the
# neighbours more than the program (upe-ond's step p99 swung 20-36 ms with the
# default two threads, 23-26 ms with one).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import PER_LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Workloads: the training ones are `ultrlab train` argument lists at the
# ROADMAP reference scale (gen-data defaults: 500 train and 100 test queries x
# 10 docs x 16 features; config defaults: 2000 steps, batch 32).
TRAIN_ARGS = {
    "upe-ond": ["--algorithm", "upe", "--paradigm", "OnD", "--set", "learning_rate=0.05"],
    "dla-off": ["--algorithm", "dla", "--paradigm", "Off", "--set", "learning_rate=0.05"],
}
# ingest-eval: 10,000 queries per repeat, in chunks that each make the whole
# round trip, so that a run yields dozens of latency samples instead of two.
INGEST_QUERIES, INGEST_DOCS, INGEST_FEATURES = 10_000, 10, 16
INGEST_CHUNKS = 20
CHUNK_QUERIES = INGEST_QUERIES // INGEST_CHUNKS
# A training throughput window: the steps from one step's start to the start
# of the step WINDOW_STEPS later, with the eval and any policy refresh between.
WINDOW_STEPS = 100
WORKLOADS = (*TRAIN_ARGS, "ingest-eval")

# Fewest repeats per run: two give the determinism check a pair to compare.
MIN_REPEATS = 2
# Set-up samples taken before the first repeat and again after each repeat,
# so that their median spans the whole run rather than its first seconds.
SETUP_ROUND = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not gated, because on the shared
# host they move with its speed more than with the program (see README).
REPORTED_UNITS = {**END_TO_END_UNITS, "throughput_whole_per_s": "1/s",
                  "latency_ms_p50": "ms", "latency_ms_p99": "ms"}


def fail_setup(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_ultrlab():
    """Import the checkout's ultrlab, refusing any other copy."""
    if not (SRC / "ultrlab" / "__init__.py").is_file():
        fail_setup(f"no ultrlab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ultrlab
    import ultrlab.cli
    if Path(ultrlab.__file__).resolve().parent != (SRC / "ultrlab").resolve():
        fail_setup(f"imported ultrlab from {ultrlab.__file__}, not from {SRC}")


# One set-up sample in a new interpreter: `import ultrlab.cli`, then the
# `ultrlab` command given after the source directory, if any.
FRESH_SETUP = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ultrlab.cli
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ultrlab.cli.main(sys.argv[2:])
    if rc != 0:
        sys.exit(f"ultrlab {sys.argv[2]} exited {rc}")
print(time.perf_counter() - start)
"""


def fresh_setup_seconds(argv=()):
    """Time import plus `argv` the way a user starting `ultrlab` meets them."""
    done = subprocess.run([sys.executable, "-c", FRESH_SETUP, str(SRC), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


# ---------------------------------------------------------------- provenance

def blas_threads():
    """OpenBLAS's own thread count, read from the library this process loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def provenance(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except FileNotFoundError:  # no git on this machine
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


# ------------------------------------------------------------ training runs

class StepClock:
    """Times each learner step call and checks the loss it returns."""

    def __init__(self, learner_cls):
        self.starts_ns = []
        self.samples_ns = []
        self.bad_steps = 0
        original = learner_cls.__dict__["step"]
        clock = time.perf_counter_ns

        def step(learner, batch):
            start = clock()
            try:
                loss = original(learner, batch)
            except BaseException:
                self.bad_steps += 1
                raise
            self.starts_ns.append(start)
            self.samples_ns.append(clock() - start)
            if not math.isfinite(loss):
                self.bad_steps += 1
            return loss
        learner_cls.step = step


class TrainingWorkload:
    """`ultrlab train` on a gen-data directory made from the seed."""

    # The end-to-end values again, under the names that say what they count.
    aliases = {"steps_per_s": "throughput_per_s", "train_call_steps_per_s": "throughput_whole_per_s",
               "step_ms_p50": "latency_ms_p50", "step_ms_p90": "latency_ms_p90",
               "step_ms_p99": "latency_ms_p99"}

    def __init__(self, name, seed, out):
        import ultrlab.training as training
        self.name, self.seed, self.out = name, seed, out
        self.total_steps = self.ops_per_repeat = training.ExperimentConfig().total_steps
        learner_cls = training.UPELearner if "upe" in name else training.DLALearner
        self.clock = StepClock(learner_cls)
        self.work_per_repeat, self.window_work = self.total_steps, WINDOW_STEPS
        self.windows_s = []
        self.curves_name = f"curves_seed{seed}.csv"
        self.first_curves = None
        self.data_dir = self.data_content = None

    def gen_data_argv(self, target):
        return ["gen-data", "--out", str(target), "--seed", str(self.seed)]

    def gen_data(self, tag):
        from ultrlab import cli
        target = self.out / f"data-{tag}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.gen_data_argv(target))
        if rc != 0:
            raise RuntimeError(f"gen-data exited {rc}")
        return target

    def setup_sample(self):
        """Time import plus gen-data in a new interpreter.

        The first sample's directory is the one `train` reads; every later
        sample must write the same bytes.
        """
        target = self.out / "data-setup"
        seconds = fresh_setup_seconds(self.gen_data_argv(target))
        content = tuple((target / f).read_bytes() for f in ("train.txt", "test.txt"))
        if self.data_dir is None:
            self.data_dir = target.rename(self.out / "data-0")
            self.data_content = content
        else:
            shutil.rmtree(target)
            if content != self.data_content:
                raise RuntimeError("gen-data wrote different files from the same seed")
        return seconds

    def traced_setup(self):
        """A traced run makes its own gen-data, so the data layer shows in the trace."""
        self.data_dir = self.gen_data("traced")

    def run(self, index):
        """One `ultrlab train` call, timed; returns its wall time and its outcome."""
        from ultrlab import cli
        run_dir = self.out / f"train-{index}"
        argv = ["train", *TRAIN_ARGS[self.name], "--data", str(self.data_dir),
                "--seed", str(self.seed), "--out", str(run_dir)]
        bad_before = self.clock.bad_steps
        steps_before = len(self.clock.samples_ns)
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed run, counted by check()
            print(f"repeat {index}: train raised {exc!r}", file=sys.stderr)
            rc = None
        end = time.perf_counter_ns()
        wall = (end - start) / 1e9
        steps = len(self.clock.samples_ns) - steps_before
        if steps == self.total_steps:
            # The last window runs to the end of the call: final eval and output files.
            bounds = self.clock.starts_ns[steps_before::WINDOW_STEPS] + [end]
            self.windows_s += [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:])]
        return wall, (rc, steps, self.clock.bad_steps - bad_before, run_dir)

    def check(self, index, outcome):
        """Failed steps of one call: all of them if the run as a whole failed."""
        rc, steps, bad_steps, run_dir = outcome
        if rc == 0 and steps == self.total_steps and self.check_curves(run_dir, index):
            return bad_steps
        return self.total_steps

    def output_bytes(self, index):
        return sum(p.stat().st_size for p in (self.out / f"train-{index}").iterdir())

    def latencies_ms(self, walls):
        return [ns / 1e6 for ns in self.clock.samples_ns]

    def check_curves(self, run_dir, index):
        """Every curve value finite, and the CSV byte-identical to the first repeat's."""
        path = run_dir / self.curves_name
        if not path.is_file():
            print(f"repeat {index}: no {path.name}", file=sys.stderr)
            return False
        text = path.read_bytes()
        rows = text.decode().splitlines()
        try:
            values = [float(c) for row in rows[1:] for i, c in enumerate(row.split(","))
                      if i != 1]
        except ValueError:
            values = [math.nan]
        if not all(math.isfinite(v) for v in values):
            print(f"repeat {index}: non-finite or unreadable curve value", file=sys.stderr)
            return False
        if self.first_curves is None:
            self.first_curves = text
        elif text != self.first_curves:
            print(f"repeat {index}: curves differ from repeat 0", file=sys.stderr)
            return False
        return True

    def fingerprint(self):
        """Compare the curves with the stored reference; reported, never gating."""
        ref = BENCH_DIR / "reference" / self.name / self.curves_name
        if self.first_curves is None:
            return "no curves written"
        if not ref.is_file():
            return f"no reference {ref.relative_to(ROOT)} for this seed"
        reference = ref.read_bytes()
        digest = hashlib.sha256(self.first_curves).hexdigest()
        if reference == self.first_curves:
            return f"sha256 {digest}, byte-identical to {ref.relative_to(ROOT)}"
        drift = json.dumps(curve_drift(reference, self.first_curves))
        return f"sha256 {digest}, max abs drift per column vs {ref.relative_to(ROOT)}: {drift}"


def curve_drift(reference, current):
    """Largest absolute difference per numeric column of two curve CSVs."""
    def table(raw):
        lines = raw.decode().splitlines()
        header = lines[0].split(",")
        return header, [line.split(",") for line in lines[1:]]
    header, ref_rows = table(reference)
    cur_header, cur_rows = table(current)
    if cur_header != header or len(cur_rows) != len(ref_rows):
        return {"shape": "header or row count differs"}
    drift = {}
    for j, col in enumerate(header):
        if col == "algorithm":
            continue
        drift[col] = max(abs(float(a[j]) - float(b[j])) for a, b in zip(ref_rows, cur_rows))
    return drift


# ------------------------------------------------------------ data round trip

class IngestWorkload:
    """Generate, serialize, parse, view and evaluate 100k documents per repeat.

    A repeat is INGEST_CHUNKS round trips of CHUNK_QUERIES queries each. Chunk
    k of a run draws its queries from seed `seed * INGEST_CHUNKS + k` and one
    teacher from `seed`, so the chunks are distinct samples of one task and
    two seeds never share a chunk. Each chunk is timed on its own and checked
    after its clock stops.
    """

    ops_per_repeat = INGEST_QUERIES
    work_per_repeat, window_work = INGEST_QUERIES * INGEST_DOCS, CHUNK_QUERIES * INGEST_DOCS
    aliases = {"docs_per_s": "throughput_per_s", "repeat_docs_per_s": "throughput_whole_per_s",
               "round_trip_ms_p50": "latency_ms_p50", "round_trip_ms_p90": "latency_ms_p90",
               "round_trip_ms_p99": "latency_ms_p99"}

    def __init__(self, seed, out):
        self.seed, self.out = seed, out
        self.windows_s = []  # one per chunk
        self.first_metrics = {}
        self.untraced = contextlib.nullcontext  # a traced run pauses its tracer here

    def setup_sample(self):
        return fresh_setup_seconds()

    def traced_setup(self):
        pass

    def round_trip(self, chunk):
        from ultrlab import data, ranker, training
        dataset = data.generate_synthetic(CHUNK_QUERIES, INGEST_DOCS, INGEST_FEATURES,
                                          self.seed * INGEST_CHUNKS + chunk,
                                          teacher_seed=self.seed)
        text = data.serialize_svmlight(dataset)
        parsed = data.parse_svmlight(text)
        view = training.DatasetView(parsed)
        model = ranker.RankerMLP(INGEST_FEATURES, np.random.default_rng(self.seed))
        metrics = training.evaluate_ranker(model, view)
        return dataset, parsed, view, model, metrics

    def run(self, index):
        """One repeat; returns its timed wall (the sum of its chunks') and its failed queries."""
        wall, failed = 0.0, 0
        for chunk in range(INGEST_CHUNKS):
            gc.collect()
            start = time.perf_counter()
            try:
                outputs = self.round_trip(chunk)
            except Exception as exc:  # a crash fails every query of the chunk
                print(f"repeat {index} chunk {chunk}: round trip raised {exc!r}",
                      file=sys.stderr)
                outputs = None
            elapsed = time.perf_counter() - start
            wall += elapsed
            self.windows_s.append(elapsed)
            with self.untraced():
                failed += self.check_chunk(index, chunk, outputs)
            del outputs
        return wall, failed

    def check(self, index, failed):
        return failed

    def output_bytes(self, index):
        return 0

    def latencies_ms(self, walls):
        return [w * 1e3 for w in self.windows_s]

    def check_chunk(self, index, chunk, outputs):
        """Count queries whose round trip or metrics are wrong."""
        from ultrlab import training
        where = f"repeat {index} chunk {chunk}"
        if outputs is None:
            return CHUNK_QUERIES
        dataset, parsed, view, model, metrics = outputs
        bad = np.zeros(CHUNK_QUERIES, dtype=bool)
        if parsed.n_queries != CHUNK_QUERIES or parsed.feature_dim != INGEST_FEATURES:
            print(f"{where}: parsed shape differs", file=sys.stderr)
            return CHUNK_QUERIES
        for q, (a, b) in enumerate(zip(dataset.groups, parsed.groups)):
            if (a.query_id != b.query_id or [d.doc_id for d in a.docs] != [d.doc_id for d in b.docs]
                    or not np.array_equal(a.labels, b.labels)):
                bad[q] = True
        gen_bits = np.stack([d.features for g in dataset.groups for d in g.docs]).view(np.uint64)
        parsed_bits = np.stack([d.features for g in parsed.groups for d in g.docs]).view(np.uint64)
        bad |= (gen_bits != parsed_bits).reshape(CHUNK_QUERIES, -1).any(axis=1)

        scores = model.forward(view.flat_features()).data.reshape(view.n_queries, view.n_docs)
        ranked = np.take_along_axis(view.labels, training.rank_view_scores(scores), axis=1)
        oracle = ranking_metrics_oracle(ranked)
        per_query = np.stack(list(oracle.values()), axis=1)
        bad |= ((per_query < 0.0) | (per_query > 1.0)).any(axis=1)
        means_agree = set(oracle) == set(metrics) and all(
            abs(float(oracle[k].mean()) - metrics[k]) <= 1e-9 for k in oracle)
        first = self.first_metrics.setdefault(chunk, metrics)
        if not means_agree or metrics != first:
            print(f"{where}: evaluate_ranker disagrees with the oracle or repeat 0",
                  file=sys.stderr)
            bad[:] = True
        return int(bad.sum())

    def fingerprint(self):
        return "no curves in this workload"


def ranking_metrics_oracle(ranked, cutoffs=(1, 3, 5, 10), y_max=4):
    """Per-query nDCG@k and ERR@k for a (queries, docs) label matrix, vectorized.

    Written independently of ultrlab.metrics so the two can check each other;
    an all-zero list scores nDCG 1.0 there, and here too.
    """
    y = ranked.astype(np.float64)
    gain = np.power(2.0, y) - 1.0
    discount = 1.0 / np.log2(np.arange(2, y.shape[1] + 2, dtype=np.float64))
    ideal_gain = -np.sort(-gain, axis=1)
    satisfy = gain / 2.0 ** y_max
    reach = np.cumprod(np.hstack([np.ones((y.shape[0], 1)), 1.0 - satisfy[:, :-1]]), axis=1)
    err_terms = reach * satisfy / np.arange(1, y.shape[1] + 1)
    out = {}
    for k in cutoffs:
        dcg = (gain[:, :k] * discount[:k]).sum(axis=1)
        ideal = (ideal_gain[:, :k] * discount[:k]).sum(axis=1)
        out[f"ndcg@{k}"] = np.where(ideal == 0.0, 1.0, dcg / np.where(ideal == 0.0, 1.0, ideal))
    for k in cutoffs:
        out[f"err@{k}"] = err_terms[:, :k].sum(axis=1)
    return out


# ----------------------------------------------------------------- the runs

def make_workload(name, seed, out):
    if name in TRAIN_ARGS:
        return TrainingWorkload(name, seed, out)
    return IngestWorkload(seed, out)


def measure(workload, seconds):
    """Untraced repeats until they add up to `seconds`, at least MIN_REPEATS.

    A round of set-up samples runs before the first repeat and after each
    one; set-up time is not part of the measured seconds.
    """
    setup = [workload.setup_sample() for _ in range(SETUP_ROUND)]
    walls, failed = [], 0
    while len(walls) < MIN_REPEATS or sum(walls) < seconds:
        gc.collect()
        wall, outcome = workload.run(len(walls))
        failed += workload.check(len(walls), outcome)
        del outcome  # a repeat's outputs must not stay alive through the next one
        walls.append(wall)
        setup += [workload.setup_sample() for _ in range(SETUP_ROUND)]
    return walls, setup, len(walls) * workload.ops_per_repeat, failed


def end_to_end(workload, setup, walls):
    """The gated metrics, and the reported ones beside them.

    Throughput is the lower quartile of the window rates: the rate that three
    windows in four reach. It and the 90th latency percentile stay in the
    host's usual speed through the brief fast spells that move a median.
    """
    latencies = workload.latencies_ms(walls)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    rates = [workload.window_work / w for w in workload.windows_s]
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": statistics.quantiles(rates, n=4, method="inclusive")[0],
        "latency_ms_p90": cuts[89],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "latency_samples": len(latencies),
        "windows": len(rates),
        "throughput_whole_per_s": statistics.median(workload.work_per_repeat / w for w in walls),
        "latency_ms_p50": cuts[49],
        "latency_ms_p99": cuts[98],
    }


def traced(workload):
    """One untraced repeat, then one traced; returns per-layer metrics.

    The traced repeat is checked against the untraced one like any other
    repeat, so tracing that changed a result would show as a failure.
    """
    gc.collect()
    untraced_wall, outcome = workload.run(0)
    failed = workload.check(0, outcome)
    del outcome
    tracer = Tracer()
    workload.untraced = tracer.paused
    gc.collect()
    tracer.install()
    try:
        workload.traced_setup()
        traced_wall, outcome = workload.run(1)
    finally:
        tracer.uninstall()
    failed += workload.check(1, outcome)
    metrics = tracer.layer_metrics()
    metrics.update({
        "cli.output_bytes": workload.output_bytes(1),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    tracer.write(workload.out / "spans.json")
    return metrics, 2 * workload.ops_per_repeat, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_ultrlab()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    workload = make_workload(args.workload, args.seed, out)
    if args.trace:
        workload.setup_sample()
        values, attempted, failed = traced(workload)
        units = PER_LAYER_UNITS
        report = {}
    else:
        walls, setup, attempted, failed = measure(workload, args.seconds)
        values, tail = end_to_end(workload, setup, walls)
        units = END_TO_END_UNITS
        report = {"repeats": len(walls), "walls_s": walls, "setup_samples_s": setup, **tail}

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": args.workload, "provenance": provenance(args.seed),
               "fingerprint": workload.fingerprint(), "error_rate": failed / attempted,
               **report, "result": result}
    (out / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    for data_dir in out.glob("data-*"):
        shutil.rmtree(data_dir)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(details["provenance"]))
    print(f"curves {details['fingerprint']}")
    for key in ("repeats", "walls_s", "setup_samples_s", "latency_samples", "windows"):
        if key in report:
            print(f"{key} {report[key]}")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        values.update(tail)
        for key in [k for k in REPORTED_UNITS if k not in END_TO_END_UNITS]:
            print(f"{key} {values[key]:.6g} {REPORTED_UNITS[key]} (reported, not gated)")
        for alias, key in workload.aliases.items():
            print(f"{alias} {values[key]:.6g} {REPORTED_UNITS[key]}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
