"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers the tensors it was computed
from; calling ``backward(leaves)`` on a scalar result accumulates gradients
into the named leaves and no others. Just enough ops for
feedforward scorers with listwise losses: add (broadcasting a bias row over
leading axes), matmul, ELU, inverted dropout, row-wise log-softmax, reshape,
embedding lookup, and the weighted listwise cross-entropy as one loss node.

An op's inputs exist before its output, so creation order is a topological
order: backward walks the reachable nodes once, sorts them by creation number
and so can meet no cycle. A node is live if it is a named leaf or has a live
input. Only live nodes run their closures, in reverse creation order, and each
feeds only its live operands (a one-input op's operand is live when it is), so
a step that moves the position embeddings alone computes no gradient for the
frozen pathway. Every closure, dead ones too, is then swapped for one that
refuses a second pass, which frees the graph by reference counting.

Gradient buffers are handed over, not copied: the first gradient a tensor
receives becomes its ``.grad``, and later ones are added into it in place.
That is safe under one invariant: a gradient buffer is handed to at most one
tensor whose backward has not yet run. Only two ops pass a buffer on: ``+``
(an operand with the output's shape gets ``out.grad`` itself) and ``reshape``
(a view of it), both reached only after ``out`` is finished; ``+`` copies for
its second operand when the first already took the buffer. Every other
closure, the loss node's and ``take_rows``'s scatter included, builds a fresh
array and hands it to ``_accumulate``. An inner tensor's
``.grad`` may thus change after its own backward ran; only the leaves'
gradients are final.

An ``MLP`` call is one node whose inputs are x and the MLP's parameters. It
runs the layers on plain arrays with in-place bias, ELU and dropout kernels,
keeps each layer's input, ELU output and dropout mask, and its backward
writes the ELU and dropout gradients into those cached buffers; per layer
that replaces four nodes and their copies. The primitives stay: perfbench's
tracer wraps ``Tensor.matmul``, ``.elu``, ``.log_softmax`` and ``backward``
by name, and the gradient suite checks ``+``, ``matmul``, ``elu`` and
``dropout`` one by one, which ``tests/helpers.py`` also composes into the
op-by-op chain the MLP node must match bit for bit. The MLP node shares
the ELU kernel ``_elu`` with ``Tensor.elu`` and ``MLP.infer``, and its
gradient kernel ``_elu_grad`` with ``Tensor.elu``.

Forward-only passes (evaluation, policy refresh, the backdoor readout) skip
the tape: ``MLP.infer`` runs the same layers on plain arrays, so its output
has the same bits as the eval-mode taped forward. It scores a whole split
INFER_BLOCK_ROWS rows at a time, so a refresh or an evaluation holds one
block's activations, not the split's, and gets the one-shot chain's bits.
"""

import itertools
from collections import namedtuple
from typing import Callable, List, Optional, Sequence

import numpy as np

_CREATED = itertools.count()

# Rows MLP.infer scores at once, so a full split's temporaries stay one block wide.
INFER_BLOCK_ROWS = 512


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along.

    ``+`` only broadcasts over leading axes (a bias row); any other broadcast
    fails in the final reshape.
    """
    if grad.shape == shape:
        return grad
    return grad.sum(axis=tuple(range(grad.ndim - len(shape)))).reshape(shape)


def _elu(x: np.ndarray) -> np.ndarray:
    """ELU in place, returning x, as max(x, expm1(min(x, 0))): expm1 cannot overflow,
    and it needs no add because expm1(t) >= t holds after rounding too."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    return np.maximum(x, neg, out=x)


def _elu_grad(y: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ELU's backward from its output y into ``out`` (which may be y), returning
    it: d/dx is 1 where y > 0 and y + 1 elsewhere, so the gradient is (min(y, 0) + 1) * g."""
    np.minimum(y, 0.0, out=out)
    out += 1.0
    out *= g
    return out


def _consumed(live):
    raise RuntimeError("backward() already ran through this graph")


class Tensor:
    def __init__(self, data, _prev=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._prev = tuple(_prev)
        self._seq = next(_CREATED)
        self._backward: Callable[[set], None] = lambda live: None

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            # Ops on 0-d tensors return numpy scalars; keep .grad an ndarray.
            self.grad = grad if isinstance(grad, np.ndarray) else np.array(grad)
        else:
            self.grad += grad

    def __add__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data + other.data, (self, other))

        def _backward(live):
            if self in live:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other in live:
                g = _unbroadcast(out.grad, other.data.shape)
                # Never hand one buffer to both operands (m + p, x + x).
                other._accumulate(g.copy() if g is self.grad else g)
        out._backward = _backward
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        out = Tensor(self.data @ other.data, (self, other))

        def _backward(live):
            if self in live:
                self._accumulate(out.grad @ other.data.T)
            if other in live:
                other._accumulate(self.data.T @ out.grad)
        out._backward = _backward
        return out

    def elu(self) -> "Tensor":
        y = _elu(self.data.copy())
        out = Tensor(y, (self,))

        def _backward(live):
            self._accumulate(_elu_grad(y, out.grad, np.empty_like(y)))
        out._backward = _backward
        return out

    def dropout(self, p: float, rng: Optional[np.random.Generator] = None) -> "Tensor":
        """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

        The multiplier is drawn from ``rng``; a freshly seeded generator
        repeats the draw, which is how finite-difference checks pin it.
        """
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if p == 0.0:
            return self
        if rng is None:
            raise ValueError("dropout needs an rng")
        mask = (rng.random(self.data.shape) >= p) / (1.0 - p)
        out = Tensor(self.data * mask, (self,))

        def _backward(live):
            self._accumulate(out.grad * mask)
        out._backward = _backward
        return out

    def log_softmax(self) -> "Tensor":
        """Row-wise log softmax over the last axis."""
        z = self.data - self.data.max(axis=-1, keepdims=True)
        y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        out = Tensor(y, (self,))

        def _backward(live):
            g = out.grad
            self._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))
        out._backward = _backward
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), (self,))

        def _backward(live):
            self._accumulate(out.grad.reshape(self.data.shape))
        out._backward = _backward
        return out

    def take_rows(self, indices) -> "Tensor":
        """Row lookup (embedding gather); backward scatter-adds into the table."""
        idx = np.asarray(indices, dtype=np.int64)
        out = Tensor(self.data[idx], (self,))

        def _backward(live):
            # One bincount over flat (row, column) cells adds each cell's terms
            # in index order from zero, as np.add.at into zeros does.
            # The gather accepted idx, so the modulo only maps negative rows.
            width = self.data[0].size
            rows = idx.reshape(-1, 1) % len(self.data)
            cells = (rows * width + np.arange(width)).reshape(-1)
            grad = np.bincount(cells, weights=out.grad.reshape(-1), minlength=self.data.size)
            self._accumulate(grad.reshape(self.data.shape))
        out._backward = _backward
        return out

    def backward(self, leaves: Sequence["Tensor"]):
        """Reverse pass from a scalar root into the named ``leaves`` and no others."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar root")
        nodes, stack = {self}, [self]
        while stack:
            for prev in stack.pop()._prev:
                if prev not in nodes:
                    nodes.add(prev)
                    stack.append(prev)
        topo = sorted(nodes, key=lambda node: node._seq)
        named, live = set(leaves), set()
        for node in topo:
            if node in named or not live.isdisjoint(node._prev):
                live.add(node)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._prev:
                if node in live:
                    node._backward(live)
                # The closure holds its own output tensor: drop the cycle so the
                # graph is freed by reference counting, not the cyclic collector.
                node._backward = _consumed


class Parameter(Tensor):
    """A named leaf tensor updated by an optimizer."""

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class AdaGrad:
    """Per-coordinate AdaGrad: G += g^2, then theta -= lr * g / sqrt(G + 1e-6).

    Each update names the parameters it moves. A parameter's accumulator is
    made at its first update, so leaving it out of a step is a pure pause.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.state = {}

    def step(self, params: Sequence[Parameter]):
        for p in params:
            G = self.state.get(p)
            if G is None:
                G = self.state[p] = np.zeros_like(p.data)
            G += p.grad * p.grad
            p.data -= self.lr * p.grad / np.sqrt(G + 1e-6)

    def minimize(self, loss: Tensor, params: Sequence[Parameter]) -> float:
        """Clear, backpropagate into and update ``params``; refuse one the loss misses."""
        for p in params:
            p.grad = None
        loss.backward(params)
        for p in params:
            if p.grad is None:
                raise ValueError(f"loss does not reach parameter {p.name!r}")
        self.step(params)
        return float(loss.data)


_Layer = namedtuple("_Layer", "W b")


class MLP:
    """Feedforward stack: ELU and dropout after every hidden layer, linear output.

    Layer i is a Glorot-uniform weight ``{name}.l{i}.W`` of shape (in, out)
    and a zero bias ``{name}.l{i}.b``; the weights are drawn first layer first.
    """

    def __init__(self, in_dim: int, hidden: Sequence[int], out_dim: int,
                 rng: np.random.Generator, name: str, dropout: float = 0.0):
        dims = [in_dim, *hidden, out_dim]
        self.layers = []
        for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.layers.append(_Layer(Parameter(W, f"{name}.l{i}.W"),
                                      Parameter(np.zeros(fan_out), f"{name}.l{i}.b")))
        self.dropout = dropout

    def __call__(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        """Taped forward as one node; dropout runs exactly when an ``rng`` is given.

        Each layer is ``h @ W``, the bias added in place, then on hidden layers
        ELU in place and inverted dropout: the operation order of the primitive
        chain ``x.matmul(W) + b``, ``.elu()``, ``.dropout(p, rng)``, so output
        and gradients keep its bits and the rng its stream. Backward walks the
        layers down only as far as the lowest live leaf, and feeds only the
        live ones.
        """
        if x.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        p = self.dropout if rng is not None else 0.0
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        last = len(self.layers) - 1
        inputs, acts, masks = [], [], []
        h = x.data
        for i, layer in enumerate(self.layers):
            inputs.append(h)
            h = h @ layer.W.data
            h += layer.b.data
            if i < last:
                acts.append(_elu(h))
                mask = None
                if p > 0.0:
                    mask = rng.random(h.shape)
                    np.divide(mask >= p, 1.0 - p, out=mask)
                    h = h * mask
                masks.append(mask)
        out = Tensor(h, (x, *self.parameters()))

        def _backward(live):
            lowest = -1 if x in live else min(
                i for i, layer in enumerate(self.layers) if layer.W in live or layer.b in live)
            g = out.grad
            for i in range(last, max(lowest, 0) - 1, -1):
                layer = self.layers[i]
                if layer.b in live:
                    layer.b._accumulate(g.sum(axis=0))
                if layer.W in live:
                    layer.W._accumulate(inputs[i].T @ g)
                if i == lowest:
                    break
                g = g @ layer.W.data.T
                if i == 0:
                    x._accumulate(g)
                    break
                # inputs[i] is read: the cached mask and ELU output take the gradient.
                if masks[i - 1] is not None:
                    g = np.multiply(g, masks[i - 1], out=masks[i - 1])
                g = _elu_grad(acts[i - 1], g, acts[i - 1])
        out._backward = _backward
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on plain arrays: no tape, no dropout, x left unchanged.

        More rows go through in blocks of INFER_BLOCK_ROWS written into one
        result. Blocks start at multiples of the block size, so each row meets
        the BLAS kernel's row tiling where the one-shot chain puts it and keeps
        its bits. A last row left alone joins the block before it: numpy
        multiplies a 1-row matrix as a vector, which rounds differently.
        """
        n = x.shape[0]
        if n <= INFER_BLOCK_ROWS + 1:
            return self._infer_block(x)
        out = np.empty((n, self.layers[-1].b.data.size))
        for start in range(0, n - 1, INFER_BLOCK_ROWS):
            stop = n if n - start <= INFER_BLOCK_ROWS + 1 else start + INFER_BLOCK_ROWS
            out[start:stop] = self._infer_block(x[start:stop])
        return out

    def _infer_block(self, h: np.ndarray) -> np.ndarray:
        for i, layer in enumerate(self.layers):
            h = h @ layer.W.data
            h += layer.b.data
            if i < len(self.layers) - 1:
                _elu(h)
        return h

    def parameters(self) -> List[Parameter]:
        return [p for layer in self.layers for p in layer]


def weighted_listwise_ce(logits: Tensor, weights: np.ndarray) -> Tensor:
    """Softmax cross-entropy of (rows, items) logits against unnormalized
    per-item weights of the same shape, meaned over rows.

    For a row z with weights w this is -sum_j w_j log softmax(z)_j, whose
    gradient in z_j is -w_j + (sum_i w_i) softmax(z)_j. It adds two tape
    nodes, the log-softmax and the loss, and keeps the operation order of the
    op-by-op numpy chain in ``tests/helpers.py``, which pins it bit for bit.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be (rows, items), got shape {logits.data.shape}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != logits.data.shape:
        raise ValueError("weights must match logits shape")
    scale = 1.0 / float(logits.data.shape[0])
    log_p = logits.log_softmax()
    out = Tensor((weights * log_p.data).sum() * -1.0 * scale, (log_p,))

    def _backward(live):
        log_p._accumulate(out.grad * scale * -1.0 * weights)
    out._backward = _backward
    return out


def save_params(path, params: Sequence[Parameter]):
    """Snapshot named parameters to an npz archive."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names")
    np.savez(path, **{p.name: p.data for p in params})


def load_params(path, params: Sequence[Parameter]):
    """Restore a snapshot in place, matching parameters by name; refuses
    missing, misshapen and non-finite parameters."""
    with np.load(path) as archive:
        for p in params:
            if p.name not in archive.files:
                raise ValueError(f"snapshot missing parameter {p.name!r}")
            stored = archive[p.name]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"parameter {p.name!r}: snapshot shape {stored.shape} != {p.data.shape}"
                )
            stored = stored.astype(np.float64)
            if not np.all(np.isfinite(stored)):
                raise ValueError(f"parameter {p.name!r}: snapshot holds non-finite values")
            p.data = stored
