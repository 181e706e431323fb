"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
``backward()`` on a scalar result walks the tape in reverse topological order
and accumulates gradients into every reachable tensor that asked for them.
Just enough ops for feedforward scorers with listwise losses: broadcasting
add/mul, matmul, ELU, inverted dropout, row-wise log-softmax, sum, reshape,
and row lookup for embeddings.

Gradient buffers are handed over, not copied: the first gradient a tensor
receives becomes its ``.grad``, and later ones are added into it in place.
That is safe under one invariant: a gradient buffer is handed to at most one
tensor whose backward has not yet run. Most backward closures build a fresh
array anyway; the pass-throughs are ``+`` (an operand with the output's shape
gets ``out.grad`` itself) and ``reshape`` (a view of it), both reached only
after ``out`` is finished, and ``+`` copies for its second operand when the
first already took the buffer. An inner tensor's ``.grad`` may thus change
after its own backward ran; only the leaves' gradients are final.

Forward-only passes (evaluation, policy refresh, the backdoor readout) skip
the tape: ``MLP.infer`` runs the same layers on plain arrays and shares the
in-place ELU kernel ``_elu`` with ``Tensor.elu``, so its output has the same
bits as the eval-mode ``Tensor`` forward.
"""

from typing import Callable, List, Optional, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _elu(x: np.ndarray) -> np.ndarray:
    """ELU in place, returning x; expm1 sees only min(x, 0), so it cannot overflow."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(x, 0.0, out=x)
    x += neg
    return x


def _consumed():
    raise RuntimeError("backward() already ran through this graph")


class Tensor:
    def __init__(self, data, requires_grad: bool = False, _prev=(), _op: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._prev = tuple(_prev)
        self._op = _op
        self._backward: Callable[[], None] = lambda: None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            # Ops on 0-d tensors return numpy scalars; keep .grad an ndarray.
            self.grad = grad if isinstance(grad, np.ndarray) else np.array(grad)
        else:
            self.grad += grad

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data + other.data,
                     self.requires_grad or other.requires_grad, (self, other), "+")

        def _backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                g = _unbroadcast(out.grad, other.data.shape)
                # Never hand one buffer to both operands (m + p, x + x).
                other._accumulate(g.copy() if g is self.grad else g)
        out._backward = _backward
        return out

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data * other.data,
                     self.requires_grad or other.requires_grad, (self, other), "*")

        def _backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))
        out._backward = _backward
        return out

    def __neg__(self):
        return self * -1.0

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("division only by plain scalars")
        return self * (1.0 / float(scalar))

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        out = Tensor(self.data @ other.data,
                     self.requires_grad or other.requires_grad, (self, other), "@")

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ out.grad)
        out._backward = _backward
        return out

    def elu(self) -> "Tensor":
        y = _elu(self.data.copy())
        out = Tensor(y, self.requires_grad, (self,), "elu")

        def _backward():
            if self.requires_grad:
                # d/dx is 1 where y > 0 and y + 1 elsewhere: min(y, 0) + 1.
                g = np.minimum(y, 0.0)
                g += 1.0
                g *= out.grad
                self._accumulate(g)
        out._backward = _backward
        return out

    def dropout(self, p: float, rng: Optional[np.random.Generator] = None,
                mask: Optional[np.ndarray] = None) -> "Tensor":
        """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

        Pass ``mask`` (the full multiplier array) to pin the draw, e.g. for
        finite-difference checks; otherwise one is sampled from ``rng``.
        """
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if p == 0.0 and mask is None:
            return self
        if mask is None:
            if rng is None:
                raise ValueError("dropout needs an rng when no mask is given")
            mask = (rng.random(self.data.shape) >= p) / (1.0 - p)
        mask = np.asarray(mask, dtype=np.float64)
        out = Tensor(self.data * mask, self.requires_grad, (self,), "dropout")

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad * mask)
        out._backward = _backward
        return out

    def log_softmax(self) -> "Tensor":
        """Row-wise log softmax over the last axis."""
        z = self.data - self.data.max(axis=-1, keepdims=True)
        y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        out = Tensor(y, self.requires_grad, (self,), "log_softmax")

        def _backward():
            if self.requires_grad:
                g = out.grad
                self._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))
        out._backward = _backward
        return out

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     self.requires_grad, (self,), "sum")

        def _backward():
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        out._backward = _backward
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), self.requires_grad, (self,), "reshape")

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))
        out._backward = _backward
        return out

    def take_rows(self, indices) -> "Tensor":
        """Row lookup (embedding gather); backward scatter-adds into the table."""
        idx = np.asarray(indices, dtype=np.int64)
        out = Tensor(self.data[idx], self.requires_grad, (self,), "take_rows")

        def _backward():
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, idx, out.grad)
        out._backward = _backward
        return out

    def backward(self):
        """Reverse pass from a scalar: topological sort, then chain rule."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar root")
        topo: List[Tensor] = []
        visited = set()
        stack = [(self, iter(self._prev))]
        on_path = {id(self)}
        while stack:
            node, children = stack[-1]
            nxt = next(children, None)
            if nxt is None:
                stack.pop()
                on_path.discard(id(node))
                visited.add(id(node))
                topo.append(node)
            elif id(nxt) not in visited:
                if id(nxt) in on_path:
                    raise RuntimeError("cycle in computation graph")
                stack.append((nxt, iter(nxt._prev)))
                on_path.add(id(nxt))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            node._backward()
            if node._prev:
                # The closure holds its own output tensor: drop the cycle so the
                # graph is freed by reference counting, not the cyclic collector.
                node._backward = _consumed

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r})"


class Parameter(Tensor):
    """A named leaf tensor updated by an optimizer."""

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class AdaGrad:
    """Per-coordinate AdaGrad: G += g^2, then theta -= lr * g / sqrt(G + damping).

    ``step`` and ``minimize`` update the parameters they are given, all of the
    optimizer's by default. A parameter left out keeps its data and its
    accumulator, so leaving it out of a step is a pure pause.
    """

    def __init__(self, params: Sequence[Parameter], lr: float, damping: float = 1e-6):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.damping = damping
        self.state = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, params: Optional[Sequence[Parameter]] = None):
        for p in self.params if params is None else params:
            if p.grad is None:
                continue
            G = self.state[id(p)]
            G += p.grad * p.grad
            p.data -= self.lr * p.grad / np.sqrt(G + self.damping)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def minimize(self, loss: Tensor, params: Optional[Sequence[Parameter]] = None) -> float:
        """One descent step on a scalar loss: zero, backpropagate, update ``params``."""
        self.zero_grad()
        loss.backward()
        self.step(params)
        return float(loss.data)


class Linear:
    """Affine layer with Glorot-uniform weights and zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.W = Parameter(rng.uniform(-limit, limit, size=(in_dim, out_dim)), f"{name}.W")
        self.b = Parameter(np.zeros(out_dim), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x.matmul(self.W) + self.b

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]


class MLP:
    """Feedforward stack: ELU and dropout after every hidden layer, linear output."""

    def __init__(self, in_dim: int, hidden: Sequence[int], out_dim: int,
                 rng: np.random.Generator, name: str, dropout: float = 0.0):
        dims = [in_dim, *hidden, out_dim]
        self.layers = [
            Linear(dims[i], dims[i + 1], rng, f"{name}.l{i}") for i in range(len(dims) - 1)
        ]
        self.dropout = dropout

    def __call__(self, x: Tensor, train: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 dropout_masks: Optional[Sequence[np.ndarray]] = None) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(h)
            if i < len(self.layers) - 1:
                h = h.elu()
                if train and self.dropout > 0.0:
                    mask = dropout_masks[i] if dropout_masks is not None else None
                    h = h.dropout(self.dropout, rng=rng, mask=mask)
        return h

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on plain arrays: no tape, no dropout, x left unchanged."""
        h = x
        for i, layer in enumerate(self.layers):
            h = h @ layer.W.data
            h += layer.b.data
            if i < len(self.layers) - 1:
                _elu(h)
        return h

    def parameters(self) -> List[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]


def weighted_listwise_ce(logits: Tensor, weights: np.ndarray) -> Tensor:
    """Softmax cross-entropy against unnormalized per-item weights, meaned over rows.

    For a row z with weights w this is -sum_j w_j log softmax(z)_j, whose
    gradient in z_j is -w_j + (sum_i w_i) softmax(z)_j.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != logits.data.shape:
        raise ValueError("weights must match logits shape")
    n_rows = logits.data.shape[0] if logits.data.ndim == 2 else 1
    return -(Tensor(weights) * logits.log_softmax()).sum() / n_rows


def save_params(path, params: Sequence[Parameter]):
    """Snapshot named parameters to an npz archive."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names")
    np.savez(path, **{p.name: p.data for p in params})


def load_params(path, params: Sequence[Parameter]):
    """Restore a snapshot in place, matching parameters by name."""
    with np.load(path) as archive:
        for p in params:
            if p.name not in archive.files:
                raise KeyError(f"snapshot missing parameter {p.name!r}")
            stored = archive[p.name]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"parameter {p.name!r}: snapshot shape {stored.shape} != {p.data.shape}"
                )
            p.data = stored.astype(np.float64)
