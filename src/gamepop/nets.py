"""Flat-parameter MLP with manual backprop, plus SGD/Adam optimizers.

Parameters live in a single flat float64 vector so whole policies can be
averaged, checkpointed, and compared bit-for-bit. Layout per layer: weight
matrix (row-major), then bias.

`forward` and `forward_backward` cost little beyond their arithmetic:

* Scratch, never returned: the hidden activations, the deltas propagated
  back through them and the ReLU masks live in float64 buffers kept per
  (signature, batch) and kind of pass, for the last `_KEPT` of those. A
  call takes its buffers out of the cache while it runs, so a nested call
  (a ``grad_out`` that runs `forward` on the same network) gets buffers of
  its own.
* The layer views of the last `_KEPT` thetas, checked by identity. An entry
  holds its theta, so the id cannot name another array while the entry
  lives; a theta updated in place is read through its views as it is now.
* Fresh: the outputs and the gradient each call returns, which the caller
  may keep or write into.

Every product, bias add and ReLU is the same numpy operation on operands
of the same shapes and strides as when each call allocated its
intermediates, only written with ``out=`` into a buffer, so the results are
the same bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArchSignature:
    """Network architecture identity; policies with equal signatures share a
    parameter layout and can be averaged."""
    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers",
                           tuple(int(h) for h in self.hidden_layers))
        dims = (self.input_dim, *self.hidden_layers, self.output_dim)
        if any(d <= 0 for d in dims):
            raise ValueError("all layer dimensions must be positive")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)


def layer_shapes(sig: ArchSignature) -> list[tuple[int, int]]:
    dims = sig.dims
    return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


def theta_size(sig: ArchSignature) -> int:
    return sum(r * c + r for r, c in layer_shapes(sig))


@functools.lru_cache(maxsize=None)
def _slices(sig: ArchSignature) -> tuple:
    """(weight slice, bias slice, rows, cols) per layer, built once per
    signature."""
    out = []
    offset = 0
    for r, c in layer_shapes(sig):
        w = slice(offset, offset + r * c)
        b = slice(offset + r * c, offset + r * c + r)
        out.append((w, b, r, c))
        offset = b.stop
    return tuple(out)


def unpack(sig: ArchSignature, theta: np.ndarray):
    """View theta as a list of (W, b) arrays (no copies)."""
    return [(theta[w].reshape(r, c), theta[b])
            for w, b, r, c in _slices(sig)]


# Entries kept in each cache below, the oldest used evicted first.
_KEPT = 4
# id(theta) -> (theta, sig, (W.T, W, b) per layer).
_VIEWS: dict[int, tuple] = {}
# (id(sig), batch, backward) -> (sig, activations, deltas, masks).
_SCRATCH: dict[tuple, tuple] = {}


def _keep(cache: dict, key, entry) -> None:
    cache[key] = entry
    if len(cache) > _KEPT:
        del cache[next(iter(cache))]


def _layers(sig: ArchSignature, theta: np.ndarray) -> tuple:
    """(W.T, W, b) per layer of theta, views kept while theta is among the
    last `_KEPT` used."""
    entry = _VIEWS.pop(id(theta), None)
    if entry is None or entry[0] is not theta or entry[1] is not sig:
        entry = (theta, sig,
                 tuple((W.T, W, b) for W, b in unpack(sig, theta)))
    _keep(_VIEWS, id(theta), entry)
    return entry[2]


def _scratch(sig: ArchSignature, batch: int, backward: bool):
    """The key and the buffers of (sig, batch): the hidden activations,
    and for a backward pass also the deltas and ReLU masks. They are taken
    out of the cache; the caller puts them back with `_keep` when it is
    done with them."""
    key = (id(sig), batch, backward)
    entry = _SCRATCH.pop(key, None)
    if entry is None or entry[0] is not sig:
        shapes = [(batch, h) for h in sig.hidden_layers]
        entry = (sig, [np.empty(s) for s in shapes],
                 [np.empty(s) for s in shapes] if backward else None,
                 [np.empty(s, bool) for s in shapes] if backward else None)
    return key, entry


def _hidden(layers, h: np.ndarray, acts) -> np.ndarray:
    """Run h through the hidden layers, writing each activation into its
    buffer in ``acts``; returns the last one (h itself with none)."""
    for (WT, _, b), act in zip(layers, acts):
        np.matmul(h, WT, out=act)
        np.add(act, b, out=act)
        h = np.maximum(act, 0.0, out=act)
    return h


def forward(sig: ArchSignature, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched forward pass; x is (B, input_dim) or (input_dim,)."""
    squeeze = x.ndim == 1
    h = x[None] if squeeze else x
    layers = _layers(sig, theta)
    key, entry = _scratch(sig, len(h), False)
    out = np.matmul(_hidden(layers, h, entry[1]), layers[-1][0])
    np.add(out, layers[-1][2], out=out)
    _keep(_SCRATCH, key, entry)
    return out[0] if squeeze else out


def forward_backward(sig: ArchSignature, theta: np.ndarray, x: np.ndarray,
                     grad_out) -> tuple[np.ndarray, np.ndarray]:
    """One forward and one backward pass over the batch ``x`` (B,
    input_dim).

    ``grad_out(outputs)`` maps the (B, output_dim) outputs to the gradient
    of the loss with respect to them; it may return a buffer of its own,
    which is only read. Returns ``(outputs, grad)``: the outputs, equal bit
    for bit to ``forward(sig, theta, x)``, and the gradient with respect to
    theta, in theta's flat layout.
    """
    layers = _layers(sig, theta)
    if x.ndim != 2:
        x = np.atleast_2d(x)
    key, entry = _scratch(sig, len(x), True)
    _, acts, deltas, masks = entry
    out = np.matmul(_hidden(layers, x, acts), layers[-1][0])
    np.add(out, layers[-1][2], out=out)
    grad = np.empty_like(theta)
    delta = grad_out(out)
    if delta.ndim != 2:
        delta = np.atleast_2d(delta)
    inputs = (x, *acts)
    slices = _slices(sig)
    for i in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, r, c = slices[i]
        np.matmul(delta.T, inputs[i], out=grad[w_sl].reshape(r, c))
        np.add.reduce(delta, 0, out=grad[b_sl])
        if i > 0:
            np.matmul(delta, layers[i][1], out=deltas[i - 1])
            np.greater(inputs[i], 0.0, out=masks[i - 1])
            delta = np.multiply(deltas[i - 1], masks[i - 1],
                                out=deltas[i - 1])
    _keep(_SCRATCH, key, entry)
    return out, grad


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, theta: np.ndarray, grad: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """``theta - lr * grad``, written into ``out`` if given (which may
        be theta itself)."""
        return np.subtract(theta, self.lr * grad, out=out)


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = None
        self.v = None
        self._scratch = None  # two theta-sized buffers, reused every step
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """``theta - lr * m_hat / (sqrt(v_hat) + eps)`` with the moments
        updated in place, each in the same elementwise operations, in the
        same order, as the textbook expressions. The result is written into
        ``out`` if given (which may be theta itself); otherwise it is a
        fresh array and theta is left as it was."""
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self._scratch = (np.empty_like(theta), np.empty_like(theta))
        self.t += 1
        m, v = self.m, self.v
        term, step = self._scratch
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(grad, 1 - self.beta1, out=term)
        np.multiply(m, self.beta1, out=m)
        np.add(m, term, out=m)
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(grad, 1 - self.beta2, out=term)
        np.multiply(term, grad, out=term)
        np.multiply(v, self.beta2, out=v)
        np.add(v, term, out=v)
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - self.beta2 ** self.t, out=term)
        np.sqrt(term, out=term)
        np.add(term, self.eps, out=term)
        np.divide(m, 1 - self.beta1 ** self.t, out=step)
        np.multiply(step, self.lr, out=step)
        np.divide(step, term, out=step)
        return np.subtract(theta, step, out=out)


def make_optimizer(spec: str, lr: float):
    if spec == "sgd":
        return Sgd(lr)
    if spec == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer {spec!r}")


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0:
        return grad * (max_norm / norm)
    return grad
