"""Flat-parameter MLP with manual backprop, plus SGD/Adam optimizers.

Parameters live in a single flat float64 vector so whole policies can be
averaged, checkpointed, and compared bit-for-bit. Layout per layer: weight
matrix (row-major), then bias.
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


def forward(sig: ArchSignature, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched forward pass; x is (B, input_dim) or (input_dim,)."""
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    layers = unpack(sig, theta)
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
    W, b = layers[-1]
    out = h @ W.T + b
    return out[0] if squeeze else out


def forward_backward(sig: ArchSignature, theta: np.ndarray, x: np.ndarray,
                     grad_out) -> tuple[np.ndarray, np.ndarray]:
    """One forward and one backward pass over the batch ``x`` (B,
    input_dim).

    ``grad_out(outputs)`` maps the (B, output_dim) outputs to the gradient
    of the loss with respect to them. Returns ``(outputs, grad)``: the
    outputs, equal bit for bit to ``forward(sig, theta, x)``, and the
    gradient with respect to theta, in theta's flat layout.
    """
    layers = unpack(sig, theta)
    acts = [np.atleast_2d(x)]
    h = acts[0]
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
        acts.append(h)
    W, b = layers[-1]
    out = h @ W.T + b
    grad = np.zeros_like(theta)
    slices = _slices(sig)
    delta = np.atleast_2d(grad_out(out))
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        w_sl, b_sl, r, c = slices[i]
        grad[w_sl] = (delta.T @ acts[i]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W) * (acts[i] > 0.0)
    return out, grad


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return theta - self.lr * grad


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

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """``theta - lr * m_hat / (sqrt(v_hat) + eps)`` with the moments
        updated in place, each in the same elementwise operations, in the
        same order, as the textbook expressions."""
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self._scratch = (np.empty_like(theta), np.empty_like(theta))
        self.t += 1
        m, v = self.m, self.v
        term, step = self._scratch
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(grad, 1 - self.beta1, out=term)
        m *= self.beta1
        m += term
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(grad, 1 - self.beta2, out=term)
        term *= grad
        v *= self.beta2
        v += term
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - self.beta2 ** self.t, out=term)
        np.sqrt(term, out=term)
        term += self.eps
        np.divide(m, 1 - self.beta1 ** self.t, out=step)
        step *= self.lr
        step /= term
        return theta - step


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
