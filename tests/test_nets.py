"""The network layer: one forward and backward pass, and Adam, each checked
bit for bit against the expressions they replaced."""

import numpy as np

from gamepop import nets
from gamepop.nets import ArchSignature

SIGNATURES = (ArchSignature(3, (), 2), ArchSignature(5, (7, 6), 4),
              ArchSignature(30, (32, 32), 9))


def _two_pass_gradient(sig, theta, x, grad_out):
    """The gradient as computed when the caller ran `nets.forward` first:
    the hidden activations recomputed from x, the output gradient given as
    an array."""
    layers = nets.unpack(sig, theta)
    acts = [np.atleast_2d(x)]
    h = acts[0]
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
        acts.append(h)
    grad = np.zeros_like(theta)
    slices = nets._slices(sig)
    delta = np.atleast_2d(grad_out)
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        w_sl, b_sl, _, _ = slices[i]
        grad[w_sl] = (delta.T @ acts[i]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W) * (acts[i] > 0.0)
    return grad


class _TextbookAdam:
    """Adam in its textbook expressions, each step allocating new moments."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, theta, grad):
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_forward_backward_is_forward_then_the_two_pass_gradient():
    """The outputs equal `forward`'s bit for bit, the output gradient is a
    function of exactly those outputs, and the gradient equals the two-pass
    form's bit for bit."""
    rng = np.random.default_rng(0)
    for sig in SIGNATURES:
        theta = rng.normal(0.0, 0.5, nets.theta_size(sig))
        for batch in (1, 17, 64):
            x = rng.normal(size=(batch, sig.input_dim))
            scale = rng.normal(size=(batch, sig.output_dim))
            seen = []

            def grad_out(outputs):
                seen.append(outputs.copy())
                return scale * outputs

            outputs, grad = nets.forward_backward(sig, theta, x, grad_out)
            want = nets.forward(sig, theta, x)
            assert outputs.tobytes() == want.tobytes()
            assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
            assert grad.tobytes() == _two_pass_gradient(
                sig, theta, x, scale * want).tobytes()


def test_adam_in_place_matches_the_textbook_expressions():
    """Fifty steps with gradients over six orders of magnitude: the same
    theta and moments bit for bit, the moments updated in their own arrays,
    and the caller's theta left as it was."""
    rng = np.random.default_rng(1)
    theta = rng.normal(size=300)
    ours, textbook = nets.Adam(5e-3), _TextbookAdam(5e-3)
    a, b = theta.copy(), theta.copy()
    for step in range(50):
        grad = rng.normal(size=theta.size) * 10.0 ** rng.integers(-3, 4)
        given, before = a, a.copy()
        a, b = ours.step(given, grad), textbook.step(b, grad)
        if step == 0:
            m, v = ours.m, ours.v
        assert ours.m is m and ours.v is v
        assert a.tobytes() == b.tobytes()
        assert ours.m.tobytes() == textbook.m.tobytes()
        assert ours.v.tobytes() == textbook.v.tobytes()
        assert given.tobytes() == before.tobytes()
