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


def _layerwise_forward(sig, theta, x):
    """The forward pass over fresh `nets.unpack` views, allocating every
    intermediate."""
    layers = nets.unpack(sig, theta)
    h = np.atleast_2d(x)
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
    W, b = layers[-1]
    return h @ W.T + b


def test_returned_arrays_survive_later_calls():
    """Outputs and gradients are fresh arrays: calls at other batch sizes
    and signatures, and at the same ones, never write into them."""
    rng = np.random.default_rng(2)
    thetas = {sig: rng.normal(size=nets.theta_size(sig)) for sig in SIGNATURES}
    kept = []
    for _ in range(3):
        for sig in SIGNATURES:
            for batch in (1, 5, 64):
                x = rng.normal(size=(batch, sig.input_dim))
                out = nets.forward(sig, thetas[sig], x)
                single = nets.forward(sig, thetas[sig], x[0])
                both = nets.forward_backward(sig, thetas[sig], x,
                                             lambda q: q * 0.5)
                kept.extend((a, a.copy()) for a in (out, single, *both))
    for array, snapshot in kept:
        assert array.tobytes() == snapshot.tobytes()


def test_a_reused_theta_id_never_gets_old_views():
    """Thetas allocated and freed in a loop, each with its own values, so
    ids of freed thetas come back: every forward reads the theta it is
    given. A theta written in place is read as it is now."""
    sig = SIGNATURES[1]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, sig.input_dim))
    ids = set()
    for step in range(60):
        theta = np.full(nets.theta_size(sig), 0.01 * step)
        ids.add(id(theta))
        assert nets.forward(sig, theta, x).tobytes() == _layerwise_forward(
            sig, theta, x).tobytes()
        theta[:] = rng.normal(size=theta.size)
        assert nets.forward(sig, theta, x).tobytes() == _layerwise_forward(
            sig, theta, x).tobytes()
        del theta
    assert len(ids) < 60  # the loop did hand out a freed id again


def test_optimizer_steps_in_place_match_fresh_ones():
    """``step(theta, grad, out=theta)`` writes into theta what
    ``step(theta, grad)`` returns, for SGD and Adam."""
    rng = np.random.default_rng(5)
    for kind in ("sgd", "adam"):
        fresh, in_place = (nets.make_optimizer(kind, 1e-2) for _ in range(2))
        a = rng.normal(size=50)
        b = a.copy()
        for _ in range(20):
            grad = rng.normal(size=a.size)
            a = fresh.step(a, grad)
            assert in_place.step(b, grad, out=b) is b
            assert a.tobytes() == b.tobytes()


def test_scratch_buffers_are_reused():
    """A second call at the same signature and batch runs in the buffers
    of the first, for `forward` and for `forward_backward`."""
    sig = SIGNATURES[2]
    rng = np.random.default_rng(6)
    theta = rng.normal(size=nets.theta_size(sig))
    x = rng.normal(size=(7, sig.input_dim))

    def calls():
        nets.forward_backward(sig, theta, x, lambda q: q)
        nets.forward(sig, theta, x)

    calls()
    kept = dict(nets._SCRATCH)
    calls()
    assert len(kept) >= 2
    assert all(nets._SCRATCH[key] is entry for key, entry in kept.items())
