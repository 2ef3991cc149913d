"""Policy representations, parameter fusion, ensembles, and diagnostics.

Tabular and network policies read a decision point as an `InfosetView`,
one per infoset of the game's compiled tree (`gamepop.games.base.FlatTree`),
in one of two ways:

* ``action_probs(view)`` is the evaluation-time distribution used by exact
  evaluation, sampled episodes and meta-game payoffs. Parametric policies
  act greedily here (masked argmax over action values, lowest id on ties).
* ``dist_at(view)`` is the smooth reading used for ensembles, divergence
  diagnostics, and distillation targets. Parametric policies return the
  softmax of their legal action values at temperature 1; for tabular
  policies the two readings are one function.

Fusion averages flat parameter vectors with meta-strategy weights; the
tabular analog averages per-infoset action distributions. Every fusion and
ensemble is one `weighted_sum`. Policies are never changed after they are
built, so a population member can be handed out as is. A network policy's
`theta` is read-only, and so is every array `action_probs` returns; the
uniform and one-hot ones are shared, each with one shared CDF.

Exact evaluation and sampled play read a tabular or network policy through
its `Reading` of one player's infosets in a compiled tree, which asks
`action_probs` once per infoset the policy's own play reaches, when it is
made: exact passes stack its table, and sampled play draws from its CDFs
what `sample_action` would draw, with the same generator use.
`gamepop.games.base.draw` searches a CDF with `bisect`, probing as
``searchsorted`` does.
"""

from __future__ import annotations

import functools
import itertools
import json
import weakref

import numpy as np

from . import nets
from .games.base import (FlatTree, Game, InfosetView, checked_cdf, draw,
                         draw_index, sample_episode)
from .nets import ArchSignature

KL_FLOOR = 1e-9


class PolicyError(Exception):
    """Malformed policy construction or incompatible fusion inputs."""


# Each shared distribution and its CDF, by the distribution's id. The
# entry keeps the array alive, so its id never names another array.
_SHARED: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _shared(probs: np.ndarray) -> np.ndarray:
    """Make ``probs`` read-only and register it, with its CDF, as shared."""
    probs.flags.writeable = False
    cdf = checked_cdf(probs, len(probs))
    cdf.flags.writeable = False
    _SHARED[id(probs)] = (probs, cdf)
    return probs


def _shared_cdf(probs) -> np.ndarray | None:
    """The CDF of ``probs`` if it is a shared distribution, else None."""
    entry = _SHARED.get(id(probs))
    return None if entry is None else entry[1]


@functools.lru_cache(maxsize=None)
def _uniform(n: int) -> np.ndarray:
    """The shared read-only uniform distribution over n actions."""
    return _shared(np.full(n, 1.0 / n))


@functools.lru_cache(maxsize=None)
def _one_hot(n: int, index: int) -> np.ndarray:
    """The shared read-only length-n one-hot on `index`."""
    probs = np.zeros(n)
    probs[index] = 1.0
    return _shared(probs)


def _on_simplex(x: np.ndarray, below: float, off: float) -> bool:
    """Whether no entry of ``x`` is below ``-below`` and its sum is within
    ``off`` of 1; written so that a NaN anywhere fails."""
    return bool((x >= -below).all() and abs(x.sum() - 1.0) <= off)


@functools.lru_cache(maxsize=None)
def _positions(legal_actions: tuple[int, ...]) -> np.ndarray:
    """The index array of a legal-action tuple, built once per tuple."""
    return np.array(legal_actions, dtype=np.intp)


def greedy_index(q: np.ndarray, legal_actions: tuple[int, ...]) -> int:
    """Position in `legal_actions` of the largest action value in `q`
    (indexed by global action id); the lowest position on ties."""
    return int(q.take(_positions(legal_actions)).argmax())


class Reading:
    """A policy's `action_probs` at one player's infosets in a compiled
    tree, read once, when the reading is made, at each infoset its own play
    reaches: from the root, every child of a chance or opponent node is
    reached, and a child of its player's node if the row's entry for that
    action is nonzero. Row i of ``rows`` (infosets x actions, zero past the
    legal actions and at infosets not reached) holds it at infoset i;
    ``entries`` holds the rows one after another, then 1.0, the entry that
    `PlayerLevel.move` gives a node that no move of the player leads into,
    which only the reading's own walk below reads (exact passes read
    `own_reach`).
    ``cdfs[i]`` is the CDF draws there use: a shared distribution's CDF,
    else the row's `checked_cdf`, made on its first draw. Made without a
    policy, every row is zero for the caller to write. It refers to its
    tree weakly, and to no policy or view."""
    __slots__ = ("tree", "player", "entries", "rows", "cdfs", "reach")

    def __init__(self, tree: FlatTree, player: int, policy=None):
        infosets = tree.infosets[player]
        actions = infosets.num_actions
        self.tree = weakref.ref(tree)
        self.player = player
        self.entries = np.zeros(len(actions) * infosets.width + 1)
        self.entries[-1] = 1.0
        self.rows = self.entries[:-1].reshape(len(actions), infosets.width)
        self.cdfs: list[np.ndarray | None] = [None] * len(actions)
        self.reach = None
        if policy is None:
            return
        reached = np.ones(1, bool)
        for level in tree.plan:
            mine = level.players[player]
            # Sorted without np.unique, which imports numpy.ma.
            for i in sorted(set(mine.infoset[reached[mine.nodes]].tolist())):
                probs = policy.action_probs(infosets.views[i])
                self.rows[i, :len(probs)] = probs
                self.cdfs[i] = _shared_cdf(probs)
            reached = reached[level.up]
            if len(mine.move):
                reached &= self.entries[mine.move] != 0

    def own_reach(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The policy's own reach, as its realization plan: the row of legal
        move ``i * width + a`` (`PlayerLevel.move`, `LastMoves.legal`) is
        1.0 times its rows' entries along its own moves to infoset i and
        then action a, and the last row, 1.0, its reach before its first
        move. Every exact pass reads a member's reach from these products;
        a side weighed by a meta-strategy multiplies them by the member's
        weight last. Made from the rows on the first call, read-only and
        kept.

        Returns ``(entries, values)``: the rows that are not +0.0 and
        their values, or None for values if each is 1.0, as a deterministic
        policy's are."""
        if self.reach is None:
            tree = self.tree()
            moves = tree.last_moves[self.player]
            plan = np.empty(self.rows.size + 1)
            plan[-1] = 1.0
            table = plan[:-1].reshape(self.rows.shape)
            for level in tree.plan:
                firsts = level.players[self.player].firsts
                table[firsts] = (plan[moves.before[firsts]][:, None]
                                 * self.rows[firsts])
            plan = plan[moves.legal]
            entries = np.flatnonzero((plan != 0.0) | np.signbit(plan))
            values = plan[entries]
            if (values == 1.0).all():
                values = None
            else:
                values.flags.writeable = False
            entries = entries.astype(np.min_scalar_type(plan.size))
            entries.flags.writeable = False
            self.reach = (entries, values)
        return self.reach

    def draw(self, view: InfosetView, rng: np.random.Generator) -> int:
        """The legal action ``sample_action(policy.action_probs(view),
        view.legal_actions, rng)`` draws, leaving ``rng`` as it would, at a
        view its policy's own play reaches."""
        i, width = view.index, len(view.legal_actions)
        if self.cdfs[i] is None:
            self.cdfs[i] = checked_cdf(self.rows[i, :width], width)
        return view.legal_actions[draw(self.cdfs[i], rng)]


class _Read:
    """`reading` for a policy whose `action_probs` never changes; the policy
    sets ``self._readings = [None, None]``."""

    def reading(self, tree: FlatTree, player: int) -> Reading:
        """This policy's `Reading` of ``player``'s infosets in ``tree``. A
        policy keeps one per player: a call for another tree replaces it
        with one read on that tree."""
        reading = self._readings[player]
        if reading is None or reading.tree() is not tree:
            reading = self._readings[player] = Reading(tree, player, self)
        return reading


class TabularPolicy(_Read):
    """Map from infoset key to an action distribution; unseen keys are
    uniform over the legal actions. Every distribution it hands out is
    read-only: stored ones are read-only views of the given arrays, and the
    uniform default is shared. A shared uniform or one-hot distribution
    (as `_one_hot` makes) is valid and read-only by construction, so it is
    stored as is, unchecked."""

    def __init__(self, table: dict[str, np.ndarray] | None = None):
        self.table = {}
        self._readings = [None, None]
        for key, dist in (table or {}).items():
            if _shared_cdf(dist) is None:
                dist = np.asarray(dist, dtype=float).view()
                if dist.ndim != 1 or not _on_simplex(dist, 1e-12, 1e-9):
                    raise PolicyError(f"invalid distribution at {key!r}")
                dist.flags.writeable = False
            self.table[key] = dist

    @classmethod
    def greedy(cls, keys, counts, actions) -> "TabularPolicy":
        """The deterministic policy that plays, at the i-th of ``keys``,
        action position ``actions[i]`` of its ``counts[i]`` legal actions:
        each entry is the shared `_one_hot` itself, stored with no lookup."""
        policy = cls()
        policy.table = dict(zip(keys, map(_one_hot, counts, actions)))
        return policy

    def action_probs(self, view: InfosetView) -> np.ndarray:
        return self.dist_for_key(view.key, len(view.legal_actions))

    dist_at = action_probs

    def dist_for_key(self, key: str, num_legal: int) -> np.ndarray:
        dist = self.table.get(key)
        if dist is None:
            return _uniform(num_legal)
        if len(dist) != num_legal:
            raise PolicyError(
                f"stored distribution at {key!r} has length {len(dist)}, "
                f"state has {num_legal} legal actions")
        return dist


class ParametricPolicy(_Read):
    """Action-value network over infoset features, stored as a flat theta."""

    def __init__(self, signature: ArchSignature, theta: np.ndarray):
        theta = np.array(theta, dtype=float)  # a copy, made read-only below
        if theta.shape != (nets.theta_size(signature),):
            raise PolicyError(
                f"theta has {theta.size} entries, signature needs "
                f"{nets.theta_size(signature)}")
        if not np.all(np.isfinite(theta)):
            raise PolicyError("theta entries must be finite")
        self.signature = signature
        theta.flags.writeable = False
        self.theta = theta
        self._readings = [None, None]

    def q_values(self, features: np.ndarray) -> np.ndarray:
        return nets.forward(self.signature, self.theta, features)

    def greedy_action_index(self, features: np.ndarray, legal_actions) -> int:
        return greedy_index(self.q_values(features), legal_actions)

    def action_probs(self, view: InfosetView) -> np.ndarray:
        """Read-only one-hot on the greedy action: one forward per call."""
        legal = view.legal_actions
        return _one_hot(len(legal),
                        self.greedy_action_index(view.features, legal))

    def dist_at(self, view: InfosetView) -> np.ndarray:
        legal_q = self.q_values(view.features)[list(view.legal_actions)]
        legal_q -= legal_q.max()
        e = np.exp(legal_q)
        return e / e.sum()


class PointPolicy:
    """A point in the plane for the continuous mixture game."""

    def __init__(self, x, plane_bound: float | None = None):
        x = np.asarray(x, dtype=float)
        if x.shape != (2,) or not np.all(np.isfinite(x)):
            raise PolicyError("point policy needs a finite 2D coordinate")
        if plane_bound is not None and np.any(np.abs(x) > plane_bound + 1e-12):
            raise PolicyError("point outside the plane bound")
        self.x = x


class PolicyMixture:
    """A probability mixture over population members."""

    def __init__(self, members, weights):
        members = list(members)
        weights = np.asarray(weights, dtype=float)
        if not members:
            raise PolicyError("mixture needs at least one member")
        if weights.shape != (len(members),):
            raise PolicyError("weights length must match members")
        if not _on_simplex(weights, 1e-9, 1e-9):
            raise PolicyError("weights must form a probability simplex")
        self.members = members
        self.weights = weights


def sample_member(policy_or_mixture, rng: np.random.Generator):
    """One member drawn by mixture weight, as ``rng.choice(len(members),
    p=weights)`` draws it (see `draw_index`); a plain policy is returned as
    is, without a draw."""
    members = getattr(policy_or_mixture, "members", None)
    if members is None:
        return policy_or_mixture
    return members[draw_index(policy_or_mixture.weights, rng)]


def weighted_sum(weights, members, value):
    """sum_i w_i * value(m_i), added left to right from 0.0.

    Zero-weight members are skipped without evaluating `value`, so a one-hot
    weight copies its member's value bit-exactly.
    """
    total = 0.0
    for w, member in zip(weights, members):
        if w != 0.0:
            total = total + w * value(member)
    return total


def _fusion_inputs(members, weights, tol: float = 1e-6):
    """The members as a non-empty list and the weights as a simplex array
    of matching length."""
    members = list(members)
    if not members:
        raise PolicyError("cannot fuse an empty population")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(members),):
        raise PolicyError(f"expected {len(members)} weights, "
                          f"got {weights.shape}")
    if not _on_simplex(weights, tol, tol):
        raise PolicyError("fusion weights must form a probability simplex")
    return members, weights


def fuse_parameters(policies, weights) -> ParametricPolicy:
    """Weighted average of parameter vectors: theta = sum_i w_i theta_i."""
    policies, weights = _fusion_inputs(policies, weights)
    signature = policies[0].signature
    for p in policies[1:]:
        if p.signature != signature:
            raise PolicyError("cannot fuse policies with different signatures")
    return ParametricPolicy(signature,
                            weighted_sum(weights, policies, lambda p: p.theta))


def fuse_points(points, weights, plane_bound: float | None = None) -> PointPolicy:
    """Weighted average of plane coordinates."""
    points, weights = _fusion_inputs(points, weights)
    return PointPolicy(weighted_sum(weights, points, lambda p: p.x),
                       plane_bound)


def fuse_tabular(policies, weights) -> TabularPolicy:
    """Per-infoset weighted average over the union of stored keys.

    Members without a key contribute their uniform default there.
    """
    policies, weights = _fusion_inputs(policies, weights)
    lengths: dict[str, int] = {}
    for p in policies:
        for key, dist in p.table.items():
            if lengths.setdefault(key, len(dist)) != len(dist):
                raise PolicyError(f"members disagree on legal count at {key!r}")
    table = {}
    for key, n in lengths.items():
        dist = weighted_sum(weights, policies,
                            lambda p: p.dist_for_key(key, n))
        table[key] = dist / dist.sum()
    return TabularPolicy(table)


def scratch_init(kind: str, signature: ArchSignature, seed: int) -> ParametricPolicy:
    """Fresh parameters: `normal` N(0, 0.01), `orthogonal` weight matrices
    with orthonormal rows or columns (gain 1, zero biases), or `kaiming`
    N(0, 2/fan_in) with zero biases. Deterministic given seed."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(nets.theta_size(signature))
    if kind == "normal":
        theta = rng.normal(0.0, 0.1, size=theta.size)
    elif kind == "kaiming":
        offset = 0
        for r, c in nets.layer_shapes(signature):
            theta[offset:offset + r * c] = rng.normal(
                0.0, np.sqrt(2.0 / c), size=r * c)
            offset += r * c + r
    elif kind == "orthogonal":
        offset = 0
        for r, c in nets.layer_shapes(signature):
            a = rng.normal(size=(max(r, c), min(r, c)))
            q, rd = np.linalg.qr(a)
            q = q * np.sign(np.diag(rd))  # fix signs for a unique factor
            w = q.T if r <= c else q
            theta[offset:offset + r * c] = w.ravel()
            offset += r * c + r
    else:
        raise PolicyError(f"unknown scratch init kind {kind!r}")
    return ParametricPolicy(signature, theta)


def ensemble_distribution(mixture: PolicyMixture, view: InfosetView) -> np.ndarray:
    """Mixture-weighted average of member action distributions at a state."""
    dist = weighted_sum(mixture.weights, mixture.members,
                        lambda member: member.dist_at(view))
    return dist / dist.sum()


def floored(dist: np.ndarray, floor: float = KL_FLOOR) -> np.ndarray:
    d = np.maximum(np.asarray(dist, dtype=float), floor)
    return d / d.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with q floored so greedy q stays finite."""
    q = floored(q)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def sample_infoset_views(mixture: PolicyMixture, game: Game, player: int,
                         num_states: int,
                         seed: int) -> dict[InfosetView, np.ndarray]:
    """Distinct infosets of `player` visited by the mixture ensemble playing
    against a uniform opponent, in first-visit order, each mapped to the
    ensemble's distribution there. The rollouts compute that distribution
    and its CDF once per view they meet and draw every visit from the CDF,
    as `sample_action` would from the distribution.

    Stops early once rollouts keep revisiting known infosets, so small games
    return their full reachable set quickly.
    """
    rng = np.random.default_rng(seed)
    # Every view the rollouts meet, in first-visit order; the first
    # num_states are the sample.
    dists: dict[InfosetView, np.ndarray] = {}
    cdfs: dict[InfosetView, np.ndarray] = {}

    def choose(current, view):
        legal = view.legal_actions
        if current != player:
            return legal[draw(_shared_cdf(_uniform(len(legal))), rng)]
        cdf = cdfs.get(view)
        if cdf is None:
            dists[view] = ensemble_distribution(mixture, view)
            cdf = cdfs[view] = checked_cdf(dists[view], len(legal))
        return legal[draw(cdf, rng)]

    episodes = since_new = 0
    patience = max(20, num_states // 2)
    cap = max(50, 10 * num_states)
    while len(dists) < num_states and episodes < cap and since_new <= patience:
        episodes += 1
        known = len(dists)
        sample_episode(game, choose, rng)
        since_new = 0 if len(dists) > known else since_new + 1
    return dict(itertools.islice(dists.items(), num_states))


def kl_to_ensemble(candidates, mixture: PolicyMixture, game: Game,
                   num_states: int = 512, seed: int = 0,
                   player: int = 0) -> list[float]:
    """Mean KL(ensemble || candidate) over sampled infosets, per candidate
    in ``candidates``; the infosets and the ensemble's distributions there
    are computed once for all of them.

    The ensemble direction is used so any state mass the mixture cares about
    must be covered by the candidate; the candidate distribution is floored
    at 1e-9 and renormalized to keep the divergence finite against greedy
    candidates.
    """
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    targets = sample_infoset_views(mixture, game, player, num_states, seed)
    if not targets:
        return [0.0] * len(candidates)
    means = []
    for candidate in candidates:
        total = 0.0
        for view, p in targets.items():
            total += kl_divergence(p, candidate.dist_at(view))
        means.append(total / len(targets))
    return means


def distill(mixture: PolicyMixture, student_signature: ArchSignature,
            game: Game, epochs: int, samples_per_epoch: int, lr: float,
            seed: int, player: int = 0) -> ParametricPolicy:
    """Train a student network on ensemble action distributions.

    Each epoch samples infosets like kl_to_ensemble and takes one gradient
    step on the mean cross-entropy between the ensemble target and the
    student's legal-action softmax.
    """
    if epochs < 0 or samples_per_epoch < 1 or lr <= 0:
        raise ValueError("epochs >= 0, samples_per_epoch >= 1, lr > 0 required")
    student = scratch_init("normal", student_signature, seed)
    if epochs == 0:
        return student
    theta = student.theta.copy()
    optimizer = nets.Sgd(lr)
    features = game.tree.infosets[player].features
    for epoch in range(epochs):
        targets = sample_infoset_views(mixture, game, player,
                                       samples_per_epoch, seed + 1 + epoch)
        if not targets:
            continue
        X = features.take([view.index for view in targets], 0)

        def cross_entropy_gradient(Q):
            grad_out = np.zeros_like(Q)
            loss = 0.0
            for i, (view, target) in enumerate(targets.items()):
                legal = list(view.legal_actions)
                logits = Q[i, legal] - Q[i, legal].max()
                soft = np.exp(logits)
                soft /= soft.sum()
                loss -= float(target @ np.log(np.maximum(soft, 1e-300)))
                grad_out[i, legal] = (soft - target) / len(targets)
            if not np.isfinite(loss):
                raise PolicyError("distillation loss diverged; lower the lr")
            return grad_out

        _, grad = nets.forward_backward(student_signature, theta, X,
                                        cross_entropy_gradient)
        theta = optimizer.step(theta, grad)
    return ParametricPolicy(student_signature, theta)


# Checkpoint format: JSON object with exactly the fields input_dim,
# hidden_layers, output_dim, activation, theta. Floats are written with
# repr precision so a round-trip is bit-exact; ``tolist`` gives the same
# Python floats as ``float`` of each entry, in one call.

def checkpoint_dumps(policy) -> str:
    if isinstance(policy, ParametricPolicy):
        sig = policy.signature
        payload = {
            "input_dim": sig.input_dim,
            "hidden_layers": list(sig.hidden_layers),
            "output_dim": sig.output_dim,
            "activation": sig.activation,
            "theta": policy.theta.tolist(),
        }
    elif isinstance(policy, TabularPolicy):
        payload = {"table": {k: v.tolist()
                             for k, v in sorted(policy.table.items())}}
    elif isinstance(policy, PointPolicy):
        payload = {"x": policy.x.tolist()}
    else:
        raise PolicyError(f"cannot checkpoint {type(policy).__name__}")
    return json.dumps(payload, separators=(",", ":"))


def checkpoint_loads(text: str):
    """The policy a `checkpoint_dumps` text holds; PolicyError for a text
    that holds none."""
    try:
        payload = json.loads(text)
        if "theta" in payload:
            sig = ArchSignature(payload["input_dim"],
                                tuple(payload["hidden_layers"]),
                                payload["output_dim"], payload["activation"])
            return ParametricPolicy(sig, np.array(payload["theta"],
                                                  dtype=float))
        if "table" in payload:
            return TabularPolicy({k: np.array(v, dtype=float)
                                  for k, v in payload["table"].items()})
        if "x" in payload:
            return PointPolicy(payload["x"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PolicyError(f"malformed checkpoint: {exc!r}") from exc
    raise PolicyError("unrecognized checkpoint payload")
