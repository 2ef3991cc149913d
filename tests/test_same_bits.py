"""The sampling and DQN hot loop and the exact passes against verbatim
copies of the code they replaced: the same bytes out and the same
generator state afterwards.

The `_ref_*` functions below are the implementations of `games.base.draw`,
`draw_index`, `sample_episode`, `nets.forward`, `nets.forward_backward`,
`policies.greedy_index` and `oracles.dqn_oracle` (with the
`run_learner_episode` and `sample_member` it calls) as they were before
episodes walked per-tree Python lists, draws used `bisect` and the networks
wrote into reused buffers; and of the reach of `games.evaluate` as it
was before members kept their tables and the passes read a per-tree plan
(`_ref_descend`). They call the current code only where that code kept its
arithmetic: the tree's arrays and `chance_cdfs`, `nets.unpack`,
`nets._slices`, the optimizers (checked in `tests/test_nets.py`),
`checked_cdf`, `psd_intrinsic_reward`, `evaluate._as_members` and the
policies' `action_probs`.

The exact passes add terminals up in sequence form (`FlatTree.sequence_form`).
`_ref_value` and `_ref_infoset_pass` are no earlier code but loops written
for these tests in that order, over terminals and infosets one at a time,
so that the array passes are checked against something other than
themselves; they read each terminal's last moves from
`FlatTree.last_moves` and find each infoset's parent row by walking up the
tree.

The exact passes weigh each member's own reach last, times its weight,
where the earlier descent started each member's products at its
weight. `_ref_reach` gives the reach in the new order, each member
descended alone from 1.0 by `_ref_descend`; `_old_reach` keeps the earlier
order, one joint descent from the weights, against which pure members keep
every bit and mixed ones agree to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepop import nets
from gamepop.games import (GAMES, best_response, expected_value,
                           exploitability, make_game)
from gamepop.games.base import (CHANCE, TERMINAL, checked_cdf, draw,
                                draw_index, sample_episode)
from gamepop.games.evaluate import _as_members, _best_moves, _reach
from gamepop.nets import ArchSignature
from gamepop.oracles import (DqnOracle, PsdBonus, Step, dqn_oracle,
                             psd_intrinsic_reward)
from gamepop.policies import (ParametricPolicy, PolicyMixture, TabularPolicy,
                              _one_hot, greedy_index, sample_member,
                              scratch_init)

# Every shipped tree game, at sizes a test can sample many episodes of.
TREE_GAMES = [
    ("kuhn_poker", {}),
    ("leduc_poker", {}),
    ("liars_dice", {"faces": 3}),
    ("goofspiel", {"num_cards": 4}),
    ("matrix_game", {"rows": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]}),
]
# Each case's ID, fixed per entry so that adding or deleting a game renames
# no other case. They are the IDs these cases had when pytest numbered them
# by position, kept so that no case was renamed when they were fixed.
TREE_GAME_IDS = ["0", "1", "2", "3", "4"]


def test_every_shipped_tree_game_is_covered():
    assert sorted(name for name, _ in TREE_GAMES) == sorted(
        name for name in GAMES if name != "ntmg")


# -- verbatim references -----------------------------------------------------

def _ref_cumulative(weights):
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _ref_draw(cdf, rng):
    return cdf.searchsorted(rng.random(), side="right")


def _ref_draw_index(weights, rng):
    return _ref_draw(_ref_cumulative(weights), rng)


def _ref_sample_action(probs, actions, rng):
    return actions[_ref_draw(checked_cdf(probs, len(actions)), rng)]


def _ref_sample_episode(game, choose, rng):
    tree = game.tree
    owner, first, chance_cdf = tree.owner, tree.first, tree.chance_cdfs()
    node = 0
    while (player := int(owner[node])) != TERMINAL:
        a, b = first[node], first[node + 1]
        if player == CHANCE:
            node = a + _ref_draw(chance_cdf[a:b], rng)
        else:
            view = tree.infosets[player].views[tree.infoset[node]]
            node = a + view.legal_actions.index(choose(player, view))
    return tuple(tree.utility[tree.row[node]].tolist())


def _ref_policy_draw(policy, view, rng):
    """What a policy's memoized ``draw`` promises to draw."""
    return _ref_sample_action(policy.action_probs(view), view.legal_actions,
                              rng)


def _ref_sample_member(policy_or_mixture, rng):
    members = getattr(policy_or_mixture, "members", None)
    if members is None:
        return policy_or_mixture
    return members[_ref_draw_index(policy_or_mixture.weights, rng)]


def _ref_forward(sig, theta, x):
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    layers = nets.unpack(sig, theta)
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
    W, b = layers[-1]
    out = h @ W.T + b
    return out[0] if squeeze else out


def _ref_forward_backward(sig, theta, x, grad_out):
    layers = nets.unpack(sig, theta)
    acts = [np.atleast_2d(x)]
    h = acts[0]
    for W, b in layers[:-1]:
        h = np.maximum(h @ W.T + b, 0.0)
        acts.append(h)
    W, b = layers[-1]
    out = h @ W.T + b
    grad = np.zeros_like(theta)
    slices = nets._slices(sig)
    delta = np.atleast_2d(grad_out(out))
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        w_sl, b_sl, r, c = slices[i]
        grad[w_sl] = (delta.T @ acts[i]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W) * (acts[i] > 0.0)
    return out, grad


def _ref_greedy_index(q, legal_actions):
    return int(np.argmax(q[list(legal_actions)]))


def _ref_run_learner_episode(game, player, select, opponent, rng):
    pending = None
    steps = []

    def choose(current, view):
        nonlocal pending
        if current != player:
            return _ref_policy_draw(opponent, view, rng)
        action = select(view)
        assert action in view.legal_actions, "oracle chose an illegal action"
        if pending is not None:
            steps.append(Step(pending[0], pending[1], 0.0, view))
        pending = (view, action)
        return action

    reward = _ref_sample_episode(game, choose, rng)[player]
    if pending is not None:
        steps.append(Step(pending[0], pending[1], reward, None))
    return steps, reward


class _RefNetwork(ParametricPolicy):
    """A network policy whose action values come from `_ref_forward`."""

    def q_values(self, features):
        return _ref_forward(self.signature, self.theta, features)


def _ref_dqn_oracle(game, init, opponent_mixture, player, cfg, seed=0,
                    psd=None):
    if init.signature.input_dim != game.encoding_dim():
        raise ValueError("init signature does not match the game encoder")
    if init.signature.output_dim != game.num_distinct_actions():
        raise ValueError("init signature does not match the action space")
    if cfg.episodes == 0:
        return init, []
    rng = np.random.default_rng(seed)
    sig = init.signature
    theta = init.theta.copy()
    target_theta = theta.copy()
    optimizer = nets.make_optimizer(cfg.optimizer, cfg.lr)

    dim = game.encoding_dim()
    n_actions = game.num_distinct_actions()
    replay_x = np.zeros((cfg.replay_capacity, dim))
    replay_next = np.zeros((cfg.replay_capacity, dim))
    replay_action = np.zeros(cfg.replay_capacity, dtype=int)
    replay_reward = np.zeros(cfg.replay_capacity)
    replay_next_mask = np.zeros((cfg.replay_capacity, n_actions), dtype=bool)
    size, cursor, learner_steps = 0, 0, 0

    def select(view):
        if rng.random() < cfg.epsilon:
            return view.legal_actions[rng.integers(len(view.legal_actions))]
        q = _ref_forward(sig, theta, view.features)
        return view.legal_actions[_ref_greedy_index(q, view.legal_actions)]

    rows = np.arange(cfg.batch_size)

    def learn_step():
        nonlocal theta, target_theta, learner_steps
        batch = rng.integers(size, size=cfg.batch_size)
        actions, next_mask = replay_action[batch], replay_next_mask[batch]
        q_next = _ref_forward(sig, target_theta, replay_next[batch])
        q_next = np.where(next_mask, q_next, -np.inf)
        best_next = np.where(next_mask.any(axis=1), q_next.max(axis=1), 0.0)
        # A terminal step has an empty next mask, so its best_next is 0.0.
        targets = replay_reward[batch] + cfg.gamma_discount * best_next

        def td_gradient(q_all):
            td = q_all[rows, actions] - targets
            # The mean squared TD error is finite when its sum is.
            if not math.isfinite(td @ td):
                raise FloatingPointError("TD loss diverged; lower the lr")
            grad_out = np.zeros_like(q_all)
            grad_out[rows, actions] = 2.0 * td / len(batch)
            return grad_out

        _, grad = _ref_forward_backward(sig, theta, replay_x[batch],
                                        td_gradient)
        if cfg.grad_clip is not None:
            grad = nets.clip_grad_norm(grad, cfg.grad_clip)
        theta = optimizer.step(theta, grad)
        learner_steps += 1
        if cfg.soft_update_tau is not None:
            tau = cfg.soft_update_tau
            target_theta = (1.0 - tau) * target_theta + tau * theta
        elif learner_steps % cfg.target_update_every == 0:
            target_theta = theta.copy()

    masks = {}  # legal mask per next view

    def legal_mask(view):
        mask = masks.get(view)
        if mask is None:
            mask = masks[view] = np.zeros(n_actions, dtype=bool)
            mask[list(view.legal_actions)] = True
        return mask

    curve = []
    window = []
    for episode in range(cfg.episodes):
        opponent = _ref_sample_member(opponent_mixture, rng)
        steps, reward = _ref_run_learner_episode(game, player, select,
                                                 opponent, rng)
        rewards = np.array([s.reward for s in steps])
        if psd is not None:
            rewards = psd_intrinsic_reward(
                steps, _RefNetwork(sig, theta), psd.hull_samples,
                psd.lam, cfg.gamma_discount)
        for step, r in zip(steps, rewards):
            replay_x[cursor] = step.view.features
            replay_action[cursor] = step.action
            replay_reward[cursor] = r
            if step.next_view is not None:
                replay_next[cursor] = step.next_view.features
                replay_next_mask[cursor] = legal_mask(step.next_view)
            else:
                replay_next[cursor] = 0.0
                replay_next_mask[cursor] = False
            cursor = (cursor + 1) % cfg.replay_capacity
            size = min(size + 1, cfg.replay_capacity)
            if size >= cfg.batch_size:
                learn_step()
        window.append(reward)
        if len(window) > 100:
            window.pop(0)
        curve.append((episode + 1, float(np.mean(window))))
    return ParametricPolicy(sig, theta), curve


# -- draws -------------------------------------------------------------------

_VALUES = st.floats(allow_nan=False, width=64)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=40),
       hits=st.lists(st.integers(0, 40), max_size=6),
       sort=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_draw_probes_as_searchsorted(values, hits, sort, seed):
    """Any array without NaN, sorted or not, with ties and infinities, and
    holding some of the very numbers the generator is about to draw: the
    same index (as a Python int) and the same generator state."""
    coming = np.random.default_rng(seed).random(3).tolist()
    for k, at in enumerate(hits):
        values.insert(at, coming[k % 3])
    cdf = np.array(sorted(values) if sort else values)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = draw(cdf, ours)
        assert type(got) is int and got == _ref_draw(cdf, theirs)
        assert draw(tuple(cdf.tolist()), ours) == _ref_draw(cdf, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(derandomize=True, max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20).filter(
           lambda w: sum(w) > 0.0),
       seed=st.integers(0, 2**32 - 1))
def test_draw_index_matches_reference(weights, seed):
    weights = np.array(weights)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert draw_index(weights, ours) == _ref_draw_index(weights, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


# -- sampled episodes --------------------------------------------------------

_GAMES = {}


def _game(index):
    """Each shipped tree game, built once for the whole module."""
    if index not in _GAMES:
        name, params = TREE_GAMES[index]
        _GAMES[index] = make_game(name, dict(params))
    return _GAMES[index]


def _tabular(tree, rng, shared):
    """A random tabular policy over every infoset: sparse distributions, or
    the shared one-hot arrays of `_one_hot`."""
    table = {}
    for infosets in tree.infosets:
        for view in infosets.views:
            n = len(view.legal_actions)
            if shared:
                table[view.key] = _one_hot(n, int(rng.integers(n)))
            else:
                dist = rng.random(n) * (rng.random(n) < 0.5)
                dist[rng.integers(n)] += 0.1
                table[view.key] = dist / dist.sum()
    return TabularPolicy(table)


def _policy(kind, game, rng):
    if kind == "network":
        sig = ArchSignature(game.encoding_dim(), (6,),
                            game.num_distinct_actions())
        return scratch_init("normal", sig, int(rng.integers(1000)))
    if kind == "mixture":
        members = [_policy(k, game, rng)
                   for k in ("tabular", "network", "shared", "network")]
        weights = rng.random(len(members)) * (rng.random(len(members)) < 0.7)
        weights[rng.integers(len(members))] += 0.2
        return PolicyMixture(members, weights / weights.sum())
    return _tabular(game.tree, rng, shared=kind == "shared")


_KINDS = st.sampled_from(["tabular", "network", "mixture", "shared"])


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(kinds=st.tuples(_KINDS, _KINDS), seed=st.integers(0, 2**32 - 1),
       episodes=st.integers(1, 60))
def test_sampled_episodes_match_reference(index, kinds, seed, episodes):
    """Episodes drawn from each policy's readings (mixtures drawing a
    member per episode) return the same Python floats, ask the same
    decisions and leave the generator as the reference does."""
    game = _game(index)
    rng = np.random.default_rng(seed)
    policies = [_policy(kind, game, rng) for kind in kinds]

    def reading_draw(policy, view, rng):
        # The view's player: the tree holds one view per (player, key).
        player = int(game.tree.views.get((1, view.key)) is view)
        return policy.reading(game.tree, player).draw(view, rng)

    runs = []
    for episode, member, policy_draw in (
            (sample_episode, sample_member, reading_draw),
            (_ref_sample_episode, _ref_sample_member, _ref_policy_draw)):
        rng = np.random.default_rng(seed)
        asked, returns = [], []
        for _ in range(episodes):
            players = [member(p, rng) for p in policies]

            def choose(player, view):
                asked.append((player, view.key))
                return policy_draw(players[player], view, rng)

            returns.append(episode(game, choose, rng))
        runs.append((returns, asked, rng.bit_generator.state))
    (got, got_asked, got_state), (want, want_asked, want_state) = runs
    assert all(type(v) is float for r in got for v in r)
    assert got == want and got_asked == want_asked and got_state == want_state


# -- networks ----------------------------------------------------------------

_SIGNATURES = st.builds(
    ArchSignature, st.integers(1, 6),
    st.lists(st.integers(1, 7), max_size=3).map(tuple), st.integers(1, 5))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(calls=st.lists(st.tuples(_SIGNATURES, st.integers(0, 9),
                                st.integers(0, 2**32 - 1),
                                st.sampled_from(["fresh", "reused",
                                                 "nested"])),
                      min_size=1, max_size=8))
def test_networks_match_reference(calls):
    """Interleaved `forward` and `forward_backward` calls over signatures
    (no hidden layer included) and batches (batch 0 is a single 1-D input
    to `forward`): the same outputs and gradients bit for bit, each a
    fresh array that no later call changes. The output gradient is a fresh
    array, a buffer the caller reuses, or computed by a nested `forward`
    of the same network and batch."""
    kept = []
    for sig, batch, seed, grad_kind in calls:
        rng = np.random.default_rng(seed)
        theta = rng.normal(0.0, 0.7, nets.theta_size(sig))
        theta[rng.random(theta.size) < 0.1] = 0.0
        shape = (sig.input_dim,) if batch == 0 else (batch, sig.input_dim)
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.2] = 0.0
        out = nets.forward(sig, theta, x)
        want = _ref_forward(sig, theta, x)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        kept.append((out, want))
        if batch == 0:
            continue
        scale = rng.normal(size=(batch, sig.output_dim))
        reused = np.empty((batch, sig.output_dim))

        def grad_out(outputs):
            if grad_kind == "reused":
                np.multiply(scale, outputs, out=reused)
                return reused
            if grad_kind == "nested":
                return scale * nets.forward(sig, theta, x)
            return scale * outputs

        got_out, got_grad = nets.forward_backward(sig, theta, x, grad_out)
        want_out, want_grad = _ref_forward_backward(
            sig, theta, x, lambda outputs: scale * outputs)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
        assert got_grad is not theta and not np.shares_memory(got_grad, theta)
        kept.extend([(got_out, want_out), (got_grad, want_grad)])
    for got, want in kept:
        assert got.tobytes() == want.tobytes()


def test_greedy_index_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        q = rng.integers(-2, 3, n).astype(float)  # ties are common
        legal = tuple(sorted(rng.choice(n, int(rng.integers(1, n + 1)),
                                        replace=False).tolist()))
        assert greedy_index(q, legal) == _ref_greedy_index(q, legal)
        assert type(greedy_index(q, legal)) is int


# -- the DQN oracle ----------------------------------------------------------

@st.composite
def _dqn_cases(draw_):
    # By name, so that editing TREE_GAMES cannot shift what is drawn.
    index = [name for name, _ in TREE_GAMES].index(draw_(st.sampled_from(
        ["kuhn_poker", "leduc_poker", "liars_dice", "matrix_game"])))
    batch = draw_(st.integers(1, 12))
    wraps = draw_(st.booleans())
    cfg = DqnOracle(
        hidden_layers=draw_(st.sampled_from([(), (5,), (6, 4)])),
        replay_capacity=batch if wraps else batch + draw_(st.integers(0, 40)),
        batch_size=batch,
        lr=draw_(st.sampled_from([1e-3, 5e-3, 0.05])),
        gamma_discount=draw_(st.sampled_from([0.0, 0.9, 1.0])),
        epsilon=draw_(st.sampled_from([0.0, 0.1, 1.0])),
        target_update_every=draw_(st.integers(1, 4)),
        episodes=draw_(st.integers(1, 25)),
        optimizer=draw_(st.sampled_from(["adam", "sgd"])),
        grad_clip=draw_(st.sampled_from([None, 0.05, 10.0])),
        soft_update_tau=draw_(st.sampled_from([None, 0.01, 1.0])))
    psd = draw_(st.sampled_from([None, 0.0, 0.5]))
    return index, cfg, psd, draw_(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_dqn_cases())
def test_dqn_oracle_matches_reference(case):
    """Adam and SGD, gradient clipping, soft and hard target updates, a PSD
    bonus, a replay buffer that wraps on every step and a network without
    hidden layers: the same trained theta and reward curve bit for bit, or
    the same divergence error."""
    index, cfg, lam, seed = case
    game = _game(index)
    rng = np.random.default_rng(seed)
    sig = ArchSignature(game.encoding_dim(), cfg.hidden_layers,
                        game.num_distinct_actions())
    init = scratch_init("normal", sig, int(rng.integers(1000)))
    opponents = _policy("mixture", game, rng)
    psd = None if lam is None else PsdBonus(
        [_policy("tabular", game, rng), _policy("network", game, rng)], lam)
    player = int(rng.integers(2))
    results = []
    for oracle in (dqn_oracle, _ref_dqn_oracle):
        try:
            with np.errstate(all="ignore"):
                policy, curve = oracle(game, init, opponents, player, cfg,
                                       seed=seed, psd=psd)
        except FloatingPointError as exc:
            results.append(str(exc))
        else:
            results.append((policy.theta.tobytes(), curve))
    assert results[0] == results[1]


def test_dqn_oracle_matches_reference_on_leduc_desk_shape():
    """The `dqn_leduc` benchmark shape, shortened: 32x32, batch 64, a
    replay of 128 that wraps, Adam, fused-style init against a mixture."""
    game = _game(1)
    rng = np.random.default_rng(5)
    cfg = DqnOracle(hidden_layers=(32, 32), replay_capacity=128,
                    batch_size=64, lr=5e-3, epsilon=0.1,
                    target_update_every=5, episodes=120)
    sig = ArchSignature(game.encoding_dim(), cfg.hidden_layers,
                        game.num_distinct_actions())
    init = scratch_init("kaiming", sig, 3)
    opponents = _policy("mixture", game, rng)
    ours = dqn_oracle(game, init, opponents, 1, cfg, seed=11)
    theirs = _ref_dqn_oracle(game, init, opponents, 1, cfg, seed=11)
    assert ours[0].theta.tobytes() == theirs[0].theta.tobytes()
    assert ours[1] == theirs[1]


# -- exact passes ------------------------------------------------------------

def _ref_descend(flat, sides):
    levels, owner, infoset = flat.levels, flat.owner, flat.infoset
    tables, read = [], []
    for player, members, _, _ in sides:
        infosets = flat.infosets[player]
        tables.append(np.zeros((len(infosets.views), len(members),
                                infosets.num_actions.max(initial=1))))
        read.append(np.zeros(len(infosets.views), bool))
    reach = [np.asarray(weights, dtype=float)[None, :]
             for _, _, weights, _ in sides]
    chance = np.ones(1)
    alive = np.ones(1, bool)
    reached = np.empty(len(owner), bool)
    leaf_chance, leaf_reach = [], [[] for _ in sides]
    for d in range(len(levels) - 1):
        a, b = levels[d], levels[d + 1]
        own = owner[a:b]
        reached[a:b] = alive
        leaf = own == TERMINAL
        leaf_chance.append(chance[leaf])
        for i, (_, _, _, fold) in enumerate(sides):
            r = reach[i][leaf]
            leaf_reach[i].append(r.sum(axis=1, keepdims=True) if fold else r)
        if d == len(levels) - 2:
            break
        c = slice(b, levels[d + 2])
        up, slot = flat.parent[c] - a, flat.slot[c]
        chance = chance[up] * flat.prob[c]
        alive_below = alive[up]
        for i, (player, members, _, _) in enumerate(sides):
            due = np.zeros(len(read[i]), bool)
            due[infoset[a:b][alive & (own == player)]] = True
            _ref_read(tables[i], read[i], members,
                      flat.infosets[player].views,
                      np.flatnonzero(due & ~read[i]))
            r = reach[i] = reach[i][up]
            moves = np.flatnonzero(own[up] == player)
            moved = r[moves] * tables[i][infoset[a + up[moves]], :,
                                         slot[moves]]
            r[moves] = moved
            alive_below[moves] &= moved.any(axis=1)
        alive = alive_below
    return (np.concatenate(leaf_chance),
            [np.concatenate(r) for r in leaf_reach], reached)


def _ref_read(table, read, members, views, rows):
    for i in rows.tolist():
        view = views[i]
        width = len(view.legal_actions)
        for m, member in enumerate(members):
            table[i, m, :width] = member.action_probs(view)
    read[rows] = True


def _ref_chance(flat):
    return _ref_descend(flat, [])[0]


def _ref_reach(flat, player, members, weights, fold):
    """A side's reach at each terminal and whether it reaches each node,
    each member's own reach weighed last: every member is descended alone
    from 1.0 (its realization plan, read only where its own play reaches),
    times its weight, and, if ``fold``, summed over all members in one
    C-contiguous row. A member reaches nothing if its weight is zero."""
    columns, reached = [], np.zeros(len(flat.owner), bool)
    for member, weight in zip(members, weights):
        _, (column,), alone = _ref_descend(
            flat, [(player, [member], np.ones(1), False)])
        columns.append(column)
        if weight != 0.0:
            reached |= alone
    reach = np.hstack(columns)
    reach *= weights
    return (reach.sum(axis=1, keepdims=True) if fold else reach), reached


def _old_reach(flat, player, members, weights, fold):
    """`_ref_reach` in the earlier product order: one descent of all the
    members whose products start at their weights."""
    _, (reach,), reached = _ref_descend(flat, [(player, members, weights,
                                                fold)])
    return reach, reached


def _ref_value(flat, reach0, reach1):
    """Player 0's value of terminal reach ``reach0`` against ``reach1``
    (one column each), in sequence-form order: per row of player 1's plan,
    0.0 plus each terminal's chance x u0 x reach0, in row order, for the
    terminals whose last move of player 1 is that row; then one sum of
    those rows times player 1's reach there (any terminal of the row's)."""
    rows = flat.last_moves[1].last.tolist()
    chance = _ref_chance(flat)
    y = np.zeros(len(flat.last_moves[1].legal))
    plan = np.zeros_like(y)
    for t, row in enumerate(rows):
        y[row] += chance[t] * flat.utility[t, 0] * reach0[t]
        plan[row] = reach1[t]
    return (y * plan).sum()


def _ref_expected_value(game, profile, reach=_ref_reach):
    flat = game.tree
    folds = []
    for player, side in enumerate(profile):
        members, weights = _as_members(side)
        folds.append(reach(flat, player, members, weights,
                           not isinstance(side, list))[0])
    v0 = np.array([_ref_value(flat, a, b) for a in folds[0].T
                   for b in folds[1].T])
    if not any(isinstance(side, list) for side in profile):
        v0 = v0[0]
    return (v0, -v0)


def _ref_infoset_pass(flat, value, live, player):
    """`two_pass_best_response`'s pass up ``player``'s infosets, on the
    tree's arrays: per infoset, deepest first and in index order, its best
    legal row (the lowest action of largest value, NaN never larger;
    action 0 if none beats -inf) and that row's value added into the row
    of its player's move before it, found by walking up from its first
    node. Every infoset is valued; the ``live`` ones are decided (-1
    elsewhere)."""
    infosets = flat.infosets[player]
    start = np.cumsum([0, *infosets.num_actions.tolist()])
    best = np.full(len(infosets.views), -1)
    order = sorted(range(len(infosets.views)),
                   key=lambda i: (-infosets.first_level[i], i))
    for i in order:
        child = infosets.nodes[infosets.start[i]]
        parent = start[-1]
        while flat.parent[child] >= 0:
            up = flat.parent[child]
            if flat.owner[up] == player:
                parent = start[flat.infoset[up]] + int(flat.slot[child])
                break
            child = up
        top, pick = -math.inf, 0
        for action in range(infosets.num_actions[i]):
            if value[start[i] + action] > top:
                top, pick = value[start[i] + action], action
        value[parent] += value[start[i] + pick]
        if live[i]:
            best[i] = pick
    return best


def _ref_respond(flat, opponent_mixture, responder, reach=_ref_reach):
    members, weights = _as_members(opponent_mixture)
    chance = _ref_chance(flat)
    fold, reached = reach(flat, 1 - responder, members, weights, True)
    infosets = flat.infosets[responder]
    live = np.zeros(len(infosets.views), bool)
    live[flat.infoset[reached & (flat.owner == responder)]] = True
    value = np.zeros(len(flat.last_moves[responder].legal))
    for t, row in enumerate(flat.last_moves[responder].last.tolist()):
        value[row] += chance[t] * flat.utility[t, responder] * fold[t, 0]
    best = _ref_infoset_pass(flat, value, live, responder)
    table = {infosets.views[i].key: _one_hot(infosets.num_actions[i],
                                             best[i])
             for i in np.flatnonzero(best >= 0).tolist()}
    return TabularPolicy(table), value[-1], fold[:, 0]


def _ref_exploitability(game, profile, reach=_ref_reach):
    flat = game.tree
    responses, values, folds = [], [], [None, None]
    for player in (0, 1):
        policy, value, folds[1 - player] = _ref_respond(
            flat, profile[1 - player], player, reach)
        responses.append(policy)
        values.append(value)
    v0 = _ref_value(flat, folds[0], folds[1])
    current = (v0, -v0)
    total = 0.0
    for player in (0, 1):
        total += values[player] - current[player]
    return total, tuple(responses)


def _edge_tabular(tree, rng):
    """A random tabular policy whose distributions hold exact zeros and,
    at some infosets, an entry of -1e-13, which `TabularPolicy` accepts."""
    table = {}
    for infosets in tree.infosets:
        for view in infosets.views:
            n = len(view.legal_actions)
            dist = rng.random(n) * (rng.random(n) < 0.6)
            dist[rng.integers(n)] += 0.1
            dist /= dist.sum()
            if n > 1 and rng.random() < 0.3:
                j = int(rng.integers(n))
                dist[(j + 1) % n] += dist[j] + 1e-13
                dist[j] = -1e-13
            table[view.key] = dist
    return TabularPolicy(table)


def _exact_pool(game, rng):
    """Members for one player: sparse, edge and shared one-hot tabular
    policies, the uniform default and a network."""
    tree = game.tree
    return [_tabular(tree, rng, shared=False), _edge_tabular(tree, rng),
            _tabular(tree, rng, shared=True), TabularPolicy(),
            _policy("network", game, rng)]


def _exact_weights(count, rng):
    """Simplex weights with exact zeros, some of them -0.0."""
    weights = rng.random(count) * (rng.random(count) < 0.6)
    weights[rng.integers(count)] += 0.1
    weights /= weights.sum()
    weights[(weights == 0.0) & (rng.random(count) < 0.5)] = -0.0
    return weights


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _same_tables(got, want):
    return (got.table.keys() == want.table.keys()
            and all(_same_bits(got.table[k], v) for k, v in want.table.items()))


_PASSES = st.sampled_from(["mixtures", "row", "column", "respond0",
                           "respond1", "exploitability"])


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       passes=st.lists(_PASSES, min_size=2, max_size=7))
def test_exact_passes_match_reference(index, seed, passes):
    """Several passes over the same members, each with fresh weights, so
    later passes stack the readings earlier ones made, with rows at
    infosets this pass does not reach; one member plays for both players
    and keeps one reading per player. Every value has the reference's
    bytes, sign of zero included; each best response joins its player's
    members, so later passes read the reading it was given."""
    game = _game(index)
    rng = np.random.default_rng(seed)
    pools = [_exact_pool(game, rng), _exact_pool(game, rng)]
    pools[1].append(pools[0][1])  # one member plays both sides

    def mixture(player):
        pool = pools[player]
        return PolicyMixture(pool, _exact_weights(len(pool), rng))

    for kind in passes:
        if kind == "mixtures":
            profile = (mixture(0), mixture(1))
        elif kind == "row":
            profile = (mixture(0), list(pools[1]))
        elif kind == "column":
            profile = (list(pools[0]), mixture(1))
        if kind in ("mixtures", "row", "column"):
            got = expected_value(game, profile)
            want = _ref_expected_value(game, profile)
            assert all(map(_same_bits, got, want))
        elif kind == "exploitability":
            profile = (mixture(0), mixture(1))
            total, responses = exploitability(game, profile,
                                              with_responses=True)
            ref_total, ref_responses = _ref_exploitability(game, profile)
            assert type(total) is type(ref_total)
            assert _same_bits(total, ref_total)
            assert all(map(_same_tables, responses, ref_responses))
        else:
            player = int(kind[-1])
            opponent = mixture(1 - player)
            policy, value = best_response(game, opponent, player)
            ref_policy, ref_value, _ = _ref_respond(game.tree, opponent,
                                                       player)
            assert _same_bits(value, ref_value)
            assert _same_tables(policy, ref_policy)
            pools[player].append(policy)


def _special_values(rng, shape):
    """Values from a few integers and halves, so that sums tie, with three
    in ten of them -0.0, +0.0, NaN, inf or -inf."""
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
    values = rng.integers(-2, 3, shape) * 0.5
    chosen = rng.random(shape) < 0.3
    values[chosen] = special[rng.integers(len(special), size=chosen.sum())]
    return values


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_best_actions_match_the_loop_reference(index, seed):
    """`_best_moves` decides what the per-infoset loop decides, and leaves
    the reference's bytes in every plan row (NaN where it has NaN, of
    whichever sign), for a random set of live infosets of each player, when
    the rows' own worth includes NaN, +-inf, -0.0 and ties."""
    flat = _game(index).tree
    rng = np.random.default_rng(seed)
    for player, form in enumerate(flat.sequence_form):
        value = _special_values(rng, len(flat.last_moves[player].legal))
        live = rng.random(len(flat.infosets[player].views)) < 0.7
        want = value.copy()
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = _best_moves(form, value, live)
            ref = _ref_infoset_pass(flat, want, live, player)
        assert got.tolist() == ref.tolist()
        nan = np.isnan(want)
        assert (np.isnan(value) == nan).all()
        assert _same_bits(value[~nan], want[~nan])


def _zero_rows(tree, rng):
    """A sparse tabular policy that plays all-zero rows at about a fifth
    of the infosets, as no valid policy does: the passes read rows as
    they are."""
    policy = _edge_tabular(tree, rng)
    for key, dist in policy.table.items():
        if rng.random() < 0.2:
            policy.table[key] = np.zeros(len(dist))
    return policy


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_descent_reaches_what_alive_tracking_reaches(index, seed):
    """`_reach` takes a node of the other player as reached where some
    member's weighed plan there is nonzero; the reference descent tracks
    instead whether the node's parent is reached and, after a move, some
    member plays it. They agree for sparse simplex weights (some zero, some
    -0.0), members with all-zero rows and a member listed twice, and the
    summed plan, read at each terminal's last move, has the bytes of the
    reference that weighs each member's own reach last."""
    game = _game(index)
    flat = game.tree
    rng = np.random.default_rng(seed)
    for player in (0, 1):
        pool = _exact_pool(game, rng) + [_zero_rows(flat, rng)]
        pool.append(pool[int(rng.integers(len(pool)))])
        weights = _exact_weights(len(pool), rng)
        plan, reached = _reach(flat, player, PolicyMixture(pool, weights),
                               facing=True)
        reach = plan[flat.last_moves[player].last, None]
        _, ref_reached = _old_reach(flat, player, pool, weights, True)
        ref_reach, alone = _ref_reach(flat, player, pool, weights, True)
        other = flat.infosets[1 - player].nodes
        assert reached.tolist() == ref_reached[other].tolist()
        assert reached.tolist() == alone[other].tolist()
        assert _same_bits(reach, ref_reach)


def _pure_pool(game, rng, size):
    """``size`` pure members for each player: greedy tables on random
    actions (`TabularPolicy.greedy`) and scratch networks, alternating."""
    views = [view for infosets in game.tree.infosets
             for view in infosets.views]
    counts = [len(view.legal_actions) for view in views]
    return [_policy("network", game, rng) if i % 3 == 2
            else TabularPolicy.greedy([view.key for view in views], counts,
                                      [int(rng.integers(n)) for n in counts])
            for i in range(size)]


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(9, 17))
def test_pure_members_keep_the_descents_bits(index, seed, size):
    """For a sigma mixture of pure members, a weight times a plan entry of
    1.0 is the product a descent from that weight forms, so `_reach`'s
    plan, read at each terminal's last move, and reached equal the earlier
    joint descent's byte for byte,
    sign of zero included: sparse weights with zeros and -0.0, 9 to 17
    members (past numpy's pairwise block of 8) and one listed twice."""
    game = _game(index)
    flat = game.tree
    rng = np.random.default_rng(seed)
    for player in (0, 1):
        pool = _pure_pool(game, rng, size - 1)
        pool.append(pool[int(rng.integers(len(pool)))])
        weights = _exact_weights(len(pool), rng)
        plan, reached = _reach(flat, player, PolicyMixture(pool, weights),
                               facing=True)
        reach = plan[flat.last_moves[player].last, None]
        ref_reach, ref_reached = _old_reach(flat, player, pool, weights, True)
        assert _same_bits(reach, ref_reach)
        assert _same_bits(reached,
                          ref_reached[flat.infosets[1 - player].nodes])


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
def test_cancelling_weights_still_reach(index):
    """`PolicyMixture` accepts weights down to -1e-9, so a member listed
    twice at 1e-9 and -1e-9 sums to zero reach where it alone plays, yet
    the descent reaches those nodes; so does `_reach`, which asks before
    it sums."""
    game = _game(index)
    flat = game.tree
    rng = np.random.default_rng(index)
    for player in (0, 1):
        pool = _pure_pool(game, rng, 2)
        pool.insert(1, pool[0])
        weights = np.array([1e-9, -1e-9, 1.0])
        plan, reached = _reach(flat, player, PolicyMixture(pool, weights),
                               facing=True)
        reach = plan[flat.last_moves[player].last, None]
        ref_reach, ref_reached = _old_reach(flat, player, pool, weights, True)
        assert _same_bits(reach, ref_reach)
        assert _same_bits(reached,
                          ref_reached[flat.infosets[1 - player].nodes])


@pytest.mark.parametrize("index", range(len(TREE_GAMES)), ids=TREE_GAME_IDS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weighing_own_reach_last_keeps_the_old_values(index, seed):
    """Weighing each member's own reach last can move the last bit of a
    product with mixed rows; expected values, best-response values and
    exploitability of sigma mixtures of random sparse tabular members stay
    within 1e-12 of the earlier order's, relative to the value or, near
    zero, to the game's largest payoff."""
    game = _game(index)
    flat = game.tree
    rng = np.random.default_rng(seed)
    scale = 1e-12 * np.abs(flat.utility).max()
    pools = [[_tabular(flat, rng, shared=False) for _ in range(5)]
             for _ in range(2)]
    profile = tuple(PolicyMixture(pool, _exact_weights(len(pool), rng))
                    for pool in pools)

    def close(got, want):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=scale)

    got = expected_value(game, profile)
    want = _ref_expected_value(game, profile, _old_reach)
    assert all(map(close, got, want))
    for player in (0, 1):
        _, value = best_response(game, profile[1 - player], player)
        _, ref_value, _ = _ref_respond(flat, profile[1 - player], player,
                                          _old_reach)
        assert close(value, ref_value)
    total = exploitability(game, profile)
    assert close(total, _ref_exploitability(game, profile, _old_reach)[0])
