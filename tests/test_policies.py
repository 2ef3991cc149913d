"""Fusion arithmetic, initializers, ensembles, divergence, distillation,
and checkpoint round-trips."""

import itertools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamepop.games.base as games_base
from gamepop import nets, policies
from gamepop.games import expected_value, make_game, play_episode
from gamepop.games.base import checked_cdf, sample_action, sample_episode
from gamepop.nets import ArchSignature
from gamepop.policies import (InfosetView, ParametricPolicy, PointPolicy,
                              PolicyError, PolicyMixture, TabularPolicy,
                              _one_hot, checkpoint_dumps, checkpoint_loads,
                              distill, ensemble_distribution,
                              fuse_parameters, fuse_points, fuse_tabular,
                              kl_to_ensemble, sample_infoset_views,
                              scratch_init)

SIG = ArchSignature(2, (), 2)  # theta layout: W (4 entries) then b (2)


def _param(theta):
    return ParametricPolicy(SIG, np.array(theta, dtype=float))


class TestFuseParameters:
    def test_convex_combination(self):
        p1 = _param([0, 2, 0, 0, 0, 0])
        p2 = _param([2, 0, 0, 0, 0, 0])
        fused = fuse_parameters([p1, p2], [0.25, 0.75])
        assert fused.theta[0] == 1.5 and fused.theta[1] == 0.5

    def test_degenerate_weight_copies_bitwise(self):
        rng = np.random.default_rng(0)
        policies = [_param(rng.normal(size=6)) for _ in range(3)]
        fused = fuse_parameters(policies, [0.0, 1.0, 0.0])
        assert fused.theta.tobytes() == policies[1].theta.tobytes()

    def test_idempotent_on_equal_members(self):
        theta = np.random.default_rng(1).normal(size=6)
        policies = [_param(theta) for _ in range(4)]
        for w in ([0.1, 0.2, 0.3, 0.4], [0.25] * 4):
            fused = fuse_parameters(policies, w)
            assert np.allclose(fused.theta, theta, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=6), rng.normal(size=6)
        w = [0.3, 0.7]
        lhs = fuse_parameters([_param(2 * a), _param(2 * b)], w).theta
        rhs = 2 * fuse_parameters([_param(a), _param(b)], w).theta
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        thetas = [rng.normal(size=6) for _ in range(3)]
        weights = [0.2, 0.5, 0.3]
        base = fuse_parameters([_param(t) for t in thetas], weights).theta
        for perm in itertools.permutations(range(3)):
            fused = fuse_parameters([_param(thetas[i]) for i in perm],
                                    [weights[i] for i in perm]).theta
            assert np.allclose(fused, base, atol=1e-12)

    def test_rejects_bad_inputs(self):
        p = _param(np.zeros(6))
        other = ParametricPolicy(ArchSignature(2, (3,), 2),
                                 np.zeros(nets.theta_size(
                                     ArchSignature(2, (3,), 2))))
        with pytest.raises(PolicyError):
            fuse_parameters([p, other], [0.5, 0.5])
        with pytest.raises(PolicyError):
            fuse_parameters([p, p], [0.5])
        with pytest.raises(PolicyError):
            fuse_parameters([p, p], [0.6, 0.6])
        with pytest.raises(PolicyError):
            fuse_parameters([], [])


class TestFusePoints:
    def test_midpoint(self):
        fused = fuse_points([PointPolicy([0, 0]), PointPolicy([2, 2])],
                            [0.5, 0.5])
        assert np.allclose(fused.x, [1, 1])

    def test_identity(self):
        fused = fuse_points([PointPolicy([0.3, -0.4])], [1.0])
        assert np.allclose(fused.x, [0.3, -0.4])

    def test_collinear_hull(self):
        pts = [PointPolicy([float(i), 2.0 * i]) for i in range(3)]
        fused = fuse_points(pts, [0.2, 0.3, 0.5])
        assert 0.0 <= fused.x[0] <= 2.0
        assert fused.x[1] == pytest.approx(2 * fused.x[0])


def test_fuse_tabular_unseen_keys_use_uniform_default():
    a = TabularPolicy({"s": np.array([1.0, 0.0])})
    b = TabularPolicy({})
    fused = fuse_tabular([a, b], [0.5, 0.5])
    assert np.allclose(fused.table["s"], [0.75, 0.25])


# ---------------------------------------------------------------------------
# Fusion invariants over random populations

# (members, seed): the members' values and simplex weights, some of them
# zero, are drawn from the seed.
_POPULATIONS = st.tuples(st.integers(1, 6), st.integers(0, 2**32 - 1))


def _simplex_with_zeros(n, rng):
    """Weights on the simplex with each entry zero with probability 1/2, at
    least one nonzero."""
    weights = rng.random(n) * (rng.random(n) < 0.5)
    weights[rng.integers(n)] += rng.random() + 0.1
    return weights / weights.sum()


def _members(kind, n, rng):
    """n parametric or point members. Normal draws hold no -0.0, which a
    one-hot fusion (0.0 + 1.0 * x) would turn into +0.0."""
    if kind == "parameters":
        return [_param(rng.normal(size=6)) for _ in range(n)]
    return [PointPolicy(rng.normal(scale=3.0, size=2)) for _ in range(n)]


def _fused_values(kind, members, weights):
    if kind == "parameters":
        return fuse_parameters(members, weights).theta
    return fuse_points(members, weights).x


def _values(kind, member):
    return member.theta if kind == "parameters" else member.x


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(["parameters", "points"]), population=_POPULATIONS,
       where=st.integers(0, 6))
def test_zero_weight_member_leaves_fusion_unchanged(kind, population, where):
    n, seed = population
    rng = np.random.default_rng(seed)
    members = _members(kind, n, rng)
    weights = list(_simplex_with_zeros(n, rng))
    base = _fused_values(kind, members, weights)
    at = where % (n + 1)
    extra = _members(kind, 1, rng)[0]
    grown = _fused_values(kind, members[:at] + [extra] + members[at:],
                          weights[:at] + [0.0] + weights[at:])
    assert grown.tobytes() == base.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(["parameters", "points"]), population=_POPULATIONS,
       which=st.integers(0, 5))
def test_one_hot_weight_copies_its_member(kind, population, which):
    n, seed = population
    members = _members(kind, n, np.random.default_rng(seed))
    weights = np.zeros(n)
    weights[which % n] = 1.0
    fused = _fused_values(kind, members, weights)
    assert fused.tobytes() == _values(kind, members[which % n]).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(["parameters", "points"]), population=_POPULATIONS)
def test_fused_coordinates_within_weighted_members(kind, population):
    n, seed = population
    rng = np.random.default_rng(seed)
    members = _members(kind, n, rng)
    weights = _simplex_with_zeros(n, rng)
    fused = _fused_values(kind, members, weights)
    used = np.stack([_values(kind, m) for m, w in zip(members, weights)
                     if w != 0.0])
    # Rounding of at most 6 products and sums, and of a weight sum one ulp
    # off 1, stays far inside 16 eps of the largest magnitude.
    tol = 16 * np.finfo(float).eps * np.abs(used).max()
    assert np.all(fused >= used.min(axis=0) - tol)
    assert np.all(fused <= used.max(axis=0) + tol)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(population=_POPULATIONS)
def test_fuse_tabular_rows_are_weighted_member_averages(population):
    n, seed = population
    rng = np.random.default_rng(seed)
    legal = {f"k{i}": int(rng.integers(1, 5)) for i in range(8)}
    members = []
    for _ in range(n):
        keys = [k for k in legal if rng.random() < 0.5]  # overlapping subsets
        members.append(TabularPolicy({k: rng.dirichlet(np.ones(legal[k]))
                                      for k in keys}))
    weights = _simplex_with_zeros(n, rng)
    fused = fuse_tabular(members, weights)
    assert set(fused.table) == {k for m in members for k in m.table}
    for key, row in fused.table.items():
        assert np.all(row >= 0.0)
        assert abs(row.sum() - 1.0) <= 1e-12
        expected = sum(w * m.dist_for_key(key, legal[key])
                       for m, w in zip(members, weights))
        assert np.abs(row - expected).max() <= 1e-12


class TestScratchInit:
    def test_orthogonal_rows(self):
        sig = ArchSignature(8, (8,), 4)
        policy = scratch_init("orthogonal", sig, 42)
        for W, bias in nets.unpack(sig, policy.theta):
            prod = W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
            assert np.abs(prod - np.eye(prod.shape[0])).max() < 1e-6
            assert np.all(bias == 0.0)

    def test_kaiming_variance(self):
        sig = ArchSignature(100, (100,), 4)
        policy = scratch_init("kaiming", sig, 5)
        W, bias = nets.unpack(sig, policy.theta)[0]
        assert 0.016 <= W.var() <= 0.024  # target 2/fan_in = 0.02
        assert np.all(bias == 0.0)

    def test_normal_spread(self):
        sig = ArchSignature(100, (100,), 4)
        policy = scratch_init("normal", sig, 6)
        W, _ = nets.unpack(sig, policy.theta)[0]
        assert 0.008 <= W.var() <= 0.012  # target variance 0.01

    def test_deterministic_given_seed(self):
        sig = ArchSignature(5, (7,), 3)
        for kind in ("normal", "orthogonal", "kaiming"):
            a = scratch_init(kind, sig, 9)
            b = scratch_init(kind, sig, 9)
            assert a.theta.tobytes() == b.theta.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(PolicyError):
            scratch_init("xavier", SIG, 0)


class TestEnsembleDistribution:
    def test_two_pure_members(self):
        a = TabularPolicy({"s": np.array([1.0, 0.0])})
        b = TabularPolicy({"s": np.array([0.0, 1.0])})
        view = InfosetView("s", (0, 1))
        mix = PolicyMixture([a, b], [0.5, 0.5])
        assert np.allclose(ensemble_distribution(mix, view), [0.5, 0.5])

    def test_single_member(self):
        a = TabularPolicy({"s": np.array([0.9, 0.1])})
        view = InfosetView("s", (0, 1))
        assert np.allclose(
            ensemble_distribution(PolicyMixture([a], [1.0]), view), [0.9, 0.1])

    def test_uniform_members_stay_uniform(self):
        mix = PolicyMixture([TabularPolicy() for _ in range(3)],
                            np.ones(3) / 3)
        view = InfosetView("s", (0, 1, 2))
        assert np.allclose(ensemble_distribution(mix, view), 1.0 / 3.0)


class TestKlToEnsemble:
    def test_single_member_candidate_is_zero(self):
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        mix = PolicyMixture([uniform], [1.0])
        assert kl_to_ensemble([uniform], mix, game, 64, 0) == [
            pytest.approx(0.0, abs=1e-12)]

    def test_greedy_candidate_floored_value(self):
        # KL(uniform || floored pure) on a 2-action infoset, computed from
        # the floor definition directly.
        game = make_game("matrix_game", {"rows": [[1.0, -1.0], [-1.0, 1.0]]})
        uniform = TabularPolicy()
        pure = TabularPolicy({"p0": np.array([1.0, 0.0]),
                              "p1": np.array([1.0, 0.0])})
        mix = PolicyMixture([uniform], [1.0])
        floor = 1e-9
        q = np.maximum(np.array([1.0, 0.0]), floor)
        q /= q.sum()
        expected = 0.5 * math.log(0.5 / q[0]) + 0.5 * math.log(0.5 / q[1])
        [got] = kl_to_ensemble([pure], mix, game, 8, 0)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_deterministic_given_seed(self):
        game = make_game("kuhn_poker")
        mix = PolicyMixture([TabularPolicy()], [1.0])
        pure = scratch_init("normal",
                            ArchSignature(game.encoding_dim(), (8,),
                                          game.num_distinct_actions()), 3)
        a = kl_to_ensemble([pure], mix, game, 32, 7)
        b = kl_to_ensemble([pure], mix, game, 32, 7)
        assert a == b


def _asking_at_every_decision(mixture, game, player, num_states, seed):
    """`sample_infoset_views` as it would be if every rollout decision
    asked `ensemble_distribution` afresh: the views it keeps, in order."""
    rng = np.random.default_rng(seed)
    views = {}

    def choose(current, view):
        legal = view.legal_actions
        if current != player:
            return sample_action(np.full(len(legal), 1.0 / len(legal)),
                                 legal, rng)
        if view not in views and len(views) < num_states:
            views[view] = None
        return sample_action(ensemble_distribution(mixture, view), legal, rng)

    episodes = since_new = 0
    while (len(views) < num_states and episodes < max(50, 10 * num_states)
           and since_new <= max(20, num_states // 2)):
        episodes += 1
        known = len(views)
        sample_episode(game, choose, rng)
        since_new = 0 if len(views) > known else since_new + 1
    return list(views)


@pytest.mark.parametrize("states", [5, 40, 500])
def test_sampled_views_ask_the_ensemble_once_per_view(monkeypatch, states):
    """One call asks `ensemble_distribution` once per distinct view its
    rollouts meet and hands back those very distributions with the views
    it keeps, the same views in the same order as asking at every
    decision. It runs `checked_cdf` once on each of those distributions
    and never for the opponent's uniform, whose CDF is shared.
    `kl_to_ensemble` and a `distill` epoch ask nothing more."""
    game = make_game("leduc_poker")
    sig = ArchSignature(game.encoding_dim(), (8,), game.num_distinct_actions())
    mix = PolicyMixture([scratch_init("normal", sig, 1),
                         scratch_init("normal", sig, 2), TabularPolicy()],
                        [0.5, 0.3, 0.2])
    want = _asking_at_every_decision(mix, game, 0, states, 5)
    # Made once per process: the shared uniforms and their CDFs.
    sample_infoset_views(mix, game, 0, states, 5)
    calls, cdf_of = [], []

    def counted(mixture, view):
        calls.append((view, ensemble_distribution(mixture, view)))
        return calls[-1][1]

    def counted_cdf(probs, count):
        cdf_of.append(probs)
        return checked_cdf(probs, count)

    monkeypatch.setattr(policies, "ensemble_distribution", counted)
    for module in (policies, games_base):
        monkeypatch.setattr(module, "checked_cdf", counted_cdf)
    targets = sample_infoset_views(mix, game, 0, states, 5)
    asked = [view for view, _ in calls]
    assert len(set(asked)) == len(asked) >= len(targets)
    assert list(targets) == asked[:len(targets)] == want
    assert all(targets[view] is dist for view, dist in calls[:len(targets)])
    assert len(cdf_of) == len(calls)
    assert all(map(operator.is_, cdf_of, (dist for _, dist in calls)))
    for run in (lambda: kl_to_ensemble([mix.members[0]], mix, game, states, 5),
                lambda: distill(mix, sig, game, 1, states, 0.1, 5)):
        calls.clear()
        run()
        asked = [view for view, _ in calls]
        assert len(set(asked)) == len(asked) > 0


def test_first_order_ensemble_approximation():
    """Fused-parameter distribution approaches the member ensemble at
    second order: halving the member spread shrinks the gap by >= 3x.

    Quadratic shrink requires the perturbations to stay inside one relu
    activation region (the map is not twice differentiable across a kink),
    so the test first asserts no hidden-unit sign flips at the probe states.
    """
    game = make_game("kuhn_poker")
    sig = ArchSignature(game.encoding_dim(), (16,), game.num_distinct_actions())
    rng = np.random.default_rng(0)
    base = rng.normal(0, 0.4, nets.theta_size(sig))
    deltas = [rng.normal(0, 1.0, base.size) for _ in range(4)]
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    views = sample_infoset_views(
        PolicyMixture([ParametricPolicy(sig, base)], [1.0]), game, 0, 12, 0)
    X = np.stack([v.features for v in views])

    def hidden_signs(theta):
        W, b = nets.unpack(sig, theta)[0]
        return np.sign(X @ W.T + b)

    def max_gap(eta):
        members = [ParametricPolicy(sig, base + eta * d) for d in deltas]
        for member in members:
            assert np.array_equal(hidden_signs(member.theta),
                                  hidden_signs(base)), \
                "perturbation crossed a relu kink; shrink eta or reseed"
        mix = PolicyMixture(members, weights)
        fused = fuse_parameters(members, weights)
        worst = 0.0
        for view in views:
            ens = ensemble_distribution(mix, view)
            direct = fused.dist_at(view)
            worst = max(worst, np.abs(ens - direct).max())
        return worst

    gap_full = max_gap(1e-2)
    gap_half = max_gap(5e-3)
    assert gap_full > 0
    assert gap_full / gap_half >= 3.0


class TestDistill:
    def test_zero_epochs_returns_scratch(self):
        game = make_game("kuhn_poker")
        sig = ArchSignature(game.encoding_dim(), (8,),
                            game.num_distinct_actions())
        mix = PolicyMixture([TabularPolicy()], [1.0])
        student = distill(mix, sig, game, epochs=0, samples_per_epoch=8,
                          lr=0.1, seed=4)
        reference = scratch_init("normal", sig, 4)
        assert student.theta.tobytes() == reference.theta.tobytes()

    def test_pure_teacher_behavioral_match(self):
        game = make_game("kuhn_poker")
        rng = np.random.default_rng(8)
        table = {}
        for key, n in _infoset_pool(game).items():
            dist = np.zeros(n)
            dist[rng.integers(n)] = 1.0
            table[key] = dist
        teacher = TabularPolicy(table)
        mix = PolicyMixture([teacher], [1.0])
        sig = ArchSignature(game.encoding_dim(), (32,),
                            game.num_distinct_actions())
        student = distill(mix, sig, game, epochs=200, samples_per_epoch=32,
                          lr=0.5, seed=0)
        views = sample_infoset_views(mix, game, 0, 64, 99)
        assert views
        matches = sum(
            int(np.argmax(teacher.dist_at(v)) == np.argmax(student.dist_at(v)))
            for v in views)
        assert matches / len(views) >= 0.95

    def test_uniform_teacher_total_variation(self):
        game = make_game("kuhn_poker")
        mix = PolicyMixture([TabularPolicy()], [1.0])
        sig = ArchSignature(game.encoding_dim(), (16,),
                            game.num_distinct_actions())
        student = distill(mix, sig, game, epochs=300, samples_per_epoch=24,
                          lr=0.5, seed=1)
        views = sample_infoset_views(mix, game, 0, 64, 123)
        for view in views:
            dist = student.dist_at(view)
            tv = 0.5 * np.abs(dist - 1.0 / len(dist)).sum()
            assert tv <= 0.1


def _infoset_pool(game):
    pool = {}

    def walk(state):
        if state.is_terminal:
            return
        if state.current_player == -1:
            for a, _ in state.chance_outcomes():
                walk(state.child(a))
            return
        pool[state.infoset_key(state.current_player)] = len(
            state.legal_actions())
        for a in state.legal_actions():
            walk(state.child(a))

    walk(game.initial_state())
    return pool


class TestCheckpoints:
    def test_parametric_round_trip_bit_exact(self):
        sig = ArchSignature(7, (5, 3), 4)
        policy = scratch_init("normal", sig, 17)
        text = checkpoint_dumps(policy)
        loaded = checkpoint_loads(text)
        assert loaded.signature == sig
        assert loaded.theta.tobytes() == policy.theta.tobytes()
        assert checkpoint_dumps(loaded) == text

    def test_checkpoint_field_names(self):
        import json
        sig = ArchSignature(3, (2,), 2)
        payload = json.loads(checkpoint_dumps(
            ParametricPolicy(sig, np.zeros(nets.theta_size(sig)))))
        assert set(payload) == {"input_dim", "hidden_layers", "output_dim",
                                "activation", "theta"}

    def test_tabular_and_point_round_trip(self):
        tab = TabularPolicy({"s": np.array([0.25, 0.75])})
        loaded = checkpoint_loads(checkpoint_dumps(tab))
        assert np.array_equal(loaded.table["s"], tab.table["s"])
        pt = PointPolicy([1.25, -3.5])
        loaded_pt = checkpoint_loads(checkpoint_dumps(pt))
        assert np.array_equal(loaded_pt.x, pt.x)


def test_parametric_greedy_ties_break_low():
    policy = ParametricPolicy(SIG, np.zeros(6))  # all q-values equal
    view = InfosetView("s", (0, 1), np.array([1.0, 0.0]))
    assert policy.greedy_action_index(view.features, view.legal_actions) == 0


def test_theta_is_a_read_only_copy():
    theta = np.arange(6, dtype=float)
    policy = _param(theta)
    theta[0] = 99.0
    assert policy.theta[0] == 0.0
    with pytest.raises(ValueError):
        policy.theta[0] = 1.0


def test_a_network_member_makes_one_forward_per_infoset_in_either_order(
        monkeypatch):
    """One network member's readings serve sampled draws and exact passes
    alike: drawn from first and then evaluated exactly, or the other way
    round, it makes one forward per Leduc infoset its own play reaches, all
    when its readings are made by the first step, and each row it read is
    the one-hot on the masked argmax of a fresh forward."""
    game = make_game("leduc_poker", {})
    tree = game.tree
    sig = ArchSignature(game.encoding_dim(), (8,),
                        game.num_distinct_actions())
    forwards = []
    real_forward = nets.forward

    def counted_forward(*args):
        forwards.append(args)
        return real_forward(*args)

    monkeypatch.setattr(nets, "forward", counted_forward)
    count = sum(len(infosets.views) for infosets in tree.infosets)
    made = []
    for order in (("draws", "pass"), ("pass", "draws")):
        policy = scratch_init("normal", sig, 5)
        forwards.clear()
        for step in order:
            if step == "draws":
                rng = np.random.default_rng(0)
                for _ in range(200):
                    play_episode(game, (policy, policy), rng)
            else:
                expected_value(game, [PolicyMixture(
                    [policy, TabularPolicy()], [0.5, 0.5])] * 2)
            made.append(len(forwards))
        read = 0
        for player, infosets in enumerate(tree.infosets):
            rows = policy.reading(tree, player).rows
            for view in infosets.views:
                if not rows[view.index].any():
                    continue
                read += 1
                q = real_forward(sig, policy.theta, view.features)
                expected = np.zeros(rows.shape[1])
                expected[int(np.argmax(q[list(view.legal_actions)]))] = 1.0
                assert rows[view.index].tobytes() == expected.tobytes()
        assert read == len(forwards)
    assert 0 < made[0] < count
    assert made == [made[0]] * 4


def test_a_greedy_table_holds_the_shared_one_hots():
    """`TabularPolicy.greedy` stores each entry as the shared `_one_hot`
    object itself, keyed in the order given, and checkpoints to the same
    text as the policy built from the equal dict."""
    keys, counts, actions = ["b", "a", "c"], [2, 3, 3], [1, 0, 2]
    greedy = TabularPolicy.greedy(keys, counts, actions)
    built = TabularPolicy({key: _one_hot(n, a)
                           for key, n, a in zip(keys, counts, actions)})
    assert list(greedy.table) == keys
    for key, n, a in zip(keys, counts, actions):
        assert greedy.table[key] is _one_hot(n, a)
    assert checkpoint_dumps(greedy) == checkpoint_dumps(built)


def test_shared_distributions_are_stored_as_is_with_one_cdf():
    """A shared one-hot or uniform distribution enters a tabular table as
    is, and every policy that draws from it holds its one shared CDF; a
    caller's array, even one equal to a shared one, is checked and stored
    as a read-only view."""
    from gamepop.policies import _one_hot, _uniform

    hot = _one_hot(3, 1)
    tabular = TabularPolicy({"p0": hot})
    assert tabular.table["p0"] is hot
    own = np.array([0.0, 1.0, 0.0])
    copied = TabularPolicy({"p0": own})
    assert copied.table["p0"] is not own and own.flags.writeable
    assert not copied.table["p0"].flags.writeable
    with pytest.raises(PolicyError):
        TabularPolicy({"s": np.array([1.5, -0.5, 0.0])})

    sig = ArchSignature(1, (), 3)
    theta = np.zeros(nets.theta_size(sig))
    theta[3:] = [0.0, 1.0, 0.0]  # greedy on action 1
    network = ParametricPolicy(sig, theta)
    # Player 0's one view has actions (0, 1, 2), player 1's (0, 1).
    tree = make_game("matrix_game", {"rows": [[0, 0]] * 3}).tree
    view, unseen = (infosets.views[0] for infosets in tree.infosets)
    rng = np.random.default_rng(0)
    for policy in (tabular, copied, network):
        assert policy.reading(tree, 0).draw(view, rng) == 1

    def cdf(policy, player):
        return policy.reading(tree, player).cdfs[0]

    assert cdf(tabular, 0) is cdf(network, 0)
    assert cdf(copied, 0) is not cdf(network, 0)
    assert cdf(copied, 0).tobytes() == cdf(network, 0).tobytes()
    other = TabularPolicy()
    for policy in (tabular, other):
        policy.reading(tree, 1).draw(unseen, rng)
    assert tabular.action_probs(unseen) is _uniform(2)
    assert cdf(tabular, 1) is cdf(other, 1)


def test_mixture_validation():
    with pytest.raises(PolicyError):
        PolicyMixture([], [])
    with pytest.raises(PolicyError):
        PolicyMixture([TabularPolicy()], [0.5])
    with pytest.raises(PolicyError):
        PolicyMixture([TabularPolicy(), TabularPolicy()], [0.7, 0.7])


NAN = float("nan")


@pytest.mark.parametrize("dist", [[NAN, 1.0], [NAN, NAN], [0.5, 0.5, NAN],
                                  [np.inf, -np.inf]])
def test_tabular_refuses_nan(dist):
    with pytest.raises(PolicyError):
        TabularPolicy({"s": np.array(dist)})


@pytest.mark.parametrize("weights", [[NAN, 1.0], [NAN, NAN], [0.0, NAN]])
def test_mixture_refuses_nan_weights(weights):
    with pytest.raises(PolicyError):
        PolicyMixture([TabularPolicy(), TabularPolicy()], weights)


@pytest.mark.parametrize("weights", [[NAN, 1.0], [NAN, NAN], [0.0, NAN]])
def test_fusion_refuses_nan_weights(weights):
    a, b = TabularPolicy(), TabularPolicy({"s": np.array([1.0, 0.0])})
    with pytest.raises(PolicyError):
        fuse_tabular([a, b], weights)


@pytest.mark.parametrize("text", [
    '{"table": {"k": [NaN, 1.0]}}', '{"table": {"k": [0.5, 0.5]}',
    '{"theta": [0.0]}', '{"table": [1.0]}', '[1.0]', '{"y": 1}', ''])
def test_checkpoint_loads_refuses_what_holds_no_policy(text):
    with pytest.raises(PolicyError):
        checkpoint_loads(text)


def test_tabular_checkpoint_ignores_insertion_order():
    dists = {"b": np.array([0.25, 0.75]), "a": np.array([1.0, 0.0]),
             "c": np.array([0.5, 0.5])}
    forward = TabularPolicy(dists)
    backward = TabularPolicy(dict(reversed(list(dists.items()))))
    assert list(forward.table) != list(backward.table)
    assert checkpoint_dumps(forward) == checkpoint_dumps(backward)


def _per_element_dumps(policy) -> str:
    """`checkpoint_dumps` as it was written before: one ``float`` call per
    entry."""
    if isinstance(policy, ParametricPolicy):
        sig = policy.signature
        payload = {"input_dim": sig.input_dim,
                   "hidden_layers": list(sig.hidden_layers),
                   "output_dim": sig.output_dim,
                   "activation": sig.activation,
                   "theta": [float(t) for t in policy.theta]}
    elif isinstance(policy, TabularPolicy):
        payload = {"table": {k: [float(p) for p in v]
                             for k, v in sorted(policy.table.items())}}
    else:
        payload = {"x": [float(policy.x[0]), float(policy.x[1])]}
    return json.dumps(payload, separators=(",", ":"))


def test_checkpoint_floats_match_per_element_writes():
    """Checkpoints write each float as ``float(entry)`` would, byte for
    byte, the sign of zero, the smallest subnormal and the largest
    magnitudes included, and read back to the same bits."""
    edges = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]
    sig = ArchSignature(2, (3,), 2)
    theta = np.resize(edges, nets.theta_size(sig))
    checkpointed = [
        ParametricPolicy(sig, theta),
        TabularPolicy({"a": np.array([-0.0, 5e-324, 1.0]),
                       "b": np.array([0.1, 0.9]), "c": _one_hot(3, 1)}),
        PointPolicy([-0.0, 5e-324]), PointPolicy([1e308, -1e308]),
    ]
    for policy in checkpointed:
        text = checkpoint_dumps(policy)
        assert text == _per_element_dumps(policy)
        again = checkpoint_loads(text)
        assert checkpoint_dumps(again) == text
        if isinstance(policy, ParametricPolicy):
            assert again.theta.tobytes() == policy.theta.tobytes()
        elif isinstance(policy, TabularPolicy):
            assert again.table.keys() == policy.table.keys()
            for key, dist in policy.table.items():
                assert again.table[key].tobytes() == dist.tobytes()
        else:
            assert again.x.tobytes() == policy.x.tobytes()
