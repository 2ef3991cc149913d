"""Best-response oracle training: tabular Q-learning, DQN-lite, plane
gradient ascent, and the hull-divergence reward."""

import math

import numpy as np
import pytest

from gamepop.games import expected_value, make_game
from gamepop.games.ntmg import NtmgConfig
from gamepop.nets import ArchSignature
from gamepop.oracles import (DqnOracle, Step, dqn_oracle, exact_oracle,
                             gradient_check, ntmg_mixture_payoff, ntmg_oracle,
                             psd_intrinsic_reward, q_learning_oracle)
from gamepop.policies import (InfosetView, PointPolicy, PolicyMixture,
                              TabularPolicy, scratch_init)

RPS_ROWS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def rps_pure(action):
    dist = np.zeros(3)
    dist[action] = 1.0
    return TabularPolicy({"p0": dist, "p1": dist})


def _mixture(policy):
    return PolicyMixture([policy], [1.0])


class TestExactOracle:
    def test_ignores_initialization_by_construction(self):
        game = make_game("kuhn_poker")
        policy = exact_oracle(game, TabularPolicy(), 0)
        assert expected_value(game, (policy, TabularPolicy()))[0] == \
            pytest.approx(0.5, abs=1e-10)


class TestQLearning:
    def test_rps_beats_pure_rock(self):
        game = make_game("matrix_game", {"rows": RPS_ROWS})
        policy = q_learning_oracle(game, None, _mixture(rps_pure(0)), 0,
                                   episodes=5000, lr=0.2, epsilon=0.2, seed=1)
        assert np.argmax(policy.table["p0"]) == 1  # paper
        assert expected_value(game, (policy, rps_pure(0)))[0] == 1.0

    def test_zero_episodes_returns_uniform_default(self):
        game = make_game("matrix_game", {"rows": RPS_ROWS})
        policy = q_learning_oracle(game, None, _mixture(rps_pure(0)), 0,
                                   episodes=0, seed=1)
        assert policy.table == {}
        view = game.tree.views[0, game.initial_state().infoset_key(0)]
        assert np.allclose(policy.action_probs(view), 1 / 3)

    def test_kuhn_approaches_exact_best_response(self):
        game = make_game("kuhn_poker")
        policy = q_learning_oracle(game, None, _mixture(TabularPolicy()), 0,
                                   episodes=20_000, lr=0.05, epsilon=0.2,
                                   seed=1)
        value = expected_value(game, (policy, TabularPolicy()))[0]
        assert value == pytest.approx(0.5, abs=0.1)

    def test_value_monotone_in_episodes_median(self):
        game = make_game("matrix_game", {"rows": RPS_ROWS})
        medians = []
        for episodes in (2, 20, 200):
            values = []
            for seed in range(5):
                policy = q_learning_oracle(game, None, _mixture(rps_pure(0)),
                                           0, episodes=episodes, lr=0.2,
                                           epsilon=0.2, seed=seed)
                values.append(expected_value(game, (policy, rps_pure(0)))[0])
            medians.append(np.median(values))
        assert medians == sorted(medians)

    def test_init_seeds_first_touch_q_values(self):
        game = make_game("matrix_game", {"rows": RPS_ROWS})
        init = TabularPolicy({"p0": np.array([0.0, 1.0, 0.0])})
        policy = q_learning_oracle(game, init, _mixture(rps_pure(0)), 0,
                                   episodes=0, seed=0)
        assert policy.table == {}  # no episodes: nothing learned or copied
        policy = q_learning_oracle(game, init, _mixture(rps_pure(0)), 0,
                                   episodes=1, lr=0.0, epsilon=0.0, seed=0)
        assert np.argmax(policy.table["p0"]) == 1  # greedy in copied values

    def test_deterministic_given_seed(self):
        game = make_game("kuhn_poker")
        a = q_learning_oracle(game, None, _mixture(TabularPolicy()), 0,
                              episodes=500, seed=3)
        b = q_learning_oracle(game, None, _mixture(TabularPolicy()), 0,
                              episodes=500, seed=3)
        assert sorted(a.table) == sorted(b.table)
        for key in a.table:
            assert np.array_equal(a.table[key], b.table[key])


def _desk_cfg(episodes, **overrides):
    base = dict(replay_capacity=2000, batch_size=64, lr=5e-3,
                gamma_discount=1.0, epsilon=0.1, target_update_every=5,
                episodes=episodes, optimizer="adam")
    base.update(overrides)
    return DqnOracle(**base)


class TestDqn:
    def test_exploits_pure_opponent_in_rps(self):
        game = make_game("matrix_game", {"rows": RPS_ROWS})
        sig = ArchSignature(game.encoding_dim(), (16,),
                            game.num_distinct_actions())
        init = scratch_init("normal", sig, 0)
        policy, curve = dqn_oracle(game, init, _mixture(rps_pure(0)), 0,
                                   _desk_cfg(2000, lr=0.01), seed=0)
        tail = np.mean([r for _, r in curve[-100:]])
        assert tail >= 0.9
        assert expected_value(game, (policy, rps_pure(0)))[0] == 1.0

    def test_zero_episodes_returns_init_unchanged(self):
        game = make_game("kuhn_poker")
        sig = ArchSignature(game.encoding_dim(), (8,),
                            game.num_distinct_actions())
        init = scratch_init("normal", sig, 1)
        policy, curve = dqn_oracle(game, init, _mixture(TabularPolicy()), 0,
                                   _desk_cfg(0), seed=0)
        assert policy is init
        assert curve == []

    def test_kuhn_close_to_exact_best_response(self):
        game = make_game("kuhn_poker")
        sig = ArchSignature(game.encoding_dim(), (32,),
                            game.num_distinct_actions())
        values = []
        for seed in range(5):
            init = scratch_init("normal", sig, seed)
            policy, _ = dqn_oracle(game, init, _mixture(TabularPolicy()), 0,
                                   _desk_cfg(600), seed=seed)
            values.append(expected_value(game, (policy, TabularPolicy()))[0])
        assert np.median(values) == pytest.approx(0.5, abs=0.15)

    def test_deterministic_given_seed(self):
        game = make_game("liars_dice", {"faces": 2})
        sig = ArchSignature(game.encoding_dim(), (16,),
                            game.num_distinct_actions())
        init = scratch_init("normal", sig, 2)
        a, curve_a = dqn_oracle(game, init, _mixture(TabularPolicy()), 0,
                                _desk_cfg(150), seed=9)
        b, curve_b = dqn_oracle(game, init, _mixture(TabularPolicy()), 0,
                                _desk_cfg(150), seed=9)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert curve_a == curve_b

    def test_soft_target_update_and_grad_clip_paths(self):
        game = make_game("liars_dice", {"faces": 2})
        sig = ArchSignature(game.encoding_dim(), (8,),
                            game.num_distinct_actions())
        init = scratch_init("normal", sig, 3)
        policy, _ = dqn_oracle(
            game, init, _mixture(TabularPolicy()), 0,
            _desk_cfg(60, soft_update_tau=0.01, grad_clip=1.0,
                      optimizer="sgd", lr=1e-3), seed=4)
        assert np.all(np.isfinite(policy.theta))

    def test_signature_must_match_game(self):
        game = make_game("kuhn_poker")
        wrong = scratch_init("normal", ArchSignature(3, (4,), 2), 0)
        with pytest.raises(ValueError):
            dqn_oracle(game, wrong, _mixture(TabularPolicy()), 0,
                       _desk_cfg(10), seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DqnOracle(batch_size=10, replay_capacity=5)
        with pytest.raises(ValueError):
            DqnOracle(lr=0.0)
        with pytest.raises(ValueError):
            DqnOracle(epsilon=1.5)
        with pytest.raises(ValueError):
            DqnOracle(optimizer="rmsprop")


class TestNtmgOracle:
    cfg = NtmgConfig()

    def test_gradient_matches_finite_differences(self):
        assert gradient_check(self.cfg, num_points=100, seed=0) < 1e-5

    def test_stationary_at_mirror_point(self):
        # Opponent at the origin: by symmetry the gradient there vanishes.
        opponent = PolicyMixture([PointPolicy([0.0, 0.0])], [1.0])
        policy, traj = ntmg_oracle(PointPolicy([0.0, 0.0]), opponent,
                                   steps=50, lr=1.0, cfg=self.cfg)
        assert np.allclose(policy.x, [0.0, 0.0], atol=1e-9)
        assert len(traj) == 51

    def test_ascent_improves_mixture_payoff(self):
        centers = self.cfg.centers()
        opponent = PolicyMixture([PointPolicy(centers[1]),
                                  PointPolicy(centers[4])], [0.7, 0.3])
        start = PointPolicy(centers[0] + np.array([1.0, -1.5]))
        final, traj = ntmg_oracle(start, opponent, steps=150, lr=1.0,
                                  cfg=self.cfg)
        assert ntmg_mixture_payoff(final.x, opponent, self.cfg) > \
            ntmg_mixture_payoff(start.x, opponent, self.cfg)
        assert np.all(np.abs(final.x) <= self.cfg.plane_bound + 1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ntmg_oracle(PointPolicy([0, 0]),
                        PolicyMixture([PointPolicy([1, 1])], [1.0]),
                        steps=0, lr=1.0, cfg=self.cfg)


class TestPsdReward:
    view = InfosetView("s", (0, 1), None)

    def _steps(self):
        return [Step(self.view, 0, 0.0, self.view),
                Step(self.view, 1, 1.0, None)]

    def test_hull_member_leaves_rewards_unchanged(self):
        uniform = TabularPolicy()
        rewards = psd_intrinsic_reward(self._steps(), uniform, [uniform],
                                       lam=1.0, gamma_discount=0.9)
        assert np.allclose(rewards, [0.0, 1.0], atol=1e-9)

    def test_zero_lambda_leaves_rewards_unchanged(self):
        pure = TabularPolicy({"s": np.array([1.0, 0.0])})
        rewards = psd_intrinsic_reward(self._steps(), pure, [TabularPolicy()],
                                       lam=0.0, gamma_discount=0.9)
        assert np.array_equal(rewards, [0.0, 1.0])

    def test_pure_vs_uniform_hull_closed_form(self):
        pure = TabularPolicy({"s": np.array([1.0, 0.0])})
        rewards = psd_intrinsic_reward(self._steps(), pure, [TabularPolicy()],
                                       lam=2.0, gamma_discount=0.9)
        bonus = 2.0 * math.log(2.0)  # KL(floored pure || uniform) per step
        assert rewards[1] == pytest.approx(1.0 + bonus, rel=1e-6)
        assert rewards[0] == pytest.approx(0.9 * bonus, rel=1e-6)

    def test_min_over_hull(self):
        pure = TabularPolicy({"s": np.array([1.0, 0.0])})
        near = TabularPolicy({"s": np.array([0.9, 0.1])})
        rewards = psd_intrinsic_reward(self._steps(), pure,
                                       [TabularPolicy(), near], lam=1.0,
                                       gamma_discount=1.0)
        expected = math.log(1.0 / 0.9)  # nearest hull sample dominates
        assert rewards[1] == pytest.approx(1.0 + expected, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            psd_intrinsic_reward(self._steps(), TabularPolicy(), [], 1.0, 0.9)
        with pytest.raises(ValueError):
            psd_intrinsic_reward(self._steps(), TabularPolicy(),
                                 [TabularPolicy()], -1.0, 0.9)
