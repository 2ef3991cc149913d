"""Population loop behavior: initialization menu, convergence, timing split,
approximate exploitability, determinism, and game reuse."""

import collections
import functools
import gc
import time
import weakref

import numpy as np
import pytest

import gamepop.engine as eng
from gamepop import meta_solvers
from gamepop.engine import (TIMINGS_COLUMNS, DiagnosticsSpec, Distill,
                            DqnOracle, EngineError, EvalSpec, ExactOracle,
                            GradientOracle, InheritBest, InheritLatest,
                            NashFusion, NetworkArena, PayoffSpec, PsdSpec,
                            PsroConfig, QLearningOracle, SampleFromNE,
                            Scratch, TreeArena, _build_arena,
                            approximate_exploitability, init_new_policy,
                            ntmg_exploitability, run_psro, top_k_filter)
from gamepop.games import KuhnPoker, LeducPoker, make_game
from gamepop.meta_solvers import Nash, Prd, Uniform
from gamepop.nets import ArchSignature, theta_size
from gamepop.policies import (ParametricPolicy, PolicyMixture, TabularPolicy,
                              checkpoint_dumps, scratch_init)

RPS_ROWS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
KUHN = {"name": "kuhn_poker", "params": {}}


def rps_config(iterations=4, init=InheritLatest(), mss=Nash(), **kwargs):
    return PsroConfig(
        game={"name": "matrix_game", "params": {"rows": RPS_ROWS}},
        oracle=ExactOracle(), mss=mss, init=(init, init),
        iterations=iterations, **kwargs)


class TestTopKFilter:
    def test_keep_two(self):
        assert np.allclose(top_k_filter([0.2, 0.5, 0.3], 2),
                           [0.0, 0.625, 0.375])

    def test_full_k_is_identity(self):
        sigma = np.array([0.2, 0.5, 0.3])
        assert np.allclose(top_k_filter(sigma, 3), sigma)

    def test_point_mass_survives(self):
        assert np.allclose(top_k_filter([0.0, 0.0, 1.0], 2), [0.0, 0.0, 1.0])

    def test_zero_mass_fallback_uniform(self):
        assert np.allclose(top_k_filter([0.0, 0.0, 0.0], 2), [0.5, 0.5, 0.0])

    def test_tie_prefers_lower_index(self):
        out = top_k_filter([0.4, 0.4, 0.2], 1)
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(EngineError):
            top_k_filter([0.5, 0.5], 0)
        with pytest.raises(EngineError):
            top_k_filter([0.5, 0.5], 3)


class TestInitNewPolicy:
    sig = ArchSignature(3, (4,), 2)

    def _pop(self, n, seed=0):
        return [scratch_init("normal", self.sig, seed + i) for i in range(n)]

    def _arena(self):
        game = make_game("kuhn_poker")
        arena = NetworkArena.__new__(NetworkArena)
        arena.game = game
        arena.signature = self.sig
        return arena

    def test_before_fusion_start_samples_from_sigma(self):
        pop = self._pop(1)
        policy = init_new_policy(pop, np.ones(1), t=1,
                                 method=NashFusion(c=2), seed=[1],
                                 arena=self._arena())
        assert policy.theta.tobytes() == pop[0].theta.tobytes()

    def test_fusion_delegates_to_fuse_parameters(self):
        arena = self._arena()
        sig = ArchSignature(2, (), 2)
        arena.signature = sig
        pop = [ParametricPolicy(sig, np.array([0., 2., 0., 0., 0., 0.])),
               ParametricPolicy(sig, np.array([2., 0., 0., 0., 0., 0.]))]
        policy = init_new_policy(pop, np.array([0.25, 0.75]), t=5,
                                 method=NashFusion(c=2), seed=[1], arena=arena)
        assert policy.theta[0] == 1.5 and policy.theta[1] == 0.5

    def test_top_one_degenerates_to_best_inheritance(self):
        pop = self._pop(3)
        sigma = np.array([0.2, 0.5, 0.3])
        fused = init_new_policy(pop, sigma, t=5,
                                method=NashFusion(c=0, top_k=1), seed=[1],
                                arena=self._arena())
        best = init_new_policy(pop, sigma, t=5, method=InheritBest(),
                               seed=[2], arena=self._arena())
        assert fused.theta.tobytes() == pop[1].theta.tobytes()
        assert best.theta.tobytes() == pop[1].theta.tobytes()

    def test_uniform_fusion_weights_over_selected(self):
        arena = self._arena()
        sig = ArchSignature(2, (), 2)
        arena.signature = sig
        thetas = [np.zeros(6), np.ones(6), np.full(6, 3.0)]
        pop = [ParametricPolicy(sig, t) for t in thetas]
        policy = init_new_policy(pop, np.array([0.1, 0.6, 0.3]), t=5,
                                 method=NashFusion(c=0, top_k=2,
                                                   weights="uniform"),
                                 seed=[1], arena=arena)
        assert np.allclose(policy.theta, 2.0)  # mean of members 1 and 2

    def test_uniform_fusion_covers_whole_population_without_top_k(self):
        # The uniform arm averages every historical policy, zero-mass
        # members included.
        arena = self._arena()
        sig = ArchSignature(2, (), 2)
        arena.signature = sig
        thetas = [np.zeros(6), np.ones(6), np.full(6, 2.0)]
        pop = [ParametricPolicy(sig, t) for t in thetas]
        policy = init_new_policy(pop, np.array([0.0, 0.5, 0.5]), t=5,
                                 method=NashFusion(c=0, weights="uniform"),
                                 seed=[1], arena=arena)
        assert np.allclose(policy.theta, 1.0)

    def test_inherit_latest_and_fusion_agree_on_point_mass(self):
        pop = self._pop(3)
        sigma = np.array([0.0, 0.0, 1.0])
        inherit = init_new_policy(pop, sigma, 5, InheritLatest(), [1],
                                  self._arena())
        fused = init_new_policy(pop, sigma, 5, NashFusion(c=0), [2],
                                self._arena())
        assert inherit.theta.tobytes() == fused.theta.tobytes()

    def test_sample_from_ne_deterministic_given_seed(self):
        pop = self._pop(3)
        sigma = np.array([0.3, 0.4, 0.3])
        a = init_new_policy(pop, sigma, 1, SampleFromNE(), [7],
                            self._arena())
        b = init_new_policy(pop, sigma, 1, SampleFromNE(), [7],
                            self._arena())
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_scratch_kind_flows_through(self):
        policy = init_new_policy(self._pop(1), np.ones(1), 1,
                                 Scratch("orthogonal"), [3], self._arena())
        assert policy.theta.shape == (theta_size(self.sig),)

    def test_tabular_ops_fuse(self):
        pop = [TabularPolicy({"s": np.array([1.0, 0.0])}),
               TabularPolicy({"s": np.array([0.0, 1.0])})]
        fused = init_new_policy(pop, np.array([0.5, 0.5]), 5, NashFusion(c=0),
                                [1], _build_arena(rps_config()))
        assert np.allclose(fused.table["s"], [0.5, 0.5])

    def test_errors(self):
        with pytest.raises(EngineError):
            init_new_policy([], np.ones(0), 1, InheritLatest(), [1],
                            _build_arena(rps_config()))
        with pytest.raises(EngineError):
            init_new_policy([TabularPolicy()], np.ones(2), 1, InheritLatest(),
                            [1], _build_arena(rps_config()))
        with pytest.raises(EngineError):
            NashFusion(c=-1)
        with pytest.raises(EngineError):
            NashFusion(top_k=0)
        with pytest.raises(EngineError):
            NashFusion(weights="softmax")


class TestRunPsro:
    def test_rps_exact_reaches_zero_exploitability(self):
        history = run_psro(rps_config(iterations=4), seed=0)
        assert len(history.records) == 4
        assert history.records[-1].exploitability <= 1e-6

    def test_single_iteration_population_sizes(self):
        history = run_psro(rps_config(iterations=1), seed=0)
        assert len(history.records) == 1
        assert history.records[0].pop_size_p1 == 2
        assert history.records[0].pop_size_p2 == 2

    def test_population_grows_by_one_per_iteration(self):
        history = run_psro(rps_config(iterations=5), seed=0)
        assert [r.pop_size_p1 for r in history.records] == [2, 3, 4, 5, 6]

    def test_kuhn_exact_converges(self):
        config = PsroConfig(
            game={"name": "kuhn_poker", "params": {}},
            oracle=ExactOracle(), mss=Nash(),
            init=(InheritLatest(), InheritLatest()), iterations=20)
        history = run_psro(config, seed=0)
        assert history.records[-1].exploitability < 0.05

    def test_matrix_double_oracle_converges_within_k_plus_one(self):
        rng = np.random.default_rng(77)
        for trial in range(4):
            M = rng.integers(-5, 6, (10, 10)).astype(float)
            config = PsroConfig(
                game={"name": "matrix_game", "params": {"rows": M.tolist()}},
                oracle=ExactOracle(), mss=Nash(),
                init=(InheritLatest(), InheritLatest()), iterations=11)
            history = run_psro(config, seed=trial)
            assert any(r.exploitability <= 1e-6 for r in history.records)

    def test_wall_time_split_recorded(self):
        history = run_psro(rps_config(iterations=2), seed=0)
        for rec in history.records:
            for part in (rec.t_meta, rec.t_br, rec.t_fusion, rec.t_payoff,
                         rec.t_eval_exact, rec.t_eval_approx, rec.t_io,
                         rec.t_diag):
                assert part >= 0.0

    def test_eval_time_covers_exploitability(self, tmp_path, monkeypatch):
        import time

        import gamepop.engine as eng
        exact = eng.TreeArena.exploitability
        write_payoffs = eng._RunWriter.payoff_matrix

        def slow_exploitability(self, pops, sigmas):
            time.sleep(0.05)
            return exact(self, pops, sigmas)

        def slow_payoff_matrix(self, t, meta):
            time.sleep(0.05)
            return write_payoffs(self, t, meta)

        monkeypatch.setattr(eng.TreeArena, "exploitability",
                            slow_exploitability)
        monkeypatch.setattr(eng._RunWriter, "payoff_matrix",
                            slow_payoff_matrix)
        out = tmp_path / "run"
        history = run_psro(rps_config(iterations=2), seed=0, out_dir=str(out))
        assert all(rec.t_eval_exact >= 0.05 for rec in history.records)
        assert all(rec.t_eval_approx < 0.05 for rec in history.records)
        assert all(rec.t_io >= 0.05 for rec in history.records)
        rows = (out / "timings.csv").read_text().splitlines()
        assert rows[0] == ("iteration,t_meta,t_br,t_fusion,t_payoff,"
                           "t_eval_exact,t_eval_approx,t_io,t_diag")
        cells = [[float(cell) for cell in row.split(",")] for row in rows[1:]]
        assert [row[5:] for row in cells] == [
            [rec.t_eval_exact, rec.t_eval_approx, rec.t_io, rec.t_diag]
            for rec in history.records]

    def test_payoff_time_covers_the_initial_fill(self, monkeypatch):
        """Iteration 1's ``t_payoff`` includes the fill of the initial 1x1
        matrix, which in a process's first run on a game also compiles the
        game's tree."""
        import time

        import gamepop.engine as eng
        fill = eng.TreeArena.fill_payoffs
        sizes = []

        def slow_initial_fill(self, meta, pops, seed):
            sizes.append(len(pops[0]))
            if len(sizes) == 1:
                time.sleep(0.05)
            return fill(self, meta, pops, seed)

        monkeypatch.setattr(eng.TreeArena, "fill_payoffs", slow_initial_fill)
        history = run_psro(rps_config(iterations=2), seed=0)
        assert sizes == [1, 2, 3]
        assert history.records[0].t_payoff >= 0.05
        assert history.records[1].t_payoff < 0.05

    def test_diag_time_covers_kl_compare(self, monkeypatch):
        """``t_diag`` holds the divergence diagnostics, and the fusion and
        best-response timers around them do not."""
        import time

        import gamepop.engine as eng
        compare = eng._kl_compare_row

        def slow_compare(*args):
            time.sleep(0.05)
            return compare(*args)

        monkeypatch.setattr(eng, "_kl_compare_row", slow_compare)
        dq = DqnOracle(hidden_layers=(4,), replay_capacity=50, batch_size=8,
                       lr=5e-3, gamma_discount=1.0, epsilon=0.1,
                       target_update_every=5, episodes=5, optimizer="adam")
        config = PsroConfig(
            game={"name": "liars_dice", "params": {"faces": 2}},
            oracle=dq, mss=Nash(), init=(InheritLatest(), InheritLatest()),
            iterations=2,
            diagnostics=DiagnosticsSpec(kl_compare=True, kl_states=4))
        history = run_psro(config, seed=0)
        for rec in history.records:
            assert rec.t_diag >= 0.1  # one comparison per player
            assert rec.t_fusion < 0.05 and rec.t_br < 0.05

    @pytest.mark.parametrize("column,owner,name", [
        ("t_meta", meta_solvers, "solve"),
        ("t_br", TreeArena, "train"),
        ("t_fusion", eng, "init_new_policy"),
        ("t_eval_approx", eng, "approximate_exploitability")])
    def test_each_phase_is_timed_in_its_own_column(self, monkeypatch, column,
                                                   owner, name):
        """A stand-in for one phase, slowed by 0.05 s, shows in that
        phase's column of every iteration, and no other column reaches
        0.05 s."""
        function = getattr(owner, name)

        def slowed(*args, **kwargs):
            time.sleep(0.05)
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, slowed)
        config = rps_config(iterations=2, eval=EvalSpec(
            approx_oracle=ExactOracle(), approx_every=1))
        for rec in run_psro(config, seed=0).records:
            assert getattr(rec, column) >= 0.05
            others = {other: getattr(rec, other)
                      for other in TIMINGS_COLUMNS[1:] if other != column}
            assert max(others.values()) < 0.05, others

    def test_history_deterministic_for_config_and_seed(self):
        config = PsroConfig(
            game={"name": "liars_dice", "params": {"faces": 2}},
            oracle=QLearningOracle(episodes=200), mss=Nash(),
            init=(SampleFromNE(), SampleFromNE()), iterations=3)
        a = run_psro(config, seed=5)
        b = run_psro(config, seed=5)
        assert [r.sigma_row for r in a.records] == [r.sigma_row for r in b.records]
        assert [r.exploitability for r in a.records] == \
            [r.exploitability for r in b.records]

    def test_uniform_mss_on_rps(self):
        history = run_psro(rps_config(iterations=3, mss=Uniform()), seed=0)
        assert history.records[-1].sigma_row == [0.25] * 4

    def test_psd_arm_runs(self):
        from gamepop.engine import PsdSpec
        dq = DqnOracle(hidden_layers=(16,), replay_capacity=500,
                       batch_size=32, lr=5e-3, gamma_discount=0.99,
                       epsilon=0.1, target_update_every=5, episodes=40,
                       optimizer="adam")
        config = PsroConfig(
            game={"name": "liars_dice", "params": {"faces": 2}},
            oracle=dq, mss=Nash(),
            init=(NashFusion(c=2), NashFusion(c=2)), iterations=2,
            psd=PsdSpec(enabled=True, lam=1.0, hull_samples=2))
        history = run_psro(config, seed=0)
        assert len(history.records) == 2

    def test_distill_init_runs(self):
        dq = DqnOracle(hidden_layers=(16,), replay_capacity=500,
                       batch_size=32, lr=5e-3, gamma_discount=1.0,
                       epsilon=0.1, target_update_every=5, episodes=30,
                       optimizer="adam")
        config = PsroConfig(
            game={"name": "liars_dice", "params": {"faces": 2}},
            oracle=dq, mss=Nash(),
            init=(Distill(epochs=10, samples=8, lr=0.1),
                  Distill(epochs=10, samples=8, lr=0.1)), iterations=2)
        history = run_psro(config, seed=0)
        assert len(history.records) == 2

    def test_prd_gamma_must_fit_the_final_population(self, tmp_path):
        # solve_prd needs gamma < 1/population, and the last solve of a
        # 4-iteration run sees 5 policies per player.
        mss = Prd(gamma=0.2, steps=1_000)
        with pytest.raises(EngineError, match="mss.gamma"):
            run_psro(rps_config(iterations=4, mss=mss), seed=0,
                     out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()
        history = run_psro(rps_config(iterations=3, mss=mss), seed=0)
        assert len(history.records) == 3

    def test_outputs_flushed_per_iteration(self, tmp_path):
        out = tmp_path / "run"
        run_psro(rps_config(iterations=3), seed=0, out_dir=str(out))
        assert (out / "results.csv").exists()
        assert (out / "timings.csv").exists()
        for t in (1, 2, 3):
            assert (out / f"payoff_matrix_{t}.txt").exists()
            assert (out / "checkpoints" / f"iter_{t:04d}_p0.json").exists()
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 3  # version comment + header + rows

    def test_partial_history_flushed_on_failure(self, tmp_path, monkeypatch):
        import gamepop.engine as eng
        out = tmp_path / "run"
        real_solve = eng.meta_solvers.solve
        calls = {"n": 0}

        def flaky_solve(M, kind):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("injected meta-solver failure")
            return real_solve(M, kind)

        monkeypatch.setattr(eng.meta_solvers, "solve", flaky_solve)
        with pytest.raises(RuntimeError):
            run_psro(rps_config(iterations=5), seed=0, out_dir=str(out))
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 2  # two completed iterations survive


class TestNtmgRun:
    def test_gradient_oracle_loop(self):
        config = PsroConfig(
            game={"name": "ntmg", "params": {}},
            oracle=GradientOracle(steps=50, lr=1.0), mss=Nash(),
            init=(NashFusion(c=0), NashFusion(c=0)), iterations=3,
            eval=EvalSpec(exact_exploitability_every=0))
        history = run_psro(config, seed=0)
        assert len(history.populations[0]) == 4
        from gamepop.games.ntmg import NtmgConfig
        value = ntmg_exploitability(history.populations, history.sigmas,
                                    NtmgConfig())
        assert value >= -1e-9

    @pytest.mark.parametrize("spec, field", [
        (dict(psd=PsdSpec(enabled=True)), "psd.enabled"),
        (dict(eval=EvalSpec(approx_oracle=ExactOracle())),
         "eval.approx_exploitability"),
        (dict(payoff=PayoffSpec(mode="monte_carlo")), "payoff.mode"),
        (dict(diagnostics=DiagnosticsSpec(kl_compare=True)),
         "diagnostics.kl_compare"),
        (dict(init=(Scratch("kaiming"), InheritLatest())), "init.kind"),
        # Game trees with the tabular oracles, and the plane game's oracle
        # asked to evaluate a tree.
        (dict(game=KUHN, oracle=ExactOracle(), psd=PsdSpec(enabled=True)),
         "psd.enabled"),
        (dict(game=KUHN, oracle=QLearningOracle(episodes=10),
              psd=PsdSpec(enabled=True)), "psd.enabled"),
        (dict(game=KUHN, oracle=ExactOracle(),
              diagnostics=DiagnosticsSpec(kl_compare=True)),
         "diagnostics.kl_compare"),
        (dict(game=KUHN, oracle=QLearningOracle(episodes=10),
              diagnostics=DiagnosticsSpec(kl_compare=True)),
         "diagnostics.kl_compare"),
        (dict(game=KUHN, oracle=ExactOracle(),
              init=(InheritLatest(), Scratch("orthogonal"))), "init.kind"),
        (dict(game=KUHN, oracle=QLearningOracle(episodes=10),
              init=(Scratch("kaiming"), Scratch("kaiming"))), "init.kind"),
        (dict(game=KUHN, oracle=ExactOracle(),
              eval=EvalSpec(approx_oracle=GradientOracle())),
         "eval.approx_exploitability"),
        # Distillation trains a network student.
        (dict(init=(Distill(), Distill())), "init.method"),
        (dict(game=KUHN, oracle=ExactOracle(),
              init=(Distill(), InheritLatest())), "init.method"),
        (dict(game=KUHN, oracle=QLearningOracle(episodes=10),
              init=(InheritLatest(), Distill())), "init.method"),
        # A dqn response to a network member keeps the member's layers.
        (dict(game=KUHN, oracle=DqnOracle(hidden_layers=(16,), episodes=0),
              eval=EvalSpec(approx_oracle=DqnOracle(hidden_layers=(8,),
                                                    episodes=0))),
         "eval.approx_exploitability.hidden_layers")])
    def test_unsupported_options_rejected(self, spec, field):
        config = PsroConfig(**{
            "game": {"name": "ntmg", "params": {}},
            "oracle": GradientOracle(steps=5, lr=1.0), "mss": Nash(),
            "init": (InheritLatest(), InheritLatest()), "iterations": 1,
            **spec})
        with pytest.raises(EngineError, match=field):
            run_psro(config, seed=0)

    def test_trajectories_written(self, tmp_path):
        config = PsroConfig(
            game={"name": "ntmg", "params": {}},
            oracle=GradientOracle(steps=20, lr=1.0), mss=Nash(),
            init=(InheritLatest(), InheritLatest()), iterations=2,
            eval=EvalSpec(exact_exploitability_every=0))
        run_psro(config, seed=0, out_dir=str(tmp_path / "run"))
        text = (tmp_path / "run" / "trajectories.csv").read_text()
        assert text.startswith("iteration,player,step,x,y")
        # 2 iterations x 2 players x 21 points
        assert len(text.strip().splitlines()) == 1 + 2 * 2 * 21

    def test_rerun_into_same_directory_replaces_trajectories(self, tmp_path):
        config = PsroConfig(
            game={"name": "ntmg", "params": {}},
            oracle=GradientOracle(steps=5, lr=1.0), mss=Nash(),
            init=(InheritLatest(), InheritLatest()), iterations=2,
            eval=EvalSpec(exact_exploitability_every=0))
        path = tmp_path / "run" / "trajectories.csv"
        run_psro(config, seed=0, out_dir=str(tmp_path / "run"))
        first = path.read_text()
        run_psro(config, seed=0, out_dir=str(tmp_path / "run"))
        assert path.read_text() == first


class TestExactResponseHandoff:
    """An exact-oracle run trains each player on the best response that the
    previous iteration's exploitability computed, when that response
    answers the same members (by identity) with the same weight bytes."""

    @staticmethod
    def count_best_responses(monkeypatch):
        # `best_response` and `exploitability` both compute each best
        # response through `evaluate._respond`.
        import gamepop.games.evaluate as evaluate
        calls = []
        real = evaluate._respond

        def counting(flat, opponent_mixture, responder):
            calls.append(responder)
            return real(flat, opponent_mixture, responder)

        monkeypatch.setattr(evaluate, "_respond", counting)
        return calls

    @staticmethod
    def kuhn_config(iterations, every):
        return PsroConfig(game=KUHN, oracle=ExactOracle(), mss=Nash(),
                          init=(InheritLatest(), InheritLatest()),
                          iterations=iterations,
                          eval=EvalSpec(exact_exploitability_every=every))

    def test_evaluated_iterations_hand_their_responses_on(self,
                                                          monkeypatch):
        calls = self.count_best_responses(monkeypatch)
        iterations = 4
        run_psro(self.kuhn_config(iterations, 1), seed=0)
        # Two trained in iteration 1, two per evaluation; 4T without the
        # handoff.
        assert len(calls) == 2 * iterations + 2

    def test_iteration_after_a_skipped_evaluation_recomputes(self,
                                                             monkeypatch):
        calls = self.count_best_responses(monkeypatch)
        run_psro(self.kuhn_config(5, 2), seed=0)
        # Evaluations at 2, 4 and 5; iterations 1, 2 and 4 follow none and
        # train afresh, iterations 3 and 5 reuse.
        assert len(calls) == 2 * 3 + 2 * 3

    def test_only_the_answered_mixture_reuses(self, monkeypatch):
        arena = _build_arena(self.kuhn_config(1, 1))
        pops = ([TabularPolicy()],
                [TabularPolicy(), TabularPolicy({"1": [0.0, 1.0]})])
        arena.exploitability(pops, (np.ones(1), np.array([1.0, 0.0])))
        calls = self.count_best_responses(monkeypatch)

        def train(members, weights):
            policy, _, _ = arena.train(None, PolicyMixture(members, weights),
                                       0, [0], None)
            return policy

        reused = train(pops[1], [1.0, 0.0])
        assert calls == []
        # Equal weights with other bytes, and an equal member that is
        # another object, are asked afresh.
        for members, weights in ((pops[1], [1.0, -0.0]),
                                 ([pops[1][0], TabularPolicy({"1": [0.0,
                                                                    1.0]})],
                                  [1.0, 0.0])):
            fresh = train(members, weights)
            assert checkpoint_dumps(fresh) == checkpoint_dumps(reused)
        assert calls == [0, 0]


class TestGameReuse:
    """Runs in one process share the last game built, compiled tree
    included, while they name the same game with the same parameters."""

    @staticmethod
    def game(name, params, **kwargs):
        config = PsroConfig(game={"name": name, "params": params},
                            oracle=ExactOracle(), mss=Nash(),
                            init=(InheritLatest(), InheritLatest()),
                            iterations=1, **kwargs)
        return _build_arena(config).game

    def test_seeds_share_the_game(self):
        first = self.game("kuhn_poker", {}, seeds=(0,))
        assert self.game("kuhn_poker", {}, seeds=(1,)) is first

    def test_other_parameters_build_their_own_game(self):
        four = self.game("goofspiel", {"num_cards": 4})
        five = self.game("goofspiel", {"num_cards": 5})
        again = self.game("goofspiel", {"num_cards": 4})
        assert len({id(four), id(five), id(again)}) == 3
        assert (four.num_cards, five.num_cards, again.num_cards) == (4, 5, 4)
        kuhn = self.game("kuhn_poker", {})
        leduc = self.game("leduc_poker", {})
        assert isinstance(kuhn, KuhnPoker) and isinstance(leduc, LeducPoker)

    def test_negative_zero_is_not_zero(self):
        """Rows equal as numbers but not as bits build their own game."""
        positive = self.game("matrix_game", {"rows": [[0.0, 1.0]]})
        assert not np.signbit(positive.tree.utility[0, 0])
        negative = self.game("matrix_game", {"rows": [[-0.0, 1.0]]})
        assert np.signbit(negative.tree.utility[0, 0])

    def test_one_game_is_kept(self):
        """A run on another game frees the last one's tree without waiting
        for the cyclic collector."""
        kuhn = PsroConfig(game=KUHN, oracle=ExactOracle(), mss=Nash(),
                          init=(InheritLatest(), InheritLatest()),
                          iterations=1)
        run_psro(kuhn, seed=0)
        tree = weakref.ref(_build_arena(kuhn).game.tree)
        gc.disable()
        try:
            run_psro(PsroConfig(game={"name": "leduc_poker", "params": {}},
                                oracle=ExactOracle(), mss=Nash(),
                                init=(InheritLatest(), InheritLatest()),
                                iterations=1), seed=0)
            assert tree() is None
        finally:
            gc.enable()

    def test_exact_runs_build_nothing_for_sampling(self):
        """An exact-oracle Leduc run with exact payoffs and exact
        exploitability every iteration samples no episode, so its tree
        builds the plan of the exact passes but not the walk that
        episodes read."""
        self.game("kuhn_poker", {})  # the kept Leduc game, if any, goes
        config = PsroConfig(game={"name": "leduc_poker", "params": {}},
                            oracle=ExactOracle(), mss=Nash(),
                            init=(InheritLatest(), InheritLatest()),
                            iterations=5, eval=EvalSpec(
                                exact_exploitability_every=1))
        run_psro(config, seed=0)
        built = vars(_build_arena(config).game.tree)
        assert "plan" in built and "walk" not in built

    def test_exact_runs_read_each_member_once_per_view(self, monkeypatch):
        """Members keep what exact passes read of them, and each best
        response is given its table when it is made: in a five-iteration
        exact-oracle Leduc run only the two initial members are read at
        all, each at most once per view."""
        reads = collections.Counter()
        action_probs = TabularPolicy.action_probs

        def counted(policy, view):
            reads[policy, view] += 1
            return action_probs(policy, view)

        monkeypatch.setattr(TabularPolicy, "action_probs", counted)
        config = PsroConfig(game={"name": "leduc_poker", "params": {}},
                            oracle=ExactOracle(), mss=Nash(),
                            init=(InheritLatest(), InheritLatest()),
                            iterations=5, eval=EvalSpec(
                                exact_exploitability_every=1))
        history = run_psro(config, seed=0)
        assert max(reads.values()) == 1
        assert {policy for policy, _ in reads} == {
            history.populations[0][0], history.populations[1][0]}

    def test_exact_runs_reach_each_member_once(self, monkeypatch):
        """In a five-iteration exact-oracle Leduc run, each member's own
        reach is made once per player it plays, and every side of every
        exact pass, sigma-weighted mixtures included, is read from its
        members' realization plans: each `_reach` makes one `_plans` matrix
        of its members. The tree's terminal chance probabilities are built
        once."""
        import gamepop.games.evaluate as evaluate
        from gamepop.games.base import FlatTree
        from gamepop.policies import Reading
        made, built = collections.Counter(), collections.Counter()
        own_reach, reach, plans = (Reading.own_reach, evaluate._reach,
                                   evaluate._plans)
        chance = FlatTree.chance.func
        sides, planned = [], []

        def counted(reading):
            made[reading] += reading.reach is None
            return own_reach(reading)

        def reached(flat, player, side, facing=False):
            members, weights = evaluate._as_members(side)
            sides.append((len(members), tuple(weights)))
            return reach(flat, player, side, facing)

        def planned_for(flat, player, members):
            planned.append(len(members))
            return plans(flat, player, members)

        def chanced(tree):
            built[tree] += 1
            return chance(tree)

        counted_chance = functools.cached_property(chanced)
        counted_chance.__set_name__(FlatTree, "chance")
        monkeypatch.setattr(Reading, "own_reach", counted)
        monkeypatch.setattr(evaluate, "_reach", reached)
        monkeypatch.setattr(evaluate, "_plans", planned_for)
        monkeypatch.setattr(FlatTree, "chance", counted_chance)
        monkeypatch.setattr(eng, "_last_game", (None, None))
        config = PsroConfig(game={"name": "leduc_poker", "params": {}},
                            oracle=ExactOracle(), mss=Nash(),
                            init=(InheritLatest(), InheritLatest()),
                            iterations=5, eval=EvalSpec(
                                exact_exploitability_every=1))
        history = run_psro(config, seed=0)
        readings = {member._readings[player]
                    for player, population in enumerate(history.populations)
                    for member in population}
        assert len(readings) == sum(map(len, history.populations)) == 12
        assert set(made) == readings and set(made.values()) == {1}
        assert planned == [count for count, _ in sides]
        assert any(w != 1.0 for _, weights in sides for w in weights)
        assert list(built.values()) == [1]


class TestApproximateExploitability:
    def test_profile_value_computed_once(self, monkeypatch):
        # One walk of the profile, shared by both players, plus one per
        # trained response.
        import gamepop.engine as eng
        calls = []
        real = eng.expected_value

        def counting(game, profile):
            calls.append(profile)
            return real(game, profile)

        monkeypatch.setattr(eng, "expected_value", counting)
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        profile = (PolicyMixture([uniform], [1.0]),
                   PolicyMixture([uniform], [1.0]))
        approximate_exploitability(game, profile, ExactOracle(), seed=0)
        assert len(calls) == 3

    def test_evaluated_every_kth_iteration_and_the_last(self):
        """Approximate evaluation keeps exact evaluation's cadence: every
        `approx_every`-th iteration and the last one."""
        config = PsroConfig(
            game=KUHN, oracle=ExactOracle(), mss=Nash(),
            init=(InheritLatest(), InheritLatest()), iterations=3,
            eval=EvalSpec(exact_exploitability_every=0,
                          approx_oracle=ExactOracle(), approx_every=2))
        records = run_psro(config, seed=0).records
        assert [rec.approx_exploitability is not None
                for rec in records] == [False, True, True]
        assert all(rec.exploitability is None for rec in records)

    def test_exact_oracle_reduces_to_exact_exploitability(self):
        from gamepop.games import exploitability
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        profile = (PolicyMixture([uniform], [1.0]),
                   PolicyMixture([uniform], [1.0]))
        approx = approximate_exploitability(game, profile, ExactOracle(),
                                            seed=0)
        exact = exploitability(game, profile)
        assert approx == pytest.approx(exact, abs=1e-9)

    def test_zero_episode_oracle_estimates_zero(self):
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        profile = (PolicyMixture([uniform], [1.0]),
                   PolicyMixture([uniform], [1.0]))
        approx = approximate_exploitability(
            game, profile, QLearningOracle(episodes=1, lr=0.0, epsilon=0.0),
            seed=0)
        assert abs(approx) < 0.2

    def test_lower_bounds_exact_up_to_slack(self):
        from gamepop.games import exploitability
        game = make_game("liars_dice", {"faces": 2})
        uniform = TabularPolicy()
        profile = (PolicyMixture([uniform], [1.0]),
                   PolicyMixture([uniform], [1.0]))
        exact = exploitability(game, profile)
        approx = approximate_exploitability(
            game, profile, QLearningOracle(episodes=2000), seed=1)
        assert approx <= exact + 0.1
        assert approx >= -0.1

    def test_kuhn_dqn_close_to_exact_median_over_seeds(self):
        from gamepop.games import exploitability
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        profile = (PolicyMixture([uniform], [1.0]),
                   PolicyMixture([uniform], [1.0]))
        exact = exploitability(game, profile)
        oracle = DqnOracle(
            hidden_layers=(32,), replay_capacity=2000, batch_size=64,
            lr=5e-3, gamma_discount=1.0, epsilon=0.1, target_update_every=5,
            episodes=600, optimizer="adam")
        values = [approximate_exploitability(game, profile, oracle, seed=s)
                  for s in range(5)]
        assert abs(np.median(values) - exact) <= 0.2
