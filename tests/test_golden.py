"""Golden outputs: small runs whose files are pinned across commits.

Every case runs one seed and compares `results.csv` byte for byte, plus one
SHA-256 over every other output file (payoff matrices, checkpoints, curves,
trajectories, divergence diagnostics; `timings.csv` excluded). The values
were recorded before the tree and plane runs shared one arena and episode
sampling went through one function (the tabular fusion case before the
arenas built fresh and fused policies themselves, `kuhn_approx_exact` before
every walk and episode read one game tree, the two exact-oracle cases
before exact runs reused their exploitability best responses and filled
payoff rows and columns in one walk each, `liars_dice5_exact` before
the exact passes dropped their scatter-adds, `leduc_dqn_monte_carlo` before
the DQN learn step ran one online forward and episodes drew from cached
CDFs). Five cases (`kuhn_distill`, `kuhn_exact_every_2`,
`kuhn_q_learning_fusion`, `leduc_exact`, `liars_dice5_exact`) were
re-recorded when exact evaluation moved to the sequence form, whose sums
move exact values in the last bits and can break near-ties differently;
the others kept their bytes. A change that is meant to keep behaviour must
keep them. Networks are tiny, so BLAS does little of the work.
"""

import hashlib
import os

import pytest

import gamepop.engine as engine
from gamepop.config import parse_config
from gamepop.games import TraversalBudgetError

KUHN = {"name": "kuhn_poker", "params": {}}
LEDUC = {"name": "leduc_poker", "params": {}}
HEADER = ("# gamepop-results-v1\n"
          "iteration,exploitability,approx_exploitability,pop_size_p1,"
          "pop_size_p2\n")

# name -> (config, results.csv rows, digest of the other outputs)
CASES = {
    # Learner episodes and Monte Carlo payoff entries.
    "kuhn_q_learning_monte_carlo": (
        {"game": KUHN, "oracle": {"kind": "q_learning", "episodes": 300},
         "mss": {"kind": "nash"}, "init": {"method": "sample_from_ne"},
         "iterations": 3, "seeds": [0],
         "payoff": {"mode": "monte_carlo", "episodes": 200}},
        "1,0.33333333333333337,,2,2\n2,0.25,,3,3\n"
        "3,0.33965850960873767,,4,4\n",
        "ce7cc9f8b1ff3fe1b1b5b752bbc6cc571c42dcca401333e53ce9179e5a527a63"),
    # Approximate exploitability: trained responses valued exactly.
    "kuhn_approx_exact": (
        {"game": KUHN, "oracle": {"kind": "q_learning", "episodes": 200},
         "mss": {"kind": "nash"}, "init": {"method": "inherit_latest"},
         "iterations": 2, "seeds": [0],
         "eval": {"exact_exploitability_every": 0,
                  "approx_exploitability": {"kind": "q_learning",
                                            "episodes": 200}},
         "payoff": {"mode": "monte_carlo", "episodes": 100}},
        "1,,,2,2\n2,,0.08139534883720934,3,3\n",
        "0410d6a86e5502a9103ab554e67f0112f614fa5314a06442c7a247449c9c1de0"),
    # Distillation and the divergence diagnostic both sample infosets.
    "kuhn_distill": (
        {"game": KUHN,
         "oracle": {"kind": "dqn", "hidden_layers": [8], "episodes": 20,
                    "batch_size": 8, "replay_capacity": 64},
         "mss": {"kind": "nash"},
         "init": {"method": "distill", "epochs": 3, "samples": 8, "lr": 0.1},
         "iterations": 3, "seeds": [0],
         "diagnostics": {"kl_compare": True, "kl_states": 16}},
        "1,0.6666666666666666,,2,2\n2,0.6666666666666666,,3,3\n"
        "3,0.6666666666666666,,4,4\n",
        "064ae373024689398d8c855fff2fdc48b2e2c9b461a35696725f6b002e8bc0ac"),
    # Tabular fusion inside a run: top-k Nash weights for one player,
    # uniform weights over the whole population for the other.
    "kuhn_q_learning_fusion": (
        {"game": KUHN, "oracle": {"kind": "q_learning", "episodes": 200},
         "mss": {"kind": "nash"},
         "init": {"p0": {"method": "nash_fusion", "c": 0, "top_k": 2},
                  "p1": {"method": "nash_fusion", "c": 0,
                         "weights": "uniform"}},
         "iterations": 4, "seeds": [0]},
        "1,0.6666666666666667,,2,2\n2,0.48809523809523814,,3,3\n"
        "3,0.3958333333333333,,4,4\n4,0.38888888888888906,,5,5\n",
        "3e6764e2a3915e8eb816f9991459f034b2943d908de0b34f1a772671eba570b0"),
    # Exact oracle, exact payoffs and exact exploitability every iteration:
    # the settings of the benchmark's exact_leduc workload.
    "leduc_exact": (
        {"game": LEDUC, "oracle": {"kind": "exact"}, "mss": {"kind": "nash"},
         "init": {"method": "inherit_latest"}, "iterations": 5, "seeds": [0],
         "eval": {"exact_exploitability_every": 1},
         "payoff": {"mode": "exact"}},
        "1,6.833333333333333,,2,2\n2,5.005256593014968,,3,3\n"
        "3,5.048508552357113,,4,4\n4,4.397458010335917,,5,5\n"
        "5,4.8702238602238594,,6,6\n",
        "bbdf24b011fe2a6962d4ad37b91cd86d64eb076953d7aa7e3fdd88175dd7ad29"),
    # Exact oracle with exploitability every other iteration: iterations 3
    # and 5 follow an evaluation, iteration 4 follows none.
    "kuhn_exact_every_2": (
        {"game": KUHN, "oracle": {"kind": "exact"}, "mss": {"kind": "nash"},
         "init": {"method": "inherit_latest"}, "iterations": 5, "seeds": [0],
         "eval": {"exact_exploitability_every": 2}},
        "1,,,2,2\n2,0.33333333333333337,,3,3\n3,,,4,4\n"
        "4,0.1666666666666665,,5,5\n5,0.10344827586206884,,6,6\n",
        "d54c0afceb0867fe5e8ea10f665ed550395104755be2675e05aadbf6a595e2d5"),
    # The shape of the benchmark's dqn_leduc workload, shortened: a DQN
    # learner of 32x32 from meta-Nash fusion, with learn steps, target
    # updates and a wrapping replay buffer, network members in Monte Carlo
    # payoff entries, and exact exploitability at the last iteration.
    "leduc_dqn_monte_carlo": (
        {"game": LEDUC,
         "oracle": {"kind": "dqn", "hidden_layers": [32, 32],
                    "replay_capacity": 128, "batch_size": 64,
                    "optimizer": "adam", "lr": 0.005, "epsilon": 0.1,
                    "target_update_every": 5, "episodes": 100},
         "mss": {"kind": "nash"}, "init": {"method": "nash_fusion", "c": 2},
         "iterations": 3, "seeds": [0],
         "eval": {"exact_exploitability_every": 3},
         "payoff": {"mode": "monte_carlo", "episodes": 50}},
        "1,,,2,2\n2,,,3,3\n3,3.8015210401448454,,4,4\n",
        "2cdc381c06686536fb50e0525670b49c18f4af9ad6bc4a4f6946fd7c2939a483"),
    # Exact oracle on a wider tree: Liar's Dice with five faces (51,181
    # nodes), whose bids give decision nodes of up to 10 children.
    "liars_dice5_exact": (
        {"game": {"name": "liars_dice", "params": {"faces": 5}},
         "oracle": {"kind": "exact"}, "mss": {"kind": "nash"},
         "init": {"method": "inherit_latest"}, "iterations": 3, "seeds": [0],
         "eval": {"exact_exploitability_every": 1},
         "payoff": {"mode": "exact"}},
        "1,1.0400000000000003,,2,2\n2,1.6690564344763565,,3,3\n"
        "3,1.2954557823129256,,4,4\n",
        "41cb4c428a68742cf3e8e784b9d54a9a4d93d95694707cf3e39ae6034cf46dfc"),
    "ntmg": (
        {"game": {"name": "ntmg", "params": {}},
         "oracle": {"kind": "gradient", "steps": 30, "lr": 1.0},
         "mss": {"kind": "nash"}, "init": {"method": "nash_fusion", "c": 0},
         "iterations": 3, "seeds": [0],
         "eval": {"exact_exploitability_every": 1}},
        "1,1.928585573881245,,2,2\n2,1.59892663879549,,3,3\n"
        "3,1.6129249371481837,,4,4\n",
        "fad0faafcaf27cafffcbb625d00551b07108e9d35d916690615dedc8e1fb7415"),
}


def outputs_digest(run_dir) -> str:
    digest = hashlib.sha256()
    for root, _, files in sorted(os.walk(run_dir)):
        for name in sorted(files):
            if name in ("timings.csv", "results.csv"):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, run_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    data, rows, digest = CASES[name]
    engine.run_psro(parse_config(data), 0, out_dir=str(tmp_path))
    assert (tmp_path / "results.csv").read_text() == HEADER + rows
    assert outputs_digest(str(tmp_path)) == digest


def test_tree_too_large_aborts_approximate_exploitability(tmp_path,
                                                          monkeypatch):
    """A game whose tree outgrows the cap fails the run; no sampled value
    stands in for the exact one."""
    def over_budget(*args, **kwargs):
        raise TraversalBudgetError("forced by the test")

    monkeypatch.setattr(engine, "expected_value", over_budget)
    with pytest.raises(TraversalBudgetError):
        engine.run_psro(parse_config(CASES["kuhn_approx_exact"][0]), 0,
                        out_dir=str(tmp_path))
    assert (tmp_path / "results.csv").read_text() == HEADER + "1,,,2,2\n"
