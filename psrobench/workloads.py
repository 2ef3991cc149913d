"""The benchmark's workloads, built from the workload seed alone.

Two workloads are closed-loop PSRO runs on Leduc poker, driven through
`gamepop.config.parse_config` and `gamepop.engine.run_psro`: one run at a
time, the next starting when the previous one has written its outputs.

* ``dqn_leduc`` has the shape of ``configs/leduc_full.json`` at desk scale
  (32x32 network, batch 64, replay 2000, Adam 5e-3, epsilon 0.1), meta-Nash
  fusion init and Monte Carlo payoff entries. Learn steps, acting,
  frozen-network forwards and episode sampling do the work.
* ``exact_leduc`` uses the exact oracle, exact payoffs and exact
  exploitability every iteration: nearly all time is tree traversal with
  tabular lookups, no networks and no sampling.

The third, ``meta_solve``, solves a seeded sequence of restricted-game
matrices with `gamepop.meta_solvers.solve`. It is the only workload where
the meta-solver does most of the work; the PSRO workloads spend well under
1% there.

This module imports nothing from numpy or gamepop at load time, so the
set-up probe can time those imports itself.
"""

from __future__ import annotations

import copy

WORKLOADS = ("dqn_leduc", "exact_leduc", "meta_solve")

_LEDUC = {"name": "leduc_poker", "params": {}}

_PSRO = {
    "dqn_leduc": {
        "game": _LEDUC,
        "oracle": {"kind": "dqn", "hidden_layers": [32, 32],
                   "replay_capacity": 2000, "batch_size": 64,
                   "optimizer": "adam", "lr": 0.005, "gamma_discount": 1.0,
                   "epsilon": 0.1, "target_update_every": 5,
                   "episodes": 200},
        "mss": {"kind": "nash"},
        "init": {"method": "nash_fusion", "c": 2, "top_k": "all",
                 "weights": "nash"},
        "iterations": 4,
        "eval": {"exact_exploitability_every": 4,
                 "approx_exploitability": None, "approx_every": 0},
        "payoff": {"mode": "monte_carlo", "episodes": 200},
    },
    "exact_leduc": {
        "game": _LEDUC,
        "oracle": {"kind": "exact"},
        "mss": {"kind": "nash"},
        "init": {"method": "inherit_latest"},
        "iterations": 5,
        "eval": {"exact_exploitability_every": 1,
                 "approx_exploitability": None, "approx_every": 0},
        "payoff": {"mode": "exact"},
    },
}

# PSRO runs per repetition, each with its own seed. How long a DQN run
# takes depends on the policies its seed happens to learn (a policy that
# folds early plays shorter episodes): with one run per repetition, the
# repetitions of one seed agreed to within 5% but ten seeds spread by 0.05
# to 0.19. exact_leduc does the same work whatever the seed.
PSRO_RUNS = {"dqn_leduc": 2, "exact_leduc": 1}

# Smoke sizes keep each workload's shape and cut its length; the
# benchmark's own tests use them.
_PSRO_SMOKE = {
    "dqn_leduc": {"iterations": 2, "episodes": 20, "payoff_episodes": 20},
    "exact_leduc": {"iterations": 2},
}

# Restricted-game sizes from 10 up to 150, the population a 150-iteration
# leduc_full run reaches; 50, 100 and 150 are the sizes the per-layer
# metrics name.
META_SIZES = (10, 25, 50, 75, 100, 125, 150)
PRD_SIZES = (50, 100, 150)
PRD_STEPS = 5000
# The dense matrices are the same for every seed. How long the simplex runs
# on a dense matrix of size 150 differs by about 15% from one draw to the
# next, and those solves take most of a repetition, so seeded dense
# matrices would make run time measure the draw rather than the solver.
DENSE_STREAM = 7919
_META_SMOKE = {"sizes": (10, 20), "prd_sizes": (20,), "prd_steps": 50}
_LOW_RANK = 4


def psro_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The JSON run description of a PSRO workload for one seed."""
    config = copy.deepcopy(_PSRO[name])
    config["seeds"] = [seed]
    if smoke:
        size = _PSRO_SMOKE[name]
        config["iterations"] = size["iterations"]
        if config["eval"]["exact_exploitability_every"] > 1:
            config["eval"]["exact_exploitability_every"] = size["iterations"]
        if "episodes" in size:
            config["oracle"]["episodes"] = size["episodes"]
            config["payoff"]["episodes"] = size["payoff_episodes"]
    return config


def run_seeds(name: str, seed: int) -> list[int]:
    """The seeds of the PSRO runs in one repetition of a workload seed;
    different workload seeds never share one."""
    runs = PSRO_RUNS[name]
    return [seed * runs + i for i in range(runs)]


def solver_config(mss: dict, seed: int) -> dict:
    """A run description whose only job is to carry a meta-solver spec
    through `parse_config`; meta_solve solves with its ``mss``."""
    return {"game": _LEDUC, "oracle": {"kind": "exact"}, "mss": mss,
            "init": {"method": "inherit_latest"}, "iterations": 1,
            "seeds": [seed]}


def setup_config(name: str, seed: int) -> dict:
    """The run description the set-up probe parses for a workload."""
    if name == "meta_solve":
        return solver_config({"kind": "nash"}, seed)
    return psro_config(name, seed)


def prd_spec(smoke: bool = False) -> dict:
    steps = _META_SMOKE["prd_steps"] if smoke else PRD_STEPS
    return {"kind": "prd", "gamma": 1e-3, "dt": 1e-3, "steps": steps}


def meta_matrices(seed: int, smoke: bool = False) -> list:
    """The seeded matrix sequence of meta_solve, as (structure, solver, M).

    Two structures per size: dense uniform entries, which are
    non-degenerate and pivot-heavy, and a rank-4 matrix whose rows and
    columns are drawn with replacement from a third as many distinct ones,
    the duplication that inherited policies give real populations. The
    dense matrices come from the fixed DENSE_STREAM, the low-rank ones
    from the seed. Every matrix is solved with ``nash``; the dense matrices
    at PRD_SIZES are also solved with ``prd``.
    """
    import numpy as np

    sizes = _META_SMOKE["sizes"] if smoke else META_SIZES
    prd_sizes = _META_SMOKE["prd_sizes"] if smoke else PRD_SIZES
    rng = np.random.default_rng([seed, 7919])
    dense_rng = np.random.default_rng(DENSE_STREAM)
    plan = []
    for n in sizes:
        dense = dense_rng.uniform(-1.0, 1.0, size=(n, n))
        distinct = max(2, n // 3)
        base = (rng.normal(size=(distinct, _LOW_RANK))
                @ rng.normal(size=(_LOW_RANK, distinct))) / _LOW_RANK
        low_rank = base[np.ix_(rng.integers(distinct, size=n),
                               rng.integers(distinct, size=n))]
        plan.append(("dense", "nash", dense))
        plan.append(("low_rank", "nash", low_rank))
        if n in prd_sizes:
            plan.append(("dense", "prd", dense))
    return plan


def payoff_mode(name: str) -> str | None:
    """How a workload fills payoff entries; None when it fills none."""
    if name == "meta_solve":
        return None
    return _PSRO[name]["payoff"]["mode"]
