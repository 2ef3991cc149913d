"""Population training loop for two-player zero-sum games.

Each iteration initializes one new policy per player (scratch, inheritance,
meta-strategy-weighted parameter fusion, or distillation), trains it as a
best response against the opponent's current meta-strategy mixture, extends
the restricted-game payoff matrix, and re-solves the meta-strategy.

Fusion uses the meta-strategy computed at the end of the previous iteration.
Before the fusion start iteration `c`, a historical policy is sampled from
the meta-strategy instead.

`_build_arena` checks a run description before any of it runs, and names
the field at fault: an oracle that does not fit the game, or an option of
`_OPTIONS` the arena does not list in its `honours`.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import json
import operator
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import meta_solvers, policies as pol
from .games import expected_value, exploitability, make_game
from .games.base import draw_index
from .games.ntmg import NtmgConfig, ntmg_payoff
from .meta_solvers import (FictitiousPlay, MetaGame, Nash, Prd, Uniform,
                           extend_payoff, fill_payoff)
from .nets import ArchSignature
from .oracles import (DqnOracle, PsdBonus, dqn_oracle, exact_oracle,
                      ntmg_mixture_payoff, ntmg_oracle, q_learning_oracle)
from .policies import (PointPolicy, PolicyMixture, TabularPolicy,
                       checkpoint_dumps, fuse_parameters, fuse_points,
                       fuse_tabular, kl_to_ensemble, sample_member,
                       scratch_init)
from .specs import TaggedUnion, setting, spec


class EngineError(Exception):
    pass


# ---------------------------------------------------------------------------
# Run description


@spec(EngineError)
class Scratch:
    kind: str = setting("normal", choices=("normal", "orthogonal", "kaiming"))


@spec(EngineError)
class InheritLatest:
    pass


@spec(EngineError)
class InheritBest:
    """Deterministic arm: copy the policy with the largest meta-strategy
    mass (lowest index on ties)."""


@spec(EngineError)
class SampleFromNE:
    pass


@spec(EngineError)
class NashFusion:
    c: int = setting(2, ge=0)  # fusion start iteration
    # None fuses the whole population
    top_k: int | None = setting(None, ge=1, none="all")
    # "uniform" weighs the selected set equally
    weights: str = setting("nash", choices=("nash", "uniform"))


@spec(EngineError)
class Distill:
    epochs: int = setting(200, ge=0)
    samples: int = setting(64, ge=1)
    lr: float = setting(0.05, gt=0.0)


@spec(EngineError)
class ExactOracle:
    pass


@spec(EngineError)
class QLearningOracle:
    episodes: int = setting(5_000, ge=1)
    lr: float = setting(0.1, ge=0.0)  # 0: the table keeps its initial values
    epsilon: float = setting(0.1, ge=0.0, le=1.0)
    gamma_discount: float = setting(1.0, ge=0.0)


@spec(EngineError)
class GradientOracle:
    steps: int = setting(150, ge=1)
    lr: float = setting(1.0, gt=0.0)


# Where a run-description field holds one of several specs, a tag names it.
ORACLES = TaggedUnion("kind", "oracle kind", {
    "exact": ExactOracle, "q_learning": QLearningOracle, "dqn": DqnOracle,
    "gradient": GradientOracle})
SOLVERS = TaggedUnion("kind", "meta-strategy solver", {
    "nash": Nash, "uniform": Uniform, "prd": Prd,
    "fictitious_play": FictitiousPlay})
INITS = TaggedUnion("method", "init method", {
    "scratch": Scratch, "inherit_latest": InheritLatest,
    "inherit_best": InheritBest, "sample_from_ne": SampleFromNE,
    "nash_fusion": NashFusion, "distill": Distill})


@spec(EngineError)
class PsdSpec:
    enabled: bool = False
    lam: float = setting(1.0, json="lambda", ge=0.0)
    hull_samples: int = setting(4, ge=1)


@spec(EngineError)
class EvalSpec:
    exact_exploitability_every: int = setting(1, ge=0)  # 0 disables
    approx_oracle: object | None = setting(None, json="approx_exploitability",
                                           union=ORACLES)
    approx_every: int = setting(0, ge=0)  # 0: final iteration only


@spec(EngineError)
class PayoffSpec:
    mode: str = setting("exact", choices=("exact", "monte_carlo"))
    episodes: int = setting(10_000, ge=1)


@spec(EngineError)
class DiagnosticsSpec:
    kl_compare: bool = False
    kl_states: int = setting(128, ge=1)


@spec(EngineError)
class PsroConfig:
    game: dict
    oracle: object = setting(union=ORACLES)
    mss: object = setting(union=SOLVERS)
    init: tuple  # per player, a member of INITS
    iterations: int = setting(ge=1)
    psd: PsdSpec = PsdSpec()
    eval: EvalSpec = EvalSpec()
    payoff: PayoffSpec = PayoffSpec()
    seeds: tuple[int, ...] = (0,)
    output_dir: str | None = None
    diagnostics: DiagnosticsSpec = DiagnosticsSpec()


@dataclass
class IterationRecord:
    iteration: int
    sigma_row: list
    sigma_col: list
    exploitability: float | None
    approx_exploitability: float | None
    pop_size_p1: int
    pop_size_p2: int
    t_meta: float
    t_br: float
    t_fusion: float
    t_payoff: float
    t_eval_exact: float
    t_eval_approx: float
    t_io: float
    t_diag: float
    kl_compare: list = field(default_factory=list)


@dataclass
class RunHistory:
    records: list
    populations: tuple
    meta: MetaGame
    sigmas: tuple


def _derive_seed(*parts) -> list[int]:
    return [int(p) & 0x7FFFFFFF for p in parts]


def _mix_seed(*parts) -> int:
    h = 0
    for p in parts:
        h = (h * 1_000_003 + int(p)) % (2 ** 31)
    return h


# ---------------------------------------------------------------------------
# Initialization menu


def top_k_filter(sigma, k: int) -> np.ndarray:
    """Keep the k largest entries (lowest index on ties), renormalized."""
    sigma = np.asarray(sigma, dtype=float)
    if not 1 <= k <= len(sigma):
        raise EngineError(f"top_k={k} out of range for {len(sigma)} policies")
    order = np.argsort(-sigma, kind="stable")
    keep = order[:k]
    out = np.zeros_like(sigma)
    out[keep] = sigma[keep]
    total = out.sum()
    if total <= 0.0:
        out[keep] = 1.0 / k
    else:
        out /= total
    return out


def init_new_policy(pop, sigma, t: int, method, seed, arena,
                    player: int = 0):
    """Build the next policy to train, per the configured initialization.

    Inheriting and sampling hand out the population member itself: policies
    are never changed after they are built."""
    if not pop:
        raise EngineError("population is empty")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(pop),):
        raise EngineError("sigma length must match the population")
    if isinstance(method, Scratch):
        return arena.scratch(seed, method.kind)
    if isinstance(method, InheritLatest):
        return pop[-1]
    if isinstance(method, InheritBest):
        return pop[int(np.argmax(sigma))]
    if (isinstance(method, SampleFromNE)
            or isinstance(method, NashFusion) and t < method.c):
        return pop[draw_index(sigma, np.random.default_rng(seed))]
    if isinstance(method, NashFusion):
        if method.top_k is None:
            selected = np.arange(len(pop))
            weights = sigma
        else:
            k = min(method.top_k, len(pop))
            selected = np.argsort(-sigma, kind="stable")[:k]
            weights = top_k_filter(sigma, k)
        if method.weights == "uniform":
            weights = np.zeros(len(pop))
            weights[selected] = 1.0 / len(selected)
        return arena.fuse(pop, weights)
    if isinstance(method, Distill):
        return pol.distill(PolicyMixture(pop, sigma), arena.signature,
                           arena.game, method.epochs, method.samples,
                           method.lr,
                           int(np.random.default_rng(seed).integers(2 ** 31)),
                           player=player)
    raise EngineError(f"unknown init method {method!r}")


# ---------------------------------------------------------------------------
# Oracle dispatch


def _train_oracle(spec, game, init, opponent_mixture, player, seed,
                  psd_bonus=None):
    """Returns (policy, learning_curve_or_None, trajectory_or_None)."""
    if isinstance(spec, ExactOracle):
        return exact_oracle(game, opponent_mixture, player), None, None
    if isinstance(spec, QLearningOracle):
        policy = q_learning_oracle(
            game, init if isinstance(init, TabularPolicy) else None,
            opponent_mixture, player, spec.episodes, spec.lr, spec.epsilon,
            spec.gamma_discount,
            seed=int(np.random.default_rng(seed).integers(2 ** 31)))
        return policy, None, None
    if isinstance(spec, DqnOracle):
        policy, curve = dqn_oracle(
            game, init, opponent_mixture, player, spec,
            seed=int(np.random.default_rng(seed).integers(2 ** 31)),
            psd=psd_bonus)
        return policy, curve, None
    raise EngineError(f"unknown oracle spec {spec!r}")


# ---------------------------------------------------------------------------
# NTMG evaluation helpers

_NTMG_BR_STEPS = 120
_NTMG_BR_LR = 1.0


def ntmg_profile_value(pop_row, sigma_row, pop_col, sigma_col,
                       cfg: NtmgConfig) -> float:
    value = 0.0
    for wr, pr in zip(sigma_row, pop_row):
        for wc, pc in zip(sigma_col, pop_col):
            if wr * wc != 0.0:
                value += wr * wc * ntmg_payoff(pr.x, pc.x, cfg)
    return value


def ntmg_best_response_value(opponent: PolicyMixture,
                             cfg: NtmgConfig) -> float:
    """Approximate best payoff against a point mixture via multi-start
    gradient ascent (hump centers, origin, opponent points)."""
    starts = [c for c in cfg.centers()]
    starts.append(np.zeros(2))
    starts.extend(p.x for p, w in zip(opponent.members, opponent.weights)
                  if w > 0)
    best = -np.inf
    for start in starts:
        policy, _ = ntmg_oracle(PointPolicy(np.clip(start, -cfg.plane_bound,
                                                    cfg.plane_bound)),
                                opponent, _NTMG_BR_STEPS, _NTMG_BR_LR, cfg)
        best = max(best, ntmg_mixture_payoff(policy.x, opponent, cfg))
    return best


def ntmg_exploitability(pops, sigmas, cfg: NtmgConfig) -> float:
    value_row = ntmg_profile_value(pops[0], sigmas[0], pops[1], sigmas[1], cfg)
    gains = 0.0
    for player in (0, 1):
        opp = 1 - player
        br = ntmg_best_response_value(PolicyMixture(pops[opp], sigmas[opp]),
                                      cfg)
        current = value_row if player == 0 else -value_row
        gains += br - current
    return gains


# ---------------------------------------------------------------------------
# Approximate exploitability (trained best responses)


def _fit_init_to_oracle(init, game, oracle_spec, seed):
    """A DQN trainer needs network parameters; non-parametric mixture
    members fall back to a seeded scratch network."""
    if not isinstance(oracle_spec, DqnOracle) or hasattr(init, "theta"):
        return init
    signature = ArchSignature(game.encoding_dim(), oracle_spec.hidden_layers,
                              game.num_distinct_actions())
    return scratch_init("normal", signature,
                        np.random.default_rng(seed).integers(2 ** 31))


def approximate_exploitability(game, profile, oracle_spec, seed) -> float:
    """Exploitability with trained best responses in place of exact ones.

    Each player's response is initialized from a meta-strategy-sampled
    member of their own mixture and trained against the opponent mixture; a
    noisy lower bound on the exact quantity. Profile values are exact, so a
    game too large for its tree raises TraversalBudgetError.
    """
    current = expected_value(game, profile)
    total = 0.0
    for player in (0, 1):
        own = profile[player]
        opp = profile[1 - player]
        rng = np.random.default_rng(_derive_seed(seed, player, 11))
        init = _fit_init_to_oracle(sample_member(own, rng), game, oracle_spec,
                                   _derive_seed(seed, player, 13))
        trained, _, _ = _train_oracle(oracle_spec, game, init, opp, player,
                                      _derive_seed(seed, player, 12))
        pair = (trained, opp) if player == 0 else (opp, trained)
        total += expected_value(game, pair)[player] - current[player]
    return total


# ---------------------------------------------------------------------------
# Output writers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


RESULTS_COLUMNS = ["iteration", "exploitability", "approx_exploitability",
                   "pop_size_p1", "pop_size_p2"]
TIMINGS_COLUMNS = ["iteration", "t_meta", "t_br", "t_fusion", "t_payoff",
                   "t_eval_exact", "t_eval_approx", "t_io", "t_diag"]
RESULTS_VERSION = "gamepop-results-v1"


class _RunWriter:
    """Incremental per-run output; partial results stay on disk if the run
    aborts. Timing columns live in a separate file so results.csv is
    byte-reproducible for a given config and seed. A reused directory holds
    no output of its earlier run once the writer is made. Every write goes
    through `_text` or `_rows`, which do nothing without a run directory."""

    # The name of each output but results.csv and timings.csv, which a run
    # writes afresh, by the writer method that writes it. A writer made in a
    # used directory deletes the earlier run's files of these names, and a
    # folder of them that this leaves empty.
    OUTPUTS = dict(payoff_matrix="payoff_matrix_{t}.txt",
                   checkpoint="checkpoints/iter_{t:04d}_p{player}.json",
                   curve="curves/iter_{t:04d}_p{player}.csv",
                   trajectory="trajectories.csv", kl_compare="kl_compare.csv")

    def __init__(self, out_dir):
        self.dir = out_dir
        self._started = set()  # files `_rows` has written in this run
        self._folders = set()  # folders `_path` has made in this run
        for name in self.OUTPUTS.values() if out_dir is not None else ():
            pattern = re.sub(r"\{.*?\}", "*", name)
            for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
                os.remove(path)
            if os.path.dirname(name):
                with contextlib.suppress(OSError):  # absent, or holds more
                    os.rmdir(os.path.join(out_dir, os.path.dirname(name)))
        self._rows("results.csv", RESULTS_COLUMNS, [],
                   preamble=f"# {RESULTS_VERSION}\n")
        self._rows("timings.csv", TIMINGS_COLUMNS, [])

    def record(self, rec: IterationRecord):
        for name, columns in (("results.csv", RESULTS_COLUMNS),
                              ("timings.csv", TIMINGS_COLUMNS)):
            self._rows(name, columns, [[_fmt(getattr(rec, c))
                                        for c in columns]])

    def payoff_matrix(self, t: int, meta: MetaGame):
        rows, cols = meta.payoff.shape
        lines = [f"rows {rows} cols {cols}",
                 "row_ids " + " ".join(f"p0_{i}" for i in range(rows)),
                 "col_ids " + " ".join(f"p1_{j}" for j in range(cols))]
        lines += [" ".join(repr(float(v)) for v in row) for row in meta.payoff]
        self._text(self.OUTPUTS["payoff_matrix"].format(t=t),
                   "\n".join(lines) + "\n")

    def checkpoint(self, t: int, player: int, policy):
        self._text(self.OUTPUTS["checkpoint"].format(t=t, player=player),
                   checkpoint_dumps(policy))

    def curve(self, t: int, player: int, curve):
        if curve is None:
            return
        self._rows(self.OUTPUTS["curve"].format(t=t, player=player),
                   ["episode", "mean_reward_window"],
                   [[episode, _fmt(float(mean))] for episode, mean in curve])

    def trajectory(self, t: int, player: int, traj):
        if traj is None:
            return
        self._rows(self.OUTPUTS["trajectory"],
                   ["iteration", "player", "step", "x", "y"],
                   [[t, player, step, *(_fmt(float(v)) for v in point)]
                    for step, point in enumerate(traj)])

    def kl_compare(self, rows):
        if not rows:
            return
        self._rows(self.OUTPUTS["kl_compare"],
                   ["iteration", "player", "kl_fusion", "kl_inherit",
                    "kl_scratch"], [[_fmt(v) for v in row] for row in rows])

    def _path(self, name):
        """The path of a run file, making its folder on the run's first
        write there (after the start-of-run deletion, which may remove
        it)."""
        path = os.path.join(self.dir, name)
        folder = os.path.dirname(path)
        if folder not in self._folders:
            os.makedirs(folder, exist_ok=True)
            self._folders.add(folder)
        return path

    def _text(self, name, text):
        """Write a file of the run directory afresh."""
        if self.dir is not None:
            with open(self._path(name), "w") as fh:
                fh.write(text)

    def _rows(self, name, header, rows, preamble=""):
        """Add rows to a CSV in the run directory. The run's first write to
        a file starts it afresh with `preamble` and the header, so a
        directory reused from an earlier run does not keep that run's
        rows."""
        if self.dir is None:
            return
        first = name not in self._started
        self._started.add(name)
        with open(self._path(name), "w" if first else "a", newline="") as fh:
            w = csv.writer(fh)
            if first:
                fh.write(preamble)
                w.writerow(header)
            w.writerows(rows)


# ---------------------------------------------------------------------------
# The loop


class _Arena:
    """One game family: the only object that knows its policy type. It
    builds fresh (`scratch`) and fused (`fuse`) policies, and runs the four
    operations the loop needs: initial populations, payoff fill,
    exploitability, and best-response training."""

    game = None  # the game tree, for tree-only steps (distill, diagnostics)
    honours = ()  # the `_OPTIONS` fields this family carries out

    def initial_populations(self, seed):
        return tuple([self.scratch(_derive_seed(seed, 0, player, 6),
                                   "normal")] for player in (0, 1))


class TreeArena(_Arena):
    """An extensive-form game with tabular policies.

    `exploitability` keeps each player's exact best response with the
    mixture it answers, and `train` hands it out for the exact oracle when
    asked to answer that mixture again: the same members, by identity, and
    the same weight bytes. The next iteration asks exactly that when it
    follows an evaluation; any other request is computed afresh.
    """

    honours = ("eval.approx_exploitability", "payoff.mode")

    def __init__(self, config: PsroConfig, game):
        self.config = config
        self.game = game
        self._answered = {}  # player -> (members, weight bytes, response)

    def scratch(self, seed, kind):
        return TabularPolicy({})  # uniform everywhere

    def fuse(self, members, weights):
        return fuse_tabular(members, weights)

    def fill_payoffs(self, meta, pops, seed):
        payoff = self.config.payoff
        episodes = payoff.episodes if payoff.mode == "monte_carlo" else None
        return extend_payoff(meta, self.game, pops, episodes, seed)

    def exploitability(self, pops, sigmas):
        mixtures = (PolicyMixture(pops[0], sigmas[0]),
                    PolicyMixture(pops[1], sigmas[1]))
        total, responses = exploitability(self.game, mixtures,
                                          with_responses=True)
        for player in (0, 1):
            opponent = mixtures[1 - player]
            self._answered[player] = (tuple(opponent.members),
                                      opponent.weights.tobytes(),
                                      responses[player])
        return total

    def train(self, init, opponent, player, seed, psd_bonus):
        if (isinstance(self.config.oracle, ExactOracle)
                and player in self._answered):
            members, weights, response = self._answered[player]
            if (weights == opponent.weights.tobytes()
                    and len(members) == len(opponent.members)
                    and all(map(operator.is_, members, opponent.members))):
                return response, None, None
        return _train_oracle(self.config.oracle, self.game, init, opponent,
                             player, seed, psd_bonus)


class NetworkArena(TreeArena):
    """An extensive-form game with action-value networks of one
    architecture."""

    honours = TreeArena.honours + ("psd.enabled", "diagnostics.kl_compare",
                                   "init.kind", "init.method")

    def __init__(self, config: PsroConfig, game, hidden_layers):
        super().__init__(config, game)
        self.signature = ArchSignature(game.encoding_dim(),
                                       tuple(hidden_layers),
                                       game.num_distinct_actions())

    def scratch(self, seed, kind):
        return scratch_init(kind, self.signature,
                            np.random.default_rng(seed).integers(2 ** 31))

    def fuse(self, members, weights):
        return fuse_parameters(members, weights)


class PlaneArena(_Arena):
    """The seven-hump plane game: point policies, closed-form payoffs,
    gradient-ascent responses."""

    def __init__(self, config: PsroConfig, cfg: NtmgConfig):
        self.oracle = config.oracle
        self.cfg = cfg

    def scratch(self, seed, kind):
        rng = np.random.default_rng(seed)
        span = self.cfg.center_radius
        return PointPolicy(rng.uniform(-span, span, 2), self.cfg.plane_bound)

    def fuse(self, members, weights):
        return fuse_points(members, weights, self.cfg.plane_bound)

    def fill_payoffs(self, meta, pops, seed):
        return fill_payoff(meta, pops, lambda r, c: ntmg_payoff(
            pops[0][r].x, pops[1][c].x, self.cfg))

    def exploitability(self, pops, sigmas):
        return ntmg_exploitability(pops, sigmas, self.cfg)

    def train(self, init, opponent, player, seed, psd_bonus):
        policy, traj = ntmg_oracle(init, opponent, self.oracle.steps,
                                   self.oracle.lr, self.cfg)
        return policy, None, traj


# Each optional run option, declared once: (field, is set, why an arena that
# does not list the field in its `honours` refuses it).
_OPTIONS = (
    ("psd.enabled", lambda c: c.psd.enabled,
     "only the dqn oracle takes the intrinsic reward"),
    ("eval.approx_exploitability", lambda c: c.eval.approx_oracle is not None,
     "the mixture game supports exact exploitability only"),
    ("payoff.mode", lambda c: c.payoff.mode == "monte_carlo",
     "the mixture game's payoffs are closed-form"),
    ("diagnostics.kl_compare", lambda c: c.diagnostics.kl_compare,
     "only network policies are compared"),
    ("init.kind", lambda c: any(isinstance(m, Scratch) and m != Scratch()
                                for m in c.init),
     "only network policies have an initializer kind"),
    ("init.method", lambda c: any(isinstance(m, Distill) for m in c.init),
     "distillation trains network policies only"),
)


# The last game `_game` built, as (key, game): one slot, so every seed,
# sweep arm and evaluation in a process that asks for the same game shares
# its compiled tree, and a different game frees it.
_last_game = (None, None)


def _game(name: str, params: dict | None):
    """`make_game(name, params)`, or the last game built if it had the same
    name and the same parameters. Parameters compare by their JSON text,
    which keeps apart what equality would merge (-0.0 and 0.0); trees are
    read-only, so sharing one changes no result."""
    global _last_game
    key = json.dumps([name, params], sort_keys=True)
    if _last_game[0] != key:
        _last_game = (key, make_game(name, params))
    return _last_game[1]


def _build_arena(config: PsroConfig) -> _Arena:
    """The arena for `config`; EngineError, naming the field, for a run
    description no arena can carry out as written."""
    final_size = config.iterations + 1  # policies per player, last solve
    if isinstance(config.mss, Prd) and not config.mss.gamma < 1 / final_size:
        raise EngineError(f"mss.gamma: must be below 1/{final_size}: "
                          "replicator dynamics floors each of the final "
                          "policies at gamma")
    game = _game(config.game["name"], config.game.get("params"))
    oracle, approx = config.oracle, config.eval.approx_oracle
    plane = isinstance(game, NtmgConfig)
    if plane != isinstance(oracle, GradientOracle):
        raise EngineError("oracle.kind: the gradient oracle trains plane-game "
                          "points, and the plane game needs it")
    arena = (PlaneArena if plane else
             NetworkArena if isinstance(oracle, DqnOracle) else TreeArena)
    for option, is_set, reason in _OPTIONS:
        if option not in arena.honours and is_set(config):
            raise EngineError(f"{option}: {reason}")
    if not plane and isinstance(approx, GradientOracle):
        raise EngineError("eval.approx_exploitability: the gradient oracle "
                          "trains plane-game points only")
    if (arena is NetworkArena and isinstance(approx, DqnOracle)
            and approx.hidden_layers != oracle.hidden_layers):
        raise EngineError("eval.approx_exploitability.hidden_layers: must "
                          "equal oracle.hidden_layers: a dqn response to a "
                          "network member trains in that member's "
                          "architecture")
    if arena is NetworkArena:
        return NetworkArena(config, game, oracle.hidden_layers)
    return arena(config, game)


def run_psro(config: PsroConfig, seed: int,
             out_dir: str | None = None) -> RunHistory:
    """Run the population loop for one seed. Writes incremental outputs when
    `out_dir` is given and returns the full history.

    Each phase's wall time goes to its `TIMINGS_COLUMNS` column of `spent`
    through `timed`; the initial fill counts in iteration 1."""
    arena = _build_arena(config)
    writer = _RunWriter(out_dir)
    spent = dict.fromkeys(TIMINGS_COLUMNS[1:], 0.0)

    @contextlib.contextmanager
    def timed(phase):
        """Add the block's wall time to column `phase`; KeyError for a
        phase that is not a column."""
        before, start = spent[phase], time.perf_counter()
        yield
        spent[phase] = before + (time.perf_counter() - start)

    pops = arena.initial_populations(seed)
    with timed("t_payoff"):
        meta = arena.fill_payoffs(MetaGame(), pops, _mix_seed(seed, 2))
    sigmas = (np.ones(1), np.ones(1))
    records = []
    evals = config.eval
    # Outputs are written as each iteration completes, so a failing component
    # aborts the run with the partial history already on disk.
    for t in range(1, config.iterations + 1):
        kl_rows, new_policies = [], []
        for player in (0, 1):
            pop, sigma = pops[player], sigmas[player]
            with timed("t_fusion"):
                init = init_new_policy(pop, sigma, t, config.init[player],
                                       _derive_seed(seed, t, player, 0),
                                       arena, player)
            if config.diagnostics.kl_compare:
                with timed("t_diag"):
                    kl_rows.append(_kl_compare_row(config, seed, t, player,
                                                   arena, pop, sigma))
            psd_bonus = None
            if config.psd.enabled:
                rng = np.random.default_rng(_derive_seed(seed, t, player, 4))
                psd_bonus = PsdBonus([pop[i] for i in rng.integers(
                    len(pop), size=config.psd.hull_samples)], config.psd.lam)
            with timed("t_br"):
                trained, curve, traj = arena.train(
                    init, PolicyMixture(pops[1 - player], sigmas[1 - player]),
                    player, _derive_seed(seed, t, player, 1), psd_bonus)
            with timed("t_io"):
                writer.curve(t, player, curve)
                writer.trajectory(t, player, traj)
                writer.checkpoint(t, player, trained)
            new_policies.append(trained)
        for player in (0, 1):
            pops[player].append(new_policies[player])
        with timed("t_payoff"):
            meta = arena.fill_payoffs(meta, pops, _mix_seed(seed, 2))
        with timed("t_meta"):
            sigmas = meta_solvers.solve(meta.payoff, config.mss)
        # Each evaluation runs every k-th iteration and the last; k = 0
        # turns exact evaluation off and leaves approximate at the last.
        last = t == config.iterations
        exact = approx = None
        every = evals.exact_exploitability_every
        if every and (last or t % every == 0):
            with timed("t_eval_exact"):
                exact = float(arena.exploitability(pops, sigmas))
        every, spec = evals.approx_every, evals.approx_oracle
        if spec is not None and (last or every and t % every == 0):
            with timed("t_eval_approx"):
                approx = float(approximate_exploitability(
                    arena.game, (PolicyMixture(pops[0], sigmas[0]),
                                 PolicyMixture(pops[1], sigmas[1])),
                    spec, _mix_seed(seed, t, 3)))
        with timed("t_io"):
            writer.kl_compare(kl_rows)
            writer.payoff_matrix(t, meta)
        record = IterationRecord(
            iteration=t, sigma_row=[float(x) for x in sigmas[0]],
            sigma_col=[float(x) for x in sigmas[1]], exploitability=exact,
            approx_exploitability=approx, pop_size_p1=len(pops[0]),
            pop_size_p2=len(pops[1]), kl_compare=kl_rows, **spent)
        spent.update(dict.fromkeys(spent, 0.0))
        records.append(record)
        writer.record(record)
    return RunHistory(records, pops, meta, sigmas)


def _kl_compare_row(config, seed, t, player, arena, pop, sigma):
    """Divergence-to-ensemble of the three initialization candidates at the
    moment of initialization."""
    mixture = PolicyMixture(pop, sigma)
    fused = arena.fuse(pop, sigma)
    inherit = pop[-1]
    scratch = arena.scratch(_derive_seed(seed, t, player, 5), "normal")
    states = config.diagnostics.kl_states
    kl_seed = _mix_seed(seed, t, player, 7)
    values = kl_to_ensemble((fused, inherit, scratch), mixture, arena.game,
                            states, kl_seed, player=player)
    return (t, player, *values)
