"""Layer timings measured from outside the program.

`Tracer` replaces public gamepop functions, at the names their callers look
them up by, with wrappers that time each call, and puts the originals back
when it is closed. The engine and the meta-solvers import names directly
(``from .games import exploitability``), so each such name is wrapped in the
module that calls it.

Coarse calls become spans (name, start, end, parent, run id) kept in
memory. Calls made millions of times per run (``State.child``,
``action_probs``, network forwards, sampled episodes) only add to counters,
so the trace stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name). Several names can feed one span name.
SPANS = (
    ("gamepop.config", "parse_config", "config.parse"),
    ("gamepop.engine", "run_psro", "engine.run"),
    ("gamepop.engine", "make_game", "games.build"),
    ("gamepop.engine", "init_new_policy", "engine.init"),
    ("gamepop.engine", "fuse_parameters", "policies.fuse"),
    ("gamepop.engine", "fuse_tabular", "policies.fuse"),
    ("gamepop.engine", "dqn_oracle", "oracles.br"),
    ("gamepop.engine", "exact_oracle", "oracles.br"),
    ("gamepop.engine", "q_learning_oracle", "oracles.br"),
    ("gamepop.engine", "extend_payoff", "meta_solvers.fill"),
    ("gamepop.meta_solvers", "solve", "meta_solvers.solve"),
    ("gamepop.engine", "exploitability", "engine.eval_exact"),
    ("gamepop.engine", "expected_value", "games.traversal"),
    ("gamepop.games.evaluate", "expected_value", "games.traversal"),
    ("gamepop.games.evaluate", "best_response", "games.traversal"),
    ("gamepop.meta_solvers", "expected_value", "games.traversal"),
    ("gamepop.oracles", "best_response", "games.traversal"),
)

# (module, attribute, counter name): timed, but not kept as spans.
COUNTERS = (
    ("gamepop.engine", "play_episode", "games.episode"),
    ("gamepop.meta_solvers", "play_episode", "games.episode"),
    ("gamepop.oracles", "run_learner_episode", "oracles.learner_episode"),
)

NASH_SIZES = (50, 100, 150)


def _forward_flops(signature, batch: int) -> int:
    dims = signature.dims
    return 2 * batch * sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))


def _backward_flops(signature, batch: int) -> int:
    """Weight gradients for every layer plus the delta propagated through
    every layer but the first."""
    dims = signature.dims
    weights = sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
    return 2 * batch * (2 * weights - dims[0] * dims[1])


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans and counters stay on
    the object after the wrappers are removed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counters = defaultdict(float)
        self.run_id = 0
        self.missing = []  # wrapped names the program no longer has
        self._open = []
        self._traversal_depth = 0
        self._restore = []

    # -- installing and removing wrappers --------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, make_wrapper):
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _install(self):
        self.missing = []
        for module, attr, name in SPANS:
            self._replace(importlib.import_module(module), attr,
                          functools.partial(self._span, name))
        for module, attr, name in COUNTERS:
            self._replace(importlib.import_module(module), attr,
                          functools.partial(self._counted, name))
        nets = importlib.import_module("gamepop.nets")
        self._replace(nets, "forward", self._forward)
        self._replace(nets, "forward_backward", self._forward_backward)
        policies = importlib.import_module("gamepop.policies")
        self._replace(policies.TabularPolicy, "action_probs",
                      functools.partial(self._counted,
                                        "policies.action_probs.tabular"))
        self._replace(policies.ParametricPolicy, "action_probs",
                      functools.partial(self._counted,
                                        "policies.action_probs.parametric"))
        base = importlib.import_module("gamepop.games.base")
        for state_class in base.State.__subclasses__():
            if "child" in state_class.__dict__:
                self._replace(state_class, "child", self._child)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        traversal = name == "games.traversal"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            record = [name, 0.0, 0.0, parent, self.run_id]
            self.spans.append(record)
            self._open.append(index)
            self._traversal_depth += traversal
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, time.perf_counter()
                self._traversal_depth -= traversal
                self._open.pop()
            self._after(name, args, result, record[2] - start)
            return result
        return wrapper

    def _after(self, name, args, result, seconds):
        if name == "meta_solvers.fill":
            self.counters["fill.entries"] += (int(result.filled.sum())
                                              - int(args[0].filled.sum()))
        elif name == "meta_solvers.solve":
            kind = type(args[1]).__name__
            size = len(args[0])
            if kind == "Nash" and size in NASH_SIZES:
                self.counters[f"nash.n{size}.s"] += seconds
                self.counters[f"nash.n{size}.calls"] += 1
            elif kind == "Prd":
                self.counters["prd.s"] += seconds
                self.counters["prd.steps"] += args[1].steps

    def _counted(self, name, fn):
        counters = self.counters
        calls, total = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[total] += time.perf_counter() - start
                counters[calls] += 1
        return wrapper

    def _forward(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(sig, theta, x):
            start = time.perf_counter()
            out = fn(sig, theta, x)
            seconds = time.perf_counter() - start
            kind = "single" if x.ndim == 1 else "batch"
            counters[f"forward.{kind}.s"] += seconds
            counters[f"forward.{kind}.calls"] += 1
            counters["flops"] += _forward_flops(sig, 1 if x.ndim == 1
                                                else x.shape[0])
            return out
        return wrapper

    def _forward_backward(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(sig, theta, x, grad_out):
            start = time.perf_counter()
            out = fn(sig, theta, x, grad_out)
            counters["forward_backward.s"] += time.perf_counter() - start
            counters["forward_backward.calls"] += 1
            batch = len(x)
            counters["flops"] += (_forward_flops(sig, batch)
                                  + _backward_flops(sig, batch))
            return out
        return wrapper

    def _child(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(state, action):
            if self._traversal_depth:
                counters["child.traversal"] += 1
            return fn(state, action)
        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, run) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def layer_metrics(self, runs: int, payoff_mode: str | None) -> dict:
        """Per-layer metrics, per traced run (totals divided by `runs`);
        rates are total work over total busy time. Seconds per payoff entry
        are reported under the workload's payoff mode."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)  # under each engine.run span
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None and self.spans[parent][0] == "engine.run":
                child_time[parent] += end - start
        c = self.counters
        run_s = busy["engine.run"]
        fill_entries = c["fill.entries"]
        forward_s = c["forward.single.s"] + c["forward.batch.s"]
        net_s = forward_s + c["forward_backward.s"]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def per_run(value):
            return value / runs

        metrics = {
            "config.parse_s": per_run(busy["config.parse"]),
            "games.build_s": per_run(busy["games.build"]),
            "games.traversal_s": per_run(busy["games.traversal"]),
            "games.traversal_calls": per_run(calls["games.traversal"]),
            "games.traversal_nodes": per_run(c["child.traversal"]),
            "games.traversal_nodes_per_s": rate(c["child.traversal"],
                                                busy["games.traversal"]),
            "games.episodes": per_run(c["games.episode.calls"]),
            "games.episodes_per_s": rate(c["games.episode.calls"],
                                         c["games.episode.s"]),
            "policies.action_probs_s.tabular":
                per_run(c["policies.action_probs.tabular.s"]),
            "policies.action_probs_calls.tabular":
                per_run(c["policies.action_probs.tabular.calls"]),
            "policies.action_probs_s.parametric":
                per_run(c["policies.action_probs.parametric.s"]),
            "policies.action_probs_calls.parametric":
                per_run(c["policies.action_probs.parametric.calls"]),
            "policies.fuse_s": per_run(busy["policies.fuse"]),
            "policies.fuse_calls": per_run(calls["policies.fuse"]),
            "policies.fuse_share_pct": 100.0 * rate(busy["policies.fuse"],
                                                    run_s),
            "nets.forward_s.single": per_run(c["forward.single.s"]),
            "nets.forward_calls.single": per_run(c["forward.single.calls"]),
            "nets.forward_s.batch": per_run(c["forward.batch.s"]),
            "nets.forward_calls.batch": per_run(c["forward.batch.calls"]),
            "nets.forward_backward_s": per_run(c["forward_backward.s"]),
            "nets.forward_backward_calls":
                per_run(c["forward_backward.calls"]),
            "nets.gflop_per_s_computed": rate(c["flops"] / 1e9, net_s),
            "oracles.br_s": per_run(busy["oracles.br"]),
            "oracles.br_calls": per_run(calls["oracles.br"]),
            "oracles.learner_episodes_per_s": rate(
                c["oracles.learner_episode.calls"], busy["oracles.br"]),
            "oracles.learn_steps_per_s": rate(c["forward_backward.calls"],
                                              busy["oracles.br"]),
            "meta_solvers.fill_s": per_run(busy["meta_solvers.fill"]),
            "meta_solvers.fill_entries": per_run(fill_entries),
            "meta_solvers.solve_s": per_run(busy["meta_solvers.solve"]),
            "meta_solvers.solve_calls": per_run(calls["meta_solvers.solve"]),
            "meta_solvers.prd_steps_per_s": rate(c["prd.steps"], c["prd.s"]),
            "engine.init_s": per_run(busy["engine.init"]),
            "engine.eval_exact_s": per_run(busy["engine.eval_exact"]),
            "engine.self_s": per_run(run_s - sum(child_time.values())),
        }
        entry_s = rate(busy["meta_solvers.fill"], fill_entries)
        for mode in ("exact", "monte_carlo"):
            metrics[f"meta_solvers.entry_s.{mode}"] = (
                entry_s if mode == payoff_mode else 0.0)
        for size in NASH_SIZES:
            metrics[f"meta_solvers.nash_s.n{size}"] = rate(
                c[f"nash.n{size}.s"], c[f"nash.n{size}.calls"])
        return metrics
