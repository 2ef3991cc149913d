"""Declarative run configuration: JSON with exact field names.

Unknown fields are errors, and every validation failure names the offending
field, so sweep overrides and hand-edited configs fail loudly instead of
silently drifting.
"""

from __future__ import annotations

import json

from .engine import (DiagnosticsSpec, Distill, DqnOracle, EvalSpec,
                     ExactOracle, GradientOracle, InheritBest, InheritLatest,
                     NashFusion, PsdSpec, PsroConfig, QLearningOracle,
                     SampleFromNE, Scratch)
from .meta_solvers import FictitiousPlay, Nash, Prd, Uniform
from .oracles import DqnConfig


class ConfigError(Exception):
    pass


def _require(obj, path, kind, predicate=None, reason=""):
    if not isinstance(obj, kind) or isinstance(obj, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}")
    if predicate is not None and not predicate(obj):
        raise ConfigError(f"{path}: {reason}")
    return obj


def _check_fields(obj, path, required, optional):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing field {sorted(missing)[0]!r}")


def _int(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return obj


def _num(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return float(obj)


def _parse_game(obj, path):
    _check_fields(obj, path, ["name"], ["params"])
    _require(obj["name"], f"{path}.name", str)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    return {"name": obj["name"], "params": params}


_DQN_FIELDS = ["replay_capacity", "batch_size", "lr", "gamma_discount",
               "epsilon", "target_update_every", "episodes", "optimizer",
               "grad_clip", "soft_update_tau"]


def _parse_oracle(obj, path):
    _check_fields(obj, path, ["kind"], ["episodes", "lr", "epsilon",
                                        "gamma_discount", "steps",
                                        "hidden_layers"] + _DQN_FIELDS)
    kind = obj["kind"]
    if kind == "exact":
        _check_fields(obj, path, ["kind"], [])
        return ExactOracle()
    if kind == "q_learning":
        _check_fields(obj, path, ["kind"],
                      ["episodes", "lr", "epsilon", "gamma_discount"])
        return QLearningOracle(
            episodes=_int(obj.get("episodes", 5000), f"{path}.episodes", 1),
            lr=_num(obj.get("lr", 0.1), f"{path}.lr"),
            epsilon=_num(obj.get("epsilon", 0.1), f"{path}.epsilon", 0.0),
            gamma_discount=_num(obj.get("gamma_discount", 1.0),
                                f"{path}.gamma_discount", 0.0))
    if kind == "dqn":
        _check_fields(obj, path, ["kind"], ["hidden_layers"] + _DQN_FIELDS)
        hidden = obj.get("hidden_layers", [64, 64])
        if (not isinstance(hidden, list) or not hidden
                or any(isinstance(h, bool) or not isinstance(h, int) or h < 1
                       for h in hidden)):
            raise ConfigError(f"{path}.hidden_layers: expected a list of "
                              "positive integers")
        kwargs = {}
        for name in _DQN_FIELDS:
            if name in obj:
                kwargs[name] = obj[name]
        try:
            cfg = DqnConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return DqnOracle(hidden_layers=tuple(hidden), cfg=cfg)
    if kind == "gradient":
        _check_fields(obj, path, ["kind"], ["steps", "lr"])
        return GradientOracle(steps=_int(obj.get("steps", 100),
                                         f"{path}.steps", 1),
                              lr=_num(obj.get("lr", 0.5), f"{path}.lr"))
    raise ConfigError(f"{path}.kind: unknown oracle kind {kind!r}")


def _parse_mss(obj, path):
    _check_fields(obj, path, ["kind"], ["gamma", "dt", "steps", "iters"])
    kind = obj["kind"]
    if kind == "nash":
        return Nash()
    if kind == "uniform":
        return Uniform()
    if kind == "prd":
        return Prd(gamma=_num(obj.get("gamma", 1e-3), f"{path}.gamma", 0.0),
                   dt=_num(obj.get("dt", 1e-3), f"{path}.dt"),
                   steps=_int(obj.get("steps", 100_000), f"{path}.steps", 1))
    if kind == "fictitious_play":
        return FictitiousPlay(iters=_int(obj.get("iters", 30_000),
                                         f"{path}.iters", 1))
    raise ConfigError(f"{path}.kind: unknown meta-strategy solver {kind!r}")


def _parse_init_method(obj, path):
    _check_fields(obj, path, ["method"],
                  ["kind", "c", "top_k", "weights", "epochs", "samples", "lr"])
    method = obj["method"]
    if method == "scratch":
        _check_fields(obj, path, ["method"], ["kind"])
        kind = obj.get("kind", "normal")
        if kind not in ("normal", "orthogonal", "kaiming"):
            raise ConfigError(f"{path}.kind: unknown scratch kind {kind!r}")
        return Scratch(kind)
    if method == "inherit_latest":
        _check_fields(obj, path, ["method"], [])
        return InheritLatest()
    if method == "inherit_best":
        _check_fields(obj, path, ["method"], [])
        return InheritBest()
    if method == "sample_from_ne":
        _check_fields(obj, path, ["method"], [])
        return SampleFromNE()
    if method == "nash_fusion":
        _check_fields(obj, path, ["method"], ["c", "top_k", "weights"])
        top_k = obj.get("top_k")
        if top_k in (None, "all"):
            top_k = None
        else:
            top_k = _int(top_k, f"{path}.top_k", 1)
        weights = obj.get("weights", "nash")
        if weights not in ("nash", "uniform"):
            raise ConfigError(f"{path}.weights: must be nash or uniform")
        return NashFusion(c=_int(obj.get("c", 2), f"{path}.c", 0),
                          top_k=top_k, weights=weights)
    if method == "distill":
        _check_fields(obj, path, ["method"], ["epochs", "samples", "lr"])
        return Distill(epochs=_int(obj.get("epochs", 200), f"{path}.epochs", 0),
                       samples=_int(obj.get("samples", 64),
                                    f"{path}.samples", 1),
                       lr=_num(obj.get("lr", 0.05), f"{path}.lr"))
    raise ConfigError(f"{path}.method: unknown init method {method!r}")


def _parse_init(obj, path):
    if isinstance(obj, dict) and set(obj) <= {"p0", "p1"} and obj:
        _check_fields(obj, path, ["p0", "p1"], [])
        return (_parse_init_method(obj["p0"], f"{path}.p0"),
                _parse_init_method(obj["p1"], f"{path}.p1"))
    method = _parse_init_method(obj, path)
    return (method, method)


def parse_config(data: dict) -> PsroConfig:
    _check_fields(data, "config",
                  ["game", "oracle", "mss", "init", "iterations", "seeds"],
                  ["psd", "eval", "payoff", "output_dir", "diagnostics",
                   "node_budget"])
    game = _parse_game(data["game"], "game")
    oracle = _parse_oracle(data["oracle"], "oracle")
    mss = _parse_mss(data["mss"], "mss")
    init = _parse_init(data["init"], "init")
    iterations = _int(data["iterations"], "iterations", 1)
    seeds = data["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or any(isinstance(s, bool) or not isinstance(s, int)
                   for s in seeds)):
        raise ConfigError("seeds: expected a non-empty list of integers")

    psd = PsdSpec()
    if "psd" in data:
        _check_fields(data["psd"], "psd", [],
                      ["enabled", "lambda", "hull_samples"])
        psd = PsdSpec(
            enabled=_require(data["psd"].get("enabled", False), "psd.enabled",
                             bool),
            lam=_num(data["psd"].get("lambda", 1.0), "psd.lambda", 0.0),
            hull_samples=_int(data["psd"].get("hull_samples", 4),
                              "psd.hull_samples", 1))

    eval_spec = EvalSpec()
    if "eval" in data:
        _check_fields(data["eval"], "eval", [],
                      ["exact_exploitability_every", "approx_exploitability",
                       "approx_every"])
        approx = data["eval"].get("approx_exploitability")
        approx_oracle = (None if approx is None
                         else _parse_oracle(approx,
                                            "eval.approx_exploitability"))
        eval_spec = EvalSpec(
            exact_exploitability_every=_int(
                data["eval"].get("exact_exploitability_every", 1),
                "eval.exact_exploitability_every", 0),
            approx_oracle=approx_oracle,
            approx_every=_int(data["eval"].get("approx_every", 0),
                              "eval.approx_every", 0))

    payoff_mode, payoff_episodes = "exact", 10_000
    if "payoff" in data:
        _check_fields(data["payoff"], "payoff", ["mode"], ["episodes"])
        payoff_mode = data["payoff"]["mode"]
        if payoff_mode not in ("exact", "monte_carlo"):
            raise ConfigError("payoff.mode: must be exact or monte_carlo")
        payoff_episodes = _int(data["payoff"].get("episodes", 10_000),
                               "payoff.episodes", 1)

    diagnostics = DiagnosticsSpec()
    if "diagnostics" in data:
        _check_fields(data["diagnostics"], "diagnostics", [],
                      ["kl_compare", "kl_states"])
        diagnostics = DiagnosticsSpec(
            kl_compare=_require(data["diagnostics"].get("kl_compare", False),
                                "diagnostics.kl_compare", bool),
            kl_states=_int(data["diagnostics"].get("kl_states", 128),
                           "diagnostics.kl_states", 1))

    output_dir = data.get("output_dir")
    if output_dir is not None:
        _require(output_dir, "output_dir", str)
    node_budget = data.get("node_budget")
    if node_budget is not None:
        node_budget = _int(node_budget, "node_budget", 1)

    return PsroConfig(game=game, oracle=oracle, mss=mss, init=init,
                      iterations=iterations, psd=psd, eval=eval_spec,
                      payoff_mode=payoff_mode,
                      payoff_episodes=payoff_episodes,
                      seeds=tuple(seeds), output_dir=output_dir,
                      diagnostics=diagnostics, node_budget=node_budget)


def load_config(path: str) -> PsroConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# Echo: dataclasses back to the JSON structure (defaults materialized)


def _oracle_to_dict(spec):
    if isinstance(spec, ExactOracle):
        return {"kind": "exact"}
    if isinstance(spec, QLearningOracle):
        return {"kind": "q_learning", "episodes": spec.episodes,
                "lr": spec.lr, "epsilon": spec.epsilon,
                "gamma_discount": spec.gamma_discount}
    if isinstance(spec, DqnOracle):
        out = {"kind": "dqn", "hidden_layers": list(spec.hidden_layers)}
        for name in _DQN_FIELDS:
            out[name] = getattr(spec.cfg, name)
        return out
    return {"kind": "gradient", "steps": spec.steps, "lr": spec.lr}


def _mss_to_dict(mss):
    if isinstance(mss, Nash):
        return {"kind": "nash"}
    if isinstance(mss, Uniform):
        return {"kind": "uniform"}
    if isinstance(mss, Prd):
        return {"kind": "prd", "gamma": mss.gamma, "dt": mss.dt,
                "steps": mss.steps}
    return {"kind": "fictitious_play", "iters": mss.iters}


def _init_to_dict(method):
    if isinstance(method, Scratch):
        return {"method": "scratch", "kind": method.kind}
    if isinstance(method, InheritLatest):
        return {"method": "inherit_latest"}
    if isinstance(method, InheritBest):
        return {"method": "inherit_best"}
    if isinstance(method, SampleFromNE):
        return {"method": "sample_from_ne"}
    if isinstance(method, NashFusion):
        return {"method": "nash_fusion", "c": method.c,
                "top_k": "all" if method.top_k is None else method.top_k,
                "weights": method.weights}
    return {"method": "distill", "epochs": method.epochs,
            "samples": method.samples, "lr": method.lr}


def config_to_dict(config: PsroConfig) -> dict:
    return {
        "game": {"name": config.game["name"],
                 "params": config.game.get("params", {})},
        "oracle": _oracle_to_dict(config.oracle),
        "mss": _mss_to_dict(config.mss),
        "init": {"p0": _init_to_dict(config.init[0]),
                 "p1": _init_to_dict(config.init[1])},
        "iterations": config.iterations,
        "seeds": list(config.seeds),
        "output_dir": config.output_dir,
        "psd": {"enabled": config.psd.enabled, "lambda": config.psd.lam,
                "hull_samples": config.psd.hull_samples},
        "eval": {
            "exact_exploitability_every":
                config.eval.exact_exploitability_every,
            "approx_exploitability":
                None if config.eval.approx_oracle is None
                else _oracle_to_dict(config.eval.approx_oracle),
            "approx_every": config.eval.approx_every,
        },
        "payoff": {"mode": config.payoff_mode,
                   "episodes": config.payoff_episodes},
        "diagnostics": {"kl_compare": config.diagnostics.kl_compare,
                        "kl_states": config.diagnostics.kl_states},
        "node_budget": config.node_budget,
    }
