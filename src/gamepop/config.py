"""Declarative run configuration: JSON with exact field names.

The spec dataclasses are the schema: each field's type, default, JSON name
and bounds are declared once, on the field (see `gamepop.specs`), and each
nested spec is one JSON object holding exactly its own fields. This module
reads JSON into those dataclasses and echoes them back, with the defaults
materialized; `game.params` is read against the named game's spec in
`gamepop.games.GAMES` and echoed as given. Unknown fields are errors, and
every validation failure names the offending field, so sweep overrides and
hand-edited configs fail loudly instead of silently drifting.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .engine import (Distill, DqnOracle, EngineError, ExactOracle,
                     GradientOracle, InheritBest, InheritLatest, NashFusion,
                     PsroConfig, QLearningOracle, SampleFromNE, Scratch)
from .games import GAMES, GameError
from .meta_solvers import FictitiousPlay, Nash, Prd, SolverError, Uniform


class ConfigError(Exception):
    pass


# Tagged unions: name -> (tag key, what a tag names, {tag: spec class}).
_UNIONS = {
    "oracle": ("kind", "oracle kind",
               {"exact": ExactOracle, "q_learning": QLearningOracle,
                "dqn": DqnOracle, "gradient": GradientOracle}),
    "mss": ("kind", "meta-strategy solver",
            {"nash": Nash, "uniform": Uniform, "prd": Prd,
             "fictitious_play": FictitiousPlay}),
    "init": ("method", "init method",
             {"scratch": Scratch, "inherit_latest": InheritLatest,
              "inherit_best": InheritBest, "sample_from_ne": SampleFromNE,
              "nash_fusion": NashFusion, "distill": Distill}),
}

# Annotation -> (accepted JSON value types, what the error says is expected).
_SCALARS = {bool: (bool, "a boolean"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "a string")}

# What a spec raises when a value breaks its declared bounds or choices.
_SPEC_ERRORS = (EngineError, GameError, SolverError, ValueError)

_TOP_REQUIRED = ("game", "oracle", "mss", "init", "iterations", "seeds")
_TOP_OPTIONAL = ("psd", "eval", "payoff", "output_dir", "diagnostics")


@cache
def _fields(cls) -> tuple:
    """(JSON key, field, resolved annotation) for each field of a spec."""
    hints = get_type_hints(cls)
    return tuple((f.metadata.get("json", f.name), f, hints[f.name])
                 for f in fields(cls))


def _check_keys(obj, path, required, optional):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown field {unknown[0]!r}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing field {missing[0]!r}")


def _build(cls, kwargs, prefix):
    """`cls(**kwargs)`, its bound errors named by their JSON path."""
    try:
        return cls(**kwargs)
    except _SPEC_ERRORS as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _read(cls, obj, path):
    """A spec from its JSON object. Absent fields keep the dataclass
    default; a field without one is required."""
    _check_keys(obj, path,
                [key for key, f, _ in _fields(cls) if f.default is MISSING],
                [key for key, _, _ in _fields(cls)])
    kwargs = {f.name: _value(kind, f.metadata, obj[key], f"{path}.{key}")
              for key, f, kind in _fields(cls) if key in obj}
    return _build(cls, kwargs, f"{path}.")


def _value(kind, meta, value, path):
    """One JSON value as a field of annotated type `kind`."""
    if type(None) in get_args(kind):  # `X | None`
        if value is None or value == meta.get("none"):
            return None
        kind = get_args(kind)[0]
    if "union" in meta:
        return _read_union(meta["union"], value, path)
    if is_dataclass(kind):
        return _read(kind, value, path)
    if get_origin(kind) is tuple:  # `tuple[X, ...]`
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(_value(get_args(kind)[0], {}, v, path) for v in value)
    accepted, expected = _SCALARS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and kind is not bool):
        raise ConfigError(f"{path}: expected {expected}")
    return kind(value)


def _lookup(table, name, path, noun):
    """`table[name]`; an unknown name is refused with the valid ones."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{path}: unknown {noun} {name!r}; valid names: "
                          f"{sorted(table)}")
    return table[name]


def _read_union(name, obj, path):
    tag, noun, table = _UNIONS[name]
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if tag not in obj:
        raise ConfigError(f"{path}: missing field {tag!r}")
    cls = _lookup(table, obj[tag], f"{path}.{tag}", noun)
    return _read(cls, {k: v for k, v in obj.items() if k != tag}, path)


def _read_init(obj, path):
    """One init method for both players, or one each as `p0` and `p1`."""
    if isinstance(obj, dict) and obj and set(obj) <= {"p0", "p1"}:
        _check_keys(obj, path, ("p0", "p1"), ())
        return (_read_union("init", obj["p0"], f"{path}.p0"),
                _read_union("init", obj["p1"], f"{path}.p1"))
    method = _read_union("init", obj, path)
    return (method, method)


def parse_config(data: dict) -> PsroConfig:
    _check_keys(data, "config", _TOP_REQUIRED, _TOP_OPTIONAL)
    game = data["game"]
    _check_keys(game, "game", ("name",), ("params",))
    params = game.get("params", {})
    params_spec, _ = _lookup(GAMES, game["name"], "game.name", "game")
    _read(params_spec, params, "game.params")
    kwargs = {f.name: _value(kind, f.metadata, data[key], key)
              for key, f, kind in _fields(PsroConfig)
              if key in data and key not in ("game", "init")}
    kwargs["game"] = {"name": game["name"], "params": params}
    kwargs["init"] = _read_init(data["init"], "init")
    return _build(PsroConfig, kwargs, "")


def load_config(path: str) -> PsroConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# Echo: dataclasses back to the JSON structure (defaults materialized)


def _echo(spec) -> dict:
    return {key: _echo_value(getattr(spec, f.name), f.metadata)
            for key, f, _ in _fields(type(spec))}


def _echo_value(value, meta):
    if value is None:
        return meta.get("none")
    if "union" in meta:
        return _echo_union(meta["union"], value)
    if is_dataclass(value):
        return _echo(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _echo_union(name, spec) -> dict:
    tag, _, table = _UNIONS[name]
    kind = next(k for k, cls in table.items() if type(spec) is cls)
    return {tag: kind, **_echo(spec)}


def config_to_dict(config: PsroConfig) -> dict:
    out = _echo(config)
    out["game"] = {"name": config.game["name"],
                   "params": config.game.get("params", {})}
    out["init"] = {"p0": _echo_union("init", config.init[0]),
                   "p1": _echo_union("init", config.init[1])}
    return out
