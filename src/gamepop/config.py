"""Declarative run configuration: JSON with exact field names.

`gamepop.specs` reads the spec dataclasses from JSON and echoes them back;
this module adds the two parts that are not one spec. `game` is read by
`games.read_params`, as `make_game` reads it, and echoed as given; `init` is
one `engine.INITS` member for both players, or one each as `p0` and `p1`.
Every refusal is a ConfigError naming the offending field, so sweep
overrides and hand-edited configs fail loudly instead of silently drifting.
"""

from __future__ import annotations

import json

from .engine import INITS, PsroConfig
from .games import read_params
from .specs import check_keys, echo, echo_union, read, read_union


class ConfigError(Exception):
    pass


_TOP_REQUIRED = ("game", "oracle", "mss", "init", "iterations", "seeds")
_TOP_OPTIONAL = ("psd", "eval", "payoff", "output_dir", "diagnostics")


def _read_init(obj, path):
    """One init method for both players, or one each as `p0` and `p1`."""
    if isinstance(obj, dict) and obj and set(obj) <= {"p0", "p1"}:
        check_keys(obj, path, ("p0", "p1"), (), ConfigError)
        return (read_union(INITS, obj["p0"], f"{path}.p0", ConfigError),
                read_union(INITS, obj["p1"], f"{path}.p1", ConfigError))
    method = read_union(INITS, obj, path, ConfigError)
    return (method, method)


def parse_config(data: dict) -> PsroConfig:
    check_keys(data, "config", _TOP_REQUIRED, _TOP_OPTIONAL, ConfigError)
    game = data["game"]
    check_keys(game, "game", ("name",), ("params",), ConfigError)
    params = game.get("params", {})
    read_params(game["name"], params, ConfigError)
    return read(PsroConfig, data, "", ConfigError,
                game={"name": game["name"], "params": params},
                init=_read_init(data["init"], "init"))


def load_config(path: str) -> PsroConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


def config_to_dict(config: PsroConfig) -> dict:
    out = echo(config)
    out["game"] = {"name": config.game["name"],
                   "params": config.game.get("params", {})}
    out["init"] = {"p0": echo_union(INITS, config.init[0]),
                   "p1": echo_union(INITS, config.init[1])}
    return out
