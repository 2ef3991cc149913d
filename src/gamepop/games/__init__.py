"""Benchmark games and exact evaluation primitives."""

from __future__ import annotations

import numpy as np

from ..specs import lookup, read, setting, spec
from .base import (CHANCE, TERMINAL, Game, GameError, InfosetView, State,
                   TraversalBudgetError, play_episode)
from .evaluate import best_response, expected_value, exploitability
from .goofspiel import Goofspiel
from .kuhn import KuhnPoker
from .leduc import LeducPoker
from .liars_dice import LiarsDice
from .matrix import MatrixGame
from .ntmg import NtmgConfig


@spec(GameError)
class NoParams:
    """The parameters of a game that takes none."""


@spec(GameError)
class GoofspielParams:
    num_cards: int = setting(5, ge=2)


@spec(GameError)
class LiarsDiceParams:
    faces: int = setting(6, ge=2)


@spec(GameError)
class MatrixParams:
    rows: tuple[tuple[float, ...], ...]  # the row player's payoffs

    def __post_init__(self):
        widths = {len(row) for row in self.rows}
        if len(widths) != 1 or 0 in widths or not np.isfinite(self.rows).all():
            raise GameError("rows: must be a finite non-empty matrix")


# Every game a run description may name: its parameter spec, and what builds
# the game from those parameters as keywords. The plane game `ntmg` is its
# parameters; the engine plays it without a tree.
GAMES = {
    "goofspiel": (GoofspielParams, Goofspiel),
    "kuhn_poker": (NoParams, KuhnPoker),
    "leduc_poker": (NoParams, LeducPoker),
    "liars_dice": (LiarsDiceParams, LiarsDice),
    "matrix_game": (MatrixParams, MatrixGame),
    "ntmg": (NtmgConfig, NtmgConfig),
}


def read_params(name, params, error):
    """Game `name`'s parameter spec read from JSON `params` as a config's
    `game.params`; `error`, naming the field, for what the spec refuses."""
    params_spec, _ = lookup(GAMES, name, "game.name", "game", error)
    return read(params_spec, params, "game.params", error)


def make_game(name: str, params: dict | None = None) -> Game | NtmgConfig:
    """The game `name` built from `params`, read as a run description's
    `game.params` is; GameError with the text a config refusal has."""
    checked = read_params(name, {} if params is None else params, GameError)
    return GAMES[name][1](**vars(checked))


__all__ = [
    "CHANCE", "TERMINAL", "Game", "GameError", "InfosetView", "State",
    "TraversalBudgetError", "GAMES", "play_episode", "best_response",
    "expected_value", "exploitability", "make_game", "read_params", "Goofspiel",
    "KuhnPoker", "LeducPoker", "LiarsDice", "MatrixGame", "NtmgConfig",
]
