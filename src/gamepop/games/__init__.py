"""Benchmark games and exact evaluation primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..specs import setting, spec
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
class LiarsDiceIrParams(LiarsDiceParams):
    # The legal bid set depends on the last bid, so at least that one
    # action must stay in memory for infosets to be well formed.
    recall: int = setting(2, ge=1)


@dataclass(frozen=True)
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
    "liars_dice_ir": (LiarsDiceIrParams, LiarsDice),
    "matrix_game": (MatrixParams, MatrixGame),
    "ntmg": (NtmgConfig, NtmgConfig),
}


def make_game(name: str, params: dict | None = None) -> Game | NtmgConfig:
    """The game `name` built from `params`; GameError for an unknown name, a
    parameter the game does not take or lacks, or a value its spec refuses."""
    if name not in GAMES:
        raise GameError(f"unknown game {name!r}; valid names: {sorted(GAMES)}")
    params_spec, build = GAMES[name]
    try:
        checked = params_spec(**(params or {}))
    except TypeError as exc:
        raise GameError(f"{name}: {exc}") from exc
    return build(**vars(checked))


__all__ = [
    "CHANCE", "TERMINAL", "Game", "GameError", "InfosetView", "State",
    "TraversalBudgetError", "GAMES", "play_episode", "best_response",
    "expected_value", "exploitability", "make_game", "Goofspiel", "KuhnPoker",
    "LeducPoker", "LiarsDice", "MatrixGame", "NtmgConfig",
]
