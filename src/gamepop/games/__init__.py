"""Benchmark games and exact evaluation primitives."""

from __future__ import annotations

from .base import (CHANCE, TERMINAL, Game, GameError, InfosetView, State,
                   TraversalBudgetError, play_episode)
from .evaluate import best_response, expected_value, exploitability
from .goofspiel import Goofspiel
from .kuhn import KuhnPoker
from .leduc import LeducPoker
from .liars_dice import LiarsDice
from .matrix import MatrixGame
from .ntmg import (S_MATRIX, NtmgConfig, ntmg_densities,
                   ntmg_densities_jacobian, ntmg_payoff, ntmg_payoff_grad,
                   ntmg_weights)

# The game trees `make_game` builds, each with the parameters it takes.
_ALLOWED_PARAMS = {
    "kuhn_poker": set(),
    "leduc_poker": set(),
    "liars_dice": {"faces"},
    "liars_dice_ir": {"faces", "recall"},
    "goofspiel": {"num_cards"},
    "matrix_game": {"rows"},
}

# Every game a run description may name: the game trees and the plane
# game `ntmg`, which the engine builds from an `NtmgConfig`.
GAME_NAMES = tuple(sorted([*_ALLOWED_PARAMS, "ntmg"]))


def make_game(name: str, params: dict | None = None) -> Game:
    """Construct a benchmark game by name.

    Raises GameError for unknown names or invalid parameters.
    """
    params = dict(params or {})
    if name not in _ALLOWED_PARAMS:
        raise GameError(f"unknown game {name!r}; valid names: "
                        f"{sorted(_ALLOWED_PARAMS)}")
    extra = set(params) - _ALLOWED_PARAMS[name]
    if extra:
        raise GameError(f"{name}: unexpected params {sorted(extra)}")
    if name == "kuhn_poker":
        return KuhnPoker()
    if name == "leduc_poker":
        return LeducPoker()
    if name == "liars_dice":
        return LiarsDice(faces=params.get("faces", 6))
    if name == "liars_dice_ir":
        return LiarsDice(faces=params.get("faces", 6),
                         recall=params.get("recall", 2))
    if name == "goofspiel":
        return Goofspiel(num_cards=params.get("num_cards", 5))
    if "rows" not in params:
        raise GameError("matrix_game requires a `rows` payoff matrix")
    return MatrixGame(params["rows"])


__all__ = [
    "CHANCE", "TERMINAL", "Game", "GameError", "InfosetView", "State",
    "TraversalBudgetError", "GAME_NAMES", "play_episode", "best_response",
    "expected_value", "exploitability", "make_game", "Goofspiel", "KuhnPoker",
    "LeducPoker", "LiarsDice", "MatrixGame", "S_MATRIX", "NtmgConfig",
    "ntmg_densities", "ntmg_densities_jacobian", "ntmg_payoff",
    "ntmg_payoff_grad", "ntmg_weights",
]
