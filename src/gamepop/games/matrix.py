"""One-shot matrix games as two-ply extensive games.

The row player moves first, the column player moves second without observing
the row, which encodes simultaneity. Utilities are (M[r][c], -M[r][c]).
"""

from __future__ import annotations

import numpy as np

from .base import TERMINAL, Game, GameError, State


class MatrixState(State):
    __slots__ = ("game", "history")

    def __init__(self, game: "MatrixGame", history: tuple = ()):
        self.game = game
        self.history = history

    @property
    def current_player(self) -> int:
        return len(self.history) if len(self.history) < 2 else TERMINAL

    def legal_actions(self) -> list[int]:
        if len(self.history) == 0:
            return list(range(self.game.rows.shape[0]))
        return list(range(self.game.rows.shape[1]))

    def chance_outcomes(self):
        raise GameError("matrix game has no chance nodes")

    def child(self, action: int) -> "MatrixState":
        player = self.current_player
        if action not in self.legal_actions():
            raise GameError(f"illegal action {action}")
        return MatrixState(self.game, self.history + ((player, action),))

    def returns(self) -> tuple[float, float]:
        r = self.history[0][1]
        c = self.history[1][1]
        v = float(self.game.rows[r, c])
        return (v, -v)

    def infoset_key(self, player: int) -> str:
        # Neither player observes anything before acting.
        return f"p{player}"


class MatrixGame(Game):
    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)
        self.rows.flags.writeable = False
        self.max_game_length = 2

    def initial_state(self) -> MatrixState:
        return MatrixState(self)

    def num_distinct_actions(self) -> int:
        return max(self.rows.shape)

    def encoding_dim(self) -> int:
        return 1

    def encode_infoset(self, state, player) -> np.ndarray:
        return np.ones(1)

    def observation_sequence(self, state, player) -> tuple:
        return tuple((p, a) for p, a in state.history if p == player)
