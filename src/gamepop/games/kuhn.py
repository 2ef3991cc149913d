"""Kuhn poker: 3-card deck, one private card each, ante 1, single bet of 1.

Actions: 0 = pass (check/fold), 1 = bet (bet/call). Betting sequences and
payouts follow the standard rules: "pp" showdown for 1, "pbp" folder loses 1,
"pbb"/"bb" showdown for 2, "bp" bettor wins 1.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, TERMINAL, Game, State

PASS, BET = 0, 1
_TERMINAL_SEQS = {"pp", "pbp", "pbb", "bp", "bb"}


class KuhnState(State):
    __slots__ = ("game", "cards", "bets")

    def __init__(self, game, cards=(), bets=""):
        self.game = game
        self.cards = cards
        self.bets = bets

    @property
    def current_player(self) -> int:
        if len(self.cards) < 2:
            return CHANCE
        if self.bets in _TERMINAL_SEQS:
            return TERMINAL
        return len(self.bets) % 2

    def legal_actions(self) -> list[int]:
        return [PASS, BET]

    def chance_outcomes(self):
        remaining = [c for c in range(3) if c not in self.cards]
        p = 1.0 / len(remaining)
        return [(c, p) for c in remaining]

    def child(self, action: int) -> "KuhnState":
        if self.current_player == CHANCE:
            return KuhnState(self.game, self.cards + (action,), self.bets)
        return KuhnState(self.game, self.cards,
                         self.bets + ("b" if action == BET else "p"))

    def returns(self) -> tuple[float, float]:
        bets = self.bets
        if bets == "bp":
            v = 1.0
        elif bets == "pbp":
            v = -1.0
        else:
            pot = 2.0 if bets in ("pbb", "bb") else 1.0
            v = pot if self.cards[0] > self.cards[1] else -pot
        return (v, -v)

    def infoset_key(self, player: int) -> str:
        return f"{self.cards[player]}:{self.bets}"


class KuhnPoker(Game):
    max_game_length = 5  # 2 deals + up to 3 betting actions

    def initial_state(self) -> KuhnState:
        return KuhnState(self)

    def num_distinct_actions(self) -> int:
        return 3  # chance deals reuse ids 0..2; betting uses 0..1

    def encoding_dim(self) -> int:
        return 3 + 3 * 2  # card one-hot + up to 3 betting slots x {pass, bet}

    def encode_infoset(self, state, player) -> np.ndarray:
        x = np.zeros(self.encoding_dim())
        x[state.cards[player]] = 1.0
        for i, ch in enumerate(state.bets):
            x[3 + 2 * i + (1 if ch == "b" else 0)] = 1.0
        return x

    def observation_sequence(self, state, player) -> tuple:
        obs = []
        if len(state.cards) > player:
            obs.append(("card", state.cards[player]))
        obs.extend(("bet", ch) for ch in state.bets)
        return tuple(obs)
