"""Goofspiel with descending prize order and simultaneous bids.

Prizes n, n-1, ..., 1 are auctioned in order. Each round both players
secretly commit one card from their remaining hand (1..n); the higher card
takes the prize, ties split it. Simultaneity is sequentialized: player 0
commits first, player 1 commits without observing it, then both bids are
revealed. Terminal utility is the sign of the point difference.

Action id c-1 plays card c.
"""

from __future__ import annotations

import numpy as np

from .base import TERMINAL, Game, GameError, State


class GoofspielState(State):
    __slots__ = ("game", "rounds", "pending")

    def __init__(self, game, rounds=(), pending=None):
        self.game = game
        self.rounds = rounds  # ((p0_card, p1_card), ...) revealed rounds
        self.pending = pending  # player 0's committed card this round

    @property
    def current_player(self) -> int:
        if len(self.rounds) == self.game.num_cards:
            return TERMINAL
        return 0 if self.pending is None else 1

    def _hand(self, player: int) -> list[int]:
        played = {r[player] for r in self.rounds}
        if player == 0 and self.pending is not None:
            played.add(self.pending)
        return [c for c in range(1, self.game.num_cards + 1)
                if c not in played]

    def legal_actions(self) -> list[int]:
        return [c - 1 for c in self._hand(self.current_player)]

    def chance_outcomes(self):
        raise GameError("goofspiel has no chance nodes")

    def child(self, action: int) -> "GoofspielState":
        player = self.current_player
        if action not in self.legal_actions():
            raise GameError(f"illegal action {action}")
        card = action + 1
        if player == 0:
            return GoofspielState(self.game, self.rounds, card)
        return GoofspielState(self.game, self.rounds + ((self.pending, card),))

    def _scores(self) -> tuple[float, float]:
        s = [0.0, 0.0]
        n = self.game.num_cards
        for i, (c0, c1) in enumerate(self.rounds):
            prize = float(n - i)
            if c0 > c1:
                s[0] += prize
            elif c1 > c0:
                s[1] += prize
            else:
                s[0] += prize / 2
                s[1] += prize / 2
        return s[0], s[1]

    def returns(self) -> tuple[float, float]:
        s0, s1 = self._scores()
        v = float(np.sign(s0 - s1))
        return (v, -v)

    def infoset_key(self, player: int) -> str:
        hand = ",".join(str(c) for c in self._hand(player))
        past = ";".join(f"{a}v{b}" for a, b in self.rounds)
        return f"p{player}|{hand}|{past}"


class Goofspiel(Game):
    def __init__(self, num_cards: int):
        self.num_cards = num_cards
        self.max_game_length = 2 * num_cards

    def initial_state(self) -> GoofspielState:
        return GoofspielState(self)

    def num_distinct_actions(self) -> int:
        return self.num_cards

    def encoding_dim(self) -> int:
        # own hand mask, opponent hand mask, round one-hot, scaled score diff
        return 3 * self.num_cards + 1

    def encode_infoset(self, state, player) -> np.ndarray:
        n = self.num_cards
        x = np.zeros(self.encoding_dim())
        for c in state._hand(player):
            x[c - 1] = 1.0
        opp_played = {r[1 - player] for r in state.rounds}
        for c in range(1, n + 1):
            if c not in opp_played:
                x[n + c - 1] = 1.0
        x[2 * n + len(state.rounds)] = 1.0
        s0, s1 = state._scores()
        diff = (s0 - s1) if player == 0 else (s1 - s0)
        x[3 * n] = diff / (n * (n + 1) / 2)
        return x

    def observation_sequence(self, state, player) -> tuple:
        obs = [("round", a, b) for a, b in state.rounds]
        if player == 0 and state.pending is not None:
            obs.append(("committed", state.pending))
        return tuple(obs)
