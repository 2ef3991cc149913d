"""Liar's Dice with one die per player and a configurable face count.

Bids are (quantity, face) pairs over both dice, quantity in {1, 2}, and must
strictly increase in (quantity, face) lexicographic order. "Liar" challenges
the last bid and ends the game: if at least `quantity` dice show `face` the
challenger loses, otherwise the bidder loses. Terminal utility is +/-1.

Bid action ids are (quantity-1)*faces + (face-1); the challenge id is
2*faces. A player's infoset key is their die and the whole public bid
history.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, TERMINAL, Game, GameError, State


class LiarsDiceState(State):
    __slots__ = ("game", "dice", "bids", "challenged")

    def __init__(self, game, dice=(), bids=(), challenged=False):
        self.game = game
        self.dice = dice
        self.bids = bids
        self.challenged = challenged

    @property
    def current_player(self) -> int:
        if len(self.dice) < 2:
            return CHANCE
        if self.challenged:
            return TERMINAL
        return len(self.bids) % 2

    def legal_actions(self) -> list[int]:
        lowest = self.bids[-1] + 1 if self.bids else 0
        actions = list(range(lowest, 2 * self.game.faces))
        if self.bids:
            actions.append(self.game.challenge_action)
        return actions

    def chance_outcomes(self):
        p = 1.0 / self.game.faces
        return [(f, p) for f in range(self.game.faces)]

    def child(self, action: int) -> "LiarsDiceState":
        if self.current_player == CHANCE:
            return LiarsDiceState(self.game, self.dice + (action,))
        if action not in self.legal_actions():
            raise GameError(f"illegal action {action}")
        if action == self.game.challenge_action:
            return LiarsDiceState(self.game, self.dice, self.bids,
                                  challenged=True)
        return LiarsDiceState(self.game, self.dice, self.bids + (action,))

    def returns(self) -> tuple[float, float]:
        faces = self.game.faces
        bid = self.bids[-1]
        quantity = bid // faces + 1
        face = bid % faces
        count = sum(1 for d in self.dice if d == face)
        bidder = (len(self.bids) - 1) % 2
        loser = (1 - bidder) if count >= quantity else bidder
        return (-1.0, 1.0) if loser == 0 else (1.0, -1.0)

    def infoset_key(self, player: int) -> str:
        return f"{self.dice[player]}:" + ",".join(str(b) for b in self.bids)


class LiarsDice(Game):
    def __init__(self, faces: int):
        self.faces = faces
        self.challenge_action = 2 * faces
        self.max_game_length = 2 + 2 * faces + 1

    def initial_state(self) -> LiarsDiceState:
        return LiarsDiceState(self)

    def num_distinct_actions(self) -> int:
        return 2 * self.faces + 1

    def encoding_dim(self) -> int:
        n = self.num_distinct_actions()
        return self.faces + (n - 1) + n  # own die + bid-made mask + last bid

    def encode_infoset(self, state, player) -> np.ndarray:
        x = np.zeros(self.encoding_dim())
        x[state.dice[player]] = 1.0
        n = self.num_distinct_actions()
        for bid in state.bids:
            x[self.faces + bid] = 1.0
        last = state.bids[-1] + 1 if state.bids else 0
        x[self.faces + (n - 1) + last] = 1.0
        return x

    def observation_sequence(self, state, player) -> tuple:
        obs = []
        if len(state.dice) > player:
            obs.append(("die", state.dice[player]))
        obs.extend(("bid", b) for b in state.bids)
        if state.challenged:
            obs.append(("challenge",))
        return tuple(obs)
