"""Leduc poker, standard research ruleset.

6-card deck (3 ranks x 2 suits), one private card each, one public card, two
betting rounds with fixed bet sizes 2 then 4, at most 2 raises per round,
ante 1. Player 0 opens both rounds. At showdown a private card pairing the
public card wins; otherwise the higher rank wins; equal ranks split.

Actions: 0 = fold (only facing a wager), 1 = check/call, 2 = raise.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, TERMINAL, Game, GameError, State

FOLD, CALL, RAISE = 0, 1, 2
_BET_SIZE = (2, 4)
_MAX_RAISES = 2


class LeducState(State):
    __slots__ = ("game", "cards", "public", "round", "round_bets", "contrib",
                 "to_act", "acted", "raises", "folded")

    def __init__(self, game, cards=(), public=None, rnd=0, round_bets=("", ""),
                 contrib=(1, 1), to_act=0, acted=0, raises=0, folded=None):
        self.game = game
        self.cards = cards
        self.public = public
        self.round = rnd
        self.round_bets = round_bets
        self.contrib = contrib
        self.to_act = to_act
        self.acted = acted
        self.raises = raises
        self.folded = folded

    @property
    def current_player(self) -> int:
        if self.folded is not None:
            return TERMINAL
        if len(self.cards) < 2:
            return CHANCE
        if self.round == 1 and self.public is None:
            return CHANCE
        if self.round > 1:
            return TERMINAL
        return self.to_act

    def legal_actions(self) -> list[int]:
        facing_bet = self.contrib[self.to_act] < self.contrib[1 - self.to_act]
        actions = [FOLD, CALL] if facing_bet else [CALL]
        if self.raises < _MAX_RAISES:
            actions.append(RAISE)
        return actions

    def chance_outcomes(self):
        used = set(self.cards)
        remaining = [c for c in range(6) if c not in used]
        p = 1.0 / len(remaining)
        return [(c, p) for c in remaining]

    def child(self, action: int) -> "LeducState":
        if self.current_player == CHANCE:
            if len(self.cards) < 2:
                return LeducState(self.game, self.cards + (action,))
            return LeducState(self.game, self.cards, action, 1,
                              self.round_bets, self.contrib)
        if action not in self.legal_actions():
            raise GameError(f"illegal action {action}")
        me, opp = self.to_act, 1 - self.to_act
        contrib = list(self.contrib)
        letter = "fcr"[action]
        bets = list(self.round_bets)
        bets[self.round] += letter
        if action == FOLD:
            return LeducState(self.game, self.cards, self.public,
                              self.round, tuple(bets), tuple(contrib),
                              folded=me)
        if action == CALL:
            contrib[me] = contrib[opp]
            if self.acted >= 1:  # round closes once both have acted
                return LeducState(self.game, self.cards, self.public,
                                  self.round + 1, tuple(bets), tuple(contrib))
            return LeducState(self.game, self.cards, self.public,
                              self.round, tuple(bets), tuple(contrib),
                              to_act=opp, acted=self.acted + 1,
                              raises=self.raises)
        contrib[me] = contrib[opp] + _BET_SIZE[self.round]
        return LeducState(self.game, self.cards, self.public,
                          self.round, tuple(bets), tuple(contrib), to_act=opp,
                          acted=self.acted + 1, raises=self.raises + 1)

    def returns(self) -> tuple[float, float]:
        if self.folded is not None:
            loser = self.folded
            v = float(self.contrib[loser])
            return (v, -v) if loser == 1 else (-v, v)
        rank = [c // 2 for c in self.cards]
        pub_rank = self.public // 2
        if rank[0] == pub_rank and rank[1] != pub_rank:
            winner = 0
        elif rank[1] == pub_rank and rank[0] != pub_rank:
            winner = 1
        elif rank[0] == rank[1]:
            return (0.0, 0.0)
        else:
            winner = 0 if rank[0] > rank[1] else 1
        v = float(self.contrib[1 - winner])
        return (v, -v) if winner == 0 else (-v, v)

    def infoset_key(self, player: int) -> str:
        pub = "x" if self.public is None else str(self.public)
        return f"{self.cards[player]}:{pub}:{self.round_bets[0]}/{self.round_bets[1]}"


class LeducPoker(Game):
    max_game_length = 13  # 3 deals + up to 5 actions per round

    def initial_state(self) -> LeducState:
        return LeducState(self)

    def num_distinct_actions(self) -> int:
        return 6  # chance deals 0..5; betting uses 0..2

    def encoding_dim(self) -> int:
        # private one-hot, public one-hot + none flag, round flag,
        # per-round action slots (5 x 3 one-hots each)
        return 6 + 7 + 2 + 2 * 5 * 3

    def encode_infoset(self, state, player) -> np.ndarray:
        x = np.zeros(self.encoding_dim())
        x[state.cards[player]] = 1.0
        x[6 + (6 if state.public is None else state.public)] = 1.0
        x[13 + min(state.round, 1)] = 1.0
        base = 15
        for rnd in range(2):
            for i, ch in enumerate(state.round_bets[rnd][:5]):
                x[base + rnd * 15 + 3 * i + "fcr".index(ch)] = 1.0
        return x

    def observation_sequence(self, state, player) -> tuple:
        obs = []
        if len(state.cards) > player:
            obs.append(("card", state.cards[player]))
        obs.extend(("bet", 0, ch) for ch in state.round_bets[0])
        if state.public is not None:
            obs.insert(1 + len(state.round_bets[0]), ("public", state.public))
            obs.extend(("bet", 1, ch) for ch in state.round_bets[1])
        return tuple(obs)
