"""Core abstractions for two-player zero-sum extensive-form games.

Games are trees of immutable states. A state is owned by player 0, player 1,
chance, or is terminal. Information sets are identified by opaque string keys
that must be a function of the owning player's own action/observation
sequence (perfect recall); games that deliberately break this set
``perfect_recall = False``.
"""

from __future__ import annotations

import numpy as np

CHANCE = -1
TERMINAL = -2


class GameError(Exception):
    """Invalid game construction or parameters."""


class State:
    """One node of the game tree.

    Subclasses implement the queries below. States are value-like: ``child``
    returns a fresh state and never mutates the receiver.
    """

    history: tuple  # ((player-or-CHANCE, action), ...)

    @property
    def current_player(self) -> int:
        raise NotImplementedError

    @property
    def is_terminal(self) -> bool:
        return self.current_player == TERMINAL

    def legal_actions(self) -> list[int]:
        raise NotImplementedError

    def chance_outcomes(self) -> list[tuple[int, float]]:
        raise NotImplementedError

    def child(self, action: int) -> "State":
        raise NotImplementedError

    def returns(self) -> tuple[float, float]:
        raise NotImplementedError

    def infoset_key(self, player: int) -> str:
        raise NotImplementedError


class Game:
    """A two-player zero-sum game exposing tree traversal queries."""

    name: str = "game"
    num_players: int = 2
    max_game_length: int = 0
    perfect_recall: bool = True

    def initial_state(self) -> State:
        raise NotImplementedError

    def num_distinct_actions(self) -> int:
        """Size of the global action-id space (upper bound over all states)."""
        raise NotImplementedError

    # Feature encoding for parametric (action-value network) policies.
    # Encoders are fixed per game; a change in layout changes encoding_dim,
    # which invalidates any checkpoint trained against the old layout.

    def encoding_dim(self) -> int:
        raise NotImplementedError

    def encode_infoset(self, state: State, player: int) -> np.ndarray:
        raise NotImplementedError

    def observation_sequence(self, state: State, player: int) -> tuple:
        """The player's own action/observation sequence at this state.

        Used by tests to check that infoset keys never leak hidden
        information: histories with equal observation sequences must map to
        equal infoset keys.
        """
        raise NotImplementedError


# Tolerance on the normalized sum, as in numpy's Generator.choice: the square
# root of float64 eps, written out because np.finfo costs ~4 ms at import.
_SUM_TOL = 2.0 ** -26


def sample_action(probs, actions, rng: np.random.Generator):
    """Draw one of ``actions`` with probability proportional to ``probs``.

    The draw is ``Generator.choice(len(actions), p=probs / probs.sum())``
    without that method's per-call argument checks: one ``rng.random()``
    searched in the normalized cumulative sum, so the action and the
    generator state afterwards are the same. Raises ValueError for negative,
    NaN or all-zero probabilities, or a length that differs from actions.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (len(actions),) or not p.min() >= 0.0:
        raise ValueError(f"invalid probabilities {probs!r} "
                         f"for {len(actions)} actions")
    cdf = (p / p.sum()).cumsum()
    if not abs(cdf[-1] - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities {probs!r} do not sum to 1 "
                         "after normalization")
    cdf /= cdf[-1]
    return actions[cdf.searchsorted(rng.random(), side="right")]


def sample_episode(game: Game, choose, rng: np.random.Generator) -> State:
    """Sample one playthrough and return its terminal state.

    Chance outcomes are drawn from ``rng``; at each decision node
    ``choose(state, player, legal_actions)`` returns the action taken.
    """
    state = game.initial_state()
    while not state.is_terminal:
        player = state.current_player
        if player == CHANCE:
            outcomes = state.chance_outcomes()
            action = sample_action([p for _, p in outcomes],
                                   [a for a, _ in outcomes], rng)
        else:
            action = choose(state, player, state.legal_actions())
        state = state.child(action)
    return state


def play_episode(game: Game, policies,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Sample one playthrough; ``policies[i]`` plays its evaluation-time
    distribution for player i."""
    def choose(state, player, legal):
        probs = policies[player].action_probs(game, state, player)
        return sample_action(probs, legal, rng)

    return sample_episode(game, choose, rng).returns()
