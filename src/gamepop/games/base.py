"""Core abstractions for two-player zero-sum extensive-form games.

Games are trees of immutable states. A state is owned by player 0, player 1,
chance, or is terminal. Information sets are identified by opaque string keys
that must be a function of the owning player's own action/observation
sequence (perfect recall); games that deliberately break this set
``perfect_recall = False``.

A game is read through one tree, ``game.tree``: its whole tree compiled
once from its states into read-only flat arrays (a `FlatTree`), on the
first sampled episode or exact evaluation. The engine keeps the last game
it built, so a process compiles the tree once per game and parameters for
all of its runs. Sampled episodes walk those arrays, exact evaluation passes
over them level by level, and policies see a decision node as its
`InfosetView`.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CHANCE = -1
TERMINAL = -2

# The most nodes a game tree may hold. The largest shipped tree, Liar's
# Dice with 6 faces, has 294,883.
MAX_TREE_NODES = 10_000_000


class GameError(Exception):
    """Invalid game construction or parameters."""


class TraversalBudgetError(Exception):
    """The game tree would grow past `MAX_TREE_NODES` nodes.

    Both sampling and exact evaluation read the whole compiled tree, so
    such a game cannot be played at all.
    """


class State:
    """One node of the game tree.

    Subclasses implement the queries below. States are value-like: ``child``
    returns a fresh state and never mutates the receiver.
    """

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

    num_players: int = 2
    max_game_length: int = 0
    perfect_recall: bool = True

    @functools.cached_property
    def tree(self) -> "FlatTree":
        """The whole game tree as a `FlatTree`, compiled on first use and
        kept; it holds no reference back to the game. The engine reuses its
        last game, so a process compiles this once per game and parameters
        for its runs."""
        return FlatTree(self)

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


@dataclass(frozen=True, eq=False, slots=True)
class InfosetView:
    """A decision point as a policy sees it: infoset key, legal actions and
    encoded features. A tree holds one view per (player, key), with
    read-only features; views compare by identity, so they can key memos."""
    key: str
    legal_actions: tuple[int, ...]
    features: np.ndarray | None = None


class Infosets(NamedTuple):
    """One player's infosets in a `FlatTree`.

    Infoset i is ``views[i]``, has ``num_actions[i]`` legal actions and
    holds the nodes ``nodes[start[i]:start[i + 1]]``, in depth-first
    preorder; the shallowest of them lies on level ``first_level[i]``.
    ``in_preorder`` lists all of the player's nodes in preorder.
    ``below[below_start[i]:below_start[i + 1]]`` are the player's nodes
    whose nearest ancestor of the player's lies in infoset i, ordered by
    the action taken there, then by that ancestor's preorder, then by their
    own preorder.
    """
    views: tuple[InfosetView, ...]
    num_actions: np.ndarray
    nodes: np.ndarray
    start: np.ndarray
    first_level: np.ndarray
    in_preorder: np.ndarray
    below: np.ndarray
    below_start: np.ndarray


class FlatTree:
    """A game's whole tree as flat arrays, read by every sampled episode and
    every exact evaluation.

    Nodes are numbered level by level: level d is the slice
    ``levels[d]:levels[d + 1]``, and within a level nodes keep their
    depth-first preorder, so a node's children are contiguous in the next
    level, in legal or chance order: node n's are ``first[n]:first[n + 1]``.
    Per node the arrays hold its ``owner`` (a player, CHANCE or TERMINAL),
    its ``parent`` (-1 at the root; never decreasing), its ``slot`` among
    its siblings, the chance probability ``prob`` of the edge into it (1.0
    below a decision node), its ``infoset`` index among its owner's
    `Infosets` (-1 at chance and terminal nodes). ``utility`` holds the
    terminals' returns in node order, terminal n's being row ``row[n]``
    (-1 at other nodes) and level d's rows ``leaves[d]:leaves[d + 1]``;
    ``infosets[p]`` describes player p's. ``views[player, key]`` is the
    one view of each infoset, read-only features included.

    Building it steps every state of the game once, depth first;
    TraversalBudgetError fires once the tree passes `MAX_TREE_NODES`.
    Indices are int32 or narrower, no per-node Python object outlives the
    build, and nothing refers back to the game. Every array is read-only:
    one tree serves every run on its game in a process.
    """

    def __init__(self, game: Game):
        # Depth first from the initial state, one record per node in
        # preorder, kept in typed arrays rather than Python objects.
        owner, parent, slot = array("b"), array("i"), array("i")
        depth, infoset = array("i"), array("i")
        prob, returns = array("d"), array("d")
        self.views: dict[tuple[int, str], InfosetView] = {}
        index = ({}, {})  # per player: view -> infoset index
        grown = 1
        stack = [(game.initial_state(), -1, 0, 1.0, 0)]
        while stack:
            state, up, s, p, d = stack.pop()
            node = len(owner)
            player = state.current_player
            owner.append(player)
            parent.append(up)
            slot.append(s)
            prob.append(p)
            depth.append(d)
            if player < 0:
                infoset.append(-1)
            else:
                seen = index[player]
                infoset.append(seen.setdefault(
                    self._view(game, state, player), len(seen)))
            if player == TERMINAL:
                returns.extend(state.returns())
                continue
            outcomes = (state.chance_outcomes() if player == CHANCE
                        else [(a, 1.0) for a in state.legal_actions()])
            grown += len(outcomes)
            if grown > MAX_TREE_NODES:
                raise TraversalBudgetError(
                    f"{type(game).__name__}: the game tree would grow past "
                    f"{MAX_TREE_NODES} nodes")
            stack.extend((state.child(a), node, k, q, d + 1)
                         for k, (a, q) in reversed(list(enumerate(outcomes))))

        # Renumber level by level; lexsort is stable, so each level keeps
        # preorder. Node i was the preorder[i]-th node visited, and the
        # p-th node visited is node number[p].
        depth, owner = np.array(depth), np.array(owner)
        preorder = np.lexsort((depth,))
        number = np.empty(len(preorder), np.int32)
        number[preorder] = np.arange(len(preorder))
        up = np.array(parent)[preorder]
        self.levels = np.concatenate([[0], np.cumsum(np.bincount(depth))])
        self.owner = owner[preorder]
        self.parent = np.where(up < 0, -1, number[up]).astype(np.int32)
        self.first = np.searchsorted(
            self.parent, np.arange(len(up) + 1)).astype(np.int32)
        slot = np.array(slot)[preorder]
        self.slot = slot.astype(np.min_scalar_type(slot.max()))
        self.prob = np.array(prob)[preorder]
        self.infoset = np.array(infoset, np.int32)[preorder]
        terminal = self.owner == TERMINAL
        ends = np.cumsum(owner == TERMINAL)  # in preorder
        self.utility = np.array(returns).reshape(-1, 2)[
            ends[preorder[terminal]] - 1]
        count = np.cumsum(terminal)
        self.row = np.where(terminal, count - 1, -1).astype(np.int32)
        self.leaves = np.concatenate([[0], count])[self.levels]
        self.infosets = tuple(
            self._infosets(player, tuple(index[player]),
                           number[owner == player], depth[preorder], preorder)
            for player in (0, 1))
        for value in (*vars(self).values(), *self.infosets[0],
                      *self.infosets[1]):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @functools.cached_property
    def chance_cdf(self) -> np.ndarray:
        """At each child of a chance node, the `checked_cdf` of its
        siblings' chance probabilities up to it (NaN at other nodes).
        Computed once, on the first sampled episode; exact evaluation
        never reads it."""
        cdf = np.full(len(self.owner), np.nan)
        for node in np.flatnonzero(self.owner == CHANCE).tolist():
            a, b = self.first[node], self.first[node + 1]
            cdf[a:b] = checked_cdf(self.prob[a:b], b - a)
        cdf.flags.writeable = False
        return cdf

    def _view(self, game: Game, state: State, player: int) -> InfosetView:
        key = state.infoset_key(player)
        view = self.views.get((player, key))
        if view is None:
            features = game.encode_infoset(state, player)
            features.flags.writeable = False
            view = self.views[player, key] = InfosetView(
                key, tuple(state.legal_actions()), features)
        return view

    def _infosets(self, player, views, in_preorder, depth,
                  preorder) -> Infosets:
        # Sorting a list in preorder by a stable lexsort keeps preorder
        # within each group.
        nodes = in_preorder[np.lexsort((self.infoset[in_preorder],))]
        start = _starts(self.infoset[nodes], len(views))
        first_level = (np.minimum.reduceat(depth[nodes], start[:-1])
                       if len(views) else np.zeros(0, np.int64))
        # The nearest ancestor of the player's and the slot taken there.
        mine = self.owner == player
        above = np.full(len(mine), -1, np.int32)
        taken = np.zeros(len(mine), self.slot.dtype)
        for b, c in zip(self.levels[1:-1], self.levels[2:]):
            up = self.parent[b:c]
            at = mine[up]
            above[b:c] = np.where(at, up, above[up])
            taken[b:c] = np.where(at, self.slot[b:c], taken[up])
        below = in_preorder[above[in_preorder] >= 0]
        below = below[np.lexsort((preorder[above[below]], taken[below],
                                  self.infoset[above[below]]))]
        return Infosets(views,
                        np.array([len(v.legal_actions) for v in views],
                                 np.int32),
                        nodes, start, first_level.astype(np.int32),
                        in_preorder, below,
                        _starts(self.infoset[above[below]], len(views)))


def _starts(groups: np.ndarray, count: int) -> np.ndarray:
    """Where each of `count` groups starts in the sorted ``groups``, and
    their total length at the end."""
    return np.concatenate([[0], np.cumsum(np.bincount(
        groups, minlength=count))]).astype(np.int32)


def checked_cdf(probs, count: int) -> np.ndarray:
    """The cumulative distribution `sample_action` draws ``count`` actions
    from: ``probs`` divided by its sum, cumulated and rescaled to end at 1.
    Raises ValueError for negative, NaN or infinite probabilities, a sum
    that is zero or overflows, or a length other than ``count``.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (count,) or not p.min() >= 0.0:
        raise ValueError(f"invalid probabilities {probs!r} "
                         f"for {count} actions")
    total = p.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"probabilities {probs!r} do not sum to a positive "
                         "finite number")
    return _cumulative(p / total)


def _cumulative(weights: np.ndarray) -> np.ndarray:
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator):
    """The index of one ``rng.random()`` searched in ``cdf``."""
    return cdf.searchsorted(rng.random(), side="right")


def draw_index(weights: np.ndarray, rng: np.random.Generator):
    """The index ``Generator.choice(len(weights), p=weights)`` draws, and
    the generator state it leaves, without that method's per-call argument
    checks: one ``rng.random()`` searched in the cumulative sum, rescaled
    to end at 1."""
    return draw(_cumulative(weights), rng)


def sample_action(probs, actions, rng: np.random.Generator):
    """Draw one of ``actions`` with probability proportional to ``probs``,
    as ``Generator.choice(len(actions), p=probs / probs.sum())`` does: one
    `draw` from `checked_cdf`, with its ValueErrors.
    """
    return actions[draw(checked_cdf(probs, len(actions)), rng)]


def sample_episode(game: Game, choose,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Sample one playthrough of ``game.tree`` and return its returns.

    Chance outcomes are drawn from ``rng`` and the tree's `chance_cdf`; at
    each decision node ``choose(player, view)`` returns the action taken.
    """
    tree = game.tree
    owner, first, chance_cdf = tree.owner, tree.first, tree.chance_cdf
    node = 0
    while (player := int(owner[node])) != TERMINAL:
        a, b = first[node], first[node + 1]
        if player == CHANCE:
            node = a + draw(chance_cdf[a:b], rng)
        else:
            view = tree.infosets[player].views[tree.infoset[node]]
            node = a + view.legal_actions.index(choose(player, view))
    return tuple(tree.utility[tree.row[node]].tolist())


def play_episode(game: Game, policies,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Sample one playthrough; ``policies[i]`` plays its evaluation-time
    distribution for player i, drawn by its ``draw(view, rng)``."""
    return sample_episode(
        game, lambda player, view: policies[player].draw(view, rng), rng)
