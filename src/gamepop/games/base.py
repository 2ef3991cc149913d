"""Core abstractions for two-player zero-sum extensive-form games.

Games are trees of immutable states. A state is owned by player 0, player 1,
chance, or is terminal. Information sets are identified by opaque string keys
that must be a function of the owning player's own action/observation
sequence (perfect recall), and every node of an infoset must lie at one
depth: compiling a tree whose infoset spans depths raises GameError, since
exact best responses decide each infoset on one level.

A game is read through one tree, ``game.tree``: its whole tree compiled
once from its states into read-only flat arrays (a `FlatTree`), on the
first sampled episode or exact evaluation. The engine keeps the last game
it built, so a process compiles the tree once per game and parameters for
all of its runs. Exact evaluation passes over those arrays level by level,
and policies see a decision node as its `InfosetView`, which knows its
row in its player's `Infosets`: sampled and exact play read a policy
through its `gamepop.policies.Reading` of those rows.

Exact evaluation and every reading walk `FlatTree.plan` besides: per
level, the index arrays they gather and scatter with, built on first use.
Exact evaluation also reads each terminal's chance probability from the
tree (`FlatTree.chance`), made once from that plan.

Sampled episodes walk `FlatTree.walk` instead: the same tree as typed
arrays and a tuple of Python objects, built on the first sampled episode
(exact evaluation never builds it), so a step reads Python ints and
objects rather than numpy scalars.
Each chance node's CDF there holds the floats of `FlatTree.chance_cdfs`,
and `draw` searches a CDF with `bisect.bisect_right`, which probes as numpy's
``searchsorted(side="right")`` does (the same midpoint rule, for any array
without NaN) at a fraction of its per-call cost. So an episode makes the
same draws, and leaves the generator in the same state, as one over the
arrays.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_right
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

    max_game_length: int = 0

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
    """A decision point as a policy sees it: infoset key, legal actions,
    encoded features and ``index``, its infoset's row in its player's
    `Infosets` (-1 for a view no tree holds). A tree holds one view per
    (player, key), whose features are a read-only row of that player's
    feature table; views compare by identity."""
    key: str
    legal_actions: tuple[int, ...]
    features: np.ndarray | None = None
    index: int = -1


class Infosets(NamedTuple):
    """One player's infosets in a `FlatTree`.

    Infoset i is ``views[i]``, whose ``index`` is i, has ``num_actions[i]``
    legal actions and holds the nodes ``nodes[start[i]:start[i + 1]]``, in
    depth-first preorder, all on level ``first_level[i]``. Row i of
    ``features`` is its encoded features (``views[i].features`` is a view
    of that row) and row i of ``legal`` marks its legal actions among the
    game's `num_distinct_actions`. Each table has one more row, all zero
    and all False, which index -1 reads: no infoset.
    """
    views: tuple[InfosetView, ...]
    num_actions: np.ndarray
    nodes: np.ndarray
    start: np.ndarray
    first_level: np.ndarray
    features: np.ndarray
    legal: np.ndarray

    @property
    def width(self) -> int:
        """The most legal actions at one infoset, 1 if there is none: the
        width of a table with one row per infoset and one column per
        legal action."""
        return int(self.num_actions.max(initial=1))


class PlayerLevel(NamedTuple):
    """One player's part of a `LevelPlan` of level d. Offsets count from
    the first node of level d."""
    nodes: np.ndarray  # the player's nodes on level d
    infoset: np.ndarray  # the infoset of each of them
    firsts: np.ndarray  # the infosets whose nodes are on level d
    # Per node of level d + 1, the entry ``infoset * width + slot`` of the
    # player's move into it in an (infosets x width) table, ``width`` the
    # most legal actions at one of the player's infosets; the entry one
    # past the table, infosets x width, where the player made no move
    # into the node. Empty on a level where the player does not move.
    move: np.ndarray


class LevelPlan(NamedTuple):
    """Level d of a `FlatTree` as exact evaluation reads it (see
    `FlatTree.plan`); the arrays about level d + 1 are empty on the
    deepest level.

    ``inner`` lists level d's nodes that have children, most children
    first (in preorder among equals), and ``kids[s]`` the offset on level
    d + 1 of child s of each of the first ``len(kids[s])`` of them: those
    with more than s children. So a pass sums children slot by slot into
    a prefix of ``inner``, reading every child once and writing no parent
    twice."""
    leaf: np.ndarray  # per node of level d, whether it is terminal
    up: np.ndarray  # per node of level d + 1, its parent's offset on d
    prob: np.ndarray  # `FlatTree.prob` of level d + 1, a view
    inner: np.ndarray
    kids: tuple[np.ndarray, ...]
    players: tuple[PlayerLevel, PlayerLevel]


class LastMoves(NamedTuple):
    """One player's moves as `FlatTree.last_moves` gives them. ``before``
    holds entries of `PlayerLevel.move`, the entry one past the table,
    infosets x width, standing for no move yet. A realization plan keeps
    one row per legal move and one for no move, the entries ``legal``
    lists in order; ``last`` and ``facing`` hold rows of it."""
    before: np.ndarray  # per infoset, the player's last move on the way
    legal: np.ndarray  # per plan row, its entry
    last: np.ndarray  # per terminal, in row order, the last move's row
    # per node of the other player, in that player's `Infosets.nodes`
    # order, the same
    facing: np.ndarray


class Choices(NamedTuple):
    """One player's infosets on one level (`PlayerLevel.firsts`), as
    `FlatTree.choices` gathers their best actions' values, most nodes
    first (in infoset order among equals): ``children[r]`` holds, for each
    of the first ``len(children[r])`` of them, those with more than r
    nodes, the children of its r-th node in preorder, one per action up to
    the most legal actions on the level, the last child repeated past its
    own. So the values of an action's children are summed node by node
    into a prefix of them."""
    children: tuple[np.ndarray, ...]
    # Per infoset in `firsts` order, its row in ``children`` and ``wide``.
    position: np.ndarray
    wide: np.ndarray  # per row and action, whether it is past its legal


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
    one view of each infoset, its features a read-only row of its player's
    feature table.

    Building it steps every state of the game once, depth first;
    TraversalBudgetError fires once the tree passes `MAX_TREE_NODES`, and
    GameError if an infoset holds nodes at more than one depth.
    Indices take the narrowest signed type that holds minus the node count
    (int16 on Leduc), no per-node Python object outlives the build, and
    nothing refers back to the game. Every array is read-only: one tree
    serves every run on its game in a process.

    Exact passes read the facts of the tree from it, each built on first
    use and kept: the per-level index arrays (`plan`), each terminal's
    chance probability (`chance`), each player's last moves (`last_moves`)
    and the best-action gathers (`choices`). No pass multiplies chance
    probabilities itself.
    """

    def __init__(self, game: Game):
        # Depth first from the initial state, one record per node in
        # preorder, kept in typed arrays rather than Python objects.
        owner, parent, slot = array("b"), array("i"), array("i")
        depth, infoset = array("i"), array("i")
        prob, returns = array("d"), array("d")
        # Per player, key -> (infoset index, legal actions), and the
        # features of its infosets, one after another in infoset order.
        listed, encoded = ({}, {}), (array("d"), array("d"))
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
                found, key = listed[player], state.infoset_key(player)
                if key not in found:
                    found[key] = (len(found), tuple(state.legal_actions()))
                    encoded[player].extend(game.encode_infoset(state, player))
                infoset.append(found[key][0])
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
        # Node numbers and -1 fit in ``node``, as does every index below.
        node = np.min_scalar_type(-len(up))
        self.parent = np.where(up < 0, -1, number[up]).astype(node)
        self.first = np.searchsorted(
            self.parent, np.arange(len(up) + 1)).astype(node)
        slot = np.array(slot)[preorder]
        self.slot = slot.astype(np.min_scalar_type(slot.max()))
        self.prob = np.array(prob)[preorder]
        self.infoset = np.array(infoset, node)[preorder]
        terminal = self.owner == TERMINAL
        ends = np.cumsum(owner == TERMINAL)  # in preorder
        self.utility = np.array(returns).reshape(-1, 2)[
            ends[preorder[terminal]] - 1]
        count = np.cumsum(terminal)
        self.row = np.where(terminal, count - 1, -1).astype(node)
        self.leaves = np.concatenate([[0], count])[self.levels]
        self.infosets = tuple(
            self._infosets(game, listed[player], encoded[player],
                           number[owner == player], depth[preorder])
            for player in (0, 1))
        self.views = {(player, view.key): view
                      for player, infosets in enumerate(self.infosets)
                      for view in infosets.views}
        for value in (*vars(self).values(), *self.infosets[0],
                      *self.infosets[1]):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def chance_cdfs(self) -> np.ndarray:
        """At each child of a chance node, the `checked_cdf` of its
        siblings' chance probabilities up to it (NaN at other nodes).
        Computed afresh on each call and kept by nobody: `walk` holds the
        same floats as tuples."""
        cdf = np.full(len(self.owner), np.nan)
        for node in np.flatnonzero(self.owner == CHANCE).tolist():
            a, b = self.first[node], self.first[node + 1]
            cdf[a:b] = checked_cdf(self.prob[a:b], b - a)
        return cdf

    @functools.cached_property
    def plan(self) -> tuple[LevelPlan, ...]:
        """One `LevelPlan` per level: what the exact passes of
        `gamepop.games.evaluate` would otherwise derive from the tree on
        every call, and each `gamepop.policies.Reading` walks once. Built
        on first use and read-only. Offsets and infoset indices are stored
        as narrow as their ranges allow, one past the largest included
        (uint16 on Leduc); the passes only index with them, so no sum can
        wrap."""
        levels, plan = self.levels, []
        offset = np.min_scalar_type(np.diff(levels).max())
        index = np.min_scalar_type(max(len(i.views) for i in self.infosets))
        for d in range(len(levels) - 1):
            a, b = levels[d], levels[d + 1]
            c = levels[min(d + 2, len(levels) - 1)]
            own = self.owner[a:b]
            up = self.parent[b:c].astype(np.intp) - a
            slot = self.slot[b:c]
            first = self.first[a:b + 1].astype(np.intp) - b
            count = np.diff(first)
            inner = np.argsort(-count, kind="stable")[:np.count_nonzero(count)]
            kids = tuple((first[inner[count[inner] > s]] + s).astype(offset)
                         for s in range(count.max(initial=0)))
            players = []
            for player, infosets in enumerate(self.infosets):
                nodes = np.flatnonzero(own == player)
                none = len(infosets.views) * infosets.width
                move = np.full(c - b if len(nodes) else 0, none)
                moves = np.flatnonzero(own[up] == player)
                move[moves] = (self.infoset[a + up[moves]].astype(np.intp)
                               * infosets.width + slot[moves])
                players.append(PlayerLevel(
                    nodes.astype(offset),
                    self.infoset[a + nodes].astype(index),
                    np.flatnonzero(infosets.first_level == d).astype(index),
                    move.astype(np.min_scalar_type(none))))
            plan.append(LevelPlan(own == TERMINAL, up.astype(offset),
                                  self.prob[b:c], inner.astype(offset), kids,
                                  tuple(players)))
        for value in _arrays(plan):
            value.flags.writeable = False
        return tuple(plan)

    @functools.cached_property
    def chance(self) -> np.ndarray:
        """Each terminal's chance probability, in row order: 1.0 times the
        `prob` of each edge on its way down, multiplied level by level from
        the root, as every exact pass weighs its terminals. Built on first
        use and read-only."""
        at, chance = np.ones(1), []
        for level in self.plan:
            chance.append(at[level.leaf])
            at = at[level.up] * level.prob
        chance = np.concatenate(chance)
        chance.flags.writeable = False
        return chance

    @functools.cached_property
    def last_moves(self) -> tuple[LastMoves, LastMoves]:
        """Per player, the player's last move on the way to each of its
        infosets, to each terminal and to each node of the other player:
        where reach read from realization plans
        (`gamepop.policies.Reading.own_reach`) looks a node up, in plan
        rows that skip the table's entries past an infoset's legal
        actions. Built on first use, read-only and as narrow as the plan's
        moves.

        A player's own reach at a node is its realization plan's entry for
        that last move, provided every node of an infoset follows the same
        last move of its player; GameError if one does not, since the
        infoset would not recall its player's own play.
        """
        players = []
        for player, infosets in enumerate(self.infosets):
            moves = self.plan[0].players[player].move.dtype
            none = len(infosets.views) * infosets.width
            before = np.full(len(infosets.views), none, moves)
            at, last = np.full(1, none, moves), []
            facing = np.full(len(self.owner), none, moves)
            for d, level in enumerate(self.plan):
                mine = level.players[player]
                last.append(at[level.leaf])
                facing[self.levels[d]:self.levels[d + 1]] = at
                before[mine.infoset] = at[mine.nodes]
                forgot = before[mine.infoset] != at[mine.nodes]
                if forgot.any():
                    key = infosets.views[mine.infoset[forgot][0]].key
                    raise GameError(f"infoset {key!r} holds nodes after "
                                    "different moves of its player")
                at = at[level.up]
                if len(mine.move):
                    at = np.where(mine.move < none, mine.move, at)
            legal = np.append(np.flatnonzero(
                np.arange(infosets.width) < infosets.num_actions[:, None]),
                none).astype(moves)
            last = np.concatenate(last)
            facing = facing[self.infosets[1 - player].nodes]
            players.append(LastMoves(
                before, legal, np.searchsorted(legal, last).astype(moves),
                np.searchsorted(legal, facing).astype(moves)))
        for value in _arrays(players):
            value.flags.writeable = False
        return tuple(players)

    @functools.cached_property
    def choices(self) -> tuple[tuple[Choices, Choices], ...]:
        """Per level, per player, the `Choices` of the player's infosets on
        that level: what an exact best response gathers to decide them,
        built on first use for all of them. Read-only, and as narrow as the
        plan's (uint16 on Leduc)."""
        node = np.min_scalar_type(len(self.owner))
        choices = []
        for level in self.plan:
            pair = []
            for mine, infosets in zip(level.players, self.infosets):
                start = infosets.start[mine.firsts]
                count = infosets.start[mine.firsts + 1] - start
                order = np.argsort(-count, kind="stable")
                start, count = start[order], count[order]
                width = infosets.num_actions[mine.firsts][order]
                actions = np.arange(width.max(initial=1))
                children = []
                for rank in range(count.max(initial=0)):
                    k = count > rank
                    nodes = infosets.nodes[start[k] + rank]
                    children.append((self.first[nodes][:, None] + np.minimum(
                        actions, width[k, None] - 1)).astype(node))
                pair.append(Choices(  # argsort inverts the permutation
                    tuple(children), np.argsort(order).astype(
                        mine.firsts.dtype), actions >= width[:, None]))
            choices.append(tuple(pair))
        for value in _arrays(choices):
            value.flags.writeable = False
        return tuple(choices)

    @functools.cached_property
    def walk(self) -> tuple[array, array, tuple]:
        """The tree as `sample_episode` walks it, per node: its owner and
        its first child (typed arrays, whose items are Python ints), and
        what the walk reads there: the `InfosetView` at a decision node, the
        floats of its children's `chance_cdfs` at a chance node and the
        returns at a terminal, each a tuple of Python floats. Equal CDFs
        share one tuple (a draw only compares their values), and so do
        returns equal bit for bit. Built on the first sampled episode;
        exact evaluation never reads it. Nothing writes into it."""
        at = [None] * len(self.owner)
        for player, infosets in enumerate(self.infosets):
            nodes = np.flatnonzero(self.owner == player)
            for node, index in zip(nodes.tolist(),
                                   self.infoset[nodes].tolist()):
                at[node] = infosets.views[index]
        cdfs, chance_cdfs = {}, self.chance_cdfs()
        for node in np.flatnonzero(self.owner == CHANCE).tolist():
            cdf = tuple(chance_cdfs[
                self.first[node]:self.first[node + 1]].tolist())
            at[node] = cdfs.setdefault(cdf, cdf)
        terminals = np.flatnonzero(self.owner == TERMINAL)
        _, index, inverse = np.unique(self.utility.view(np.int64), axis=0,
                                      return_index=True, return_inverse=True)
        returns = [tuple(r) for r in self.utility[index].tolist()]
        for node, k in zip(terminals.tolist(),
                           inverse.ravel()[self.row[terminals]].tolist()):
            at[node] = returns[k]
        return (array("b", self.owner.tobytes()),
                array("i", self.first[:-1].astype(np.intc).tobytes()),
                tuple(at))

    def _infosets(self, game, found, encoded, mine, depth) -> Infosets:
        # ``mine``, the player's nodes, is in preorder, and a stable
        # lexsort keeps preorder within each infoset.
        nodes = mine[np.lexsort((self.infoset[mine],))]
        start = _starts(self.infoset[nodes], len(found))
        first_level = np.zeros(0, np.int64)
        if found:
            level = depth[nodes]
            first_level = np.minimum.reduceat(level, start[:-1])
            spans = np.flatnonzero(
                np.maximum.reduceat(level, start[:-1]) != first_level)
            if len(spans):
                raise GameError(f"infoset {[*found][spans[0]]!r} holds "
                                "nodes at more than one depth")
        encoded.extend([0.0] * game.encoding_dim())
        features = np.frombuffer(encoded).reshape(len(found) + 1, -1)
        legal = np.zeros((len(found) + 1, game.num_distinct_actions()), bool)
        for i, actions in found.values():
            legal[i, list(actions)] = True
        # Read-only before the views are cut, so that each row is too.
        features.flags.writeable = False
        views = tuple(InfosetView(key, actions, features[i], i)
                      for key, (i, actions) in found.items())
        return Infosets(views, legal[:-1].sum(axis=1, dtype=np.int32), nodes,
                        start, first_level.astype(np.int32), features, legal)


def _arrays(value):
    """Every numpy array in ``value``, a nest of tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


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


def draw(cdf, rng: np.random.Generator) -> int:
    """The index of one ``rng.random()`` searched in ``cdf``, an array or a
    tuple: ``cdf.searchsorted(rng.random(), side="right")``, probed the
    same way by `bisect.bisect_right` for any ``cdf`` without NaN."""
    return bisect_right(cdf, rng.random())


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

    Chance outcomes are drawn from ``rng`` and the tree's chance CDFs; at
    each decision node ``choose(player, view)`` returns the action taken.
    The walk reads `FlatTree.walk`.
    """
    owner, first, at = game.tree.walk
    node = 0
    while (player := owner[node]) != TERMINAL:
        if player == CHANCE:
            node = first[node] + draw(at[node], rng)
        else:
            view = at[node]
            node = first[node] + view.legal_actions.index(choose(player, view))
    return at[node]


def play_episode(game: Game, policies,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Sample one playthrough; ``policies[i]`` plays its evaluation-time
    distribution for player i, drawn from its `Reading` of the tree."""
    tree = game.tree
    readings = (policies[0].reading(tree, 0), policies[1].reading(tree, 1))
    return sample_episode(
        game, lambda player, view: readings[player].draw(view, rng), rng)
