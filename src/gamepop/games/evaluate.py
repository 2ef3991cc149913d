"""Exact evaluation over a game's compiled tree: expected value, best
response, exploitability.

Every evaluation reads ``game.tree`` (see `gamepop.games.base.FlatTree`),
the whole tree compiled into flat arrays on first use; it raises
TraversalBudgetError for a game too large to compile. Mixtures are handled
exactly: a pass carries one reach weight per mixture member and per player,
so sampling a member once per playthrough is integrated out in closed form
rather than simulated.

Evaluation is two array passes over the tree's levels, each reading the
tree's per-level index arrays from `FlatTree.plan` rather than deriving
them per call. The first gives each terminal each side's reach, from the
members' readings (`policies.Reading`, one per policy and player, shared
with sampled play, each read once where its policy's own play reaches);
`best_response` writes its response's reading when it makes it, so a new
exact-oracle member is never read.

A side whose weights are all 1.0 (a single policy, a one-member mixture or
a listed population: every payoff row and column) is never descended. Its
members' own reach never changes, so each reading keeps it, made once as
the policy's realization plan (`policies.Reading.own_reach`), and one
gather through `FlatTree.last_moves` gives it at every terminal, with the
products a descent from 1.0 forms. A side weighed by a meta-strategy
sigma starts its products at sigma_k, so no cache gives its bits:
`_descend` multiplies each level's reach by the members' entries, gathered
with one flat index per move (`PlayerLevel.move`) from an (infosets x
actions, members) table of their rows.

`_ascend` goes up: a node's value is 0.0 plus its children's, added in slot
order. `best_response` ascends once with one full value array and decides
each responder infoset on the one level that holds its nodes, after the
level below has its values, from gathers built once per tree for all of
that level's infosets (`FlatTree.choices`).

Every value takes the same floating-point operations, in the same order,
as a recursive walk that skips each branch no member plays (the reference
in tests/test_evaluate.py): the passes here skip nothing, but a skipped
branch is worth +0.0 or -0.0, and adding either to a total that starts at
+0.0, and so is never -0.0, leaves the total as it is. At a node that a
member's own play does not reach, its reach is +0.0 or -0.0 in every pass;
its row there, whether read or an unread zero, only changes the sign of
that zero, and so it too leaves every total as it is.

`expected_value` also resolves one side by member: given a list of policies
on that side, its pass keeps one reach entry per listed policy and never
sums them, so one pass values one policy against a whole population (a new
payoff row or column), each entry equal bit for bit to that pair's own
value.
"""

from __future__ import annotations

import numpy as np

from .base import FlatTree, Game, LevelPlan


def _as_members(policy_or_mixture):
    """Normalize a policy, mixture or list of policies to (members,
    weights); each listed policy weighs 1."""
    if isinstance(policy_or_mixture, list):
        return policy_or_mixture, np.ones(len(policy_or_mixture))
    members = getattr(policy_or_mixture, "members", None)
    if members is not None:
        return list(members), np.asarray(policy_or_mixture.weights, dtype=float)
    return [policy_or_mixture], np.ones(1)


def _weighed(weights) -> bool:
    """Whether a side's pass must weigh its members: some weight is not
    1.0. A side of weights 1.0, a single policy or a listed population,
    reads its members' own reach instead (`_plans`)."""
    return bool((np.asarray(weights) != 1.0).any())


def _descend(flat: FlatTree, sides):
    """The top-down pass for ``sides``, each ``(player, members, weights,
    fold)``; with no side, only each terminal's chance probability.

    Returns ``(chance, reaches, reached)``: each terminal's chance
    probability; per side, each terminal's reach, summed over members if
    the side folds and one column per member if not; and whether the pass
    reaches each node. The root is reached, and a child of a side's
    decision node is reached if its parent is and some member of that side
    plays the action. The members' rows are their readings' rows, stacked
    as an (infosets x actions, members) table that each move's one flat
    index (`PlayerLevel.move`) gathers from.
    """
    levels, plan = flat.levels, flat.plan
    tables = [np.stack([member.reading(flat, player).rows.ravel()
                        for member in members], axis=1)
              for player, members, _, _ in sides]
    reach = [np.asarray(weights, dtype=float)[None, :]
             for _, _, weights, _ in sides]
    chance = np.ones(1)
    alive = np.ones(1, bool)
    reached = np.empty(len(flat.owner), bool)
    leaf_chance, leaf_reach = [], [[] for _ in sides]
    for d, level in enumerate(plan):
        reached[levels[d]:levels[d + 1]] = alive
        leaf_chance.append(chance[level.leaf])
        for i, (_, _, _, fold) in enumerate(sides):
            r = reach[i][level.leaf]
            leaf_reach[i].append(r.sum(axis=1, keepdims=True) if fold else r)
        if d == len(plan) - 1:
            break
        up = level.up
        chance = chance[up] * level.prob
        alive_below = alive[up]
        for i, (player, _, _, _) in enumerate(sides):
            mine = level.players[player]
            r = reach[i] = reach[i][up]
            moves = mine.moves
            moved = r[moves] * tables[i][mine.move]
            r[moves] = moved
            alive_below[moves] &= moved.any(axis=1)
        alive = alive_below
    return (np.concatenate(leaf_chance),
            [np.concatenate(r) for r in leaf_reach], reached)


def _plans(flat: FlatTree, player: int, members):
    """The members' realization plans (`policies.Reading.own_reach`), one
    column each. Row m holds each member's own reach at every node whose
    last move of ``player`` is m (`FlatTree.last_moves`), bit for bit what
    a side of weight 1.0 carries down to that node in `_descend`."""
    infosets = flat.infosets[player]
    plans = np.zeros((len(infosets.views) * infosets.width + 1,
                      len(members)))
    for j, member in enumerate(members):
        entries, values = member.reading(flat, player).own_reach()
        plans[entries, j] = 1.0 if values is None else values
    return plans


def _add_children(level: LevelPlan, here, below):
    """Add level d + 1's values ``below`` into their parents' values
    ``here`` on level d, slot by slot; ``level`` is level d's plan."""
    for k, up in level.siblings:
        here[up] += below[k]


def _ascend(flat: FlatTree, leaf_values):
    """The root's values when each terminal is worth its row of
    ``leaf_values`` and every other node the sum of its children's."""
    levels, leaves = flat.levels, flat.leaves
    below = None
    for d in reversed(range(len(levels) - 1)):
        level = flat.plan[d]
        here = np.zeros((levels[d + 1] - levels[d],) + leaf_values.shape[1:])
        here[level.leaf] = leaf_values[leaves[d]:leaves[d + 1]]
        if below is not None:
            _add_children(level, here, below)
        below = here
    return below[0]


def expected_value(game: Game, profile):
    """Exact expected utilities of a (policy or mixture) profile.

    One side of the profile may be a list of policies instead. Both
    utilities are then arrays with one entry per listed policy, each equal
    bit for bit to the utility of that policy's own profile.
    """
    sides = []
    for player, side in enumerate(profile):
        members, weights = _as_members(side)
        sides.append((player, members, weights, not isinstance(side, list)))
    if not (sides[0][3] or sides[1][3]):
        raise ValueError("expected_value resolves one side of a profile by "
                         "member, not both")
    flat = game.tree
    chance, folds, _ = _descend(
        flat, [side for side in sides if _weighed(side[2])])
    for player, members, weights, fold in sides:
        if not _weighed(weights):  # its reach goes in at its own place
            reach = _plans(flat, player, members)[
                flat.last_moves[player].last]
            folds.insert(player, (reach.sum(axis=1, keepdims=True) if fold
                                  else reach))
    v0 = _ascend(flat, chance[:, None] * folds[0] * folds[1]
                 * flat.utility[:, :1])
    if sides[0][3] and sides[1][3]:
        v0 = v0[0]
    return (v0, -v0)


def best_response(game: Game, opponent_mixture, responder: int):
    """Exact best response of `responder` to an opponent policy mixture.

    Returns (policy, value). The policy is tabular and deterministic on every
    infoset reachable under the opponent mixture (ties broken by lowest
    action id); unreachable infosets fall back to the uniform default.
    """
    return _respond(game.tree, opponent_mixture, responder)[:2]


def _respond(flat: FlatTree, opponent_mixture, responder: int):
    """`best_response` on ``flat``, followed by each terminal's chance
    probability and summed opponent reach.

    Johanson et al. (IJCAI 2011): the opponent's reach at each terminal
    and each responder node, from one `_descend` or, for weights of 1.0,
    from the members' own reach; then one ascent over a full value array in
    which each terminal is worth its chance and opponent reach times the
    responder's utility, and each responder node its best action's child.
    """
    from ..policies import Reading, TabularPolicy, _one_hot

    members, weights = _as_members(opponent_mixture)
    infosets = flat.infosets[responder]
    if _weighed(weights):
        chance, (fold,), reached = _descend(
            flat, [(1 - responder, members, weights, True)])
        fold, reached = fold[:, 0], reached[infosets.nodes]
    else:
        chance, moves = _descend(flat, [])[0], flat.last_moves[1 - responder]
        plans = _plans(flat, 1 - responder, members)
        fold = plans[moves.last].sum(axis=1)
        reached = plans[moves.facing].any(axis=1)
    live = np.zeros(len(infosets.views), bool)
    live[flat.infoset[infosets.nodes[reached]]] = True
    value = np.zeros(len(flat.owner))
    value[flat.row >= 0] = chance * fold * flat.utility[:, responder]
    best = _decide(flat, value, live, responder)
    decided = np.flatnonzero(best >= 0)
    policy = TabularPolicy({
        infosets.views[i].key: _one_hot(infosets.num_actions[i], best[i])
        for i in decided.tolist()})
    # Its reading, filled as `action_probs` would: the one-hot of each
    # decided infoset, the uniform default elsewhere.
    reading = policy._readings[responder] = Reading(flat, responder)
    rows, width = reading.rows, infosets.num_actions[:, None]
    np.divide(1.0, width, out=rows, where=np.arange(rows.shape[1]) < width)
    rows[decided] = 0.0
    rows[decided, best[decided]] = 1.0
    return policy, value[0], chance, fold


def _decide(flat: FlatTree, value, live, responder: int):
    """Best action of each ``live`` responder infoset (-1 elsewhere),
    filling ``value`` with every node's value under them.

    One ascent from the deepest level: on each level, every node first sums
    its children; then the live infosets on that level (every node of an
    infoset lies on one level, see `FlatTree`) are decided, and each
    responder node of a decided infoset takes its best action's child's
    value.
    """
    levels, plan = flat.levels, flat.plan
    infosets = flat.infosets[responder]
    best = np.full(len(infosets.views), -1)
    for d in reversed(range(len(levels) - 2)):
        a, b, c = levels[d], levels[d + 1], levels[d + 2]
        level = plan[d]
        mine = level.players[responder]
        here = value[a:b]
        here[~level.leaf] = 0.0
        _add_children(level, here, value[b:c])
        due = mine.firsts[live[mine.firsts]]
        best[due] = _best_actions(flat, value, infosets, due)
        choice = best[mine.infoset]
        chosen = choice >= 0
        nodes = mine.nodes[chosen]
        here[nodes] = value[flat.first[a:b][nodes] + choice[chosen]]
    return best


def _best_actions(flat: FlatTree, value, infosets, due):
    """For each infoset in ``due``, all of one player's ``infosets`` and on
    one level, the action whose children's values, summed over the
    infoset's nodes in preorder from 0.0, is largest; the lowest such
    action, ignoring NaN; action 0 if none beats -inf. The sums are made
    for every infoset on the level, from the gathers of `FlatTree.choices`,
    and those of ``due`` picked out."""
    if not len(due):
        return np.zeros(0, np.intp)
    d = infosets.first_level[due[0]]
    player = 0 if infosets is flat.infosets[0] else 1
    choices = flat.choices[d][player]
    total = np.zeros(choices.wide.shape)
    ranks = choices.ranks
    for r in range(len(ranks) - 1):
        rank = slice(ranks[r], ranks[r + 1])
        total[choices.at[rank]] += value[choices.children[rank]]
    total[choices.wide | np.isnan(total)] = -np.inf
    return total.argmax(axis=1)[
        np.searchsorted(flat.plan[d].players[player].firsts, due)]


def exploitability(game: Game, profile, with_responses: bool = False):
    """Sum over players of the gain from deviating to an exact best response.

    With ``with_responses`` returns ``(sum, responses)``, where
    ``responses[player]`` is the best-response policy behind that player's
    gain: `best_response` to ``profile[1 - player]``.

    The profile's own value comes from the two best responses' opponent
    reaches, so policies are read only by those two passes.
    """
    flat = game.tree
    responses, values, folds = [], [], [None, None]
    for player in (0, 1):
        # Both descents give each terminal the same chance probability.
        policy, value, chance, folds[1 - player] = _respond(
            flat, profile[1 - player], player)
        responses.append(policy)
        values.append(value)
    v0 = _ascend(flat, (chance * folds[0] * folds[1]
                        * flat.utility[:, 0])[:, None])[0]
    current = (v0, -v0)
    total = 0.0
    for player in (0, 1):
        total += values[player] - current[player]
    return (total, tuple(responses)) if with_responses else total
