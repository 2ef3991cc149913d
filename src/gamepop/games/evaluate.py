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
them per call. `_descend`, the only step that reads policies, goes down: a
child's reach is its parent's times the entry of the action leading to it
in an (infosets x members x actions) table, stacked from the members'
readings (`policies.Reading`, one per policy and player, shared with
sampled play, each read once where its policy's own play reaches).
`best_response` writes its response's reading when it makes it, so a new
exact-oracle member is never read. `_ascend` goes up: a node's value is
0.0 plus its children's, added in slot order. `best_response` ascends once
with one full value array and decides each responder infoset on the one
level that holds its nodes, after the level below has its values.

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


def _descend(flat: FlatTree, sides):
    """The top-down pass for ``sides``, each ``(player, members, weights,
    fold)``.

    Returns ``(chance, reaches, reached)``: each terminal's chance
    probability; per side, each terminal's reach, summed over members if
    the side folds and one column per member if not; and whether the pass
    reaches each node. The root is reached, and a child of a side's
    decision node is reached if its parent is and some member of that side
    plays the action. The members' rows are their readings' rows, stacked.
    """
    levels, plan = flat.levels, flat.plan
    tables = [np.stack([member.reading(flat, player).rows
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
            moved = r[moves] * tables[i][mine.move_infoset, :,
                                         mine.move_slot]
            r[moves] = moved
            alive_below[moves] &= moved.any(axis=1)
        alive = alive_below
    return (np.concatenate(leaf_chance),
            [np.concatenate(r) for r in leaf_reach], reached)


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
    chance, (fold0, fold1), _ = _descend(flat, sides)
    v0 = _ascend(flat, chance[:, None] * fold0 * fold1 * flat.utility[:, :1])
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

    Johanson et al. (IJCAI 2011): one `_descend` for the opponent, then one
    ascent over a full value array in which each terminal is worth its
    chance and opponent reach times the responder's utility, and each
    responder node its best action's child.
    """
    from ..policies import Reading, TabularPolicy, _one_hot

    members, weights = _as_members(opponent_mixture)
    chance, (fold,), reached = _descend(
        flat, [(1 - responder, members, weights, True)])
    value = np.zeros(len(flat.owner))
    value[flat.row >= 0] = chance * fold[:, 0] * flat.utility[:, responder]
    best = _decide(flat, value, reached, responder)
    infosets = flat.infosets[responder]
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
    return policy, value[0], chance, fold[:, 0]


def _decide(flat: FlatTree, value, reached, responder: int):
    """Best action of each responder infoset holding a reached node (-1
    elsewhere), filling ``value`` with every node's value under them.

    One ascent from the deepest level: on each level, every node first sums
    its children; then the live infosets on that level (every node of an
    infoset lies on one level, see `FlatTree`) are decided, and each
    responder node of a decided infoset takes its best action's child's
    value.
    """
    levels, plan = flat.levels, flat.plan
    infosets = flat.infosets[responder]
    live = np.zeros(len(infosets.views), bool)
    live[flat.infoset[infosets.nodes[reached[infosets.nodes]]]] = True
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
    """For each infoset in ``due``, the action whose children's values,
    summed over the infoset's nodes in preorder from 0.0, is largest; the
    lowest such action, ignoring NaN; action 0 if none beats -inf."""
    start = infosets.start[due]
    count = infosets.start[due + 1] - start
    width = infosets.num_actions[due]
    actions = np.arange(width.max(initial=1))
    total = np.zeros((len(due), len(actions)))
    for rank in range(count.max(initial=0)):
        k = np.flatnonzero(count > rank)
        nodes = infosets.nodes[start[k] + rank]
        total[k] += value[flat.first[nodes][:, None]
                          + np.minimum(actions, width[k, None] - 1)]
    total[(actions >= width[:, None]) | np.isnan(total)] = -np.inf
    return total.argmax(axis=1)


def exploitability(game: Game, profile, with_responses: bool = False):
    """Sum over players of the gain from deviating to an exact best response.

    With ``with_responses`` returns ``(sum, responses)``, where
    ``responses[player]`` is the best-response policy behind that player's
    gain: `best_response` to ``profile[1 - player]``.

    The profile's own value comes from the two best responses' opponent
    reaches, so policies are read only by those two descents.
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
