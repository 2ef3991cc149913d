"""Exact evaluation over a game's compiled tree: expected value, best
response, exploitability.

Every evaluation reads ``game.tree`` (see `gamepop.games.base.FlatTree`),
the whole tree compiled into flat arrays on first use; it raises
TraversalBudgetError for a game too large to compile. Mixtures are handled
exactly: a pass carries one reach weight per mixture member and per player,
so sampling a member once per playthrough is integrated out in closed form
rather than simulated.

Evaluation reads each side's reach at the terminals, then makes one
array pass up the tree's levels, reading the tree's per-level index arrays
from `FlatTree.plan` rather than deriving them per call, and each
terminal's chance probability from `FlatTree.chance` rather than
multiplying it out. A side's reach comes from its members' readings
(`policies.Reading`, one per policy and player, shared with sampled play,
each read once where its policy's own play reaches); `best_response`
writes its response's reading when it makes it, so a new exact-oracle
member is never read.

`_reach` is the one path for every side, and no pass walks down the tree.
A member's own reach never changes, so each reading keeps it, made once as
the policy's realization plan (`policies.Reading.own_reach`): 1.0 times
its entries along its own moves. One gather through `FlatTree.last_moves`
gives every member's plan at every terminal. A listed population keeps one
column per member (every payoff row and column). A side weighed by a
meta-strategy sigma multiplies each member's column by sigma_k, last, and
sums over every member, sigma_k = 0 included; a profile of two mixtures
reads each side alone, since one side's products never read the other's.
For a pure member (an exact best response, a greedy network) sigma_k times
1.0 is sigma_k, the product a walk that starts each member at sigma_k
forms; with mixed rows the two orders may differ in the last bit.

`_ascend` goes up: a node's value is 0.0 plus its children's, added in slot
order. Each level gathers its children slot by slot into the prefix of its
inner nodes that has that slot (`LevelPlan.kids`, most children first),
and writes the sums into the level once; no parent is added into twice.
`best_response` ascends once with one full value array and decides each
responder infoset on the one level that holds its nodes, after the level
below has its values, summing its nodes' children the same way, node by
node into a prefix of that level's infosets (`FlatTree.choices`).

Every value takes the same floating-point operations, in the same order,
as a recursive walk that carries each member's own reach from 1.0, weighs
it at the terminals and skips each branch no member of nonzero weight
plays (the reference in tests/test_evaluate.py): the passes here skip
nothing, but a skipped branch is worth +0.0 or -0.0, and adding either to
a total that starts at +0.0, and so is never -0.0, leaves the total as it
is. At a node that a member's own play does not reach, its reach is +0.0
or -0.0 in every pass; its row there, whether read or an unread zero, only
changes the sign of that zero, and so it too leaves every total as it
is.

`expected_value` also resolves one side by member: given a list of policies
on that side, its reach keeps one column per listed policy and never sums
them, so one ascent values one policy against a whole population (a new
payoff row or column), each entry equal bit for bit to that pair's own
value.
"""

from __future__ import annotations

import numpy as np

from .base import FlatTree, Game


def _as_members(policy_or_mixture):
    """Normalize a policy, mixture or list of policies to (members,
    weights); each listed policy weighs 1."""
    if isinstance(policy_or_mixture, list):
        return policy_or_mixture, np.ones(len(policy_or_mixture))
    members = getattr(policy_or_mixture, "members", None)
    if members is not None:
        return list(members), np.asarray(policy_or_mixture.weights, dtype=float)
    return [policy_or_mixture], np.ones(1)


def _reach(flat: FlatTree, player: int, side, facing: bool = False):
    """``side``'s reach at each terminal, in row order; ``side`` is a
    policy, mixture or list of ``player``'s policies (see `_as_members`).
    Reach has one column per listed policy, else one column summed over the
    members. With ``facing``, returns ``(reach, reached)``: also whether the
    side reaches each node of the other player, in that player's
    `Infosets.nodes` order.

    Every side reads its members' realization plans (`_plans`) through
    `FlatTree.last_moves`. A side that is not listed weighs each member's
    plan by its weight, last, and sums each row of plans over every
    member, zero weights included, in numpy's order for a C-contiguous row
    (``sum(axis=1)``) before the gather: a terminal's sum is its last
    move's. It reaches a node where some member's weighed plan is nonzero.
    """
    members, weights = _as_members(side)
    moves, listed = flat.last_moves[player], isinstance(side, list)
    plans = _plans(flat, player, members)
    if not listed:
        plans *= weights
    if facing:
        reached = plans.any(axis=1)[moves.facing]
    if not listed:
        plans = plans.sum(axis=1, keepdims=True)
    reach = plans[moves.last]
    return (reach, reached) if facing else reach


def _plans(flat: FlatTree, player: int, members):
    """The members' realization plans (`policies.Reading.own_reach`), one
    column each, in a fresh C-contiguous matrix the caller may write. Each
    row holds each member's own reach at every node whose last move of
    ``player`` is that row's (`FlatTree.last_moves`): 1.0 times its
    entries along its own moves, in order."""
    plans = np.zeros((len(flat.last_moves[player].legal), len(members)))
    for j, member in enumerate(members):
        entries, values = member.reading(flat, player).own_reach()
        plans[entries, j] = 1.0 if values is None else values
    return plans


def _prefix_sums(values, gathers):
    """Per row, 0.0 plus the ``values`` it gathers, added in order:
    ``gathers[s]`` holds the s-th gather of the first ``len(gathers[s])``
    rows (`LevelPlan.kids`, `Choices.children`), so each is added into a
    contiguous prefix of the sums and no row is written twice."""
    sums = values[gathers[0]] + 0.0
    for k in gathers[1:]:
        sums[:len(k)] += values[k]
    return sums


def _ascend(flat: FlatTree, leaf_values):
    """The root's values when each terminal is worth its row of
    ``leaf_values`` and every other node the sum of its children's."""
    levels, leaves = flat.levels, flat.leaves
    below = None
    for d in reversed(range(len(levels) - 1)):
        level = flat.plan[d]
        here = np.empty((levels[d + 1] - levels[d],) + leaf_values.shape[1:])
        here[level.leaf] = leaf_values[leaves[d]:leaves[d + 1]]
        if level.kids:
            here[level.inner] = _prefix_sums(below, level.kids)
        below = here
    return below[0]


def expected_value(game: Game, profile):
    """Exact expected utilities of a (policy or mixture) profile.

    One side of the profile may be a list of policies instead. Both
    utilities are then arrays with one entry per listed policy, each equal
    bit for bit to the utility of that policy's own profile.
    """
    listed = [isinstance(side, list) for side in profile]
    if all(listed):
        raise ValueError("expected_value resolves one side of a profile by "
                         "member, not both")
    flat = game.tree
    reach0, reach1 = (_reach(flat, player, side)
                      for player, side in enumerate(profile))
    v0 = _ascend(flat, flat.chance[:, None] * reach0 * reach1
                 * flat.utility[:, :1])
    if not any(listed):
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
    """`best_response` on ``flat``, followed by the opponent's summed reach
    at each terminal.

    Johanson et al. (IJCAI 2011): the opponent's reach at each terminal
    and each responder node (`_reach`); then one ascent over a full value
    array in which each terminal is worth its chance and opponent reach
    times the responder's utility, and each responder node its best
    action's child.
    """
    from ..policies import Reading, TabularPolicy

    infosets = flat.infosets[responder]
    fold, reached = _reach(flat, 1 - responder, opponent_mixture,
                           facing=True)
    fold = fold[:, 0]
    live = np.zeros(len(infosets.views), bool)
    live[flat.infoset[infosets.nodes[reached]]] = True
    value = np.zeros(len(flat.owner))
    value[flat.row >= 0] = flat.chance * fold * flat.utility[:, responder]
    best = _decide(flat, value, live, responder)
    decided = np.flatnonzero(best >= 0)
    policy = TabularPolicy.greedy(
        [infosets.views[i].key for i in decided.tolist()],
        infosets.num_actions[decided].tolist(), best[decided].tolist())
    # Its reading, filled as `action_probs` would: the one-hot of each
    # decided infoset, the uniform default elsewhere.
    reading = policy._readings[responder] = Reading(flat, responder)
    rows, width = reading.rows, infosets.num_actions[:, None]
    np.divide(1.0, width, out=rows, where=np.arange(rows.shape[1]) < width)
    rows[decided] = 0.0
    rows[decided, best[decided]] = 1.0
    return policy, value[0], fold


def _decide(flat: FlatTree, value, live, responder: int):
    """Best action of each ``live`` responder infoset (-1 elsewhere),
    filling ``value`` with every node's value under them.

    One ascent from the deepest level: on each level, every node with
    children first sums them (`_prefix_sums`); then the live infosets on
    that level (every node of an infoset lies on one level, see
    `FlatTree`) are decided, and each responder node of a decided infoset
    takes its best action's child's value instead.
    """
    levels, plan = flat.levels, flat.plan
    infosets = flat.infosets[responder]
    best = np.full(len(infosets.views), -1)
    for d in reversed(range(len(levels) - 2)):
        a, b, c = levels[d], levels[d + 1], levels[d + 2]
        level = plan[d]
        mine = level.players[responder]
        here = value[a:b]
        here[level.inner] = _prefix_sums(value[b:c], level.kids)
        due = mine.firsts[live[mine.firsts]]
        best[due] = _best_actions(flat, value, responder, due)
        choice = best[mine.infoset]
        chosen = choice >= 0
        nodes = mine.nodes[chosen]
        here[nodes] = value[flat.first[a:b][nodes] + choice[chosen]]
    return best


def _best_actions(flat: FlatTree, value, player: int, due):
    """For each infoset in ``due``, all of ``player``'s and on one level,
    the action whose children's values, summed over the infoset's nodes in
    preorder from 0.0, is largest; the lowest such action, ignoring NaN;
    action 0 if none beats -inf. The sums are made for every infoset on the
    level, from the gathers of `FlatTree.choices`, and those of ``due``
    picked out through `Choices.position`."""
    if not len(due):
        return np.zeros(0, np.intp)
    d = flat.infosets[player].first_level[due[0]]
    choices = flat.choices[d][player]
    total = _prefix_sums(value, choices.children)
    total[choices.wide | np.isnan(total)] = -np.inf
    return total.argmax(axis=1)[choices.position[
        np.searchsorted(flat.plan[d].players[player].firsts, due)]]


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
        policy, value, folds[1 - player] = _respond(
            flat, profile[1 - player], player)
        responses.append(policy)
        values.append(value)
    v0 = _ascend(flat, (flat.chance * folds[0] * folds[1]
                        * flat.utility[:, 0])[:, None])[0]
    current = (v0, -v0)
    total = 0.0
    for player in (0, 1):
        total += values[player] - current[player]
    return (total, tuple(responses)) if with_responses else total
