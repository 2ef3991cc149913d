"""Exact evaluation over a game's compiled tree: expected value, best
response, exploitability.

Every evaluation reads ``game.tree`` (see `gamepop.games.base.FlatTree`),
the whole tree compiled into flat arrays on first use; it raises
TraversalBudgetError for a game too large to compile. Mixtures are handled
exactly: a side's realization plan sums its members' plans weighed by
their weights, so sampling a member once per playthrough is integrated out
in closed form rather than simulated.

The passes work in sequence form (`FlatTree.sequence_form`; Koller,
Megiddo and von Stengel, GEB 1996) and read none of the tree's inner
nodes. A side is its members' realization plans (`_reach`), one row per
legal move of its player and one for no move: each member's plan is kept
by its reading (`policies.Reading.own_reach`, shared with sampled play and
read once where its policy's own play reaches), and `best_response`
writes its response's reading when it makes it, so a new exact-oracle
member is never read. A listed population keeps one plan per member; a
side weighed by a meta-strategy sigma multiplies each member's plan by
sigma_k, last, and sums each row over every member, sigma_k = 0 included.

The canonical order of a value of plan x0 against plan x1 (`_value`):
``y = np.bincount(r1, weights=w0 * x0[r0], minlength=rows1)``, which adds
each terminal's chance x u0 x x0 at its last move r0, from 0.0 and in
terminal row order, into the row r1 of player 1's last move; then one
contiguous reduction of ``y * x1`` over player 1's rows. A new payoff row
(player 1 listed) reduces each row of the C-contiguous (members x rows)
product, and a new column (player 0 listed) makes one bincount per member,
so every entry equals its own pair's `expected_value` bit for bit,
whichever pass fills it; so does the profile value inside
`exploitability`. No pass uses BLAS, so bits do not depend on its build or
its threads.

A best response (Johanson et al., IJCAI 2011) adds the terminals into the
responder's rows with the same bincount, the opponent's plan in place of
x0, then goes up the responder's own infosets, deepest level first
(`_best_moves`): each takes its best legal row, and that row's value is
added into the row of its player's move before it. Its value is the
no-move row's.

Every value takes the same floating-point operations, in the same order,
as the references in tests/test_evaluate.py: recursive walks that carry
each member's own reach from 1.0, weigh it at the terminals and skip each
branch no member of nonzero weight plays, then add the terminals up in the
order above. A skipped terminal is worth +0.0 or -0.0, and adding either
to a sum that starts at +0.0, and so is never -0.0, leaves it as it is;
a row that only skipped terminals reach holds +0.0, and its product with
the other side's plan, +0.0 or -0.0, leaves the final sum as it is too.
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
    """``side``'s realization plan over ``player``'s plan rows
    (`SequenceForm`); ``side`` is a policy, mixture or list of ``player``'s
    policies (see `_as_members`). A listed side gives one plan per listed
    policy, the rows of a C-contiguous (members x rows) matrix, any other
    side one plan summed over its members. With ``facing``, returns
    ``(plan, reached)``: also whether the side reaches each node of the
    other player, in that player's `Infosets.nodes` order.

    Every side reads its members' realization plans (`_plans`). A side
    that is not listed weighs each member's plan by its weight, last, into
    a C-contiguous (rows x members) matrix, and sums each row over every
    member, zero weights included, in numpy's order for a C-contiguous row
    (``sum(axis=1)``). It reaches a node where some member's weighed plan
    is nonzero at the node's last move of ``player``
    (`LastMoves.facing`).
    """
    members, weights = _as_members(side)
    plans = _plans(flat, player, members)
    if isinstance(side, list):
        reach = plans.T
    else:
        plans = np.multiply(plans, weights, order="C")
        reach = plans.sum(axis=1)
    if facing:
        return reach, plans.any(axis=1)[flat.last_moves[player].facing]
    return reach


def _plans(flat: FlatTree, player: int, members):
    """The members' realization plans (`policies.Reading.own_reach`), one
    contiguous column each, in a fresh (rows x members) matrix the caller
    may write. Row r holds each member's own reach at every node whose last
    move of ``player`` is plan row r (`FlatTree.last_moves`): 1.0 times its
    entries along its own moves, in order."""
    plans = np.zeros((len(members), len(flat.last_moves[player].legal)))
    for plan, member in zip(plans, members):
        entries, values = member.reading(flat, player).own_reach()
        plan[entries] = 1.0 if values is None else values
    return plans.T


def _value(flat: FlatTree, plan0, plan1):
    """Player 0's value of plan ``plan0`` against ``plan1`` (or against
    each row of a stack of plans): ``y``, 0.0 plus chance x u0 x plan0 of
    each terminal in row order, added into its last move's row of player 1
    by one `np.bincount`, then one contiguous reduction of ``y * plan1``
    over player 1's rows (x0^T A x1)."""
    first, second = flat.sequence_form
    y = np.bincount(second.last, weights=first.weight * plan0[first.last],
                    minlength=plan1.shape[-1])
    return (plan1 * y).sum(axis=-1)


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
    plan0, plan1 = (_reach(flat, player, side)
                    for player, side in enumerate(profile))
    if listed[0]:
        v0 = np.array([_value(flat, plan, plan1) for plan in plan0])
    else:
        v0 = _value(flat, plan0, plan1)
    return (v0, -v0)


def best_response(game: Game, opponent_mixture, responder: int):
    """Exact best response of `responder` to an opponent policy mixture.

    Returns (policy, value). The policy is tabular and deterministic on every
    infoset reachable under the opponent mixture (ties broken by lowest
    action id); unreachable infosets fall back to the uniform default.
    """
    return _respond(game.tree, opponent_mixture, responder)[:2]


def _respond(flat: FlatTree, opponent_mixture, responder: int):
    """`best_response` on ``flat``, followed by the opponent's summed
    realization plan.

    Johanson et al. (IJCAI 2011): the opponent's plan (`_reach`), then
    each of the responder's plan rows gets, by one `np.bincount` in
    terminal row order from 0.0, chance x opponent plan x the responder's
    utility of each terminal that the row's move ends at; `_best_moves`
    goes up the responder's infosets from there.
    """
    from ..policies import Reading, TabularPolicy

    infosets = flat.infosets[responder]
    mine, theirs = (flat.sequence_form[responder],
                    flat.sequence_form[1 - responder])
    plan, reached = _reach(flat, 1 - responder, opponent_mixture,
                           facing=True)
    live = np.zeros(len(infosets.views), bool)
    live[flat.infoset[infosets.nodes[reached]]] = True
    value = np.bincount(mine.last, weights=mine.weight * plan[theirs.last],
                        minlength=len(flat.last_moves[responder].legal))
    best = _best_moves(mine, value, live)
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
    return policy, value[-1], plan


def _best_moves(form, value, live):
    """Best action of each ``live`` infoset of ``form``'s player (-1
    elsewhere), ``value`` holding each of its plan rows' own terminals'
    worth; adds into ``value`` the worth of every infoset, so that the
    no-move row ends with the value of the best response.

    Deepest level first (`SequenceForm.levels`), each infoset of a level
    takes its legal row of largest value: the lowest such action, ignoring
    NaN; action 0 if none beats -inf. That row's value is the infoset's,
    and is added into the row of its player's move before it, in index
    order (`np.add.at`); no row of a level is the parent of an infoset on
    the same level.
    """
    best = np.full(len(live), -1)
    for infosets, rows, wide in form.levels:
        total = value[rows]
        total[wide | np.isnan(total)] = -np.inf
        choice = total.argmax(axis=1)
        np.add.at(value, form.parent[infosets], value[rows[:, 0] + choice])
        due = live[infosets]
        best[infosets[due]] = choice[due]
    return best


def exploitability(game: Game, profile, with_responses: bool = False):
    """Sum over players of the gain from deviating to an exact best response.

    With ``with_responses`` returns ``(sum, responses)``, where
    ``responses[player]`` is the best-response policy behind that player's
    gain: `best_response` to ``profile[1 - player]``.

    The profile's own value comes from the two best responses' opponent
    plans, in `expected_value`'s order, so policies are read only by those
    two passes.
    """
    flat = game.tree
    responses, values, plans = [], [], [None, None]
    for player in (0, 1):
        policy, value, plans[1 - player] = _respond(
            flat, profile[1 - player], player)
        responses.append(policy)
        values.append(value)
    v0 = _value(flat, plans[0], plans[1])
    current = (v0, -v0)
    total = 0.0
    for player in (0, 1):
        total += values[player] - current[player]
    return (total, tuple(responses)) if with_responses else total
