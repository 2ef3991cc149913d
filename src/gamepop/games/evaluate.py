"""Exact evaluation by walking the game tree: expected value, best response,
exploitability.

Mixtures are handled exactly: a walk carries one reach weight per mixture
member and per player, so sampling a member once per playthrough is
integrated out in closed form rather than simulated. Every walk reads
``game.tree`` (see `gamepop.games.base.Tree`), which raises
TraversalBudgetError for a game too large to evaluate exactly.

`expected_value` also resolves one side by member: given a list of policies
on that side, its walk keeps one reach entry per listed policy and never
sums them, so one walk values one policy against a whole population (a new
payoff row or column). Each entry takes the same floating-point operations,
in the same order, as that pair's own walk; a branch the pair's own walk
prunes adds only a zero term, which leaves every total as it is.

`_follow` is the one mixture-branching step. Policies are read only there:
once per walk and decision node in `expected_value`, and in the first of
`best_response`'s two passes; its second pass reads only what the first one
recorded.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, TERMINAL, Game


def _as_members(policy_or_mixture):
    """Normalize a policy, mixture or list of policies to (members,
    weights); each listed policy weighs 1."""
    if isinstance(policy_or_mixture, list):
        return policy_or_mixture, np.ones(len(policy_or_mixture))
    members = getattr(policy_or_mixture, "members", None)
    if members is not None:
        return list(members), np.asarray(policy_or_mixture.weights, dtype=float)
    return [policy_or_mixture], np.ones(1)


def _follow(members, view, reach: np.ndarray):
    """The mixture's branching step at a decision node: yields ``(j,
    reach * probs[:, j])`` for each legal action j that some member still
    plays, reading every member's ``action_probs(view)`` once."""
    probs = np.stack([m.action_probs(view) for m in members])
    for j in range(len(view.legal_actions)):
        r_next = reach * probs[:, j]
        if r_next.any():
            yield j, r_next


def _resolved(reach: np.ndarray) -> np.ndarray:
    return reach


def expected_value(game: Game, profile):
    """Exact expected utilities of a (policy or mixture) profile.

    One side of the profile may be a list of policies instead. Both
    utilities are then arrays with one entry per listed policy, each equal
    bit for bit to the utility of that policy's own profile.
    """
    members = [None, None]
    weights = [None, None]
    for i in (0, 1):
        members[i], weights[i] = _as_members(profile[i])
    # At a terminal a mixture's reach is summed; a listed side's is not.
    fold0, fold1 = (_resolved if isinstance(side, list) else np.ndarray.sum
                    for side in profile)
    if fold0 is fold1 is _resolved:
        raise ValueError("expected_value resolves one side of a profile by "
                         "member, not both")
    tree = game.tree

    def walk(node: int, chance: float, r0: np.ndarray,
             r1: np.ndarray) -> float:
        player = tree.owner[node]
        if player == TERMINAL:
            return chance * fold0(r0) * fold1(r1) * tree.returns[node][0]
        kids = tree.children(node)
        if player == CHANCE:
            return sum(walk(child, chance * p, r0, r1) for _, child, p in kids)
        reach = r0 if player == 0 else r1
        total = 0.0
        for j, r_next in _follow(members[player], tree.view[node], reach):
            if player == 0:
                total += walk(kids[j][1], chance, r_next, r1)
            else:
                total += walk(kids[j][1], chance, r0, r_next)
        return total

    v0 = walk(0, 1.0, weights[0], weights[1])
    return (v0, -v0)


def best_response(game: Game, opponent_mixture, responder: int):
    """Exact best response of `responder` to an opponent policy mixture.

    Returns (policy, value). The policy is tabular and deterministic on every
    infoset reachable under the opponent mixture (ties broken by lowest
    action id); unreachable infosets fall back to the uniform default.

    Two passes over the tree (Johanson et al., IJCAI 2011). Only the first
    reads policies: it follows the opponent mixture with `_follow` and
    records every node it reaches, each terminal with its chance-and-reach
    weight, and each responder infoset's nodes. The second maximizes
    infoset values bottom-up from that record alone.
    """
    from ..policies import TabularPolicy, _one_hot

    members, base_weights = _as_members(opponent_mixture)
    opponent = 1 - responder
    tree = game.tree

    # node -> chance * opponent reach at a terminal, None elsewhere
    reached: dict[int, float | None] = {}
    infosets: dict = {}  # responder view -> [node]

    def collect(node: int, chance: float, reach: np.ndarray):
        player = tree.owner[node]
        if player == TERMINAL:
            reached[node] = chance * reach.sum()
            return
        reached[node] = None
        kids = tree.children(node)
        if player == CHANCE:
            for _, child, p in kids:
                collect(child, chance * p, reach)
        elif player == opponent:
            for j, r_next in _follow(members, tree.view[node], reach):
                collect(kids[j][1], chance, r_next)
        else:
            infosets.setdefault(tree.view[node], []).append(node)
            for _, child, _ in kids:
                collect(child, chance, reach)

    collect(0, 1.0, base_weights)

    br_actions: dict = {}  # view -> index of the best action
    value_memo: dict[int, float] = {}

    def value(node: int) -> float:
        # Weighted responder value with best-response play at responder nodes.
        v = value_memo.get(node)
        if v is not None:
            return v
        player = tree.owner[node]
        if player == TERMINAL:
            v = reached[node] * tree.returns[node][responder]
        elif player == responder:
            v = value(tree.children(node)[infoset_action(tree.view[node])][1])
        else:
            v = sum(value(child) for _, child, _ in tree.children(node)
                    if child in reached)
        value_memo[node] = v
        return v

    def infoset_action(view) -> int:
        best = br_actions.get(view)
        if best is not None:
            return best
        nodes = infosets[view]
        best, best_value = 0, -np.inf
        for j in range(len(view.legal_actions)):
            v = sum(value(tree.children(node)[j][1]) for node in nodes)
            if v > best_value:  # strict: lowest action id wins ties
                best_value = v
                best = j
        br_actions[view] = best
        return best

    for view in infosets:
        infoset_action(view)

    table = {view.key: _one_hot(len(view.legal_actions), best)
             for view, best in br_actions.items()}
    return TabularPolicy(table), value(0)


def exploitability(game: Game, profile, with_responses: bool = False):
    """Sum over players of the gain from deviating to an exact best response.

    With ``with_responses`` returns ``(sum, responses)``, where
    ``responses[player]`` is the best-response policy behind that player's
    gain: `best_response` to ``profile[1 - player]``.
    """
    current = expected_value(game, profile)
    total = 0.0
    responses = []
    for player in (0, 1):
        policy, br_value = best_response(game, profile[1 - player], player)
        total += br_value - current[player]
        responses.append(policy)
    return (total, tuple(responses)) if with_responses else total
