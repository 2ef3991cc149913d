"""Exact evaluation by walking the game tree: expected value, best response,
exploitability.

Mixtures are handled exactly: a walk carries one reach weight per mixture
member and per player, so sampling a member once per playthrough is
integrated out in closed form rather than simulated. Every walk reads
``game.tree`` (see `gamepop.games.base.Tree`), which raises
TraversalBudgetError for a game too large to evaluate exactly.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, TERMINAL, Game


def _as_members(policy_or_mixture):
    """Normalize a policy or mixture to (members, weights)."""
    members = getattr(policy_or_mixture, "members", None)
    if members is not None:
        return list(members), np.asarray(policy_or_mixture.weights, dtype=float)
    return [policy_or_mixture], np.ones(1)


def expected_value(game: Game, profile) -> tuple[float, float]:
    """Exact expected utilities of a (policy or mixture) profile."""
    members = [None, None]
    weights = [None, None]
    for i in (0, 1):
        members[i], weights[i] = _as_members(profile[i])
    tree = game.tree

    def walk(node: int, chance: float, r0: np.ndarray,
             r1: np.ndarray) -> float:
        player = tree.owner[node]
        if player == TERMINAL:
            return chance * r0.sum() * r1.sum() * tree.returns[node][0]
        kids = tree.children(node)
        if player == CHANCE:
            return sum(walk(child, chance * p, r0, r1) for _, child, p in kids)
        reach = r0 if player == 0 else r1
        view = tree.view[node]
        probs = np.stack([m.action_probs(view) for m in members[player]])
        total = 0.0
        for j, (_, child, _) in enumerate(kids):
            r_next = reach * probs[:, j]
            if not r_next.any():
                continue
            if player == 0:
                total += walk(child, chance, r_next, r1)
            else:
                total += walk(child, chance, r0, r_next)
        return total

    v0 = walk(0, 1.0, weights[0], weights[1])
    return (v0, -v0)


def best_response(game: Game, opponent_mixture, responder: int):
    """Exact best response of `responder` to an opponent policy mixture.

    Returns (policy, value). The policy is tabular and deterministic on every
    infoset reachable under the opponent mixture (ties broken by lowest
    action id); unreachable infosets fall back to the uniform default.

    Single bottom-up pass over the responder's infoset tree: a first sweep
    collects each responder infoset's nodes with their opponent-and-chance
    reach weights, then infoset values are maximized recursively.
    """
    from ..policies import TabularPolicy

    members, base_weights = _as_members(opponent_mixture)
    opponent = 1 - responder
    tree = game.tree

    infosets: dict = {}  # view -> [(node, chance, reach_vec)]

    def collect(node: int, chance: float, reach: np.ndarray):
        player = tree.owner[node]
        if player == TERMINAL:
            return
        kids = tree.children(node)
        if player == CHANCE:
            for _, child, p in kids:
                collect(child, chance * p, reach)
            return
        view = tree.view[node]
        if player == opponent:
            probs = np.stack([m.action_probs(view) for m in members])
            for j, (_, child, _) in enumerate(kids):
                r_next = reach * probs[:, j]
                if r_next.any():
                    collect(child, chance, r_next)
            return
        infosets.setdefault(view, []).append((node, chance, reach))
        for _, child, _ in kids:
            collect(child, chance, reach)

    collect(0, 1.0, base_weights)

    br_actions: dict = {}  # view -> index of the best action
    value_memo: dict[int, float] = {}

    def weighted_value(node: int, chance: float, reach: np.ndarray) -> float:
        # Reach-weighted responder value assuming BR play at responder nodes.
        cached = value_memo.get(node)
        if cached is not None:
            return cached
        player = tree.owner[node]
        if player == TERMINAL:
            v = chance * reach.sum() * tree.returns[node][responder]
        else:
            kids = tree.children(node)
            if player == CHANCE:
                v = sum(weighted_value(child, chance * p, reach)
                        for _, child, p in kids)
            elif player == opponent:
                probs = np.stack([m.action_probs(tree.view[node])
                                  for m in members])
                v = 0.0
                for j, (_, child, _) in enumerate(kids):
                    r_next = reach * probs[:, j]
                    if r_next.any():
                        v += weighted_value(child, chance, r_next)
            else:
                j = infoset_action(tree.view[node])
                v = weighted_value(kids[j][1], chance, reach)
        value_memo[node] = v
        return v

    def infoset_action(view) -> int:
        best = br_actions.get(view)
        if best is not None:
            return best
        nodes = infosets[view]
        best, best_value = 0, -np.inf
        for j in range(len(view.legal_actions)):
            v = sum(weighted_value(tree.children(node)[j][1], chance, reach)
                    for node, chance, reach in nodes)
            if v > best_value:  # strict: lowest action id wins ties
                best_value = v
                best = j
        br_actions[view] = best
        return best

    for view in infosets:
        infoset_action(view)

    value = weighted_value(0, 1.0, base_weights)
    table = {}
    for view, best in br_actions.items():
        dist = np.zeros(len(view.legal_actions))
        dist[best] = 1.0
        table[view.key] = dist
    return TabularPolicy(table), value


def exploitability(game: Game, profile) -> float:
    """Sum over players of the gain from deviating to an exact best response."""
    current = expected_value(game, profile)
    total = 0.0
    for player in (0, 1):
        _, br_value = best_response(game, profile[1 - player], player)
        total += br_value - current[player]
    return total
