"""Exact evaluation by tree traversal: expected value, best response,
exploitability.

Mixtures are handled exactly: a traversal carries one reach weight per
mixture member and per player, so sampling a member once per playthrough is
integrated out in closed form rather than simulated.
"""

from __future__ import annotations

import numpy as np

from .base import CHANCE, Game, State

DEFAULT_NODE_BUDGET = 10_000_000


class TraversalBudgetError(Exception):
    """Exact traversal visited more nodes than allowed.

    Large games should use Monte Carlo payoffs and approximate
    exploitability instead of exact traversal.
    """


def _as_members(policy_or_mixture):
    """Normalize a policy or mixture to (members, weights)."""
    members = getattr(policy_or_mixture, "members", None)
    if members is not None:
        return list(members), np.asarray(policy_or_mixture.weights, dtype=float)
    return [policy_or_mixture], np.ones(1)


class _Budget:
    """Nodes a traversal may still visit; None stands for the default."""
    __slots__ = ("left",)

    def __init__(self, budget: int | None):
        self.left = DEFAULT_NODE_BUDGET if budget is None else budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise TraversalBudgetError(
                "exact traversal exceeded the node budget")


def expected_value(game: Game, profile,
                   node_budget: int | None = None) -> tuple[float, float]:
    """Exact expected utilities of a (policy or mixture) profile."""
    members = [None, None]
    weights = [None, None]
    for i in (0, 1):
        members[i], weights[i] = _as_members(profile[i])
    budget = _Budget(node_budget)

    def walk(state: State, chance: float, r0: np.ndarray, r1: np.ndarray) -> float:
        budget.spend()
        if state.is_terminal:
            return chance * r0.sum() * r1.sum() * state.returns()[0]
        player = state.current_player
        if player == CHANCE:
            return sum(walk(state.child(a), chance * p, r0, r1)
                       for a, p in state.chance_outcomes())
        reach = r0 if player == 0 else r1
        legal = state.legal_actions()
        probs = np.stack([m.action_probs(game, state, player)
                          for m in members[player]])
        total = 0.0
        for j, action in enumerate(legal):
            r_next = reach * probs[:, j]
            if not r_next.any():
                continue
            child = state.child(action)
            if player == 0:
                total += walk(child, chance, r_next, r1)
            else:
                total += walk(child, chance, r0, r_next)
        return total

    v0 = walk(game.initial_state(), 1.0, weights[0], weights[1])
    return (v0, -v0)


def best_response(game: Game, opponent_mixture, responder: int,
                  node_budget: int | None = None):
    """Exact best response of `responder` to an opponent policy mixture.

    Returns (policy, value). The policy is tabular and deterministic on every
    infoset reachable under the opponent mixture (ties broken by lowest
    action id); unreachable infosets fall back to the uniform default.

    Single bottom-up pass over the responder's infoset tree: a first sweep
    collects each responder infoset's histories with their opponent-and-
    chance reach weights, then infoset values are maximized recursively.
    """
    from ..policies import TabularPolicy

    members, base_weights = _as_members(opponent_mixture)
    opponent = 1 - responder
    budget = _Budget(node_budget)

    infosets: dict[str, list] = {}  # key -> [(state, chance, reach_vec)]
    order: list[str] = []

    def collect(state: State, chance: float, reach: np.ndarray):
        budget.spend()
        if state.is_terminal:
            return
        player = state.current_player
        if player == CHANCE:
            for a, p in state.chance_outcomes():
                collect(state.child(a), chance * p, reach)
            return
        if player == opponent:
            probs = np.stack([m.action_probs(game, state, player)
                              for m in members])
            for j, action in enumerate(state.legal_actions()):
                r_next = reach * probs[:, j]
                if r_next.any():
                    collect(state.child(action), chance, r_next)
            return
        key = state.infoset_key(responder)
        if key not in infosets:
            infosets[key] = []
            order.append(key)
        infosets[key].append((state, chance, reach))
        for action in state.legal_actions():
            collect(state.child(action), chance, reach)

    collect(game.initial_state(), 1.0, base_weights)

    br_actions: dict[str, int] = {}
    value_memo: dict[tuple, float] = {}

    def weighted_value(state: State, chance: float, reach: np.ndarray) -> float:
        # Reach-weighted responder value assuming BR play at responder nodes.
        cached = value_memo.get(state.history)
        if cached is not None:
            return cached
        if state.is_terminal:
            v = chance * reach.sum() * state.returns()[responder]
        else:
            player = state.current_player
            if player == CHANCE:
                v = sum(weighted_value(state.child(a), chance * p, reach)
                        for a, p in state.chance_outcomes())
            elif player == opponent:
                probs = np.stack([m.action_probs(game, state, player)
                                  for m in members])
                v = 0.0
                for j, action in enumerate(state.legal_actions()):
                    r_next = reach * probs[:, j]
                    if r_next.any():
                        v += weighted_value(state.child(action), chance, r_next)
            else:
                action = infoset_action(state.infoset_key(responder))
                v = weighted_value(state.child(action), chance, reach)
        value_memo[state.history] = v
        return v

    def infoset_action(key: str) -> int:
        action = br_actions.get(key)
        if action is not None:
            return action
        nodes = infosets[key]
        legal = nodes[0][0].legal_actions()
        best_action, best_value = legal[0], -np.inf
        for action in legal:
            v = sum(weighted_value(st.child(action), chance, reach)
                    for st, chance, reach in nodes)
            if v > best_value:  # strict: lowest action id wins ties
                best_value = v
                best_action = action
        br_actions[key] = best_action
        return best_action

    for key in order:
        infoset_action(key)

    value = weighted_value(game.initial_state(), 1.0, base_weights)
    table = {}
    for key, action in br_actions.items():
        legal = infosets[key][0][0].legal_actions()
        dist = np.zeros(len(legal))
        dist[legal.index(action)] = 1.0
        table[key] = dist
    return TabularPolicy(table), value


def exploitability(game: Game, profile,
                   node_budget: int | None = None) -> float:
    """Sum over players of the gain from deviating to an exact best response."""
    current = expected_value(game, profile, node_budget)
    total = 0.0
    for player in (0, 1):
        _, br_value = best_response(game, profile[1 - player], player,
                                    node_budget)
        total += br_value - current[player]
    return total
