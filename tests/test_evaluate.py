"""Exact evaluation against independent brute-force oracles.

The Kuhn oracle below is a standalone enumeration over the full 30-leaf tree
written directly from the rules; it shares no code with the package. Golden
constants derived from it are frozen in the tests.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamepop.games.base as base
from gamepop.games import (CHANCE, TERMINAL, InfosetView,
                           TraversalBudgetError, best_response,
                           expected_value, exploitability, make_game,
                           play_episode)
from gamepop.games.evaluate import _as_members, _plans, _reach
from gamepop.nets import ArchSignature
from gamepop.policies import PolicyMixture, TabularPolicy, scratch_init
from test_same_bits import _ref_descend

# ---------------------------------------------------------------------------
# Independent Kuhn enumeration oracle

DEALS = [(a, b) for a in range(3) for b in range(3) if a != b]
# (sequence, decider sequence): p = pass, b = bet
SEQUENCES = ["pp", "pbp", "pbb", "bp", "bb"]


def _kuhn_leaf_value(cards, seq):
    if seq == "bp":
        return 1.0
    if seq == "pbp":
        return -1.0
    pot = 2.0 if seq in ("pbb", "bb") else 1.0
    return pot if cards[0] > cards[1] else -pot


def _kuhn_seq_prob(cards, seq, strat1, strat2):
    """strat_i maps (card, history) -> P(bet)."""
    prob = 1.0
    history = ""
    for i, move in enumerate(seq):
        player = i % 2
        p_bet = (strat1 if player == 0 else strat2)[(cards[player], history)]
        prob *= p_bet if move == "b" else 1.0 - p_bet
        history += move
    return prob


def kuhn_ev_oracle(strat1, strat2):
    """Expected value for player 0 by full enumeration (30 leaves)."""
    total = 0.0
    for cards in DEALS:
        for seq in SEQUENCES:
            total += (_kuhn_seq_prob(cards, seq, strat1, strat2)
                      * _kuhn_leaf_value(cards, seq))
    return total / len(DEALS)


UNIFORM_STRAT = {(c, h): 0.5 for c in range(3) for h in ("", "p", "b", "pb")}

P1_INFOSETS = [(c, h) for c in range(3) for h in ("", "pb")]
P2_INFOSETS = [(c, h) for c in range(3) for h in ("p", "b")]


def kuhn_br_oracle(responder):
    """Best deterministic response to a uniform opponent, by enumerating all
    64 responder strategies."""
    infosets = P1_INFOSETS if responder == 0 else P2_INFOSETS
    best = -np.inf
    for bits in itertools.product([0.0, 1.0], repeat=len(infosets)):
        strat = dict(UNIFORM_STRAT)
        strat.update(dict(zip(infosets, bits)))
        if responder == 0:
            value = kuhn_ev_oracle(strat, UNIFORM_STRAT)
        else:
            value = -kuhn_ev_oracle(UNIFORM_STRAT, strat)
        best = max(best, value)
    return best


# Frozen goldens (verified against the oracle in the tests below).
KUHN_UNIFORM_EV = 0.125
KUHN_BR1_VALUE = 0.5
KUHN_BR2_VALUE = 5.0 / 12.0
KUHN_UNIFORM_EXPLOITABILITY = (KUHN_BR1_VALUE - KUHN_UNIFORM_EV) + (
    KUHN_BR2_VALUE + KUHN_UNIFORM_EV)


def test_goldens_match_oracle():
    assert kuhn_ev_oracle(UNIFORM_STRAT, UNIFORM_STRAT) == pytest.approx(
        KUHN_UNIFORM_EV, abs=1e-12)
    assert kuhn_br_oracle(0) == pytest.approx(KUHN_BR1_VALUE, abs=1e-12)
    assert kuhn_br_oracle(1) == pytest.approx(KUHN_BR2_VALUE, abs=1e-12)


# ---------------------------------------------------------------------------
# expected_value

RPS_ROWS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def rps_pure(action):
    dist = np.zeros(3)
    dist[action] = 1.0
    return TabularPolicy({"p0": dist, "p1": dist})


def test_rps_expected_values():
    game = make_game("matrix_game", {"rows": RPS_ROWS})
    assert expected_value(game, (rps_pure(0), rps_pure(1))) == (-1.0, 1.0)
    uniform = TabularPolicy()
    v0, v1 = expected_value(game, (uniform, uniform))
    assert v0 == pytest.approx(0.0, abs=1e-12)
    assert v0 + v1 == pytest.approx(0.0, abs=1e-12)


def test_kuhn_uniform_ev_matches_golden():
    game = make_game("kuhn_poker")
    uniform = TabularPolicy()
    v0, v1 = expected_value(game, (uniform, uniform))
    assert v0 == pytest.approx(KUHN_UNIFORM_EV, abs=1e-10)
    assert abs(v0 + v1) < 1e-10


def test_mixture_ev_equals_weighted_pairwise_sum():
    game = make_game("kuhn_poker")
    rng = np.random.default_rng(5)
    members = []
    for _ in range(3):
        table = {}
        state_pool = _kuhn_infoset_pool(game)
        for key, n in state_pool.items():
            dist = rng.dirichlet(np.ones(n))
            table[key] = dist
        members.append(TabularPolicy(table))
    w1 = np.array([0.2, 0.5, 0.3])
    w2 = np.array([0.6, 0.1, 0.3])
    mix1 = PolicyMixture(members, w1)
    mix2 = PolicyMixture(list(reversed(members)), w2)
    direct = expected_value(game, (mix1, mix2))[0]
    pairwise = sum(
        a * b * expected_value(game, (mix1.members[i], mix2.members[j]))[0]
        for i, a in enumerate(w1) for j, b in enumerate(w2))
    assert direct == pytest.approx(pairwise, abs=1e-12)


def _kuhn_infoset_pool(game):
    pool = {}

    def walk(state):
        if state.is_terminal:
            return
        if state.current_player == -1:
            for a, _ in state.chance_outcomes():
                walk(state.child(a))
            return
        pool[state.infoset_key(state.current_player)] = len(
            state.legal_actions())
        for a in state.legal_actions():
            walk(state.child(a))

    walk(game.initial_state())
    return pool


def test_node_budget_enforced(monkeypatch):
    """A tree that would grow past MAX_TREE_NODES raises instead."""
    monkeypatch.setattr(base, "MAX_TREE_NODES", 10)
    uniform = TabularPolicy()
    with pytest.raises(TraversalBudgetError):
        expected_value(make_game("kuhn_poker"), (uniform, uniform))
    with pytest.raises(TraversalBudgetError):
        best_response(make_game("kuhn_poker"), uniform, 0)


# P(bet) at every Kuhn infoset, 0 and 1 included.
_KUHN_STRATEGIES = st.fixed_dictionaries({
    infoset: st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    for infoset in UNIFORM_STRAT})


def _kuhn_tabular(strat):
    return TabularPolicy({f"{card}:{history}": np.array([1.0 - p, p])
                          for (card, history), p in strat.items()})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(strat1=_KUHN_STRATEGIES, strat2=_KUHN_STRATEGIES,
       responder=st.sampled_from([0, 1]))
def test_tree_evaluation_matches_enumeration(strat1, strat2, responder):
    """Expected value equals the independent enumeration on any tabular
    profile, and no drawn responder beats the best response's value."""
    game = make_game("kuhn_poker")
    profile = (_kuhn_tabular(strat1), _kuhn_tabular(strat2))
    v0, _ = expected_value(game, profile)
    assert v0 == pytest.approx(kuhn_ev_oracle(strat1, strat2), abs=1e-12)
    _, br_value = best_response(game, profile[1 - responder], responder)
    assert br_value >= (v0 if responder == 0 else -v0) - 1e-12


# ---------------------------------------------------------------------------
# best_response


def test_rps_br_dominance_and_tiebreak():
    game = make_game("matrix_game", {"rows": RPS_ROWS})
    policy, value = best_response(game, rps_pure(0), 1)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(policy.table["p1"]) == 1  # paper beats rock
    policy, value = best_response(game, TabularPolicy(), 0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(policy.table["p0"], [1.0, 0.0, 0.0])  # lowest id


def test_kuhn_br_matches_enumeration_oracle():
    game = make_game("kuhn_poker")
    uniform = TabularPolicy()
    _, v1 = best_response(game, uniform, 0)
    _, v2 = best_response(game, uniform, 1)
    assert v1 == pytest.approx(KUHN_BR1_VALUE, abs=1e-10)
    assert v2 == pytest.approx(KUHN_BR2_VALUE, abs=1e-10)


def test_br_policy_is_deterministic_per_infoset():
    game = make_game("kuhn_poker")
    policy, _ = best_response(game, TabularPolicy(), 0)
    for dist in policy.table.values():
        assert sorted(dist) == [0.0] * (len(dist) - 1) + [1.0]


@pytest.mark.parametrize("name,params", [
    pytest.param("kuhn_poker", {}, id="kuhn_poker-params0"),
    pytest.param("matrix_game", {"rows": RPS_ROWS}, id="matrix_game-params1"),
    pytest.param("liars_dice", {"faces": 2}, id="liars_dice-params2"),
    pytest.param("goofspiel", {"num_cards": 3}, id="goofspiel-params3"),
])
def test_br_dominates_random_policies(name, params):
    game = make_game(name, params)
    pool = _game_infoset_pool(game)
    rng = np.random.default_rng(17)
    mixtures = 10 if name != "matrix_game" else 100
    responders = 10 if name != "matrix_game" else 100
    for _ in range(mixtures):
        opp_members = [_random_policy(pool, 1, rng) for _ in range(2)]
        w = rng.dirichlet(np.ones(2))
        mixture = PolicyMixture(opp_members, w)
        for responder in (0, 1):
            opp_mix = mixture
            _, br_value = best_response(game, opp_mix, responder)
            for _ in range(responders):
                candidate = _random_policy(pool, responder, rng)
                profile = ((candidate, opp_mix) if responder == 0
                           else (opp_mix, candidate))
                value = expected_value(game, profile)[responder]
                assert br_value >= value - 1e-9


def _game_infoset_pool(game):
    pool = {}

    def walk(state):
        if state.is_terminal:
            return
        if state.current_player == -1:
            for a, _ in state.chance_outcomes():
                walk(state.child(a))
            return
        player = state.current_player
        pool.setdefault(player, {})[state.infoset_key(player)] = len(
            state.legal_actions())
        for a in state.legal_actions():
            walk(state.child(a))

    walk(game.initial_state())
    return pool


def _random_policy(pool, player, rng):
    table = {}
    for key, n in pool.get(player, {}).items():
        table[key] = rng.dirichlet(np.ones(n))
    for other in pool:
        if other != player:
            for key, n in pool[other].items():
                table.setdefault(key, rng.dirichlet(np.ones(n)))
    return TabularPolicy(table)


def test_matrix_br_agrees_with_argmax():
    rng = np.random.default_rng(23)
    for _ in range(20):
        M = rng.integers(-5, 6, (4, 5)).astype(float)
        game = make_game("matrix_game", {"rows": M.tolist()})
        q = rng.dirichlet(np.ones(5))
        opp = TabularPolicy({"p0": np.ones(4) / 4, "p1": q})
        _, value = best_response(game, opp, 0)
        assert value == pytest.approx((M @ q).max(), abs=1e-12)


class StateWalk:
    """A game's tree stepped directly through its states, for the
    references below, which share no code with the compiled tree: a node is
    a `State`, stepped afresh each time its children are asked for, and a
    decision node's view is looked up by (player, key) in the compiled
    tree."""

    def __init__(self, game):
        self.root = game.initial_state()
        self.views = game.tree.views

    def owner(self, node):
        return node.current_player

    def returns(self, node):
        return node.returns()

    def view(self, node):
        player = node.current_player
        return self.views[player, node.infoset_key(player)]

    def children(self, node):
        """``((action, child, chance probability), ...)`` in legal or
        chance order, with probability None at decision nodes."""
        if node.is_terminal:
            return ()
        if node.current_player == CHANCE:
            return tuple((a, node.child(a), p)
                         for a, p in node.chance_outcomes())
        return tuple((a, node.child(a), None) for a in node.legal_actions())

    def nodes(self):
        """Every node, the root first and then each node's children
        together, in the order a depth-first stack expands them."""
        yield self.root
        stack = [self.root]
        while stack:
            kids = [child for _, child, _ in self.children(stack.pop())]
            yield from kids
            stack.extend(kids)


def two_pass_best_response(game, opponent_mixture, responder: int):
    """The earlier best response, kept as a reference: its second pass
    re-reads the opponent's policies and recomputes every reach. It carries
    each member's own reach from 1.0, weighs it last, at the terminals, and
    skips every branch that no member of nonzero weight plays."""
    members, base_weights = _as_members(opponent_mixture)
    opponent = 1 - responder
    tree = StateWalk(game)

    infosets: dict = {}  # view -> [(node, chance, reach_vec)]

    def collect(node, chance: float, reach: np.ndarray):
        player = tree.owner(node)
        if player == TERMINAL:
            return
        kids = tree.children(node)
        if player == CHANCE:
            for _, child, p in kids:
                collect(child, chance * p, reach)
            return
        view = tree.view(node)
        if player == opponent:
            probs = np.stack([m.action_probs(view) for m in members])
            for j, (_, child, _) in enumerate(kids):
                r_next = reach * probs[:, j]
                if (r_next * base_weights).any():
                    collect(child, chance, r_next)
            return
        infosets.setdefault(view, []).append((node, chance, reach))
        for _, child, _ in kids:
            collect(child, chance, reach)

    ones = np.ones(len(members))
    collect(tree.root, 1.0, ones)

    br_actions: dict = {}  # view -> index of the best action

    def weighted_value(node, chance: float, reach: np.ndarray) -> float:
        # Reach-weighted responder value assuming BR play at responder nodes.
        player = tree.owner(node)
        if player == TERMINAL:
            v = (chance * (reach * base_weights).sum()
                 * tree.returns(node)[responder])
        else:
            kids = tree.children(node)
            if player == CHANCE:
                v = sum(weighted_value(child, chance * p, reach)
                        for _, child, p in kids)
            elif player == opponent:
                probs = np.stack([m.action_probs(tree.view(node))
                                  for m in members])
                v = 0.0
                for j, (_, child, _) in enumerate(kids):
                    r_next = reach * probs[:, j]
                    if (r_next * base_weights).any():
                        v += weighted_value(child, chance, r_next)
            else:
                j = infoset_action(tree.view(node))
                v = weighted_value(kids[j][1], chance, reach)
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

    value = weighted_value(tree.root, 1.0, ones)
    table = {}
    for view, best in br_actions.items():
        dist = np.zeros(len(view.legal_actions))
        dist[best] = 1.0
        table[view.key] = dist
    return TabularPolicy(table), value


def _scratch_mixture(game, weights, seed):
    """Scratch networks (greedy, so they cut branches) and uniform tabular
    policies, alternating, with the given weights."""
    sig = ArchSignature(game.encoding_dim(), (8,),
                        game.num_distinct_actions())
    members = [scratch_init("kaiming", sig, seed + i) if i % 2 == 0
               else TabularPolicy() for i in range(len(weights))]
    return PolicyMixture(members, weights)


TREE_GAMES = [
    ("kuhn_poker", {}),
    ("leduc_poker", {}),
    ("goofspiel", {"num_cards": 4}),
    ("liars_dice", {"faces": 3}),
]
# Each case's ID, fixed per entry so that adding or deleting a game renames
# no other case. They are the IDs these cases had when pytest numbered them
# by position, kept so that no case was renamed when they were fixed.
TREE_GAME_IDS = ["kuhn_poker-params0", "leduc_poker-params1",
                 "goofspiel-params2", "liars_dice-params3"]


@pytest.mark.parametrize("name,params", TREE_GAMES, ids=TREE_GAME_IDS)
@pytest.mark.parametrize("weights", [
    [1.0], [0.5, 0.5], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.2, 0.3, 0.0, 0.5],
    [0.1, 0.0, 0.15, 0.05, 0.2, 0.0, 0.1, 0.25, 0.15],
])
def test_br_equals_two_pass_reference_bit_for_bit(name, params, weights):
    game = make_game(name, params)
    mixture = _scratch_mixture(game, weights, seed=len(weights))
    for responder in (0, 1):
        policy, value = best_response(game, mixture, responder)
        ref_policy, ref_value = two_pass_best_response(game, mixture,
                                                       responder)
        assert repr(value) == repr(ref_value)
        assert policy.table.keys() == ref_policy.table.keys()
        for key, dist in ref_policy.table.items():
            assert policy.table[key].tobytes() == dist.tobytes()


def _reached_nodes(tree, mixture, player):
    """Nodes, keyed by the actions leading to them, that some
    positive-weight member of `mixture`, playing `player`, reaches when
    every other decision plays each action: counted by brute force over
    each member's own reach."""
    reached = {}

    def walk(path, node, member):
        reached[path] = node
        kids = tree.children(node)
        probs = (member.action_probs(tree.view(node))
                 if tree.owner(node) == player else None)
        for j, (action, child, _) in enumerate(kids):
            if probs is None or probs[j] > 0.0:
                walk(path + (action,), child, member)

    for member, weight in zip(mixture.members, mixture.weights):
        if weight > 0.0:
            walk((), tree.root, member)
    return reached


def _infosets_of(tree, nodes, player):
    return {tree.view(node) for node in nodes if tree.owner(node) == player}


def _record_reads(members):
    """Replace each member's `action_probs` by one that records the views
    it is asked at into the returned lists, one per member."""
    calls = [[] for _ in members]
    for i, member in enumerate(members):
        def recorded(view, i=i, read=member.action_probs):
            calls[i].append(view)
            return read(view)
        member.action_probs = recorded
    return calls


def _own_reach(tree, mixture, player):
    """Per member of `mixture`, the infosets of `player` that the member's
    own play reaches (a one-member mixture's reached nodes)."""
    return [_infosets_of(tree, _reached_nodes(
        tree, PolicyMixture([member], [1.0]), player).values(), player)
        for member in mixture.members]


@pytest.mark.parametrize("name,params", TREE_GAMES, ids=TREE_GAME_IDS)
def test_br_reads_each_member_once_per_reached_opponent_node(name, params):
    """A best response reads each opponent member once at each infoset
    that the member's own play reaches, however many of its nodes are
    reached, and nowhere else."""
    game = make_game(name, params)
    tree = StateWalk(game)
    for responder in (0, 1):
        opponent = 1 - responder
        mixture = _scratch_mixture(game, [0.2, 0.3, 0.0, 0.5], seed=4)
        expected = _own_reach(tree, mixture, opponent)
        calls = _record_reads(mixture.members)
        best_response(game, mixture, responder)
        assert [len(c) for c in calls] == [len(e) for e in expected]
        assert [set(c) for c in calls] == expected


@pytest.mark.parametrize("name,params", TREE_GAMES, ids=TREE_GAME_IDS)
def test_ev_reads_each_member_once_per_reached_infoset(name, params):
    """An expected value reads each member once at each infoset of its
    player that the member's own play reaches, whatever the other mixture
    plays, and nowhere else."""
    game = make_game(name, params)
    tree = StateWalk(game)
    profile = (_scratch_mixture(game, [0.2, 0.3, 0.0, 0.5], seed=4),
               _scratch_mixture(game, [0.6, 0.0, 0.4], seed=9))
    expected = [_own_reach(tree, profile[player], player)
                for player in (0, 1)]
    calls = [_record_reads(mixture.members) for mixture in profile]
    expected_value(game, profile)
    for player in (0, 1):
        assert ([len(c) for c in calls[player]]
                == [len(e) for e in expected[player]])
        assert [set(c) for c in calls[player]] == expected[player]


@pytest.mark.parametrize("name,params", TREE_GAMES, ids=TREE_GAME_IDS)
def test_a_reading_reads_once_where_its_own_play_reaches(name, params):
    """Making a member's reading asks it once at each infoset of its player
    that its own play reaches (a one-member mixture's reached nodes, found
    by brute force), and nowhere else; later exact passes, best responses
    and draws ask nothing more."""
    game = make_game(name, params)
    tree = StateWalk(game)
    for player in (0, 1):
        mixture = _scratch_mixture(game, [0.2, 0.3, 0.0, 0.5], seed=4)
        members = mixture.members
        expected = _own_reach(tree, mixture, player)
        calls = _record_reads(members)
        members[0].reading(game.tree, player)
        assert len(calls[0]) == len(expected[0])
        assert set(calls[0]) == expected[0]
        best_response(game, mixture, 1 - player)
        profile = [TabularPolicy(), TabularPolicy()]
        profile[player] = mixture
        expected_value(game, profile)
        profile[player] = members[0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            play_episode(game, profile, rng)
        assert [len(c) for c in calls] == [len(e) for e in expected]
        assert [set(c) for c in calls] == expected


def test_a_fresh_tree_replaces_the_kept_table():
    """Members keep one reading per player, for the tree they were last
    read on: a fresh tree of the same game gives equal bytes, each member's
    readings are then that tree's, and the first tree, read again, gives
    equal bytes once more."""
    games = [make_game("leduc_poker"), make_game("leduc_poker")]
    profile = (_scratch_mixture(games[0], [0.2, 0.3, 0.5], seed=4),
               _scratch_mixture(games[0], [0.6, 0.0, 0.4], seed=9))
    values = []
    for game in games + games[:1]:
        total, responses = exploitability(game, profile, with_responses=True)
        values.append((repr(total), repr(expected_value(game, profile)),
                       [sorted((k, v.tobytes()) for k, v in r.table.items())
                        for r in responses]))
        for player in (0, 1):
            for member in profile[player].members:
                assert member._readings[player].tree() is game.tree
    assert values[0] == values[1] == values[2]


def test_members_keep_no_dropped_tree_alive():
    """A reading refers to its tree weakly: once a game is dropped, its
    views' features are freed, and so are the arrays the tree built for
    exact passes (every array of a level's plan and best-action gathers,
    and the moves behind cached reach), though the members read on it
    live on, each with its own reach, which refers to no array of the
    tree."""
    game = make_game("leduc_poker")
    profile = (_scratch_mixture(game, [0.2, 0.3, 0.5], seed=4),
               _scratch_mixture(game, [0.6, 0.0, 0.4], seed=9))
    exploitability(game, profile)
    expected_value(game, (profile[0].members, profile[1].members[0]))
    tree = game.tree
    built = [tree.infosets[0].views[0].features, *tree.last_moves[1],
             *base._arrays((tree.plan[2], tree.choices[2][0]))]
    freed = [weakref.ref(array) for array in built]
    reach = [member._readings[0].own_reach()
             for member in profile[0].members]
    del game, tree, built
    gc.collect()
    assert all(array() is None for array in freed)
    for player, mixture in enumerate(profile):
        for member in mixture.members:
            assert member._readings[player].tree() is None
    for entries, values in reach:
        assert entries.base is None
        assert values is None or values.base is None


@pytest.mark.parametrize("name,params", TREE_GAMES + [
    ("matrix_game", {"rows": [[0, -1, 2], [1, 0, 0]]})],
    ids=TREE_GAME_IDS + ["matrix_game-params4"])
def test_tree_chance_is_the_recursive_product(name, params):
    """`FlatTree.chance` holds, bit for bit and in row order (level by
    level, in preorder within a level), the product of chance
    probabilities that a recursive walk forms on its way down to each
    terminal: 1.0, times each chance edge's probability in turn."""
    game = make_game(name, params)
    tree = StateWalk(game)
    found = []  # (depth, chance) of each terminal, in preorder

    def walk(node, depth, chance):
        if tree.owner(node) == TERMINAL:
            found.append((depth, chance))
        for _, child, p in tree.children(node):
            walk(child, depth + 1, chance if p is None else chance * p)

    walk(tree.root, 0, 1.0)
    found.sort(key=lambda terminal: terminal[0])  # stable: keeps preorder
    assert game.tree.chance.tobytes() == np.array(
        [chance for _, chance in found]).tobytes()


def _signed_tabular(tree, rng):
    """A `_sparse_tabular` policy whose dropped actions hold -0.0, one of
    them -1e-13 at about a third of its infosets: `TabularPolicy` accepts
    both."""
    table = {}
    for key, dist in _sparse_tabular(tree, rng, 0.4).table.items():
        dist = np.where(dist == 0.0, -0.0, dist)
        dropped = np.flatnonzero(dist == 0.0)
        if len(dropped) and rng.random() < 0.3:
            dist[dropped[0]] = -1e-13
        table[key] = dist
    return TabularPolicy(table)


@pytest.mark.parametrize("name,params", TREE_GAMES + [
    ("matrix_game", {"rows": [[0, -1, 2], [1, 0, 0]]})],
    ids=TREE_GAME_IDS + ["matrix_game-params4"])
def test_cached_reach_equals_the_descent_bit_for_bit(name, params):
    """Each member's own reach read from its realization plan equals, sign
    of zero included, the column that the unfolded reference descent
    (`test_same_bits._ref_descend`) carries down from its weight of 1.0
    alone: at every terminal, and, as whether any member reaches them, at
    the other player's nodes; `_reach` of the listed members gives those
    columns. (Descended alone, a member is read only where its own play
    reaches, as its reading is, so an unread row holds +0.0 in both.)
    `_reach` of one member alone gives its column, summed as a mixture's
    are, and the nodes it alone reaches. Members are tabular
    (uniform, pure, and sparse with -0.0 and -1e-13 entries), networks and
    exact best responses, and one is listed twice."""
    game = make_game(name, params)
    tree, flat = StateWalk(game), game.tree
    rng = np.random.default_rng(7)
    sig = ArchSignature(game.encoding_dim(), (8,),
                        game.num_distinct_actions())
    for player in (0, 1):
        opponent = _scratch_mixture(game, [0.5, 0.5], seed=3)
        response, _ = best_response(game, opponent, player)
        members = [TabularPolicy(), _sparse_tabular(tree, rng, 1.0),
                   _signed_tabular(tree, rng), scratch_init("kaiming", sig, 5),
                   response]
        members.append(members[2])
        moves = flat.last_moves[player]
        plans = _plans(flat, player, members)
        other = flat.infosets[1 - player].nodes
        columns, reached = [], np.zeros(len(flat.owner), bool)
        for member in members:
            _, (column,), alone = _ref_descend(
                flat, [(player, [member], np.ones(1), False)])
            columns.append(column)
            reached |= alone
            single, single_facing = _reach(flat, player, member, facing=True)
            assert single.tobytes() == column.sum(
                axis=1, keepdims=True).tobytes()
            assert (single_facing == alone[other]).all()
        cached = plans[moves.last]
        assert cached.tobytes() == np.hstack(columns).tobytes()
        assert np.signbit(cached).any() or name == "matrix_game"
        facing = plans[moves.facing].any(axis=1)
        assert (facing == reached[other]).all()
        listed, listed_facing = _reach(flat, player, members, facing=True)
        assert listed.tobytes() == cached.tobytes()
        assert (listed_facing == facing).all()


def test_a_member_listed_twice_is_read_once_per_infoset():
    """A population can hold one policy twice (an oracle may hand back its
    initial policy); it keeps one table, read once per infoset."""
    game = make_game("kuhn_poker")
    member, opponent = TabularPolicy(), TabularPolicy()
    calls = []
    read = member.action_probs
    member.action_probs = lambda view: calls.append(view) or read(view)
    twice = expected_value(game, (PolicyMixture([member, member],
                                                [0.5, 0.5]), opponent))
    assert sorted(calls, key=id) == sorted(game.tree.infosets[0].views,
                                           key=id)
    assert twice == expected_value(game, (member, opponent))


def test_tabular_distributions_are_read_only():
    given = np.array([0.25, 0.75])
    policy = TabularPolicy({"s": given})
    stored = policy.action_probs(InfosetView("s", (0, 1)))
    unseen = policy.action_probs(InfosetView("t", (0, 1, 2)))
    assert not stored.flags.writeable
    assert not unseen.flags.writeable
    assert np.array_equal(stored, given)
    assert np.array_equal(unseen, np.full(3, 1.0 / 3.0))
    assert given.flags.writeable  # the caller's array is left as it was


# ---------------------------------------------------------------------------
# exploitability


def test_rps_exploitability():
    game = make_game("matrix_game", {"rows": RPS_ROWS})
    uniform = TabularPolicy()
    assert exploitability(game, (uniform, uniform)) == pytest.approx(
        0.0, abs=1e-10)
    # Brute force over the table: BR2 vs rock gains 1, BR1 vs uniform gains 0.
    assert exploitability(game, (rps_pure(0), uniform)) == pytest.approx(
        1.0, abs=1e-10)


def test_kuhn_exploitability_matches_golden():
    game = make_game("kuhn_poker")
    uniform = TabularPolicy()
    assert exploitability(game, (uniform, uniform)) == pytest.approx(
        KUHN_UNIFORM_EXPLOITABILITY, abs=1e-10)


def test_exploitability_nonnegative_on_random_profiles():
    game = make_game("kuhn_poker")
    pool = _game_infoset_pool(game)
    rng = np.random.default_rng(29)
    for _ in range(20):
        p0 = _random_policy(pool, 0, rng)
        p1 = _random_policy(pool, 1, rng)
        assert exploitability(game, (p0, p1)) >= -1e-9


# ---------------------------------------------------------------------------
# Member-resolved walk: one policy against a list of policies


def _sparse_tabular(tree, rng, drop):
    """A random tabular policy over every infoset of the game, in the order
    `StateWalk.nodes` first meets them; each action drops to probability
    zero with probability `drop`, and a distribution that drops them all
    plays one of them at random. With ``drop=1`` the policy is pure."""
    table = {}
    views = (tree.view(node) for node in tree.nodes() if tree.owner(node) >= 0)
    for view in {view.key: view for view in views}.values():
        n = len(view.legal_actions)
        dist = rng.dirichlet(np.ones(n))
        dist[rng.random(n) < drop] = 0.0
        if not dist.any():
            dist[rng.integers(n)] = 1.0
        table[view.key] = dist / dist.sum()
    return TabularPolicy(table)


@pytest.mark.parametrize("name,params", [
    pytest.param("kuhn_poker", {}, id="kuhn_poker-params0"),
    pytest.param("leduc_poker", {}, id="leduc_poker-params1"),
    pytest.param("goofspiel", {"num_cards": 4}, id="goofspiel-params2"),
    pytest.param("liars_dice", {"faces": 3}, id="liars_dice-params3"),
])
def test_member_resolved_walk_equals_pairwise_walks_bit_for_bit(name,
                                                                params):
    """Each entry of a row (one row policy against a list of column
    policies) and of a column (a list of row policies against one column
    policy) is the pair's own `expected_value`, sign of zero included."""
    game = make_game(name, params)
    tree = StateWalk(game)
    rng = np.random.default_rng(31)
    size = 3 if name == "leduc_poker" else 5
    # Pure members make some entries exactly zero where the game can tie.
    rows = [_sparse_tabular(tree, rng, drop)
            for drop in [0.4, 1.0, 1.0, 1.0, 0.4][:size]]
    cols = [TabularPolicy()] + [_sparse_tabular(tree, rng, drop)
                                for drop in [1.0, 0.4, 1.0, 1.0][:size - 1]]
    pairwise = np.array([[expected_value(game, (row, col)) for col in cols]
                         for row in rows])  # (row, col, player)
    for r, row in enumerate(rows):
        resolved = np.array(expected_value(game, (row, cols)))
        assert resolved.shape == (2, len(cols))
        assert (resolved == pairwise[r].T).all()
        assert (np.signbit(resolved) == np.signbit(pairwise[r].T)).all()
    for c, col in enumerate(cols):
        resolved = np.array(expected_value(game, (rows, col)))
        assert resolved.shape == (2, len(rows))
        assert (resolved == pairwise[:, c].T).all()
        assert (np.signbit(resolved) == np.signbit(pairwise[:, c].T)).all()


def _follow(members, view, reach: np.ndarray, weights: np.ndarray):
    """The mixture's branching step at a decision node: yields ``(j,
    reach * probs[:, j])`` for each legal action j that some member of
    nonzero weight still plays, reading every member's
    ``action_probs(view)`` once."""
    probs = np.stack([m.action_probs(view) for m in members])
    for j in range(len(view.legal_actions)):
        r_next = reach * probs[:, j]
        if (r_next * weights).any():
            yield j, r_next


def _resolved(reach: np.ndarray) -> np.ndarray:
    return reach


def recursive_expected_value(game, profile):
    """The earlier expected value, kept as a reference: a recursive walk
    that skips every branch no member of positive weight plays. It carries
    each member's own reach from 1.0 and weighs it last, at the
    terminals."""
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
    tree = StateWalk(game)

    def walk(node, chance: float, r0: np.ndarray,
             r1: np.ndarray) -> float:
        player = tree.owner(node)
        if player == TERMINAL:
            return (chance * fold0(r0 * weights[0]) * fold1(r1 * weights[1])
                    * tree.returns(node)[0])
        kids = tree.children(node)
        if player == CHANCE:
            return sum(walk(child, chance * p, r0, r1) for _, child, p in kids)
        reach = r0 if player == 0 else r1
        total = 0.0
        for j, r_next in _follow(members[player], tree.view(node), reach,
                                 weights[player]):
            if player == 0:
                total += walk(kids[j][1], chance, r_next, r1)
            else:
                total += walk(kids[j][1], chance, r0, r_next)
        return total

    ones = [np.ones(len(m)) for m in members]
    v0 = walk(tree.root, 1.0, ones[0], ones[1])
    return (v0, -v0)


def _assert_same_bits(value, reference):
    assert type(value) is type(reference)
    assert np.array_equal(value, reference)
    assert np.array_equal(np.signbit(value), np.signbit(reference))


def _assorted_mixture(game, tree, size, rng):
    """`size` members cycling through pure, sparse and uniform tabular
    policies and scratch networks, some of them weighing 0."""
    sig = ArchSignature(game.encoding_dim(), (8,),
                        game.num_distinct_actions())
    members = []
    for i in range(size):
        kind = i % 4
        if kind == 2:
            members.append(scratch_init("kaiming", sig, int(rng.integers(99))))
        elif kind == 3:
            members.append(TabularPolicy())
        else:
            members.append(_sparse_tabular(tree, rng, [1.0, 0.4][kind]))
    weights = rng.dirichlet(np.ones(size))
    if size > 1:
        weights[rng.random(size) < 0.25] = 0.0
        weights[0] += weights.sum() == 0.0
    return PolicyMixture(members, weights / weights.sum())


@pytest.mark.parametrize("name,params", TREE_GAMES + [
    ("matrix_game", {"rows": [[0, -1, 2], [1, 0, 0]]})],
    ids=TREE_GAME_IDS + ["matrix_game-params4"])
@pytest.mark.parametrize("size", [1, 3, 9, 17])
def test_ev_equals_recursive_reference_bit_for_bit(name, params, size):
    """The array passes equal the recursive walk, sign of zero included, on
    mixtures around numpy's pairwise-sum block of 8 members, on listed rows
    and columns, and in the profile value inside `exploitability`."""
    game = make_game(name, params)
    tree = StateWalk(game)
    rng = np.random.default_rng(size)
    profile = (_assorted_mixture(game, tree, size, rng),
               _assorted_mixture(game, tree, size, rng))
    reference = recursive_expected_value(game, profile)
    for value, ref in zip(expected_value(game, profile), reference):
        _assert_same_bits(value, ref)
    for listed in ((profile[0].members[0], profile[1].members),
                   (profile[0].members, profile[1].members[-1])):
        for value, ref in zip(expected_value(game, listed),
                              recursive_expected_value(game, listed)):
            _assert_same_bits(value, ref)
    total = 0.0
    for player in (0, 1):
        _, br_value = two_pass_best_response(game, profile[1 - player],
                                             player)
        total += br_value - reference[player]
    _assert_same_bits(exploitability(game, profile), total)


def test_member_resolved_walk_takes_one_listed_side():
    game = make_game("kuhn_poker")
    with pytest.raises(ValueError, match="one side"):
        expected_value(game, ([TabularPolicy()], [TabularPolicy()]))
