"""Game construction, rules, and invariant checks."""

import gc
import weakref

import numpy as np
import pytest

from gamepop.games import (CHANCE, TERMINAL, Game, GameError, KuhnPoker,
                           State, make_game, play_episode)
from gamepop.games.base import sample_action, sample_episode
from gamepop.games.ntmg import (S_MATRIX, NtmgConfig, ntmg_payoff,
                                ntmg_weights)
from gamepop import nets
from gamepop.nets import ArchSignature
from gamepop.policies import (ParametricPolicy, PolicyMixture, TabularPolicy,
                              sample_member, scratch_init)

ALL_GAMES = [
    ("kuhn_poker", {}),
    ("leduc_poker", {}),
    ("liars_dice", {"faces": 3}),
    ("liars_dice", {"faces": 2}),
    ("goofspiel", {"num_cards": 4}),
    ("matrix_game", {"rows": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]}),
]
# Each case's ID, fixed per entry so that adding or deleting a game renames
# no other case. They are the IDs these cases had when pytest numbered them
# by position, kept so that no case was renamed when they were fixed.
ALL_GAME_IDS = ["kuhn_poker-params0", "leduc_poker-params1",
                "liars_dice-params2", "liars_dice-params3",
                "goofspiel-params4", "matrix_game-params5"]


def make(name):
    return make_game(name, dict(ALL_GAMES[[n for n, _ in ALL_GAMES].index(name)][1]))


def test_make_game_unknown_name():
    for name in ("chess", "liars_dice_ir"):
        with pytest.raises(GameError):
            make_game(name)


def test_make_game_bad_params():
    with pytest.raises(GameError):
        make_game("goofspiel", {"num_cards": 1})
    with pytest.raises(GameError):
        make_game("liars_dice", {"faces": 1})
    with pytest.raises(GameError):
        make_game("kuhn_poker", {"bogus": 3})
    with pytest.raises(GameError):
        make_game("matrix_game", {})
    with pytest.raises(GameError):
        make_game("matrix_game", {"rows": [[0, 1], [1]]})
    with pytest.raises(GameError):
        make_game("ntmg", {"num_humps": 7})
    # make_game reads `params` as parse_config reads `game.params`: a value
    # of the wrong type is refused with the config's text, before any tree
    # is built.
    for name, params in [("goofspiel", {"num_cards": 2.5}),
                         ("ntmg", {"plane_bound": True}),
                         ("liars_dice", {"faces": "3"}),
                         ("matrix_game", {"rows": [[1, "a"]]})]:
        field, = params
        with pytest.raises(GameError,
                           match=rf"^game\.params\.{field}: expected "):
            make_game(name, params)


def test_make_game_defaults():
    assert make_game("ntmg", {}) == NtmgConfig()
    assert make_game("goofspiel").num_cards == 5


def _decision_nodes(state):
    """Every decision node of the tree below `state`, depth first."""
    if state.is_terminal:
        return
    if state.current_player == CHANCE:
        for a, _ in state.chance_outcomes():
            yield from _decision_nodes(state.child(a))
        return
    yield state
    for a in state.legal_actions():
        yield from _decision_nodes(state.child(a))


@pytest.mark.parametrize("name,params", [
    pytest.param("kuhn_poker", {}, id="kuhn_poker-params0"),
    pytest.param("leduc_poker", {}, id="leduc_poker-params1"),
    pytest.param("goofspiel", {"num_cards": 4}, id="goofspiel-params2"),
    pytest.param("liars_dice", {"faces": 4}, id="liars_dice-params3"),
    pytest.param("matrix_game",
                 {"rows": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]},
                 id="matrix_game-params4"),
])
def test_infoset_key_fixes_legal_actions_and_features(name, params):
    """A game tree holds one view per (player, infoset key), and a policy's
    reading holds one row per view; that is sound only if the key
    determines what the decision depends on."""
    game = make_game(name, params)
    seen = {}
    for state in _decision_nodes(game.initial_state()):
        player = state.current_player
        key = (player, state.infoset_key(player))
        inputs = (tuple(state.legal_actions()),
                  game.encode_infoset(state, player).tobytes())
        assert seen.setdefault(key, inputs) == inputs, key
    assert seen


def _preorder(game):
    """Every state of the game's tree depth first, in preorder, as
    ``(state, parent preorder index, edge probability, depth)``; a node's
    children follow in legal or chance order."""
    nodes = []
    stack = [(game.initial_state(), -1, 1.0, 0)]
    while stack:
        state, up, p, d = stack.pop()
        nodes.append((state, up, p, d))
        if state.is_terminal:
            continue
        outcomes = (state.chance_outcomes()
                    if state.current_player == CHANCE
                    else [(a, 1.0) for a in state.legal_actions()])
        here = len(nodes) - 1
        stack.extend((state.child(a), here, q, d + 1)
                     for a, q in reversed(outcomes))
    return nodes


def _ranks(tree, walk):
    """Each walked node's children as preorder indices, and the preorder
    index of each compiled node, found by following parent and slot down
    from the root."""
    kids = [[] for _ in walk]
    for rank, (_, up, _, _) in enumerate(walk):
        if up >= 0:
            kids[up].append(rank)
    rank_of = [0]
    for i in range(1, len(tree.owner)):
        rank_of.append(kids[rank_of[tree.parent[i]]][tree.slot[i]])
    return kids, np.array(rank_of)


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_tree_matches_a_direct_state_walk(name, params):
    """The compiled tree holds every state of the game once, and per node
    its owner, depth, edge probability, number of children, returns (at
    ``utility[row[n]]``) and one read-only view per (player, key), also
    found as ``views[player, key]``."""
    game = make_game(name, params)
    tree = game.tree
    walk = _preorder(game)
    size = len(walk)
    assert len(tree.owner) == tree.levels[-1] == size
    assert len(tree.first) == size + 1 and tree.first[-1] == size
    kids, rank_of = _ranks(tree, walk)
    level = np.repeat(np.arange(len(tree.levels) - 1), np.diff(tree.levels))
    views = {}
    for i in range(size):
        state, _, p, depth = walk[rank_of[i]]
        player = state.current_player
        assert tree.prob[i] == p
        assert depth == level[i]
        assert tree.owner[i] == player
        assert tree.first[i + 1] - tree.first[i] == len(kids[rank_of[i]])
        if player == TERMINAL:
            assert tree.utility[tree.row[i]].tolist() == list(state.returns())
        else:
            assert tree.row[i] == -1
        if player >= 0:
            view = tree.infosets[player].views[tree.infoset[i]]
            key = state.infoset_key(player)
            assert views.setdefault((player, key), view) is view
            assert tree.views[player, key] is view
            assert view.key == key
            assert view.legal_actions == tuple(state.legal_actions())
            assert not view.features.flags.writeable
            assert (view.features.tobytes()
                    == game.encode_infoset(state, player).tobytes())
        else:
            assert tree.infoset[i] == -1
    assert sorted(rank_of) == list(range(size))
    assert len(tree.views) == len(views)
    assert len({id(view) for view in views.values()}) == len(views)


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_flat_tree_matches_the_tree(name, params):
    """The compiled arrays lay the tree out level by level and each level
    in depth-first preorder, with each node's children at
    ``first[n]:first[n + 1]`` in slot order, utility rows in node order
    and leaves counted per level; each infoset lists its nodes in
    preorder."""
    game = make_game(name, params)
    tree = game.tree
    walk = _preorder(game)
    _, preorder = _ranks(tree, walk)
    level = np.repeat(np.arange(len(tree.levels) - 1), np.diff(tree.levels))
    assert (np.diff(tree.parent) >= 0).all()
    for i in range(len(tree.owner)):
        a, b = tree.first[i], tree.first[i + 1]
        assert (tree.parent[a:b] == i).all()
        assert (tree.slot[a:b] == np.arange(b - a)).all()
    for a, b in zip(tree.levels, tree.levels[1:]):
        assert (np.diff(preorder[a:b]) > 0).all()
    leaves = np.flatnonzero(tree.owner == TERMINAL)
    assert (tree.row[leaves] == np.arange(len(leaves))).all()
    assert tree.utility.tolist() == [list(walk[preorder[i]][0].returns())
                                     for i in leaves]
    for d in range(len(tree.levels) - 1):
        part = tree.owner[tree.levels[d]:tree.levels[d + 1]] == TERMINAL
        assert tree.leaves[d + 1] - tree.leaves[d] == part.sum()
    for player, infosets in enumerate(tree.infosets):
        assert len(set(infosets.views)) == len(infosets.views)
        for i, view in enumerate(infosets.views):
            nodes = infosets.nodes[infosets.start[i]:infosets.start[i + 1]]
            assert (tree.owner[nodes] == player).all()
            assert (tree.infoset[nodes] == i).all()
            assert (np.diff(preorder[nodes]) > 0).all()
            assert (level[nodes] == infosets.first_level[i]).all()
            assert infosets.num_actions[i] == len(view.legal_actions)
        assert infosets.start[-1] == (tree.owner == player).sum()


class _SpanningState(State):
    """Chance deals 0 or 1; player 0 moves right after a 0, and after a 1
    only once a second, one-outcome chance node has passed, with the same
    infoset key both times."""

    def __init__(self, history=()):
        self.history = history

    @property
    def current_player(self):
        if self.history in ((), (1,)):
            return CHANCE
        return 0 if self.history in ((0,), (1, 0)) else TERMINAL

    def legal_actions(self):
        return [0, 1]

    def chance_outcomes(self):
        return [(0, 0.5), (1, 0.5)] if not self.history else [(0, 1.0)]

    def child(self, action):
        return _SpanningState(self.history + (action,))

    def returns(self):
        return (1.0, -1.0)

    def infoset_key(self, player):
        return "move"


class _SpanningGame(Game):
    def initial_state(self):
        return _SpanningState()

    def num_distinct_actions(self):
        return 2

    def encoding_dim(self):
        return 1

    def encode_infoset(self, state, player):
        return np.zeros(1)


def test_an_infoset_spanning_depths_is_refused():
    """Exact best responses decide each infoset on the one level holding
    its nodes, so compiling a tree whose infoset spans two depths fails."""
    with pytest.raises(GameError, match="'move' holds nodes at more than "
                                        "one depth"):
        _SpanningGame().tree


def test_flat_leduc_tree_stays_small():
    """Leduc's compiled arrays take at most 0.4 MB, besides the feature and
    legal tables, which take one float64 row of `encoding_dim` and one
    bool row of `num_distinct_actions` per infoset and one more."""
    game = make_game("leduc_poker")
    tree = game.tree
    arrays = [*vars(tree).values()]
    for infosets in tree.infosets:
        arrays += infosets[:-2]
        rows = len(infosets.views) + 1
        assert infosets._fields[-2:] == ("features", "legal")
        assert infosets.features.nbytes == rows * game.encoding_dim() * 8
        assert infosets.legal.nbytes == rows * game.num_distinct_actions()
    assert sum(a.nbytes for a in arrays
               if isinstance(a, np.ndarray)) <= 400_000


def test_the_tree_does_not_keep_its_game_alive():
    """A game and its tree form no reference cycle: the tree dies with its
    game without waiting for the cyclic collector."""
    game = make_game("kuhn_poker")
    tree = weakref.ref(game.tree)
    gc.disable()
    try:
        del game
        assert tree() is None
    finally:
        gc.enable()


def test_the_tree_is_read_only():
    """One tree serves every run on its game in a process, so none of its
    arrays, nor a matrix game's rows, can be written into. The chance
    CDFs are computed afresh for each caller and kept by the tree in no
    array."""
    tree = make("leduc_poker").tree
    with pytest.raises(ValueError):
        tree.owner[0] = 0
    with pytest.raises(ValueError):
        tree.infosets[0].nodes[0] = 0
    tree.chance_cdfs()[0] = 0.0
    arrays = [*vars(tree).values(), *tree.infosets[0], *tree.infosets[1]]
    assert not any(a.flags.writeable for a in arrays
                   if isinstance(a, np.ndarray))
    with pytest.raises(ValueError):
        make("matrix_game").rows[0, 0] = 1.0


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_infoset_tables_hold_each_view(name, params):
    """Per player, row i of ``features`` is infoset i's `encode_infoset`,
    and its view's features are that row, not a copy; row i of ``legal``
    marks its legal actions. The last rows, which index -1 reads, are zero
    and False, and neither table can be written into."""
    game = make_game(name, params)
    tree = game.tree
    states = {}
    for state in _decision_nodes(game.initial_state()):
        player = state.current_player
        states.setdefault((player, state.infoset_key(player)), state)
    for player, infosets in enumerate(tree.infosets):
        count = len(infosets.views)
        features, legal = infosets.features, infosets.legal
        assert features.shape == (count + 1, game.encoding_dim())
        assert features.dtype == np.float64
        assert legal.shape == (count + 1, game.num_distinct_actions())
        assert legal.dtype == bool
        for i, view in enumerate(infosets.views):
            assert np.shares_memory(view.features, features)
            state = states[player, view.key]
            assert features[i].tobytes() == view.features.tobytes() == (
                game.encode_infoset(state, player).tobytes())
            assert np.flatnonzero(legal[i]).tolist() == sorted(
                state.legal_actions())
        assert not features[-1].any() and not legal[-1].any()
        for table in (features, legal):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        if count:
            with pytest.raises(ValueError):
                infosets.views[0].features[0] = 1.0


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_the_plan_matches_the_tree(name, params):
    """Each level's plan holds what its arrays say of the tree, in node
    order, and none of it can be written into; ``prob`` is a view of the
    tree's own array."""
    tree = make_game(name, dict(params)).tree
    levels, plan = tree.levels, tree.plan
    assert len(plan) == len(levels) - 1
    for d, level in enumerate(plan):
        a, b = levels[d], levels[d + 1]
        c = levels[d + 2] if d + 2 < len(levels) else b
        own, slot = tree.owner[a:b], tree.slot[b:c]
        up = tree.parent[b:c] - a
        assert level.leaf.tolist() == (own == TERMINAL).tolist()
        assert level.up.tolist() == up.tolist()
        assert level.prob.base is tree.prob
        assert level.prob.tolist() == tree.prob[b:c].tolist()
        children = []
        for k, parents in level.siblings:
            assert len(set(slot[k].tolist())) == 1
            assert parents.tolist() == up[k].tolist()
            children += k.tolist()
        assert sorted(children) == list(range(c - b))
        assert [slot[k[0]] for k, _ in level.siblings] == sorted(
            {int(s) for s in slot})
        for player, mine in enumerate(level.players):
            nodes = np.flatnonzero(own == player)
            moves = np.flatnonzero(own[up] == player)
            assert mine.nodes.tolist() == nodes.tolist()
            assert mine.infoset.tolist() == tree.infoset[a + nodes].tolist()
            assert mine.moves.tolist() == moves.tolist()
            assert mine.move_infoset.tolist() == tree.infoset[
                a + up[moves]].tolist()
            assert mine.move_slot.tolist() == slot[moves].tolist()
            assert mine.firsts.tolist() == np.flatnonzero(
                tree.infosets[player].first_level == d).tolist()
        arrays = [level.leaf, level.up, level.prob, *level.players[0],
                  *level.players[1]]
        arrays += [array for pair in level.siblings for array in pair]
        assert not any(array.flags.writeable for array in arrays)
    with pytest.raises(ValueError):
        plan[0].up[:1] = 0


def _sparse_policy(tree, rng):
    """A random tabular policy over every infoset of the tree, each action
    dropped to probability zero with probability 0.5, but never all."""
    table = {}
    for infosets in tree.infosets:
        for view in infosets.views:
            n = len(view.legal_actions)
            dist = rng.random(n) * (rng.random(n) < 0.5)
            dist[rng.integers(n)] += 0.1
            table[view.key] = dist / dist.sum()
    return TabularPolicy(table)


def _state_episode(game, choose, rng):
    """`sample_episode` written against the game's states: chance outcomes
    drawn with `sample_action`, each decision's view looked up by (player,
    key) in the compiled tree."""
    state = game.initial_state()
    while not state.is_terminal:
        player = state.current_player
        if player == CHANCE:
            actions, probs = zip(*state.chance_outcomes())
            action = sample_action(list(probs), list(actions), rng)
        else:
            action = choose(player, game.tree.views[
                player, state.infoset_key(player)])
        state = state.child(action)
    return state.returns()


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_sampled_episodes_match_a_direct_state_walk(name, params):
    """Episodes sampled from the compiled tree make the same draws as
    episodes stepped through the game's states: the same returns (Python
    floats), the same decisions asked of the policies and the same
    generator state afterwards. The tree draws chance outcomes from its
    cached CDFs; decisions are drawn by `sample_action` or from the
    policies' readings, for tabular and for network policies."""
    game = make_game(name, params)
    rng = np.random.default_rng(7)
    sig = ArchSignature(game.encoding_dim(), (8,),
                        game.num_distinct_actions())
    for policies in ([_sparse_policy(game.tree, rng) for _ in (0, 1)],
                     [scratch_init("normal", sig, seed) for seed in (1, 2)]):
        runs = []
        for sample, memoized in ((sample_episode, True),
                                 (sample_episode, False),
                                 (_state_episode, False)):
            asked = []
            rng = np.random.default_rng(13)

            def choose(player, view):
                assert type(player) is int
                asked.append((player, view.key))
                if memoized:
                    reading = policies[player].reading(game.tree, player)
                    return reading.draw(view, rng)
                return sample_action(policies[player].action_probs(view),
                                     view.legal_actions, rng)

            returns = [sample(game, choose, rng) for _ in range(200)]
            runs.append((returns, asked, rng.bit_generator.state))
        want, want_asked, want_state = runs[-1]
        for got, got_asked, got_state in runs[:-1]:
            assert all(type(v) is float for r in got for v in r)
            assert got == want
            assert got_asked == want_asked
            assert got_state == want_state


def _distributions(rng, count):
    """Unnormalized random, one-hot and sparse distributions of 1-7 actions."""
    for i in range(count):
        n = int(rng.integers(1, 8))
        if i % 3 == 0:
            yield rng.random(n)
        elif i % 3 == 1:
            yield np.eye(n)[rng.integers(n)]
        else:
            probs = rng.random(n) * (rng.random(n) < 0.5)
            probs[rng.integers(n)] += 0.25
            yield probs


def test_sample_action_draws_as_generator_choice():
    """Same action, and same mixture member, as `Generator.choice(len,
    p=...)` and the same generator state afterwards, for every seed. So do
    draws from a tabular and a network policy's reading, on a view's first
    draw and from its kept CDF."""
    sig = ArchSignature(1, (), 17)
    # Player 0's one view in each has 1 to 7 actions.
    trees = {n: make_game("matrix_game", {"rows": [[0]] * n}).tree
             for n in range(1, 8)}
    for seed, probs in enumerate(_distributions(np.random.default_rng(11),
                                                3000)):
        actions = [10 + a for a in range(len(probs))]
        weights = probs / probs.sum()
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = actions[numpy_rng.choice(len(probs), p=weights)]
        assert sample_action(probs, actions, ours) == expected
        assert ours.random() == numpy_rng.random()
        members = [TabularPolicy() for _ in actions]
        expected = members[numpy_rng.choice(len(members), p=weights)]
        assert sample_member(PolicyMixture(members, weights), ours) is expected
        assert ours.random() == numpy_rng.random()
        # A network whose greedy action is legal[hot].
        tree = trees[len(actions)]
        view = tree.infosets[0].views[0]
        legal = view.legal_actions
        hot = seed % len(legal)
        theta = np.zeros(nets.theta_size(sig))
        theta[17:] = -abs(np.arange(17) - legal[hot])
        for policy, p in ((TabularPolicy({view.key: weights}),
                           weights / weights.sum()),
                          (ParametricPolicy(sig, theta),
                           np.eye(len(legal))[hot])):
            reading = policy.reading(tree, 0)
            for _ in range(2):
                expected = legal[numpy_rng.choice(len(legal), p=p)]
                assert reading.draw(view, ours) == expected
                assert ours.random() == numpy_rng.random()


@pytest.mark.parametrize("probs", [[0.0, 0.0], [-0.5, 1.5], [1.0, -1e-12],
                                   [-1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0],
                                   [1e308, 1e308], [1.0], [0.2, 0.3, 0.5]])
def test_sample_action_rejects_invalid_probabilities(probs):
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        sample_action(probs, [4, 7], rng)


def test_goofspiel_round_count():
    game = make_game("goofspiel", {"num_cards": 5})
    state = game.initial_state()
    rounds = 0
    while not state.is_terminal:
        state = state.child(state.legal_actions()[0])
        rounds += 1
    assert rounds == 2 * 5  # two bids per auction round


def test_goofspiel_tie_splits_prize():
    game = make_game("goofspiel", {"num_cards": 2})
    state = game.initial_state()
    # Both play card 2 first, then forced card 1: both prizes split -> draw.
    for action in (1, 1, 0, 0):
        state = state.child(action)
    assert state.returns() == (0.0, 0.0)


def test_liars_dice_challenge_resolution():
    game = make_game("liars_dice", {"faces": 2})
    # dice: p0 shows face 0, p1 shows face 1; p0 bids (1, face 0): truthful.
    state = game.initial_state().child(0).child(1).child(0)
    challenged = state.child(game.challenge_action)
    assert challenged.returns() == (1.0, -1.0)
    # p0 bids (2, face 0): only one die shows face 0, so the bid is a lie.
    state = game.initial_state().child(0).child(1).child(2)
    challenged = state.child(game.challenge_action)
    assert challenged.returns() == (-1.0, 1.0)


def test_kuhn_payouts():
    game = KuhnPoker()
    state = game.initial_state().child(2).child(0)  # K vs J
    showdown = state.child(0).child(0)  # check, check
    assert showdown.returns() == (1.0, -1.0)
    fold = state.child(1).child(0)  # bet, fold
    assert fold.returns() == (1.0, -1.0)
    call = state.child(1).child(1)  # bet, call
    assert call.returns() == (2.0, -2.0)


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_zero_sum_conservation(name, params):
    game = make_game(name, params)
    uniform = TabularPolicy()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        v0, v1 = play_episode(game, (uniform, uniform), rng)
        assert abs(v0 + v1) < 1e-10


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_chance_probabilities_sum_to_one(name, params):
    game = make_game(name, params)
    rng = np.random.default_rng(1)
    state = game.initial_state()
    while not state.is_terminal:
        if state.current_player == CHANCE:
            probs = [p for _, p in state.chance_outcomes()]
            assert all(p >= 0 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-12
        legal = (state.legal_actions() if state.current_player != CHANCE
                 else [a for a, _ in state.chance_outcomes()])
        state = state.child(legal[rng.integers(len(legal))])


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_playthroughs_respect_max_length(name, params):
    game = make_game(name, params)
    rng = np.random.default_rng(2)
    for _ in range(200):
        state = game.initial_state()
        moves = 0
        while not state.is_terminal:
            if state.current_player == CHANCE:
                actions = [a for a, _ in state.chance_outcomes()]
            else:
                actions = state.legal_actions()
                assert actions, "non-terminal state with no legal actions"
            state = state.child(actions[rng.integers(len(actions))])
            moves += 1
        assert moves <= game.max_game_length


@pytest.mark.parametrize("name,params", ALL_GAMES, ids=ALL_GAME_IDS)
def test_perfect_recall_keys_follow_observations(name, params):
    """Histories with equal own observation sequences share an infoset key."""
    game = make_game(name, params)
    rng = np.random.default_rng(3)
    key_by_obs = {}
    for _ in range(500):
        state = game.initial_state()
        while not state.is_terminal:
            player = state.current_player
            if player == CHANCE:
                actions = [a for a, _ in state.chance_outcomes()]
            else:
                actions = state.legal_actions()
                obs = (player, game.observation_sequence(state, player))
                key = state.infoset_key(player)
                assert key_by_obs.setdefault(obs, key) == key
            state = state.child(actions[rng.integers(len(actions))])


class TestNtmg:
    cfg = NtmgConfig()

    def test_matrix_is_skew_symmetric(self):
        assert np.array_equal(S_MATRIX, -S_MATRIX.T)

    def test_weights_one_hot_at_center(self):
        small = NtmgConfig(gaussian_sigma=0.1)
        w = ntmg_weights(small.centers()[0], small)
        assert w[0] > 0.999

    def test_weights_uniform_at_origin(self):
        w = ntmg_weights([0.0, 0.0], self.cfg)
        assert np.allclose(w, 1.0 / 7.0, atol=1e-12)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_weights_golden_at_center_three(self):
        # Direct evaluation of the closed form, independent of the package.
        cfg = NtmgConfig(center_radius=5.0, gaussian_sigma=1.0)
        centers = 5.0 * np.stack([np.cos(2 * np.pi * np.arange(7) / 7),
                                  np.sin(2 * np.pi * np.arange(7) / 7)], 1)
        x = centers[3]
        raw = np.exp(-((centers - x) ** 2).sum(1) / 2.0)
        expected = raw / raw.sum()
        assert np.allclose(ntmg_weights(x, cfg), expected, atol=1e-14)

    def test_payoff_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a = rng.uniform(-10, 10, 2)
            b = rng.uniform(-10, 10, 2)
            assert abs(ntmg_payoff(a, b, self.cfg)
                       + ntmg_payoff(b, a, self.cfg)) < 1e-12

    def test_payoff_diagonal_zero(self):
        assert ntmg_payoff([1.2, -0.7], [1.2, -0.7], self.cfg) == \
            pytest.approx(0.0, abs=1e-12)
        assert ntmg_payoff([0, 0], [0, 0], self.cfg) == \
            pytest.approx(0.0, abs=1e-12)

    def test_payoff_near_centers_matches_cycle_matrix(self):
        small = NtmgConfig(gaussian_sigma=0.1)
        mu = small.centers()
        assert ntmg_payoff(mu[0], mu[1], small) == pytest.approx(
            S_MATRIX[0, 1], abs=1e-6)

    def test_invalid_config(self):
        with pytest.raises(GameError, match="gaussian_sigma"):
            NtmgConfig(gaussian_sigma=0.0)
        with pytest.raises(GameError, match="center_radius"):
            NtmgConfig(center_radius=11.0)  # a hump outside the plane
        with pytest.raises(ValueError):
            ntmg_weights([np.inf, 0.0], self.cfg)
