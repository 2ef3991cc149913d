"""Meta-game payoff management and meta-strategy solvers.

The Nash LP is cross-checked against a support-enumeration oracle that
solves the equalizing equations for every support pair and verifies the
equilibrium conditions; it shares nothing with the simplex implementation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepop import meta_solvers
from gamepop.games import expected_value, make_game
from gamepop.meta_solvers import (FictitiousPlay, MetaGame, Nash, Prd,
                                  SolverError, Uniform, extend_payoff, solve,
                                  solve_fp, solve_nash_lp, solve_prd)
from gamepop.policies import TabularPolicy

RPS = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
PENNIES = np.array([[1, -1], [-1, 1]], dtype=float)


# ---------------------------------------------------------------------------
# Support enumeration oracle (tests only)


def _solve_support(M, rows, cols):
    """Equalizing strategies on the given supports, or None."""
    sub = M[np.ix_(rows, cols)]
    n = len(cols)
    lhs = np.zeros((len(rows) + 1, n + 1))
    lhs[:len(rows), :n] = sub
    lhs[:len(rows), n] = -1.0
    lhs[len(rows), :n] = 1.0
    rhs = np.zeros(len(rows) + 1)
    rhs[-1] = 1.0
    try:
        sol, residual, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if np.abs(lhs @ sol - rhs).max() > 1e-9:
        return None
    q, v = sol[:n], sol[n]
    lhs2 = np.zeros((n + 1, len(rows) + 1))
    lhs2[:n, :len(rows)] = sub.T
    lhs2[:n, len(rows)] = -1.0
    lhs2[n, :len(rows)] = 1.0
    rhs2 = np.zeros(n + 1)
    rhs2[-1] = 1.0
    sol2, *_ = np.linalg.lstsq(lhs2, rhs2, rcond=None)
    if np.abs(lhs2 @ sol2 - rhs2).max() > 1e-9:
        return None
    p = sol2[:len(rows)]
    if q.min() < -1e-9 or p.min() < -1e-9:
        return None
    sigma_row = np.zeros(M.shape[0])
    sigma_row[list(rows)] = np.maximum(p, 0)
    sigma_row /= sigma_row.sum()
    sigma_col = np.zeros(M.shape[1])
    sigma_col[list(cols)] = np.maximum(q, 0)
    sigma_col /= sigma_col.sum()
    value = float(sigma_row @ M @ sigma_col)
    if (M @ sigma_col).max() > value + 1e-9:
        return None
    if (sigma_row @ M).min() < value - 1e-9:
        return None
    return sigma_row, sigma_col, value


def nash_by_support_enumeration(M):
    """Zero-sum NE over all support pairs; None iff something is wrong."""
    M = np.asarray(M, dtype=float)
    r_indices = range(M.shape[0])
    c_indices = range(M.shape[1])
    for r_size in range(1, M.shape[0] + 1):
        for c_size in range(1, M.shape[1] + 1):
            for rows in itertools.combinations(r_indices, r_size):
                for cols in itertools.combinations(c_indices, c_size):
                    result = _solve_support(M, rows, cols)
                    if result is not None:
                        return result
    return None


# ---------------------------------------------------------------------------
# solve_nash_lp


class TestNashLp:
    def test_rps_uniform(self):
        sr, sc, v = solve_nash_lp(RPS)
        assert np.allclose(sr, 1 / 3, atol=1e-9)
        assert np.allclose(sc, 1 / 3, atol=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_matching_pennies(self):
        sr, sc, v = solve_nash_lp(PENNIES)
        assert np.allclose(sr, 0.5, atol=1e-9)
        assert np.allclose(sc, 0.5, atol=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_shapes(self):
        sr, sc, v = solve_nash_lp([[2.5]])
        assert v == pytest.approx(2.5)
        _, sc, v = solve_nash_lp([[0.2, -0.5, 0.8]])
        assert v == pytest.approx(-0.5)
        assert sc[1] == pytest.approx(1.0)

    def test_matches_support_enumeration_on_random_3x3(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            M = rng.integers(-5, 6, (3, 3)).astype(float)
            sr, sc, v = solve_nash_lp(M)
            oracle = nash_by_support_enumeration(M)
            assert oracle is not None
            assert v == pytest.approx(oracle[2], abs=1e-8)
            assert (M @ sc).max() <= v + 1e-8
            assert (sr @ M).min() >= v - 1e-8

    def test_ne_conditions_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r, c = rng.integers(2, 9, 2)
            M = rng.integers(-5, 6, (r, c)).astype(float)
            sr, sc, v = solve_nash_lp(M)
            assert abs(sr @ M @ sc - v) < 1e-8
            assert (M @ sc).max() <= v + 1e-8
            assert (sr @ M).min() >= v - 1e-8

    def test_zero_sum_duality(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            M = rng.normal(size=(4, 6))
            _, _, v = solve_nash_lp(M)
            _, _, v_T = solve_nash_lp(-M.T)  # column player's own LP
            assert v_T == pytest.approx(-v, abs=1e-8)

    def test_scaling_leaves_support_and_scales_value(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            M = rng.integers(-5, 6, (4, 4)).astype(float)
            sr, sc, v = solve_nash_lp(M)
            sr2, sc2, v2 = solve_nash_lp(2.5 * M)
            assert v2 == pytest.approx(2.5 * v, abs=1e-8)
            assert np.array_equal(sr > 1e-6, sr2 > 1e-6)
            assert np.array_equal(sc > 1e-6, sc2 > 1e-6)

    def test_rejects_bad_matrices(self):
        with pytest.raises(SolverError):
            solve_nash_lp(np.array([[np.nan, 1.0]]))
        with pytest.raises(SolverError):
            solve_nash_lp(np.zeros((0, 3)))


@pytest.mark.parametrize("kind", [Nash(), Uniform(), Prd(), FictitiousPlay()])
@pytest.mark.parametrize("matrix", [[1.0, 2.0], [[np.inf, 1.0]],
                                    np.zeros((2, 0))])
def test_solve_rejects_bad_matrices_for_every_kind(kind, matrix):
    with pytest.raises(SolverError, match="payoff matrix"):
        solve(matrix, kind)


# ---------------------------------------------------------------------------
# The vectorized pivot against the row-by-row loop it replaced


def _simplex_packing_loop(A, b):
    """Reference: the row-at-a-time tableau simplex (Bland's rule) that the
    vectorized ``_simplex_packing`` must reproduce bit for bit."""
    _ENTER_EPS = meta_solvers._ENTER_EPS
    _PIVOT_EPS = meta_solvers._PIVOT_EPS
    rows, cols = A.shape
    T = np.zeros((rows + 1, cols + rows + 1))
    T[:rows, :cols] = A
    T[:rows, cols:cols + rows] = np.eye(rows)
    T[:rows, -1] = b
    T[rows, :cols] = -1.0
    basis = list(range(cols, cols + rows))

    for _ in range(200 * (rows + cols)):
        objective = T[rows, :-1]
        entering = -1
        for j in range(cols + rows):  # Bland: lowest improving index
            if objective[j] < -_ENTER_EPS:
                entering = j
                break
        if entering < 0:
            y = np.zeros(cols)
            for i, var in enumerate(basis):
                if var < cols:
                    y[var] = T[i, -1]
            return y, T[rows, cols:cols + rows].copy()
        leaving, best_ratio = -1, np.inf
        for i in range(rows):
            coef = T[i, entering]
            if coef > _PIVOT_EPS:
                ratio = T[i, -1] / coef
                if (ratio < best_ratio - 1e-12
                        or (ratio < best_ratio + 1e-12
                            and (leaving < 0 or basis[i] < basis[leaving]))):
                    best_ratio = min(best_ratio, ratio)
                    leaving = i
        if leaving < 0:
            return None  # no usable pivot: numerically stalled
        pivot = T[leaving, entering]
        T[leaving] /= pivot
        for i in range(rows + 1):
            if i != leaving and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leaving]
        basis[leaving] = entering
    return None


def _dedup_indices_pairwise(vectors, tol):
    """Reference: the pair-by-pair duplicate scan."""
    kept = []
    for i in range(vectors.shape[0]):
        if all(np.abs(vectors[i] - vectors[j]).max() > tol for j in kept):
            kept.append(i)
    return kept


def _population_matrix(kind, rows, cols, seed):
    """A seeded payoff matrix of one of the structures populations take."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.uniform(-1.0, 1.0, (rows, cols))
    if kind == "integer":  # many exact ties
        return rng.integers(-2, 3, (rows, cols)).astype(float)
    if kind == "low_rank":  # rows and columns drawn from a few distinct ones
        r, c = max(1, rows // 3), max(1, cols // 3)
        base = rng.normal(size=(r, 2)) @ rng.normal(size=(2, c))
        return base[np.ix_(rng.integers(r, size=rows),
                           rng.integers(c, size=cols))]
    if kind == "near_duplicate":  # copies moved across the 1e-9 dedup tolerance
        M = _population_matrix("low_rank", rows, cols, seed)
        return M + rng.choice([0.0, 1e-10, 1e-8], (rows, 1)) * rng.uniform(
            -1.0, 1.0, (rows, cols))
    if kind == "rank_one":
        return np.outer(rng.normal(size=rows), rng.normal(size=cols))
    if kind == "constant":
        return np.full((rows, cols), float(rng.integers(-3, 4)))
    raise ValueError(kind)


_MATRICES = st.builds(
    lambda kind, rows, cols, seed, scale:
        scale * _population_matrix(kind, rows, cols, seed),
    st.sampled_from(["dense", "integer", "low_rank", "near_duplicate"]),
    st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e-6]))

_DEGENERATE = st.builds(
    _population_matrix,
    st.sampled_from(["integer", "low_rank", "rank_one", "constant"]),
    st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(M=_MATRICES, perturbation=st.sampled_from([0.0, 1e-7, 1e-5]))
def test_vectorized_pivot_matches_row_loop_bit_for_bit(M, perturbation):
    scale = np.abs(M).max()
    A = M / scale if scale > 0 else M
    A = A + (1.0 - A.min())
    b = 1.0 + perturbation * np.arange(1, A.shape[0] + 1)
    expected = _simplex_packing_loop(A, b)
    got = meta_solvers._simplex_packing(A, b)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert _same_bits(got[0], expected[0])
        assert _same_bits(got[1], expected[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(M=_MATRICES)
def test_nash_lp_matches_row_loop_solver_bit_for_bit(M):
    got = solve_nash_lp(M)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meta_solvers, "_simplex_packing", _simplex_packing_loop)
        patch.setattr(meta_solvers, "_dedup_indices", _dedup_indices_pairwise)
        expected = solve_nash_lp(M)
    assert _same_bits(got[0], expected[0])
    assert _same_bits(got[1], expected[1])
    assert got[2] == expected[2]


def _leaving_row_scan(eligible, ratios, basis):
    """Reference: the ratio test as one scan over the eligible rows, in row
    order (Bland's rule: among ratios within 1e-12 of the running minimum
    the lower basis id wins)."""
    leaving, best_ratio = -1, np.inf
    for i, ratio in zip(eligible.tolist(), ratios.tolist()):
        if (ratio < best_ratio - 1e-12
                or (ratio < best_ratio + 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving]))):
            best_ratio = min(best_ratio, ratio)
            leaving = i
    return leaving


def _near(base, kind, draw):
    """A ratio placed relative to `base` in one of the ways ties arise."""
    if kind == "tie":
        return base
    if kind == "window":  # inside, or just outside, the 1e-12 tie window
        return base + draw(st.sampled_from([-1.0, -0.5, 0.5, 0.999, 1.0,
                                            1.001, 1.5, 2.0])) * 1e-12
    if kind == "ulps":
        ratio = base
        for _ in range(draw(st.integers(1, 4))):
            ratio = np.nextafter(ratio, draw(st.sampled_from([0.0, np.inf])))
        return float(ratio)
    return base * draw(st.floats(1.0, 10.0))  # "spread"


@st.composite
def _ratio_tests(draw):
    """(eligible rows, their ratios, the basis ids of every row)."""
    count = draw(st.integers(1, 30))
    rows = count + draw(st.integers(0, 10))
    eligible = np.array(sorted(draw(st.permutations(range(rows)))[:count]))
    base = 10.0 ** draw(st.floats(-3.0, 9.0))
    ratios = np.array([
        _near(base, draw(st.sampled_from(["tie", "window", "ulps", "spread"])),
              draw) for _ in range(count)])
    basis = np.array(draw(st.permutations(range(rows + 40)))[:rows])
    return eligible, ratios, basis


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_ratio_tests())
def test_leaving_row_matches_the_scan(case):
    eligible, ratios, basis = case
    expected = _leaving_row_scan(eligible, ratios, basis)
    assert meta_solvers._leaving_row(eligible, ratios, basis) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(M=_DEGENERATE, copy_row=st.booleans(), which=st.integers(0, 29))
def test_degenerate_population_matrices(M, copy_row, which):
    """Degenerate, duplicated and low-rank matrices solve without raising,
    certify to 1e-8 of the payoff scale, and an appended copy of a row or
    column leaves the game value as it is."""
    sr, sc, v = solve_nash_lp(M)
    scale = np.abs(M).max()
    assert (M @ sc).max() - (sr @ M).min() <= 1e-8 * scale
    assert (M @ sc).max() <= v + 1e-8 * scale
    assert (sr @ M).min() >= v - 1e-8 * scale
    if copy_row:
        grown = np.vstack([M, M[which % M.shape[0]]])
    else:
        grown = np.column_stack([M, M[:, which % M.shape[1]]])
    assert solve_nash_lp(grown)[2] == v


# ---------------------------------------------------------------------------
# PRD


class TestPrd:
    def test_rps_fixed_point(self):
        x, y = solve_prd(RPS, gamma=0.0, dt=1e-2, steps=500)
        assert np.allclose(x, 1 / 3, atol=1e-12)
        assert np.allclose(y, 1 / 3, atol=1e-12)

    def test_pennies_stays_centered(self):
        x, y = solve_prd(PENNIES, gamma=0.0, dt=1e-3, steps=50_000)
        assert np.abs(x - 0.5).max() < 0.05
        assert np.abs(y - 0.5).max() < 0.05

    def test_floor_binds_under_dominance(self):
        M = np.array([[1.0, 1.0], [0.0, 0.0]])
        x, _ = solve_prd(M, gamma=0.1, dt=1e-2, steps=5000)
        assert np.allclose(x, [0.9, 0.1], atol=1e-9)

    def test_output_satisfies_floor_and_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.normal(size=(4, 3))
            x, y = solve_prd(M, gamma=0.05, dt=1e-2, steps=200)
            for v in (x, y):
                assert v.min() >= 0.05 - 1e-12
                assert v.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_config(self):
        with pytest.raises(SolverError):
            solve_prd(RPS, gamma=0.5, dt=1e-3, steps=10)
        with pytest.raises(SolverError):
            solve_prd(RPS, gamma=0.0, dt=0.0, steps=10)


def _project_floored_simplex_reference(v: np.ndarray, floor: float,
                                       idx: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : sum x = 1, x >= floor}; ``idx`` is
    ``np.arange(1, len(v) + 1)``."""
    n = len(v)
    target = 1.0 - n * floor
    if target < -1e-12:
        raise SolverError("floor too large for the simplex dimension")
    u = v - floor
    srt = np.sort(u)[::-1]
    css = np.cumsum(srt) - target
    rho = np.max(np.where(srt - css / idx > 0, idx, 0))
    tau = css[rho - 1] / rho
    return np.maximum(u - tau, 0.0) + floor


def _solve_prd_reference(M, gamma, dt, steps):
    """Reference: replicator dynamics with a freshly allocated array for
    every step and projection, which ``solve_prd`` must reproduce bit for
    bit."""
    M = np.asarray(M, dtype=float)
    rows, cols = M.shape
    x = np.full(rows, 1.0 / rows)
    y = np.full(cols, 1.0 / cols)
    neg_mt = -M.T
    row_idx = np.arange(1, rows + 1)
    col_idx = np.arange(1, cols + 1)
    for _ in range(steps):
        row_payoffs = M @ y
        col_payoffs = neg_mt @ x
        value = x @ row_payoffs
        x_next = x + dt * x * (row_payoffs - value)
        y_next = y + dt * y * (col_payoffs + value)
        x = _project_floored_simplex_reference(x_next, gamma, row_idx)
        y = _project_floored_simplex_reference(y_next, gamma, col_idx)
    return x, y


def _prd_gamma(kind, rows, cols):
    """No floor, or one that binds: just under 1/max(rows, cols)."""
    limit = 1.0 / max(rows, cols)
    return {"zero": 0.0, "last": float(np.nextafter(limit, 0.0)),
            "near": limit * (1.0 - 1e-9), "half": 0.5 * limit}[kind]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=st.sampled_from(["dense", "integer", "low_rank", "rank_one",
                             "constant"]),
       rows=st.integers(1, 60), cols=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1),
       gamma=st.sampled_from(["zero", "last", "near", "half"]),
       dt=st.floats(1e-3, 1e-1), steps=st.integers(1, 300))
def test_prd_matches_reference_bit_for_bit(kind, rows, cols, seed, gamma, dt,
                                           steps):
    M = _population_matrix(kind, rows, cols, seed)
    gamma = _prd_gamma(gamma, rows, cols)
    expected = _solve_prd_reference(M, gamma, dt, steps)
    for got in (solve_prd(M, gamma, dt, steps),
                solve(M, Prd(gamma=gamma, dt=dt, steps=steps))):
        assert _same_bits(got[0], expected[0])
        assert _same_bits(got[1], expected[1])


# ---------------------------------------------------------------------------
# Fictitious play


class TestFictitiousPlay:
    def test_rps_converges_to_thirds(self):
        x, y = solve_fp(RPS, 30_000)
        assert np.abs(x - 1 / 3).max() < 0.02
        assert np.abs(y - 1 / 3).max() < 0.02

    def test_trivial_game(self):
        x, y = solve_fp([[0.5]], 5)
        assert x[0] == 1.0 and y[0] == 1.0

    def test_dominant_row(self):
        x, _ = solve_fp(np.array([[2.0, 2.0], [0.0, 0.0]]), 100)
        assert np.allclose(x, [1.0, 0.0])

    def test_exploitability_decreases_with_iters(self):
        rng = np.random.default_rng(41)
        M = rng.integers(-5, 6, (4, 4)).astype(float)
        _, _, v = solve_nash_lp(M)

        def regret(iters):
            x, y = solve_fp(M, iters)
            return ((M @ y).max() - x @ M @ y) + (x @ M @ y - (x @ M).min())

        assert regret(30_000) < regret(300)


def test_solve_dispatch():
    assert np.allclose(solve(np.zeros((4, 4)), Uniform())[0], 0.25)
    sr, _ = solve(RPS, Nash())
    assert np.allclose(sr, 1 / 3, atol=1e-9)
    sr, _ = solve(RPS, Prd(gamma=0.0, dt=1e-2, steps=200))
    assert np.allclose(sr, 1 / 3, atol=1e-9)
    sr, _ = solve(RPS, FictitiousPlay(iters=5000))
    assert np.abs(sr - 1 / 3).max() < 0.05


# ---------------------------------------------------------------------------
# extend_payoff


def rps_pure(action):
    dist = np.zeros(3)
    dist[action] = 1.0
    return TabularPolicy({"p0": dist, "p1": dist})


class TestExtendPayoff:
    game = make_game("matrix_game",
                     {"rows": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]})

    def test_single_entry(self):
        meta = extend_payoff(MetaGame(), self.game,
                             ([rps_pure(0)], [rps_pure(0)]))
        assert meta.payoff.tolist() == [[0.0]]

    def test_two_by_two(self):
        pops = ([rps_pure(0), rps_pure(1)], [rps_pure(0), rps_pure(1)])
        meta = extend_payoff(MetaGame(), self.game, pops)
        assert meta.payoff.tolist() == [[0.0, -1.0], [1.0, 0.0]]

    def test_existing_entries_not_recomputed(self):
        pops = ([rps_pure(0)], [rps_pure(0)])
        meta = extend_payoff(MetaGame(), self.game, pops)
        meta.payoff[0, 0] = 123.0  # sentinel: must survive extension
        pops = ([rps_pure(0), rps_pure(1)], [rps_pure(0), rps_pure(1)])
        grown = extend_payoff(meta, self.game, pops)
        assert grown.payoff[0, 0] == 123.0
        assert grown.payoff[1, 0] == 1.0

    def test_fill_order_independent_exact(self):
        pops = ([rps_pure(0), rps_pure(2)], [rps_pure(1), rps_pure(2)])
        a = extend_payoff(MetaGame(), self.game, pops)
        partial = extend_payoff(MetaGame(), self.game,
                                ([rps_pure(0)], [rps_pure(1)]))
        b = extend_payoff(partial, self.game, pops)
        assert np.array_equal(a.payoff, b.payoff)

    def test_monte_carlo_concentrates(self):
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        exact = expected_value(game, (uniform, uniform))[0]
        meta = extend_payoff(MetaGame(), game, ([uniform], [uniform]),
                             episodes=100_000, seed=12345)
        assert meta.payoff[0, 0] == pytest.approx(exact, abs=0.02)

    def test_monte_carlo_deterministic_per_entry_seed(self):
        game = make_game("kuhn_poker")
        uniform = TabularPolicy()
        a = extend_payoff(MetaGame(), game, ([uniform], [uniform]),
                          episodes=500, seed=7)
        b = extend_payoff(MetaGame(), game, ([uniform], [uniform]),
                          episodes=500, seed=7)
        assert a.payoff[0, 0] == b.payoff[0, 0]

    def test_cannot_shrink(self):
        meta = extend_payoff(MetaGame(), self.game,
                             ([rps_pure(0)], [rps_pure(0)]))
        with pytest.raises(SolverError):
            meta.grown_to(0, 0)
