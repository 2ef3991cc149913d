"""Restricted-game payoff management and meta-strategy solvers.

The payoff matrix M holds the row player's expected utility for each pair of
population members; the column player's utility is -M. Solvers return a pair
of mixed strategies over rows and columns.

The zero-sum Nash solver is a dense tableau simplex with Bland's rule: small
meta-games reward exactness and zero dependencies over sparse sophistication.
The tableau is compact: it keeps only the nonbasic columns and the right-hand
side, and a pivot puts the leaving variable's column in the entering one's
slot. Each pivot is a few whole-array operations: the entering column is the
improving one with the lowest variable id, the ratio test divides every
eligible row at once and takes the least ratio by one argmin, falling back to
a row-order scan whenever another ratio lies near enough to tie, and the
elimination is one rank-1 update of every row but the leaving one. Every
entry it keeps comes from the same products and differences as a row-by-row
update of the full tableau, slack identity included, and a row with a zero
in the entering column keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .games import expected_value, play_episode
from .policies import sample_member
from .specs import setting, spec


class SolverError(Exception):
    pass


# ---------------------------------------------------------------------------
# Meta-game payoff matrix with lazy completion


class MetaGame:
    def __init__(self, payoff=None, filled=None):
        if payoff is None:
            self.payoff = np.zeros((0, 0))
            self.filled = np.zeros((0, 0), dtype=bool)
        else:
            self.payoff = np.array(payoff, dtype=float)
            self.filled = (np.ones(self.payoff.shape, dtype=bool)
                           if filled is None else np.array(filled, dtype=bool))

    @property
    def row_count(self) -> int:
        return self.payoff.shape[0]

    @property
    def col_count(self) -> int:
        return self.payoff.shape[1]

    def grown_to(self, rows: int, cols: int) -> "MetaGame":
        """A copy enlarged to (rows, cols); new entries are unfilled."""
        if rows < self.row_count or cols < self.col_count:
            raise SolverError("meta-game cannot shrink")
        payoff = np.zeros((rows, cols))
        filled = np.zeros((rows, cols), dtype=bool)
        payoff[:self.row_count, :self.col_count] = self.payoff
        filled[:self.row_count, :self.col_count] = self.filled
        return MetaGame(payoff, filled)


def monte_carlo_value(game, profile, episodes: int, rng: np.random.Generator,
                      player: int = 0) -> float:
    """Mean sampled return of `player`; a mixture in the profile is sampled
    once per playthrough."""
    total = 0.0
    for _ in range(episodes):
        members = (sample_member(profile[0], rng),
                   sample_member(profile[1], rng))
        total += play_episode(game, members, rng)[player]
    return total / episodes


def extend_payoff(meta: MetaGame, game, pops, episodes: int | None = None,
                  seed: int = 0) -> MetaGame:
    """Fill every empty entry of the meta-game for the given populations.

    Entries are exact when `episodes` is None, otherwise the mean return of
    that many sampled episodes. Entries are evaluated independently
    (per-entry seeds drawn from `seed`), so any fill order produces the same
    matrix; existing entries are never recomputed.

    Exact entries take one `expected_value` walk per new row, against the
    columns it lacks, and then one per column that still lacks entries,
    against those rows; each entry equals its own walk's bit for bit.
    """
    if episodes is not None:
        return fill_payoff(meta, pops, lambda r, c: monte_carlo_value(
            game, (pops[0][r], pops[1][c]), episodes,
            np.random.default_rng([seed, r, c])))
    out = meta.grown_to(len(pops[0]), len(pops[1]))
    for r in range(meta.row_count, out.row_count):
        cols = np.flatnonzero(~out.filled[r])
        if cols.size:
            out.payoff[r, cols] = expected_value(
                game, (pops[0][r], [pops[1][c] for c in cols]))[0]
            out.filled[r, cols] = True
    for c in range(out.col_count):
        rows = np.flatnonzero(~out.filled[:, c])
        if rows.size:
            out.payoff[rows, c] = expected_value(
                game, ([pops[0][r] for r in rows], pops[1][c]))[0]
            out.filled[rows, c] = True
    return out


def fill_payoff(meta: MetaGame, pops, entry) -> MetaGame:
    """Fill every empty entry (r, c) of the meta-game with ``entry(r, c)``,
    the row player's value of ``pops[0][r]`` against ``pops[1][c]``."""
    rows, cols = len(pops[0]), len(pops[1])
    out = meta.grown_to(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if not out.filled[r, c]:
                out.payoff[r, c] = entry(r, c)
                out.filled[r, c] = True
    return out


# ---------------------------------------------------------------------------
# Zero-sum Nash via the simplex method

_ENTER_EPS = 1e-9  # reduced-cost threshold (matrix is scaled to O(1))
_PIVOT_EPS = 1e-9  # smaller pivots amplify roundoff catastrophically
_NE_TOL = 1e-8


def _scan_leaving_row(eligible: np.ndarray, ratios: np.ndarray,
                      basis: np.ndarray) -> int:
    """Bland's ratio test as one scan in row order: a ratio more than 1e-12
    below the running minimum wins, and one within 1e-12 of it wins if its
    basis id is lower. -1 if no row is eligible."""
    leaving, best_ratio = -1, np.inf
    for i, ratio in zip(eligible.tolist(), ratios.tolist()):
        if (ratio < best_ratio - 1e-12
                or (ratio < best_ratio + 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving]))):
            best_ratio = min(best_ratio, ratio)
            leaving = i
    return leaving


def _leaving_row(eligible: np.ndarray, ratios: np.ndarray,
                 basis: np.ndarray) -> int:
    """The row `_scan_leaving_row` picks, by one argmin where no other ratio
    can tie. The scan reaches the least ratio m with a running minimum of at
    least the second-least ratio r2, takes m if it lies more than 1e-12
    below, and then keeps it unless a later ratio lies below m + 1e-12.
    Both hold when ``m < r2 - 1e-12`` in the scan's own floating-point
    arithmetic: rounding is monotonic, so r2 - 1e-12 > m holds exactly and
    r2 cannot lie below the rounded m + 1e-12. The test therefore holds at
    every magnitude (above about 1e4 the window is under one ulp); NaN
    fails it and goes to the scan."""
    if ratios.size == 0:
        return -1
    k = int(ratios.argmin())
    runner_up = np.partition(ratios, 1)[1] if ratios.size > 1 else np.inf
    if ratios[k] < runner_up - 1e-12:
        return int(eligible[k])
    return _scan_leaving_row(eligible, ratios, basis)


def _simplex_packing(A: np.ndarray, b: np.ndarray):
    """max 1'y s.t. Ay <= b, y >= 0 (A > 0, b > 0) by compact tableau simplex
    with Bland's rule. Returns (y, duals) or None if it stalls.

    Variables 0..cols-1 are y and cols..cols+rows-1 the slacks. The tableau
    holds the nonbasic columns (``nonbasic`` names each one's variable) and
    the right-hand side; the slack identity of the full tableau is implicit.
    It reproduces the full tableau bit for bit because no entry is ever
    -0.0: A > 0, b > 0, the objective row starts at -1.0 and every other
    entry at +0.0, a division by a positive pivot gives -0.0 only from
    -0.0 (or by underflow, far below any entry an O(1) tableau holds), and
    an update t - c*r gives -0.0 only if t is -0.0. So every basic column
    of the full tableau is an exact unit vector of +0.0 and 1.0. A pivot
    resets the entering slot to the leaving variable's unit vector and then
    applies the same row divide and rank-1 update, so each kept entry comes
    from the same operations; the entering variable's column, which the
    full tableau turns into a unit vector, is dropped. For the same reason
    the sign of a zero product c*r never shows, so the products may come
    from `np.einsum`, which writes +0.0 where c*r is -0.0 and is faster
    than a broadcast multiply.
    """
    rows, cols = A.shape
    T = np.zeros((rows + 1, cols + 1))
    T[:rows, :cols] = A
    T[:rows, -1] = b
    T[rows, :cols] = -1.0
    nonbasic = np.arange(cols)
    basis = np.arange(cols, cols + rows)
    objective = T[rows, :-1]
    col = np.empty(rows + 1)
    outer = np.empty_like(T)

    for _ in range(200 * (rows + cols)):
        improving = (objective < -_ENTER_EPS).nonzero()[0]
        if improving.size == 0:
            y = np.zeros(cols)
            structural = basis < cols
            y[basis[structural]] = T[:rows, -1][structural]
            duals = np.zeros(rows)
            slack = nonbasic >= cols
            duals[nonbasic[slack] - cols] = objective[slack]
            return y, duals
        # Bland: the improving column with the lowest variable id
        slot = int(improving[nonbasic[improving].argmin()])
        np.copyto(col, T[:, slot])
        eligible = (col[:rows] > _PIVOT_EPS).nonzero()[0]
        leaving = _leaving_row(eligible, T[eligible, -1] / col[eligible],
                               basis)
        if leaving < 0:
            return None  # no usable pivot: numerically stalled
        T[:, slot] = 0.0
        T[leaving, slot] = 1.0
        T[leaving] /= col[leaving]
        # One rank-1 update of every row but the leaving one. A row with a
        # zero in the entering column keeps its bits: that zero is +0.0, its
        # products are zeros, and t - 0.0 == t for every finite t.
        np.einsum("i,j->ij", col, T[leaving], out=outer)
        np.subtract(T[:leaving], outer[:leaving], out=T[:leaving])
        np.subtract(T[leaving + 1:], outer[leaving + 1:], out=T[leaving + 1:])
        nonbasic[slot], basis[leaving] = basis[leaving], nonbasic[slot]
    return None


def _certify(M, sigma_row, sigma_col, value) -> bool:
    scale = max(1.0, float(np.abs(M).max()))
    return ((M @ sigma_col).max() <= value + _NE_TOL * scale
            and (sigma_row @ M).min() >= value - _NE_TOL * scale)


def _equalizing_strategy(A: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Least-squares q with A q = v 1 and sum q = 1; None if infeasible."""
    m, n = A.shape
    lhs = np.zeros((m + 1, n + 1))
    lhs[:m, :n] = A
    lhs[:m, n] = -1.0
    lhs[m, :n] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    q, v = sol[:n], float(sol[n])
    if q.min() < -1e-7:
        return None
    q = np.maximum(q, 0.0)
    return q / q.sum(), v


def _polish_on_support(M, sigma_row, sigma_col):
    """Re-solve the equalizing equations on the simplex-found support;
    recovers machine accuracy lost to degenerate pivoting."""
    rows = np.where(sigma_row > 1e-9)[0]
    cols = np.where(sigma_col > 1e-9)[0]
    sub = M[np.ix_(rows, cols)]
    col_solution = _equalizing_strategy(sub)
    row_solution = _equalizing_strategy(-sub.T)
    if col_solution is None or row_solution is None:
        return None
    q_sub, value = col_solution
    p_sub, _ = row_solution
    sigma_row = np.zeros(M.shape[0])
    sigma_row[rows] = p_sub
    sigma_col = np.zeros(M.shape[1])
    sigma_col[cols] = q_sub
    value = float(sigma_row @ M @ sigma_col)
    if not _certify(M, sigma_row, sigma_col, value):
        return None
    return sigma_row, sigma_col, value


def _nash_from_packing(M, offset, y, duals):
    total = y.sum()
    dual_total = duals.sum()
    if total <= 0 or dual_total <= 0:
        return None
    sigma_col = np.maximum(y, 0.0)
    sigma_col /= sigma_col.sum()
    sigma_row = np.maximum(duals, 0.0)
    sigma_row /= sigma_row.sum()
    value = 1.0 / total - offset
    if _certify(M, sigma_row, sigma_col, value):
        return sigma_row, sigma_col, float(value)
    return _polish_on_support(M, sigma_row, sigma_col)


def _dedup_indices(vectors: np.ndarray, tol: float) -> list[int]:
    """First-occurrence indices of rows distinct beyond `tol` (max norm)."""
    kept: list[int] = []
    for i in range(vectors.shape[0]):
        if (np.abs(vectors[kept] - vectors[i]).max(axis=1) > tol).all():
            kept.append(i)
    return kept


def _checked(M) -> np.ndarray:
    """`M` as a float array, if it is a non-empty 2-D finite matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0 or not np.isfinite(M).all():
        raise SolverError("payoff matrix must be 2D, non-empty and finite")
    return M


def solve_nash_lp(M) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact Nash equilibrium of the zero-sum matrix game M.

    Returns (sigma_row, sigma_col, game value for the row player). The
    matrix is offset to be strictly positive, the column player's packing LP
    ``max 1'y  s.t.  M'y <= 1, y >= 0`` is solved by a dense simplex with
    Bland's rule, and the row strategy is read off the optimal duals. The
    result is certified against the no-profitable-deviation conditions.

    Population matrices are often massively degenerate (near-identical
    strategies); duplicates are collapsed onto their first occurrence before
    solving, which changes neither the value nor the deviation bounds, and a
    deterministic right-hand-side perturbation handles remaining ties.
    """
    M = _checked(M)
    rows, cols = M.shape
    scale = float(np.abs(M).max())
    Mw = M / scale if scale > 0 else M

    row_keep = _dedup_indices(Mw, 1e-9)
    col_keep = _dedup_indices(Mw.T, 1e-9)
    Mr = Mw[np.ix_(row_keep, col_keep)]
    offset = 1.0 - Mr.min()
    A = Mr + offset

    for perturbation in (0.0, 1e-7, 1e-5):
        b = 1.0 + perturbation * np.arange(1, len(row_keep) + 1)
        solved = _simplex_packing(A, b)
        if solved is None:
            continue
        result = _nash_from_packing(Mr, offset, *solved)
        if result is None:
            continue
        sub_row, sub_col, value = result
        sigma_row = np.zeros(rows)
        sigma_row[row_keep] = sub_row
        sigma_col = np.zeros(cols)
        sigma_col[col_keep] = sub_col
        return sigma_row, sigma_col, value * (scale if scale > 0 else 1.0)
    raise SolverError("simplex failed to certify a Nash equilibrium")


# ---------------------------------------------------------------------------
# Projected replicator dynamics


def _floored_simplex_projector(n: int, floor: float):
    """``project(v, out)``: the Euclidean projection of ``v`` onto
    {x in R^n : sum x = 1, x >= floor}, written to ``out``, for a floor
    below 1/n. Every call reuses the same buffers and makes the same
    floating-point operations as the textbook form

        u = v - floor;  srt = sort(u) descending;  css = cumsum(srt) - target
        rho = max{i : srt[i-1] - css[i-1] / i > 0};  tau = css[rho-1] / rho
        out = max(u - tau, 0) + floor
    """
    # Scalars as 0-d arrays: ufuncs take them with less overhead than
    # Python floats, and the float64 arithmetic is the same.
    target = np.array(1.0 - n * floor)
    floor, zero = np.array(floor), np.array(0.0)
    idx = np.arange(1.0, n + 1)  # exact, so css / idx divides as by ints
    u, ascending, srt = np.empty(n), np.empty(n), np.empty(n)
    css, gap = np.empty(n), np.empty(n)
    positive = np.empty(n, dtype=bool)

    def project(v: np.ndarray, out: np.ndarray) -> None:
        np.subtract(v, floor, out=u)
        np.copyto(ascending, u)
        ascending.sort()
        np.copyto(srt, ascending[::-1])
        np.add.accumulate(srt, out=css)
        np.subtract(css, target, out=css)
        np.divide(css, idx, out=gap)
        np.subtract(srt, gap, out=gap)
        np.greater(gap, zero, out=positive)
        # rho is the 1-based index of the last True (0 if none): one argmax
        # on the buffer reversed
        last = int(positive[::-1].argmax())
        rho = n - last if positive[n - 1 - last] else 0
        tau = css[rho - 1] / rho
        np.subtract(u, tau, out=out)
        np.maximum(out, zero, out=out)
        np.add(out, floor, out=out)

    return project


def solve_prd(M, gamma: float, dt: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Discretized replicator dynamics with an exploration floor.

    Both strategies start uniform; each Euler step is followed by projection
    onto the simplex with every coordinate >= gamma. The steps run in place
    in buffers allocated once, with each element's operations in the order
    of ``x + dt * x * (payoffs - value)``.
    """
    M = np.asarray(M, dtype=float)
    rows, cols = M.shape
    if not (0 <= gamma < 1.0 / max(rows, cols)):
        raise SolverError("gamma must lie in [0, 1/num_actions)")
    if dt <= 0 or steps < 1:
        raise SolverError("dt must be positive and steps >= 1")
    x = np.full(rows, 1.0 / rows)
    y = np.full(cols, 1.0 / cols)
    neg_mt = -M.T
    project_row = _floored_simplex_projector(rows, gamma)
    project_col = _floored_simplex_projector(cols, gamma)
    row_payoffs, x_next = np.empty(rows), np.empty(rows)
    col_payoffs, y_next = np.empty(cols), np.empty(cols)
    dt = np.array(dt)  # 0-d, as in the projector
    for _ in range(steps):
        np.matmul(M, y, out=row_payoffs)
        np.matmul(neg_mt, x, out=col_payoffs)
        value = x @ row_payoffs
        np.multiply(x, dt, out=x_next)
        row_payoffs -= value
        x_next *= row_payoffs
        x_next += x
        np.multiply(y, dt, out=y_next)
        col_payoffs += value
        y_next *= col_payoffs
        y_next += y
        project_row(x_next, x)
        project_col(y_next, y)
    return x, y


# ---------------------------------------------------------------------------
# Fictitious play


def solve_fp(M, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Alternating best-response counting; returns empirical mixtures.

    The row player opens against a uniform assumption; thereafter each side
    best-responds to the opponent's empirical play so far.
    """
    M = np.asarray(M, dtype=float)
    if iters < 1:
        raise SolverError("iters must be >= 1")
    rows, cols = M.shape
    row_counts = np.zeros(rows)
    col_counts = np.zeros(cols)
    for t in range(iters):
        if t == 0:
            col_freq = np.full(cols, 1.0 / cols)
        else:
            col_freq = col_counts / col_counts.sum()
        row_counts[int(np.argmax(M @ col_freq))] += 1.0
        row_freq = row_counts / row_counts.sum()
        col_counts[int(np.argmin(row_freq @ M))] += 1.0
    return row_counts / row_counts.sum(), col_counts / col_counts.sum()


# ---------------------------------------------------------------------------
# Meta-strategy solver kinds and dispatch


@spec(SolverError)
class Nash:
    pass


@spec(SolverError)
class Uniform:
    pass


@spec(SolverError)
class Prd:
    gamma: float = setting(1e-3, ge=0.0)
    dt: float = setting(1e-3, gt=0.0)
    steps: int = setting(100_000, ge=1)


@spec(SolverError)
class FictitiousPlay:
    iters: int = setting(30_000, ge=1)


def solve(M, kind) -> tuple[np.ndarray, np.ndarray]:
    """Compute a meta-strategy pair from the payoff matrix; SolverError,
    for every kind, unless it is a non-empty 2-D finite matrix."""
    M = _checked(M)
    if isinstance(kind, Uniform):
        rows, cols = M.shape
        return np.full(rows, 1.0 / rows), np.full(cols, 1.0 / cols)
    if isinstance(kind, Nash):
        sigma_row, sigma_col, _ = solve_nash_lp(M)
        return sigma_row, sigma_col
    if isinstance(kind, Prd):
        return solve_prd(M, kind.gamma, kind.dt, kind.steps)
    if isinstance(kind, FictitiousPlay):
        return solve_fp(M, kind.iters)
    raise SolverError(f"unknown meta-strategy solver {kind!r}")
