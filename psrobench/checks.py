"""Output checks. Every function returns a list of problems, one string per
failed check; the benchmark counts each one as a failed operation.

The expected results.csv layout is written out here rather than imported
from the engine, so a change to the engine's output format fails the check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os

import numpy as np

RESULTS_HEADER = "# gamepop-results-v1"
RESULTS_COLUMNS = ["iteration", "exploitability", "approx_exploitability",
                   "pop_size_p1", "pop_size_p2"]
DIST_TOL = 1e-9
EXPLOITABILITY_FLOOR = -1e-12
VALUE_TOL = 1e-9
NASH_TOL = 1e-8


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def exploitability_due(config: dict, t: int) -> bool:
    every = config["eval"]["exact_exploitability_every"]
    return bool(every) and (t % every == 0 or t == config["iterations"])


def check_results_csv(text: str, config: dict) -> list[str]:
    """results.csv has its version line, the expected columns and one
    complete row per iteration, with exploitability where it is due."""
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return ["results.csv: missing or wrong version line"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows or rows[0] != RESULTS_COLUMNS:
        return ["results.csv: wrong column header"]
    iterations = config["iterations"]
    body = rows[1:]
    problems = []
    if len(body) != iterations:
        problems.append(f"results.csv: {len(body)} rows for {iterations} "
                        "iterations")
    for t, row in enumerate(body, start=1):
        if len(row) != len(RESULTS_COLUMNS):
            problems.append(f"results.csv row {t}: {len(row)} fields")
            continue
        iteration, exploit, approx, size_p1, size_p2 = row
        if iteration != str(t):
            problems.append(f"results.csv row {t}: iteration {iteration!r}")
        if size_p1 != str(t + 1) or size_p2 != str(t + 1):
            problems.append(f"results.csv row {t}: population sizes "
                            f"{size_p1}, {size_p2}")
        if approx != "":
            problems.append(f"results.csv row {t}: unexpected approximate "
                            "exploitability")
        if not exploitability_due(config, t):
            if exploit != "":
                problems.append(f"results.csv row {t}: unexpected "
                                "exploitability")
            continue
        try:
            value = float(exploit)
        except ValueError:
            problems.append(f"results.csv row {t}: exploitability "
                            f"{exploit!r}")
            continue
        if not math.isfinite(value) or value < EXPLOITABILITY_FLOOR:
            problems.append(f"results.csv row {t}: exploitability {value!r}")
    return problems


def check_distribution(sigma, n: int, what: str) -> list[str]:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n,):
        return [f"{what}: shape {sigma.shape}, expected ({n},)"]
    if (not np.all(np.isfinite(sigma)) or sigma.min() < -DIST_TOL
            or abs(sigma.sum() - 1.0) > DIST_TOL):
        return [f"{what}: not a probability distribution"]
    return []


def read_payoff_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    _, rows, _, cols = lines[0].split()
    values = [[float(v) for v in line.split()] for line in lines[3:]]
    matrix = np.array(values, dtype=float).reshape(len(values), -1)
    if matrix.shape != (int(rows), int(cols)):
        raise ValueError(f"{path}: header says {rows}x{cols}, "
                         f"body is {matrix.shape}")
    return matrix


def check_psro_run(history, run_dir: str, config: dict) -> list[str]:
    """Checks shared by every PSRO workload, on the returned history and
    on the files the run wrote."""
    iterations = config["iterations"]
    problems = []
    with open(os.path.join(run_dir, "results.csv")) as fh:
        problems += check_results_csv(fh.read(), config)
    if len(history.records) != iterations:
        problems.append(f"history: {len(history.records)} records")
    for rec in history.records:
        size = rec.iteration + 1
        problems += check_distribution(rec.sigma_row, size,
                                       f"iteration {rec.iteration} sigma_row")
        problems += check_distribution(rec.sigma_col, size,
                                       f"iteration {rec.iteration} sigma_col")
        if (rec.exploitability is not None
                and not rec.exploitability >= EXPLOITABILITY_FLOOR):
            problems.append(f"iteration {rec.iteration}: exploitability "
                            f"{rec.exploitability!r}")
    shape = (iterations + 1, iterations + 1)
    payoff = np.asarray(history.meta.payoff)
    if payoff.shape != shape:
        problems.append(f"payoff matrix: shape {payoff.shape}, "
                        f"expected {shape}")
    elif not np.all(np.isfinite(payoff)) or not np.all(history.meta.filled):
        problems.append("payoff matrix: unfilled or non-finite entries")
    path = os.path.join(run_dir, f"payoff_matrix_{iterations}.txt")
    try:
        written = read_payoff_matrix(path)
    except (OSError, ValueError) as exc:
        problems.append(f"payoff matrix file: {exc}")
    else:
        if written.shape != payoff.shape or not np.array_equal(written,
                                                               payoff):
            problems.append("payoff matrix file differs from the history")
    return problems


def check_profile_value(history, expected_value, game) -> list[str]:
    """sigma_r M sigma_c of the final profile equals the exact expected value
    of the two mixtures, computed by traversal: two independent paths."""
    from gamepop.policies import PolicyMixture

    sigma_row, sigma_col = history.sigmas
    matrix_value = float(sigma_row @ history.meta.payoff @ sigma_col)
    traversal_value = expected_value(
        game, (PolicyMixture(history.populations[0], sigma_row),
               PolicyMixture(history.populations[1], sigma_col)))[0]
    if not abs(matrix_value - traversal_value) <= VALUE_TOL:
        return [f"final profile value: matrix {matrix_value!r}, "
                f"traversal {traversal_value!r}"]
    return []


def nash_gap(M, sigma_row, sigma_col) -> float:
    """max(M sigma_c) - min(sigma_r M): zero exactly at an equilibrium."""
    return float((M @ sigma_col).max() - (sigma_row @ M).min())


def check_nash(M, sigma_row, sigma_col) -> list[str]:
    """Certify an equilibrium independently of the solver: neither player
    gains more than NASH_TOL x scale by deviating from the profile."""
    M = np.asarray(M, dtype=float)
    rows, cols = M.shape
    problems = (check_distribution(sigma_row, rows, "nash sigma_row")
                + check_distribution(sigma_col, cols, "nash sigma_col"))
    if problems:
        return problems
    value = float(sigma_row @ M @ sigma_col)
    tol = NASH_TOL * max(1.0, float(np.abs(M).max()))
    row_gain = float((M @ sigma_col).max()) - value
    col_gain = value - float((sigma_row @ M).min())
    if not (row_gain <= tol and col_gain <= tol):
        return [f"nash {rows}x{cols}: deviation gains {row_gain!r}, "
                f"{col_gain!r} exceed {tol!r}"]
    return []
