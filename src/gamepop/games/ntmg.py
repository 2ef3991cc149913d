"""Continuous mixture game over seven Gaussian humps in the plane.

A policy is a point x with one value per hump: the Gaussian density of x
around centers evenly spaced on a circle. The payoff couples the two
players' density vectors through a fixed skew-symmetric 7x7 matrix and adds
half the difference of total densities (a transitive term rewarding
proximity to the humps); the whole payoff is antisymmetric.

``ntmg_weights`` additionally exposes the densities normalized to a
probability vector over humps, e.g. for reporting which hump a point
occupies. The payoff itself uses raw densities: normalizing them makes the
transitive term vanish identically and flattens the landscape so badly that
gradient ascent cannot travel between humps.
"""

from __future__ import annotations

import numpy as np

from ..specs import setting, spec
from .base import GameError

S_MATRIX = np.array([
    [0, 1, 1, 1, -1, -1, -1],
    [-1, 0, 1, 1, 1, -1, -1],
    [-1, -1, 0, 1, 1, 1, -1],
    [-1, -1, -1, 0, 1, 1, 1],
    [1, -1, -1, -1, 0, 1, 1],
    [1, 1, -1, -1, -1, 0, 1],
    [1, 1, 1, -1, -1, -1, 0],
], dtype=float)


@spec(GameError)
class NtmgConfig:
    """The plane game, declared by its parameters."""
    center_radius: float = setting(5.0, ge=0.0)
    # Neighboring centers sit ~2.9 sigma apart at this default: humps stay
    # distinct but the terrain between them keeps usable gradients.
    gaussian_sigma: float = setting(1.5, gt=0.0)
    plane_bound: float = setting(10.0, gt=0.0)

    def __post_init__(self):
        if self.center_radius > self.plane_bound:
            raise GameError("center_radius: must be <= plane_bound")

    def centers(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(7) / 7  # a hump per S_MATRIX row
        return self.center_radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)


def ntmg_densities(x, cfg: NtmgConfig) -> np.ndarray:
    """Per-hump Gaussian density of point x: exp(-|x - mu_k|^2 / 2 sigma^2)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    d2 = np.sum((cfg.centers() - x) ** 2, axis=1)
    return np.exp(-d2 / (2.0 * cfg.gaussian_sigma ** 2))


def ntmg_weights(x, cfg: NtmgConfig) -> np.ndarray:
    """Hump weights of point x normalized to a 7-simplex."""
    w = ntmg_densities(x, cfg)
    return w / w.sum()


def ntmg_payoff(x_i, x_neg, cfg: NtmgConfig) -> float:
    """Antisymmetric payoff d_i' S d_-i + (sum d_i - sum d_-i) / 2 over the
    players' raw hump densities."""
    d_i = ntmg_densities(x_i, cfg)
    d_n = ntmg_densities(x_neg, cfg)
    return float(d_i @ S_MATRIX @ d_n + 0.5 * (d_i.sum() - d_n.sum()))


def ntmg_densities_jacobian(x, cfg: NtmgConfig) -> np.ndarray:
    """d densities / d x, shape (7, 2)."""
    x = np.asarray(x, dtype=float)
    d = ntmg_densities(x, cfg)
    return d[:, None] * (cfg.centers() - x) / cfg.gaussian_sigma ** 2


def ntmg_payoff_grad(x_i, x_neg, cfg: NtmgConfig) -> np.ndarray:
    """Analytic gradient of ntmg_payoff with respect to x_i."""
    d_n = ntmg_densities(x_neg, cfg)
    coeff = S_MATRIX @ d_n + 0.5  # d payoff / d densities_i
    return ntmg_densities_jacobian(x_i, cfg).T @ coeff
