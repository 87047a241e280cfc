"""Brute-force verification of the negotiation equilibrium.

Best-response iteration with a grid scan plus golden-section refinement per
response.  Serves as the ground-truth oracle for the closed forms in
:mod:`quotavia.econ`; it never calls them.

The search settings are fixed: a 96-point quota scan on ``[0, q_max]``,
``q_max`` sized per instance to hold every group's unconstrained optimum,
golden-section refinement to 1e-10, and at most 400 sweeps to 1e-8.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .econ import EconParams, profit

__all__ = ["OracleResult", "best_response", "equilibrium"]

logger = logging.getLogger(__name__)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_RESOLUTION = 96          # quota grid points per best-response scan
_TOLERANCE = 1e-8         # outer fixed-point tolerance
_MAX_ITERATIONS = 400
_INNER_TOLERANCE = 1e-10  # golden-section quota tolerance


@dataclass(frozen=True)
class OracleResult:
    """Fixed point of the best-response iteration.

    ``residual`` is the last sweep's quota movement normalized by the quota
    scale (floored at 1), so ``converged`` always means
    ``residual < 1e-8`` regardless of the instance's magnitude.
    """

    q_1: float
    q_2: float
    converged: bool
    iterations: int
    residual: float


def _auto_q_max(params: EconParams, x: float) -> float:
    px = params.price * x
    opt1 = (px - params.alpha_1) / (2.0 * params.beta_1)
    opt2 = (px - params.alpha_2) / (2.0 * params.beta_2)
    return 2.0 * max(0.0, opt1, opt2, opt1 + opt2) + 1.0


def _golden_max(f, lo: float, hi: float) -> float:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > _INNER_TOLERANCE:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def best_response(params: EconParams, group: int, q_other: float, x: float,
                  r: float) -> float:
    """Most profitable own quota in ``[0, q_max]`` for a fixed rival quota.

    Coarse grid scan to bracket the maximum of the concave profit, then
    golden-section refinement inside the bracket.
    """
    import numpy as np
    if group not in (1, 2):
        raise ValueError("group must be 1 or 2")
    if not x > 0.0:
        raise ValueError("stock must be positive")
    if q_other < 0.0:
        raise ValueError("rival quota must be non-negative")
    q_max = _auto_q_max(params, x)
    if group == 1:
        alpha, beta, kappa = params.alpha_1, params.beta_1, params.kappa_1
    else:
        alpha, beta, kappa = params.alpha_2, params.beta_2, params.kappa_2

    grid = np.linspace(0.0, q_max, _RESOLUTION)
    over = np.maximum(grid + q_other - r, 0.0)
    profits = params.price * grid - (alpha * grid + beta * grid * grid) / x - kappa * over * over
    best = int(np.argmax(profits))

    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < _RESOLUTION - 1 else grid[-1]
    own = lambda q: profit(params, group, q, q_other, x, r)
    candidate = _golden_max(own, lo, hi)
    # One parabolic vertex fit with samples spaced above the float noise of
    # the flat profit peak; golden section alone stalls there on large quotas.
    spacing = 1e-5 * max(1.0, candidate)
    if candidate - spacing >= 0.0:
        f0 = own(candidate)
        fm = own(candidate - spacing)
        fp = own(candidate + spacing)
        curvature = fp + fm - 2.0 * f0
        if curvature < 0.0:
            vertex = candidate - 0.5 * spacing * (fp - fm) / curvature
            if 0.0 <= vertex <= candidate + 10.0 * spacing:
                candidate = vertex
    # Staying ashore (deviation costs run on regardless) may still be best.
    if own(candidate) <= own(0.0):
        if profits[best] <= 0.0:
            logger.debug("profit non-positive on the whole quota grid; responding 0")
        return 0.0
    return float(candidate)


def _aitken(x0: float, x1: float, x2: float, hi: float) -> float:
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-14 * max(abs(x2), 1.0):
        return x2
    accel = x2 - (x2 - x1) ** 2 / denom
    return min(max(accel, 0.0), hi)


def equilibrium(params: EconParams, x: float, r: float) -> OracleResult:
    """Alternating best-response iteration from (0, 0).

    The contraction factor degrades when deviation weights dominate cost
    curvature, so the iteration gets a periodic Aitken extrapolation; a
    plain best-response sweep still has to meet the tolerance before the
    result counts as converged.  Non-convergence is reported, never raised.
    """
    if not x > 0.0:
        raise ValueError("stock must be positive")
    if r < 0.0:
        raise ValueError("recommendation must be non-negative")
    q_max = _auto_q_max(params, x)

    q1 = q2 = 0.0
    history: list[tuple[float, float]] = []
    residual = math.inf
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        n1 = best_response(params, 1, q2, x, r)
        n2 = best_response(params, 2, n1, x, r)
        scale = max(1.0, abs(n1), abs(n2))
        residual = max(abs(n1 - q1), abs(n2 - q2)) / scale
        q1, q2 = n1, n2
        if residual < _TOLERANCE:
            return OracleResult(float(q1), float(q2), True, iterations, residual)
        history.append((q1, q2))
        if len(history) >= 3 and iterations % 8 == 0:
            (a1, a2), (b1, b2), (c1, c2) = history[-3:]
            q1 = _aitken(a1, b1, c1, q_max)
            q2 = _aitken(a2, b2, c2, q_max)
            history.clear()
    return OracleResult(q1, q2, False, iterations, residual)
