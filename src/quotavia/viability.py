"""Threshold curves, viability-domain test, critical stock levels, regions.

The normative constraints are a minimum stock (``stock_floor``) and a
minimum total harvest (``harvest_floor``).  The functions here answer two
questions: can some recommendation keep both constraints satisfied forever
(the viability-domain test), and where do the qualitative phase regions that
drive rule-based control sit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .econ import (
    EconParams,
    Recruitment,
    _require_recommendation,
    _require_stock,
    harvest_curve,
    regime_codes,
    total_harvest,
    unmanaged_harvest,
)

__all__ = [
    "ViabilityBounds",
    "ViabilityVerdict",
    "CaseOrder",
    "CriticalLevels",
    "Region",
    "Maturity",
    "recommendation_ceiling",
    "recommendation_floor",
    "check_viability_domain",
    "critical_levels",
    "classify_region",
    "region_codes",
    "recruitment_meets_floor_flags",
    "catch_within_recruitment_flags",
    "PhaseBlock",
    "phase_blocks",
]

_SIGN_TOL = 1e-12
LEVELS_BRACKET = 1e-12   # critical_levels brackets its roots from this fraction of the capacity

# Grid points per block of phase_blocks.  A block's arrays, their lists and
# one row's formatted lines then take about 1 MB; blocks four times as large
# took more memory and no less time, which formatting the rows dominates.
_PHASE_BLOCK_POINTS = 1 << 12


@dataclass(frozen=True)
class ViabilityBounds:
    """Normative floors: minimum acceptable stock and total harvest."""

    stock_floor: float
    harvest_floor: float

    def __post_init__(self) -> None:
        if not self.stock_floor > 0.0:
            raise ValueError("stock_floor must be positive")
        if not self.harvest_floor > 0.0:
            raise ValueError("harvest_floor must be positive")


class Region(Enum):
    """Qualitatively distinguishable situations of the fishery."""

    R0_NON_BINDING = "R0"
    R1_GROWING_ABOVE_FLOOR = "R1"
    R2_GROWING_BELOW_FLOOR = "R2"
    R3_DECLINING_ABOVE_FLOOR = "R3"
    R4_DECLINING_BELOW_FLOOR = "R4"


# Bound once: a member lookup on the Enum class takes longer than a decision.
R0, R1, R2, R3, R4 = Region


class Maturity(Enum):
    EMERGING = "emerging"
    MATURE = "mature"


EMERGING, MATURE = Maturity


class CaseOrder(Enum):
    A_BELOW_B = "a<b"
    B_BELOW_A = "b<a"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ViabilityVerdict:
    """Outcome of the viability-domain test with per-condition margins.

    Conditions: (i) the harvest floor is attainable even without deviation
    costs, (ii) recruitment at the stock floor covers the harvest floor,
    (iii) a non-negative recommendation suffices at the stock floor.
    """

    viable: bool
    margin_floor_attainable: float
    margin_recruitment: float
    margin_admissible: float

    @property
    def conditions(self) -> tuple[bool, bool, bool]:
        return (
            self.margin_floor_attainable >= 0.0,
            self.margin_recruitment >= 0.0,
            self.margin_admissible >= 0.0,
        )


@dataclass(frozen=True)
class CriticalLevels:
    """Critical stock levels for the phase-plane discussion.

    ``a``: stock where the floor recommendation meets the unmanaged harvest
    (below it, asking for the floor yield no longer binds).  ``b < c``:
    stocks where recruitment equals the harvest floor.  Missing roots are
    ``None``.  ``crossings_below_b`` lists stocks below ``b`` where the
    stabilizing ceiling meets the unmanaged harvest (diagnostic only).
    """

    a: float | None
    b: float | None
    c: float | None
    case_order: CaseOrder
    crossings_below_b: tuple[float, ...] = field(default=())


def _binding_recommendation(params: EconParams, x: float, h: float) -> float:
    """``econ.binding_harvest(params, x, r) = h`` solved for ``r``, with no
    checks, so that it runs on floats and on 1-D columns alike."""
    wx = params.weight * x
    return ((h * (wx + params.beta_product) + params.cost_term) / wx
            - params.price_term / params.weight)


def _threshold_curve(params: EconParams, x: float, h: float) -> float:
    """:func:`_binding_recommendation` where the threshold curves are defined."""
    _require_stock(x)
    if params.unmanaged:
        raise ValueError("threshold curves undefined without deviation costs")
    return _binding_recommendation(params, x, h)


def recommendation_ceiling(params: EconParams, rec: Recruitment, x: float) -> float:
    """Largest recommendation whose negotiated harvest keeps the stock from
    declining at ``x``.  Negative means no admissible recommendation can
    stabilize the stock there."""
    return _threshold_curve(params, x, rec.rate(x))


def recommendation_floor(params: EconParams, bounds: ViabilityBounds, x: float) -> float:
    """Smallest recommendation whose negotiated harvest reaches the harvest
    floor at ``x``.  Strictly decreasing in the stock."""
    return _threshold_curve(params, x, bounds.harvest_floor)


def check_viability_domain(params: EconParams, rec: Recruitment,
                           bounds: ViabilityBounds) -> ViabilityVerdict:
    """Decide whether the region above the stock floor is a viability domain.

    True iff some recommendation path can keep both floors satisfied forever
    from any admissible start; all three conditions are evaluated at the
    stock floor, where they are binding.
    """
    x0 = bounds.stock_floor
    floor0 = recommendation_floor(params, bounds, x0)
    m1 = unmanaged_harvest(params, x0) - floor0
    m2 = rec.rate(x0) - bounds.harvest_floor
    m3 = max(floor0, recommendation_ceiling(params, rec, x0))
    return ViabilityVerdict(
        viable=(m1 >= 0.0 and m2 >= 0.0 and m3 >= 0.0),
        margin_floor_attainable=m1,
        margin_recruitment=m2,
        margin_admissible=m3,
    )


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_levels(params: EconParams, rec: Recruitment,
                    bounds: ViabilityBounds) -> CriticalLevels:
    """Locate the critical stock levels by bracketed bisection.

    The stabilizing ceiling is not monotone in general, so every root is
    bracketed on a structurally known interval before bisecting.  Missing
    roots (e.g. a harvest floor above the recruitment peak) come back as
    ``None`` rather than being silently filled in.
    """
    cap = 4.0 * rec.capacity
    tiny = rec.capacity * LEVELS_BRACKET

    def floor_minus_unmanaged(x: float) -> float:
        return recommendation_floor(params, bounds, x) - unmanaged_harvest(params, x)

    a: float | None = None
    if floor_minus_unmanaged(tiny) > 0.0 and floor_minus_unmanaged(cap) < 0.0:
        a = _bisect(floor_minus_unmanaged, tiny, cap)

    peak, top = rec.peak_stock, rec.peak_rate
    scale = max(abs(top), 1.0)

    def rate_minus_floor(x: float) -> float:
        return rec.rate(x) - bounds.harvest_floor

    b: float | None
    c: float | None
    if bounds.harvest_floor > top + 1e-12 * scale:
        b = c = None
    elif bounds.harvest_floor >= top - 1e-12 * scale:
        b = c = peak
    else:
        b = _bisect(rate_minus_floor, tiny, peak)
        c = _bisect(rate_minus_floor, peak, rec.capacity - tiny)

    if a is None or b is None or abs(a - b) <= 1e-9 or (b is not None and c is not None and abs(b - c) <= 1e-9):
        order = CaseOrder.DEGENERATE
    elif a < b:
        order = CaseOrder.A_BELOW_B
    else:
        order = CaseOrder.B_BELOW_A

    crossings: list[float] = []
    if b is not None and b > 2.0 * tiny:
        def ceiling_minus_unmanaged(x: float) -> float:
            return recommendation_ceiling(params, rec, x) - unmanaged_harvest(params, x)

        xs = [tiny + (b - tiny) * i / 64 for i in range(65)]
        prev_x, prev_f = xs[0], ceiling_minus_unmanaged(xs[0])
        for x in xs[1:]:
            f = ceiling_minus_unmanaged(x)
            if (prev_f > 0.0) != (f > 0.0):
                crossings.append(_bisect(ceiling_minus_unmanaged, prev_x, x))
            prev_x, prev_f = x, f

    return CriticalLevels(a=a, b=b, c=c, case_order=order,
                          crossings_below_b=tuple(crossings))


def classify_region(trend_sign: int, h: float, r: float,
                    bounds: ViabilityBounds) -> Region:
    """Phase region of the harvest ``h`` under the recommendation ``r``
    while the stock trend has the sign ``trend_sign``.

    The recommendation binds when ``h`` reaches ``r`` within ``_SIGN_TOL``
    (a NaN harvest never binds), and a non-binding recommendation wins over
    everything.  Zero trend counts as growing and a harvest on the floor as
    above it: both tie-breaks favour continuation over intervention.
    """
    if not h + _SIGN_TOL >= r:
        return R0
    above = h >= bounds.harvest_floor
    if trend_sign >= 0:
        return R1 if above else R2
    return R3 if above else R4


def region_codes(trend_sign: np.ndarray, h: np.ndarray, r: np.ndarray,
                 harvest_floor: np.ndarray) -> np.ndarray:
    """:func:`classify_region` of many cells at once, each cell's region as
    its index in ``Region`` (0 for R0 up to 4 for R4), from the same
    comparisons."""
    import numpy as np
    codes = np.where(h >= harvest_floor, 1, 2)            # R1 or R2
    codes += np.where(trend_sign >= 0, 0, 2)              # R3 or R4
    codes[~(h + _SIGN_TOL >= r)] = 0
    return codes


def recruitment_meets_floor_flags(params: EconParams, rec: Recruitment,
                                  bounds: ViabilityBounds, x: float) -> tuple[bool, bool]:
    """Two routes to "recommending the recruitment keeps the economy afloat".

    Left: threshold form, recruitment at ``x`` clears the floor
    recommendation.  Right: realized form, the negotiated harvest under the
    recruitment recommendation reaches the harvest floor.  Inside a
    viability domain the two agree.
    """
    rate = rec.rate(x)
    left = rate >= recommendation_floor(params, bounds, x)
    right = total_harvest(params, x, max(rate, 0.0)).h >= bounds.harvest_floor
    return left, right


def catch_within_recruitment_flags(params: EconParams, rec: Recruitment,
                                   x: float) -> tuple[bool, bool]:
    """Two routes to "recommending the recruitment does not erode the stock".

    Left: realized form, the negotiated harvest stays at or below the
    recruitment.  Right: threshold form, the recruitment is at least the
    unmanaged harvest (the recommendation does not bind).  The two agree;
    whenever both are false the stock declines under a recruitment-based
    recommendation.
    """
    rate = rec.rate(x)
    left = total_harvest(params, x, max(rate, 0.0)).h <= rate
    right = rate >= unmanaged_harvest(params, x)
    return left, right


class PhaseBlock(NamedTuple):
    """Phase-grid rows of consecutive stocks over the whole recommendation
    axis.  Per stock, as lists of floats: the stock ``x``, the unmanaged
    harvest, the stabilizing ceiling and the floor recommendation.  Per
    point, as arrays with one row per stock: the harvest ``h``, the
    ``regime`` (index in ``Regime``), the ``sign`` of recruitment minus
    harvest and the ``region`` (index in ``Region``)."""

    x: list[float]
    unmanaged: list[float]
    ceiling: list[float]
    floor: list[float]
    h: np.ndarray
    regime: np.ndarray
    sign: np.ndarray
    region: np.ndarray


def phase_blocks(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
                 xs, rs):
    """Yield the phase grid over the stocks ``xs`` and recommendations ``rs``
    as :class:`PhaseBlock` values of about ``_PHASE_BLOCK_POINTS`` points,
    and at least one stock's row, so memory stays bounded.

    The per-stock values come from the scalar functions, with their input
    checks: a non-positive stock, a negative recommendation or a fishery
    without deviation costs raises ``ValueError``.  The harvest, its regime
    and region equal the scalar solve's and :func:`classify_region`'s; the
    sign is 0 where recruitment and harvest balance within tolerance.
    Overflow at extreme stocks gives inf or NaN without a warning.
    """
    import numpy as np
    X = np.asarray(xs, dtype=float)
    R = np.asarray(rs, dtype=float)
    _require_recommendation(R.min(initial=0.0))     # a NaN among rs is the min
    rows = max(1, _PHASE_BLOCK_POINTS // max(R.size, 1))
    for lo in range(0, X.size, rows):
        x = X[lo:lo + rows].tolist()
        unmanaged = [unmanaged_harvest(params, v) for v in x]
        ceiling = [recommendation_ceiling(params, rec, v) for v in x]
        floor = [recommendation_floor(params, bounds, v) for v in x]
        rate = np.array([rec.rate(v) for v in x]).reshape(-1, 1)
        with np.errstate(all="ignore"):
            h = harvest_curve(params, x, R)
            gap = rate - h
            sign = np.where(np.abs(gap) <= _SIGN_TOL, 0, np.where(gap > 0.0, 1, -1))
            block = PhaseBlock(x, unmanaged, ceiling, floor, h,
                               regime_codes(params, x, R, h), sign,
                               region_codes(sign, h, R, bounds.harvest_floor))
        yield block
