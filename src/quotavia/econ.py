"""Two-group catch-quota negotiation: costs, Nash quotas, total harvest.

A scientific institution opens each negotiation round with a recommendation
``r`` for the total catch.  Two groups of fishing firms then pick individual
quotas, trading harvest profit against the political cost of pushing the
agreed total above the recommendation.  Everything in this module is a
closed-form evaluation of that game's unique Nash equilibrium under
non-negative quotas, plus the elementary ingredients (recruitment, profit)
it is built from.  The equilibrium has one scalar solve (``_nash_point``,
used in the simulation loop) and one array form of it (``harvest_curve``,
used on grids and lockstep sweeps), with the regime tags of a grid of
points beside it (``regime_codes``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "Regime",
    "EconParams",
    "Recruitment",
    "NegotiationOutcome",
    "unmanaged_harvest",
    "realized_unmanaged_harvest",
    "binding_harvest",
    "total_harvest",
    "harvest_level",
    "harvest_curve",
    "regime_codes",
    "profit",
]

# Absolute tolerance for regime-boundary comparisons on harvest quantities.
# Exact equality at a boundary resolves to the non-binding branch.
BOUNDARY_TOL = 1e-12


class Regime(Enum):
    """How the negotiated harvest relates to the recommendation.

    ``NON_BINDING``: no deviation cost applies (the recommendation covers
    the free catch, or the fishery is unmanaged) and the groups land their
    free catch, above ``BOUNDARY_TOL``.  ``BINDING``: the free catch would
    exceed the recommendation, and deviation costs shape an agreed total
    above ``BOUNDARY_TOL``.  ``SHUTDOWN_UNPROFITABLE``: even the free catch
    is at most ``BOUNDARY_TOL``.  ``SHUTDOWN_RESTRICTED``: the free catch is
    larger, but deviation costs pull the agreed total down to at most
    ``BOUNDARY_TOL``; that total need not be exactly 0 (see ``_nash_point``).
    """

    BINDING = "binding"
    NON_BINDING = "non_binding"
    SHUTDOWN_UNPROFITABLE = "shutdown_unprofitable"
    SHUTDOWN_RESTRICTED = "shutdown_restricted"


# Bound once: a member lookup on the Enum class costs about ten times a
# module-name lookup, and _nash_point returns a member per solve.
BINDING, NON_BINDING, SHUTDOWN_UNPROFITABLE, SHUTDOWN_RESTRICTED = Regime


@dataclass(frozen=True)
class EconParams:
    """Cost, deviation-cost and price parameters of the two fishing groups.

    Variable costs of group ``i`` are ``(alpha_i q + beta_i q**2) / x``:
    increasing in the catch ``q``, decreasing in the available stock ``x``.
    ``kappa_i`` weighs the quadratic cost a group incurs when the agreed
    total exceeds the recommendation; ``kappa_1 = kappa_2 = 0`` encodes a
    fishery without management.  ``price`` is the exogenous market price.
    The derived fields ``weight`` (the deviation weight), ``beta_product``,
    ``cost_term``, ``price_term`` and ``two_beta_i`` are computed once, on
    construction; they are not settable and ``==``, ``hash`` and ``repr``
    ignore them.
    """

    alpha_1: float
    alpha_2: float
    beta_1: float
    beta_2: float
    kappa_1: float
    kappa_2: float
    price: float
    weight: float = field(init=False, repr=False, compare=False)
    beta_product: float = field(init=False, repr=False, compare=False)
    cost_term: float = field(init=False, repr=False, compare=False)
    price_term: float = field(init=False, repr=False, compare=False)
    two_beta_1: float = field(init=False, repr=False, compare=False)
    two_beta_2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("alpha_1", "alpha_2", "beta_1", "beta_2", "kappa_1", "kappa_2", "price"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha_1", "alpha_2", "beta_1", "beta_2", "price"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("kappa_1", "kappa_2"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        b1, b2 = self.beta_1, self.beta_2   # the terms are set past the frozen __setattr__
        object.__setattr__(self, "weight", b1 * self.kappa_2 + b2 * self.kappa_1)
        object.__setattr__(self, "beta_product", b1 * b2)
        object.__setattr__(self, "cost_term", 0.5 * (self.alpha_1 * b2 + self.alpha_2 * b1))
        object.__setattr__(self, "price_term", 0.5 * (b1 + b2) * self.price)
        object.__setattr__(self, "two_beta_1", 2.0 * b1)
        object.__setattr__(self, "two_beta_2", 2.0 * b2)
        # the negotiation divides by both products: each must be a normal
        # float, so that a managed fishery never computes like an unmanaged one
        if not self.beta_product >= sys.float_info.min:
            raise ValueError("beta_1 * beta_2 must be a normal float")
        if not (self.unmanaged or self.weight >= sys.float_info.min):
            raise ValueError("beta_1 * kappa_2 + beta_2 * kappa_1 must be a normal "
                             "float unless both kappas are 0")

    @property
    def unmanaged(self) -> bool:
        """True when deviation costs vanish for both groups."""
        return self.kappa_1 == 0.0 and self.kappa_2 == 0.0


@dataclass(frozen=True)
class Recruitment:
    """Logistic stock growth ``growth * x * (1 - x / capacity)``.

    Zero at no stock and at ``capacity``, largest at ``peak_stock =
    capacity / 2``; the critical-level bisection relies on that shape.
    """

    growth: float
    capacity: float

    def __post_init__(self) -> None:
        if not self.growth > 0.0:
            raise ValueError("growth must be positive")
        if not self.capacity > 0.0:
            raise ValueError("capacity must be positive")
        # the hump must be representable: a peak that is a normal float, and
        # no overflow of growth * x for stocks up to capacity
        if not (self.peak_rate >= sys.float_info.min
                and self.growth * self.capacity <= sys.float_info.max):
            raise ValueError("peak recruitment must be a normal float "
                             "and growth * capacity finite")

    @property
    def peak_stock(self) -> float:
        """Stock level with the largest sustainable yield."""
        return 0.5 * self.capacity

    @property
    def peak_rate(self) -> float:
        """Largest recruitment rate (at ``peak_stock``)."""
        return self.rate(self.peak_stock)

    def rate(self, x: float) -> float:
        return self.growth * x * (1.0 - x / self.capacity)


class NegotiationOutcome(NamedTuple):
    """Equilibrium of one negotiation round: quotas, total catch, regime tag."""

    q_1: float
    q_2: float
    h: float
    regime: Regime


def _require_stock(x: float) -> None:
    if not x > 0.0:
        raise ValueError("stock must be positive")


def _require_recommendation(r: float) -> None:
    if not r >= 0.0:
        raise ValueError("recommendation must be non-negative")


def unmanaged_harvest(params: EconParams, x: float) -> float:
    """Total catch the two groups would agree on with zero deviation costs.

    This is the hard cap on any negotiated harvest.  A negative value means
    fishing is unprofitable at this stock level even without management.
    """
    _require_stock(x)
    return (params.price_term * x - params.cost_term) / params.beta_product


def realized_unmanaged_harvest(params: EconParams, x: float) -> float:
    """Catch an unmanaged fishery actually lands at stock ``x``.

    Groups whose own optimum is negative stay ashore, so this can exceed
    :func:`unmanaged_harvest` when cost parameters are strongly asymmetric.
    """
    _require_stock(x)
    px = params.price * x
    q1 = (px - params.alpha_1) / (2.0 * params.beta_1)
    q2 = (px - params.alpha_2) / (2.0 * params.beta_2)
    return max(q1, 0.0) + max(q2, 0.0)


def binding_harvest(params: EconParams, x: float, r: float) -> float:
    """Total harvest when the recommendation binds and both groups fish.

    Strictly increasing in both ``r`` and ``x``.  Undefined for a fishery
    without deviation costs.
    """
    _require_stock(x)
    _require_recommendation(r)
    if params.unmanaged:
        raise ValueError("binding harvest undefined without deviation costs")
    wx = params.weight * x
    return (params.price_term * x + wx * r - params.cost_term) / (params.beta_product + wx)


def _nash_point(params: EconParams, x: float, r: float) -> tuple[float, float, float, Regime]:
    """Constrained Nash equilibrium for stock ``x`` and recommendation ``r``.

    Solves the complementarity problem directly: quotas are clamped at zero
    and the remaining group's first-order condition is re-solved, so the
    result agrees with best-response iteration under q >= 0 everywhere.
    With both groups active this reduces to the standard four-branch total
    harvest function.
    """
    p = params.price
    b1, b2 = params.beta_1, params.beta_2
    k1, k2 = params.kappa_1, params.kappa_2
    gain1 = p * x - params.alpha_1
    gain2 = p * x - params.alpha_2
    opt1 = gain1 / (2.0 * b1)
    opt2 = gain2 / (2.0 * b2)
    free1 = opt1 if opt1 > 0.0 else 0.0
    free2 = opt2 if opt2 > 0.0 else 0.0
    free = free1 + free2
    w = params.weight

    if w == 0.0 or free <= r + BOUNDARY_TOL:
        if free <= BOUNDARY_TOL:
            return 0.0, 0.0, 0.0, SHUTDOWN_UNPROFITABLE
        return free1, free2, free, NON_BINDING

    # The agreed total will exceed r, so deviation costs shape the outcome.
    if opt1 >= 0.0 and opt2 >= 0.0:
        wx = w * x
        h = (0.5 * (b2 * gain1 + b1 * gain2) + wx * r) / (params.beta_product + wx)
        excess = h - r
        q1 = opt1 - k1 * x * excess / b1
        q2 = opt2 - k2 * x * excess / b2
        if q1 >= 0.0 and q2 >= 0.0:
            active = 0
        else:
            active = 2 if q1 < 0.0 else 1
    else:
        active = 1 if opt1 > 0.0 else 2

    # Remaining group's first-order condition with the other held at zero.
    if active == 1:
        q = (gain1 + 2.0 * k1 * x * r) / (2.0 * (b1 + k1 * x))
        q1 = h = q if q > 0.0 else 0.0
        q2 = 0.0
    elif active == 2:
        q = (gain2 + 2.0 * k2 * x * r) / (2.0 * (b2 + k2 * x))
        q2 = h = q if q > 0.0 else 0.0
        q1 = 0.0

    if h > BOUNDARY_TOL:
        return q1, q2, h, BINDING
    # Restricted shutdown: free fishing would land a catch above the
    # tolerance, but deviation costs pull the agreed total below it.  Rare,
    # yet reachable: EconParams(1, 1, 1, 1, 1e6, 1e6, 1) at x = 1 + 4e-12,
    # r = 0 gives free = 2e-12 and h = 2e-18.
    if free > BOUNDARY_TOL:
        return q1, q2, h, SHUTDOWN_RESTRICTED
    return q1, q2, h, SHUTDOWN_UNPROFITABLE


def total_harvest(params: EconParams, x: float, r: float) -> NegotiationOutcome:
    """Resolve one negotiation round at stock ``x``, recommendation ``r``.

    The returned total never exceeds what the groups would catch with no
    management at all; equality requires a non-binding recommendation.
    """
    _require_stock(x)
    _require_recommendation(r)
    return NegotiationOutcome(*_nash_point(params, x, r))


def harvest_level(params: EconParams, x: float, r: float) -> float:
    """Total negotiated harvest only, with the input checks of
    :func:`total_harvest`; for point-by-point searches that need no quotas
    or regime tag."""
    _require_stock(x)
    _require_recommendation(r)
    return _nash_point(params, x, r)[2]


# Grid points per row block of harvest_curve: a larger grid runs a few rows at a
# time, in buffers of one block, whose temporaries take about 450 KB, inside L2.
_BLOCK_POINTS = 1 << 14


def _free_catch(params: EconParams, X: np.ndarray):
    """Each group's gain and free optimum at the stocks ``X``, and the free
    catch, in the operation order of :func:`_nash_point`: a negative or NaN
    optimum adds 0, so the free catch is never NaN."""
    import numpy as np
    px = params.price * X
    gain1, gain2 = px - params.alpha_1, px - params.alpha_2
    opt1, opt2 = gain1 / params.two_beta_1, gain2 / params.two_beta_2
    free = np.where(opt1 > 0.0, opt1, 0.0) + np.where(opt2 > 0.0, opt2, 0.0)
    return gain1, gain2, opt1, opt2, free


def harvest_curve(params: EconParams, x_values, r_values) -> np.ndarray:
    """Negotiated total harvest: the array form of :func:`_nash_point`.

    Two call shapes run the one body, chosen by ``params``.  With scalar
    fields, as in ``EconParams``, the result is a grid, ``h[i, j]`` at stock
    ``x_values[i]`` and recommendation ``r_values[j]``.  With a 1-D column
    per entry of ``dataclasses.fields(EconParams)`` the points are paired,
    ``h[i]`` at ``x_values[i]`` and ``r_values[i]`` under entry ``i``'s
    parameters: one lockstep step of an ensemble (``engine.sweep``).

    Runs the same branches with the same operations, so every point equals
    the scalar solve bit for bit.  The scalar form stays for point-by-point
    loops, where one numpy call per point would cost tens of times more
    than the solve itself.  Grids run in blocks of ``_BLOCK_POINTS``.
    """
    import numpy as np
    pointwise = getattr(params.price, "ndim", 0) == 1   # not np.ndim: 1.7 us on a float
    X, R = np.asarray(x_values, dtype=float), np.asarray(r_values, dtype=float)
    if not pointwise:
        X, R = X.reshape(-1, 1), R.reshape(1, -1)
    b1, b2 = params.beta_1, params.beta_2
    k1, k2 = params.kappa_1, params.kappa_2
    gain1, gain2, opt1, opt2, free = _free_catch(params, X)
    # as in _nash_point, a free catch <= BOUNDARY_TOL lands 0
    landed = np.where(free > BOUNDARY_TOL, free, 0.0)
    # without deviation costs every point is non-deviating; free is never
    # NaN, so an infinite tolerance marks exactly those points
    r_tol = R + BOUNDARY_TOL
    r_tol[params.weight == 0.0] = np.inf
    wx = params.weight * X
    num = 0.5 * (b2 * gain1 + b1 * gain2)
    den = params.beta_product + wx
    kx1, kx2 = k1 * X, k2 * X
    both = (opt1 >= 0.0) & (opt2 >= 0.0)
    # a block: its rows of the terms, then its ufunc outputs (None: numpy allocates)
    terms = (X, gain1, gain2, opt1, opt2, free, landed, wx, num, den, kx1, kx2, both)
    rows = X.size if pointwise else max(1, _BLOCK_POINTS // max(R.size, 1))
    if X.size <= rows:
        out, blocks = None, [terms + (None,) * 6]
    else:
        out = np.empty((X.size, R.size))
        buffers = [np.empty((rows, R.size), kind) for kind in (float, float, bool, bool, bool)]
        blocks = ([t[lo:lo + rows] for t in (*terms, out)]  # lazy: a list ran verify 5% slower
                  + [b[:min(rows, len(out) - lo)] for b in buffers]
                  for lo in range(0, len(out), rows))
    for (X, gain1, gain2, opt1, opt2, free, landed, wx, num, den, kx1, kx2, both,
         h, q1, q2, nondev, interior, settled) in blocks:
        # interior branch, in the operation order of _nash_point; q2 holds
        # the excess over the recommendation until q1 is done
        h = np.multiply(wx, R, h)
        np.add(num, h, h)
        np.divide(h, den, h)
        q2 = np.subtract(h, R, q2)
        q1 = np.multiply(kx1, q2, q1)
        np.divide(q1, b1, q1)
        np.subtract(opt1, q1, q1)
        np.multiply(kx2, q2, q2)
        np.divide(q2, b2, q2)
        np.subtract(opt2, q2, q2)

        nondev = np.less_equal(free, r_tol, nondev)
        interior = np.greater_equal(q1, 0.0, interior)
        settled = np.greater_equal(q2, 0.0, settled)
        np.logical_and(interior, settled, interior)
        np.logical_and(interior, both, interior)
        np.copyto(h, landed, where=nondev)
        np.logical_or(nondev, interior, settled)
        if np.count_nonzero(settled) == settled.size:  # .all() takes 0.8 us more at 192 points
            continue

        # Points that are neither non-deviating nor interior: one group
        # fishes alone, picked as _nash_point picks ``active``.  Group 2 where
        # group 1's interior quota is negative, or where not both may fish
        # and group 1's free optimum is not positive; group 1 at every other
        # such point, a NaN interior quota included.  Each group's mask and
        # quota reuse spent temporaries, the quota the other group's one.
        rest = np.logical_not(settled, settled)
        np.copyto(h, 0.0, where=rest)
        solo2 = np.less(q1, 0.0, nondev)
        np.logical_and(solo2, both, solo2)
        np.logical_or(solo2, ~both & ~(opt1 > 0.0), solo2)  # or not both, group 1 idle
        np.logical_and(solo2, rest, solo2)
        solo1 = np.logical_xor(rest, solo2, interior)
        for solo, q, gain, kx, b, k in ((solo2, q1, gain2, kx2, b2, k2),
                                        (solo1, q2, gain1, kx1, b1, k1)):
            if solo.any():
                np.multiply(2.0 * k * X, R, q)
                np.add(gain, q, q)
                np.divide(q, 2.0 * (b + kx), q)
                np.logical_and(solo, q > 0.0, solo)  # else the 0.0 written above
                np.copyto(h, q, where=solo)
    return h if out is None else out


def regime_codes(params: EconParams, x_values, r_values, h) -> np.ndarray:
    """Regime tag of each point of :func:`harvest_curve`'s grid, as its index
    in ``Regime`` (0 for ``BINDING`` up to 3 for ``SHUTDOWN_RESTRICTED``).

    Takes the axes and ``params`` of a grid call of :func:`harvest_curve`,
    and ``h``, its result on them, and tags each point as :func:`_nash_point`
    does: a non-deviating point is ``NON_BINDING`` if its free catch lands
    above ``BOUNDARY_TOL``, else ``SHUTDOWN_UNPROFITABLE``; any other point
    is ``BINDING`` if ``h`` is above ``BOUNDARY_TOL``, else
    ``SHUTDOWN_RESTRICTED`` if its free catch is, else ``SHUTDOWN_UNPROFITABLE``.
    """
    import numpy as np
    X = np.asarray(x_values, dtype=float).reshape(-1, 1)
    R = np.asarray(r_values, dtype=float).reshape(1, -1)
    free = _free_catch(params, X)[-1]
    profitable = free > BOUNDARY_TOL
    nondev = (params.weight == 0.0) | (free <= R + BOUNDARY_TOL)
    shut = np.where(profitable, 3, 2)       # restricted, unprofitable
    codes = np.where(np.asarray(h).reshape(nondev.shape) > BOUNDARY_TOL, 0, shut)
    return np.where(nondev, np.where(profitable, 1, 2), codes)


def profit(params: EconParams, group: int, q_own: float, q_other: float,
           x: float, r: float) -> float:
    """Per-round profit of one group at a given quota allocation.

    The deviation term vanishes whenever the sum of quotas stays at or
    below the recommendation.
    """
    if group not in (1, 2):
        raise ValueError("group must be 1 or 2")
    _require_stock(x)
    _require_recommendation(r)
    if q_own < 0.0 or q_other < 0.0:
        raise ValueError("quotas must be non-negative")
    if group == 1:
        alpha, beta, kappa = params.alpha_1, params.beta_1, params.kappa_1
    else:
        alpha, beta, kappa = params.alpha_2, params.beta_2, params.kappa_2
    over = q_own + q_other - r
    deviation = kappa * over * over if over > 0.0 else 0.0
    return params.price * q_own - (alpha * q_own + beta * q_own * q_own) / x - deviation
