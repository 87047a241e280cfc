"""Randomized cross-verification suites.

Each suite checks one family of closed forms against an independent route:
the negotiation equilibrium against best-response iteration, the
viability-domain conditions against a brute-force existence search over
recommendation grids, and the two threshold biconditionals against realized
harvests.  The suites are deterministic given a seed and are shared between
the test suite and the ``verify`` command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .econ import (
    EconParams,
    Recruitment,
    binding_harvest,
    harvest_curve,
    harvest_level,
    profit,
    realized_unmanaged_harvest,
    total_harvest,
    unmanaged_harvest,
)
from .oracle import equilibrium
from .viability import (
    ViabilityBounds,
    catch_within_recruitment_flags,
    check_viability_domain,
    recommendation_floor,
    recruitment_meets_floor_flags,
)

__all__ = [
    "DEFAULT_SEED",
    "SuiteReport",
    "viability_existence_search",
    "nash_agreement_suite",
    "viability_domain_suite",
    "floor_biconditional_suite",
    "catch_cap_biconditional_suite",
    "monotonicity_suite",
    "run_all",
]

DEFAULT_SEED = 1729

_MARGIN_EPS = 1e-6  # instances closer than this to a condition boundary are resampled

# viability_existence_search grid: recommendations at the stock floor, and
# stocks above it up to _X_SPAN times the capacity
_R_POINTS = 4096
_X_POINTS = 64
_X_SPAN = 4.0
_INTERIOR_ATTEMPTS = 64  # parameter draws per _interior_params call


@dataclass(frozen=True)
class SuiteReport:
    name: str
    instances: int
    failures: int
    max_error: float
    elapsed: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.notes})" if self.notes else ""
        return (f"{status} {self.name}: {self.instances} instances, "
                f"{self.failures} failures, max error {self.max_error:.3e}, "
                f"{self.elapsed:.1f}s{extra}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    """A log-uniform draw on ``[lo, hi)``, or a list of ``size`` of them.
    The transform is libm's, through ``math``: numpy picks its ``exp`` loop
    by the CPU's vector extensions, and the loops differ in the last bit."""
    u = rng.uniform(math.log(lo), math.log(hi), size)
    return math.exp(u) if size is None else [math.exp(v) for v in u.tolist()]


def _random_params(rng: np.random.Generator) -> EconParams:
    return EconParams(*_log_uniform(rng, 0.1, 10.0, 7))


def _biased_params(rng: np.random.Generator, x: float) -> EconParams | None:
    """Random parameters with linear costs biased into profitability at ``x``
    (both groups' unconstrained optima non-negative)."""
    p = _log_uniform(rng, 0.1, 10.0)
    hi = min(10.0, 0.95 * p * x)
    if hi <= 0.1:
        return None
    a1, a2 = _log_uniform(rng, 0.1, hi, 2)
    b1, b2, k1, k2 = _log_uniform(rng, 0.1, 10.0, 4)
    return EconParams(a1, a2, b1, b2, k1, k2, p)


def _interior_params(rng: np.random.Generator, x: float) -> EconParams | None:
    for _ in range(_INTERIOR_ATTEMPTS):
        params = _biased_params(rng, x)
        if params is not None and _interior_negotiation(params, x):
            return params
    return None


def _interior_negotiation(params: EconParams, x: float) -> bool:
    """True when the equilibrium at ``x`` keeps both groups active for every
    recommendation, i.e. the quota clamp never engages.  The threshold
    biconditionals hold on exactly this set."""
    px = params.price * x
    opt1 = (px - params.alpha_1) / (2.0 * params.beta_1)
    opt2 = (px - params.alpha_2) / (2.0 * params.beta_2)
    if opt1 < 0.0 or opt2 < 0.0:
        return False
    if opt1 + opt2 <= 0.0:
        return True
    if params.unmanaged:
        return True
    h0 = binding_harvest(params, x, 0.0)
    if h0 <= 0.0:
        return True
    # deviation pressure is largest at r = 0
    return (opt1 - params.kappa_1 * x * h0 / params.beta_1 >= 0.0
            and opt2 - params.kappa_2 * x * h0 / params.beta_2 >= 0.0)


def viability_existence_search(params: EconParams, rec: Recruitment,
                               bounds: ViabilityBounds) -> bool:
    """Brute-force counterpart of the viability-domain conditions.

    At the stock floor, scan a recommendation grid for a harvest that clears
    the harvest floor without exceeding recruitment (with bracket refinement
    when the feasible window is narrower than the grid); at sampled stocks
    above the floor, only the harvest floor must be reachable.
    """
    import numpy as np
    x_lo, h_lo = bounds.stock_floor, bounds.harvest_floor
    r_top = 3.0 * max(unmanaged_harvest(params, x_lo), 1.0)
    r_grid = np.linspace(0.0, r_top, _R_POINTS)
    xs_above = np.linspace(x_lo, _X_SPAN * rec.capacity, _X_POINTS + 1)[1:]
    grid = harvest_curve(params, np.concatenate(([x_lo], xs_above)), r_grid)

    ceiling = rec.rate(x_lo)
    row = grid[0]
    ok_floor = bool(np.any((row >= h_lo) & (row <= ceiling)))
    if not ok_floor and row.max() >= h_lo and row.min() <= ceiling:
        idx = int(np.argmax(row >= h_lo))
        if idx > 0:
            lo, hi = float(r_grid[idx - 1]), float(r_grid[idx])
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if harvest_level(params, x_lo, mid) < h_lo:
                    lo = mid
                else:
                    hi = mid
            witness = harvest_level(params, x_lo, hi)
            ok_floor = h_lo - 1e-9 <= witness <= ceiling + 1e-12

    ok_above = bool(np.all(grid[1:].max(axis=1) >= h_lo))
    return ok_floor and ok_above


def _suite(name: str, seed: int, instances: int, trial) -> SuiteReport:
    """The sampling loop every suite shares.

    ``trial(rng)`` draws one instance from the suite's seeded stream and
    returns ``None`` to resample it, or ``(failed, error)``; the loop runs
    until ``instances`` draws count and reports the failures and the largest
    error among them.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    accepted = 0
    failures = 0
    max_error = 0.0
    while accepted < instances:
        outcome = trial(rng)
        if outcome is None:
            continue
        failed, error = outcome
        accepted += 1
        failures += failed
        max_error = max(max_error, error)
    return SuiteReport(name, accepted, failures, max_error, time.perf_counter() - start)


def _fishery(rng: np.random.Generator, lo: float, hi: float) -> tuple[Recruitment, float]:
    """A random logistic fishery and a stock at a uniform fraction in
    ``[lo, hi)`` of its capacity."""
    growth = _log_uniform(rng, 0.2, 5.0)
    capacity = _log_uniform(rng, 0.5, 8.0)
    return Recruitment(growth, capacity), capacity * float(rng.uniform(lo, hi))


def nash_agreement_suite(seed: int = DEFAULT_SEED,
                         instances: int = 1000) -> SuiteReport:
    """Closed-form negotiation vs best-response oracle on random instances,
    to a relative error of 1e-6.

    Also certifies each closed-form point as a Nash point (no profitable
    unilateral perturbation) and checks the harvest cap.
    """
    eps = 1e-4

    def trial(rng):
        params = _random_params(rng)
        x = _log_uniform(rng, 0.1, 10.0)
        cap = max(unmanaged_harvest(params, x), 0.0)
        r = float(rng.uniform(0.0, 2.0 * cap)) if cap > 0.0 else 0.0
        out = total_harvest(params, x, r)
        res = equilibrium(params, x, r)
        err = max(
            abs(out.h - (res.q_1 + res.q_2)) / max(1.0, abs(out.h)),
            abs(out.q_1 - res.q_1) / max(1.0, abs(out.q_1)),
            abs(out.q_2 - res.q_2) / max(1.0, abs(out.q_2)),
        )
        bad = (not res.converged) or err > 1e-6
        for group, own, other in ((1, out.q_1, out.q_2), (2, out.q_2, out.q_1)):
            base = profit(params, group, own, other, x, r)
            for candidate in (own + eps, max(own - eps, 0.0)):
                if profit(params, group, candidate, other, x, r) - base > 1e-8:
                    bad = True
        if out.h > max(realized_unmanaged_harvest(params, x), 0.0) + 1e-9:
            bad = True
        if _interior_negotiation(params, x) and out.h > max(cap, 0.0) + 1e-9:
            bad = True
        return bad, err

    return _suite("nash_agreement", seed, instances, trial)


def viability_domain_suite(seed: int = DEFAULT_SEED,
                            instances: int = 2000) -> SuiteReport:
    """Viability-domain conditions vs brute-force existence search.

    Instances are sampled inside the interior-negotiation regime and away
    from condition margins below 1e-6, where the equivalence is exact.
    """
    skipped = 0

    def trial(rng):
        nonlocal skipped
        rec, x_lo = _fishery(rng, 0.15, 0.9)
        params = _interior_params(rng, x_lo)
        if params is None:
            return None
        h_lo = rec.rate(x_lo) * _log_uniform(rng, 0.2, 1.4)
        if h_lo <= 0.0:
            return None
        bounds = ViabilityBounds(stock_floor=x_lo, harvest_floor=h_lo)
        verdict = check_viability_domain(params, rec, bounds)
        margins = (verdict.margin_floor_attainable, verdict.margin_recruitment,
                   verdict.margin_admissible)
        if min(abs(m) for m in margins) < _MARGIN_EPS:
            skipped += 1
            return None
        return viability_existence_search(params, rec, bounds) != verdict.viable, 0.0

    report = _suite("viability_domain_equivalence", seed, instances, trial)
    return replace(report, notes=f"{skipped} margin-resamples")


def floor_biconditional_suite(seed: int = DEFAULT_SEED,
                          instances: int = 10000) -> SuiteReport:
    """Threshold vs realized flags for economic viability of the
    recruitment recommendation, inside verified viability domains."""
    def trial(rng):
        rec, x_lo = _fishery(rng, 0.1, 0.7)
        params = _interior_params(rng, x_lo)
        if params is None:
            return None
        h_lo = rec.rate(x_lo) * float(rng.uniform(0.1, 0.95))
        if h_lo <= 0.0:
            return None
        bounds = ViabilityBounds(stock_floor=x_lo, harvest_floor=h_lo)
        if not check_viability_domain(params, rec, bounds).viable:
            return None
        x = float(rng.uniform(x_lo, rec.capacity))
        if not _interior_negotiation(params, x):
            return None
        rate_x = rec.rate(x)
        if abs(rate_x - recommendation_floor(params, bounds, x)) < 1e-9:
            return None
        if abs(harvest_level(params, x, max(rate_x, 0.0)) - h_lo) < 1e-9:
            return None
        left, right = recruitment_meets_floor_flags(params, rec, bounds, x)
        return left != right, 0.0

    return _suite("floor_biconditional", seed, instances, trial)


def catch_cap_biconditional_suite(seed: int = DEFAULT_SEED,
                          instances: int = 10000) -> SuiteReport:
    """Realized vs threshold flags for catch staying within recruitment."""
    def trial(rng):
        rec, x = _fishery(rng, 0.05, 0.95)
        # both groups profitable; a clamped group breaks the threshold form
        params = _biased_params(rng, x)
        if params is None:
            return None
        if abs(rec.rate(x) - unmanaged_harvest(params, x)) < 1e-9:
            return None
        left, right = catch_within_recruitment_flags(params, rec, x)
        return left != right, 0.0

    return _suite("catch_cap_biconditional", seed, instances, trial)


def monotonicity_suite(seed: int = DEFAULT_SEED, instances: int = 400) -> SuiteReport:
    """Slope signs, the binding-observability equivalence and regime-boundary
    continuity on random parameter draws."""
    def trial(rng):
        import numpy as np
        params = _random_params(rng)
        h_lo = _log_uniform(rng, 0.05, 2.0)
        bounds = ViabilityBounds(stock_floor=1.0, harvest_floor=h_lo)
        draws = sorted(_log_uniform(rng, 0.1, 10.0, 8))
        xs = draws[:1]
        for value in draws[1:]:         # keep grid spacing above rounding noise
            if value > xs[-1] * 1.001:
                xs.append(value)
        bad = False
        unman = [unmanaged_harvest(params, x) for x in xs]
        for x, u in zip(xs, unman):
            rs = np.linspace(0.0, 2.0 * max(u, 1.0), 8).tolist()
            hseq = [binding_harvest(params, x, r) for r in rs]
            if any(b <= a for a, b in zip(hseq, hseq[1:])):
                bad = True
            for r, h in zip(rs, hseq):
                gap = u - r
                if abs(gap) > 1e-9 * max(1.0, abs(u), r) and (gap > 0.0) != (h - r > 0.0):
                    bad = True
        r_fixed = 0.37
        hx = [binding_harvest(params, x, r_fixed) for x in xs]
        if any(b <= a for a, b in zip(hx, hx[1:])):
            bad = True
        if any(b <= a for a, b in zip(unman, unman[1:])):
            bad = True
        floors = [recommendation_floor(params, bounds, x) for x in xs]
        if any(b >= a for a, b in zip(floors, floors[1:])):
            bad = True
        x_mid = xs[len(xs) // 2]
        r_hat = unmanaged_harvest(params, x_mid)
        jump = 0.0
        if r_hat > 1e-3:
            delta = 1e-6
            jump = abs(harvest_level(params, x_mid, r_hat - delta)
                       - harvest_level(params, x_mid, r_hat + delta))
            if jump > 1e-4:
                bad = True
        return bad, jump

    return _suite("monotonicity", seed, instances, trial)


def run_all(seed: int = DEFAULT_SEED, instances: int | None = None) -> list[SuiteReport]:
    """Run every suite, the i-th at ``seed + i``; ``instances``, unless
    None, overrides each suite's default count."""
    counts = {} if instances is None else {"instances": instances}
    return [suite(seed + i, **counts) for i, suite in enumerate(
        (nash_agreement_suite, viability_domain_suite, floor_biconditional_suite,
         catch_cap_biconditional_suite, monotonicity_suite))]
