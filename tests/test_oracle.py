"""Best-response oracle: fixed points, search behaviour, configuration."""

import numpy as np
import pytest

from quotavia import EconParams, best_response, equilibrium, total_harvest
from quotavia.oracle import _TOLERANCE


def test_best_response_fixed_point(symmetric_params):
    # at the equilibrium quota the best response reproduces it
    q = best_response(symmetric_params, 1, 1 / 6, 1.0, 0.0)
    assert q == pytest.approx(1 / 6, abs=1e-8)


def test_best_response_unconstrained_optimum(symmetric_params):
    q = best_response(symmetric_params, 1, 0.0, 1.0, 10.0)
    assert q == pytest.approx(0.5, abs=1e-8)


def test_best_response_unprofitable_stock(symmetric_params):
    # below break-even no quota level pays
    assert best_response(symmetric_params, 1, 0.0, 0.4, 1.0) == 0.0
    assert best_response(symmetric_params, 2, 0.7, 0.3, 0.0) == 0.0


def test_best_response_minimizes_loss_under_rival_overshoot(symmetric_params):
    # with the rival already above the recommendation even q=0 pays deviation
    # costs, so the best response is interior despite negative profit
    q = best_response(symmetric_params, 2, 0.25, 1.0, 0.0)
    assert q == pytest.approx(0.125, abs=1e-8)


def test_equilibrium_binding(symmetric_params):
    res = equilibrium(symmetric_params, 1.0, 0.0)
    assert res.converged
    assert res.residual <= _TOLERANCE
    assert res.q_1 == pytest.approx(1 / 6, abs=1e-7)
    assert res.q_2 == pytest.approx(1 / 6, abs=1e-7)
    assert res.q_1 + res.q_2 == pytest.approx(1 / 3, abs=1e-7)


def test_equilibrium_non_binding(symmetric_params):
    res = equilibrium(symmetric_params, 1.0, 2.0)
    assert res.converged
    assert (res.q_1, res.q_2) == (pytest.approx(0.5, abs=1e-7),
                                  pytest.approx(0.5, abs=1e-7))


def test_equilibrium_shutdown(symmetric_params):
    res = equilibrium(symmetric_params, 0.4, 1.0)
    assert res.converged
    assert res.q_1 == 0.0 and res.q_2 == 0.0


def test_oracle_matches_closed_form_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(60):
        params = EconParams(*np.exp(rng.uniform(np.log(0.1), np.log(10), 7)))
        x = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        r = float(rng.uniform(0.0, 4.0))
        out = total_harvest(params, x, r)
        res = equilibrium(params, x, r)
        assert res.converged
        assert abs(out.h - (res.q_1 + res.q_2)) <= 1e-6 * max(1.0, abs(out.h))
        assert abs(out.q_1 - res.q_1) <= 1e-6 * max(1.0, abs(out.q_1))
        assert abs(out.q_2 - res.q_2) <= 1e-6 * max(1.0, abs(out.q_2))
