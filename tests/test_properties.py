"""Property tests over drawn data (hypothesis, derandomized so every run draws the same cases)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdvlab import TorusGrid, build_scenario, escape_search, make_field, pairing
from kdvlab.errors import CertificationError
from kdvlab.greens import (
    NEWTON_RTOL,
    RICCATI_MIN_CUTOFF,
    _riccati_green_hat,
    _riccati_half,
    alpha_of,
    alphas_of,
    assemble_resolvent,
    green_diagonal,
    green_of,
    hs_norm,
)

from kdvlab.squeeze import SearchBudget, _propagate_linear
from conftest import random_field
from oracles import complex_b, dense_green_coeffs
from search_reference import assert_same_search, sequential_search

K_STAR = RICCATI_MIN_CUTOFF


def band_limited(grid, rng, band, hs, kappa):
    """A real q with modes |j| <= band only and ||B||_HS = hs at kappa."""
    k = grid.cutoff
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k - band:k + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    q = make_field(grid, coeffs=c)
    return q * (hs / hs_norm(q, kappa))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(2, 8),
       kappa=st.sampled_from([1.0, 2.0, 4.0]), band=st.integers(1, K_STAR),
       length=st.sampled_from([2.0 * math.pi, 16.0]))
def test_stacked_alpha_matches_each_row_alone(seed, rows, kappa, band, length):
    grid = TorusGrid.make(length, K_STAR)
    rng = np.random.default_rng(seed)
    qs = [band_limited(grid, rng, band, rng.uniform(0.01, 0.5), kappa) for _ in range(rows)]
    for q, a in zip(qs, alphas_of(qs, kappa)):
        alone = alpha_of(q, kappa)
        assert abs(a.value - alone.value) <= 1e-13 * abs(alone.value)
        assert a.hs_norm == alone.hs_norm


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.sampled_from([1.0, 2.0, 4.0]),
       band=st.integers(1, K_STAR), length=st.sampled_from([2.0 * math.pi, 16.0]),
       decades=st.floats(0.0, 4.0))
def test_warm_start_near_the_solve_gives_the_cold_g(seed, kappa, band, length, decades):
    # a start within NEWTON_RTOL max |qhat| of the solve: one that certifies
    # as it stands ends there, and g must not move beyond the certified level
    grid = TorusGrid.make(length, K_STAR)
    rng = np.random.default_rng(seed)
    qh = band_limited(grid, rng, band, rng.uniform(0.01, 0.5), kappa).coeffs[K_STAR:]
    d, dtheta, _, nonlinear, _ = _riccati_half(grid, qh, kappa)
    cold = _riccati_green_hat(grid, kappa, d, dtheta)
    nudge = rng.standard_normal(nonlinear.shape) + 1j * rng.standard_normal(nonlinear.shape)
    nudge[:, 0] = nudge[:, 0].real  # w is real
    nudge *= 10.0 ** -decades * NEWTON_RTOL * np.abs(qh).max() / np.abs(nudge).max()
    d, dtheta = _riccati_half(grid, qh, kappa, nonlinear + nudge)[:2]
    warm = _riccati_green_hat(grid, kappa, d, dtheta)
    assert np.abs(warm - cold).max() <= 1e-11 * np.abs(cold).max()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cutoff=st.sampled_from([4, 16, K_STAR - 1]),
       kappa=st.sampled_from([1.0, 2.0, 4.0]), length=st.sampled_from([1.0, 2.0 * math.pi]),
       shift=st.floats(-0.5, 0.5), amplitude=st.floats(0.0, 0.3))
def test_dense_route_certifies_or_raises(seed, cutoff, kappa, length, shift, amplitude):
    # the mean -kappa^2 (1 + shift) puts -d^2 + q + kappa^2 on either side of
    # positivity; the oscillation moves the boundary by O(amplitude^2)
    grid = TorusGrid.make(length, cutoff)
    c = random_field(grid, np.random.default_rng(seed), amplitude=amplitude * kappa ** 2,
                     mean_zero=True).coeffs.copy()
    c[cutoff] = -kappa ** 2 * (1.0 + shift)
    q = make_field(grid, coeffs=c)
    ctx = assemble_resolvent(q, kappa)
    n = len(ctx.omega)
    lowest = np.linalg.eigvalsh(np.eye(n) + ctx.B_r)[0]
    assume(abs(lowest) > 1e-8)  # nearer, Cholesky and eigvalsh may round to either side
    if lowest <= 0.0:
        with pytest.raises(CertificationError, match="not positive definite"):
            green_of(q, kappa)
        with pytest.raises(CertificationError, match="not positive definite"):
            alpha_of(q, kappa)
        return
    alpha_of(q, kappa)
    got = green_of(q, kappa).coeffs
    assert np.array_equal(got, green_diagonal(ctx).coeffs)
    expected = dense_green_coeffs(ctx, np.linalg.inv(np.eye(n) + complex_b(ctx)))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


# the KdV desk scenario of the squeeze tests at K = 16, with alpha drawn
SMALL_DESK = {"grid": {"length": 16.0, "cutoff": 16}, "band": {"m": 0.25, "M": 2.0},
              "center": {"kind": "gauss_prime", "width": 1.0, "amplitude": 0.05},
              "observable": {"kind": "gauss_bump", "width": 1.5, "amplitude": 1.0},
              "r": 0.02, "R": 0.04, "T": 0.2}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["kdv", "kdv_linear"]),
       shift=st.one_of(st.floats(-2e-6, 2e-6), st.floats(-0.02, 0.02)),
       starts=st.integers(1, 4), rounds=st.integers(0, 2), directions=st.integers(0, 3))
def test_escape_search_equals_the_sequential_search(seed, kind, shift, starts, rounds,
                                                     directions):
    # alpha = <U(-T) l, z> + shift.  The guessed start, z + R dual for shift <= 0
    # and z - R dual otherwise, is the best start unless KdV moves the two
    # informed starts' values apart by more than the shift (~1e-6 here); right
    # or wrong, the search equals the one-batch-per-phase search
    scenario = build_scenario(dict(SMALL_DESK, flow={"kind": kind}, seed=seed))
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    scenario = replace(scenario, alpha_target=pairing(back, scenario.center) + shift)
    budget = SearchBudget(starts=starts, rounds=rounds, directions=directions, dt=2e-3)
    assert_same_search(escape_search(scenario, budget), sequential_search(scenario, budget))
