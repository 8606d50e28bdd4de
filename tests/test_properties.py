"""Property tests over drawn data (hypothesis, derandomized so every run draws the same cases)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import TorusGrid, make_field
from kdvlab.greens import (
    NEWTON_RTOL,
    RICCATI_MIN_CUTOFF,
    _hs_norm,
    _riccati_green_hat,
    _riccati_half,
    alpha_of,
    alphas_of,
)

K_STAR = RICCATI_MIN_CUTOFF


def band_limited(grid, rng, band, hs, kappa):
    """A real q with modes |j| <= band only and ||B||_HS = hs at kappa."""
    k = grid.cutoff
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k - band:k + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    q = make_field(grid, coeffs=c)
    return q * (hs / _hs_norm(q, kappa))


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
    d, dtheta, _, nonlinear = _riccati_half(grid, qh, kappa)
    cold = _riccati_green_hat(grid, kappa, d, dtheta)
    nudge = rng.standard_normal(nonlinear.shape) + 1j * rng.standard_normal(nonlinear.shape)
    nudge[:, 0] = nudge[:, 0].real  # w is real
    nudge *= 10.0 ** -decades * NEWTON_RTOL * np.abs(qh).max() / np.abs(nudge).max()
    d, dtheta, _, _ = _riccati_half(grid, qh, kappa, nonlinear + nudge)
    warm = _riccati_green_hat(grid, kappa, d, dtheta)
    assert np.abs(warm - cold).max() <= 1e-11 * np.abs(cold).max()
