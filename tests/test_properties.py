"""Property tests over drawn data (hypothesis, derandomized so every run draws the same cases)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import TorusGrid, make_field
from kdvlab.greens import RICCATI_MIN_CUTOFF, _hs_norm, alpha_of, alphas_of

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
