"""Fourier/Sobolev infrastructure: transforms, norms, multipliers, periodization."""

import math

import numpy as np
import pytest

from kdvlab import (
    MultiplierSpec,
    TorusGrid,
    derivative,
    field_from_modes,
    line_norm_refinement,
    lp_project,
    make_field,
    pairing,
    sobolev_norm,
    symplectic_form,
)
from kdvlab.errors import GridMismatchError, MeanZeroError, PreconditionError
from kdvlab.spectral import next_fast_len

from conftest import random_field
from oracles import (
    coeff,
    high_project,
    low_project,
    make_line_field,
    periodize,
    rescale,
    translate,
    zero_field,
)


def cosine(grid, j=1):
    return field_from_modes(grid, [(j, 0.5), (-j, 0.5)])


def sine(grid, j=1):
    return field_from_modes(grid, [(j, -0.5j), (-j, 0.5j)])


class TestMakeField:
    def test_zero_samples_give_zero_coeffs(self, unit_grid):
        f = make_field(unit_grid, samples=np.zeros(unit_grid.samples))
        assert np.all(f.coeffs == 0)

    def test_cosine_samples_hit_modes_pm1(self, unit_grid):
        x = unit_grid.points
        f = make_field(unit_grid, samples=np.cos(2 * np.pi * x))
        assert abs(coeff(f, 1) - 0.5) < 1e-14
        assert abs(coeff(f, -1) - 0.5) < 1e-14
        others = [coeff(f, j) for j in range(-16, 17) if abs(j) != 1]
        assert max(abs(c) for c in others) < 1e-14

    def test_round_trip_random_samples(self, unit_grid, rng):
        s = rng.standard_normal(unit_grid.samples)
        f = make_field(unit_grid, samples=s)
        back = f.samples_values()
        # the grid oversamples (n >= 3K+1), so analyze is lossy above K;
        # band-limit first for an exact round trip
        f2 = make_field(unit_grid, samples=back)
        assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(f.coeffs)))

    def test_round_trip_exact_at_critical_sampling(self, rng):
        grid = TorusGrid(2.0, 10, 21)
        s = rng.standard_normal(21)
        f = make_field(grid, samples=s)
        assert np.max(np.abs(f.samples_values() - s)) < 1e-12 * np.max(np.abs(s))

    def test_rejects_mismatched_length(self, unit_grid):
        with pytest.raises(PreconditionError):
            make_field(unit_grid, samples=np.zeros(7))

    def test_rejects_non_finite(self, unit_grid):
        s = np.zeros(unit_grid.samples)
        s[3] = np.inf
        with pytest.raises(PreconditionError):
            make_field(unit_grid, samples=s)


class TestSobolevNorm:
    def test_zero_field(self, unit_grid):
        for s in (-1.0, -0.5, 0.0, 1.0):
            assert sobolev_norm(zero_field(unit_grid), s) == 0.0

    def test_cosine_homogeneous_minus_half(self, unit_grid):
        val = sobolev_norm(cosine(unit_grid), -0.5, homogeneous=True)
        assert abs(val - 1 / math.sqrt(2)) < 1e-12

    def test_matches_direct_sum_oracle(self, unit_grid, rng):
        f = random_field(unit_grid, rng, mean_zero=True)
        for s, hom in [(-1.0, False), (0.5, False), (-0.5, True), (1.0, True)]:
            acc = 0.0
            for j in range(-16, 17):
                k = j / unit_grid.length
                if hom:
                    w = 0.0 if j == 0 else abs(k) ** (2 * s)
                else:
                    w = (1 + k * k) ** s
                acc += w * abs(coeff(f, j)) ** 2
            oracle = math.sqrt(unit_grid.length * acc)
            assert abs(sobolev_norm(f, s, hom) - oracle) < 1e-12 * max(oracle, 1.0)

    def test_homogeneous_negative_needs_mean_zero(self, unit_grid):
        f = field_from_modes(unit_grid, [(0, 1.0)])
        with pytest.raises(MeanZeroError):
            sobolev_norm(f, -0.5, homogeneous=True)


class TestLittlewoodPaley:
    def test_single_low_mode_unchanged(self, unit_grid):
        f = cosine(unit_grid, 1)
        out = low_project(f, 2.0)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-15

    def test_low_plus_high_is_identity(self, unit_grid, rng):
        f = random_field(unit_grid, rng)
        for n in (0.5, 1.0, 4.0):
            lo = low_project(f, n)
            hi = high_project(f, n)
            assert np.max(np.abs(lo.coeffs + hi.coeffs - f.coeffs)) < 1e-15

    def test_band_is_identity_on_interior_spectrum(self):
        # multiplier evaluated on the lattice equals 1 on (2N, M]
        grid = TorusGrid.make(1.0, 24)
        spec = MultiplierSpec.band(2.0, 16.0)
        f = field_from_modes(grid, [(5, 0.3), (-5, 0.3), (12, 0.1), (-12, 0.1)])
        out = lp_project(f, spec)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-15

    def test_thresholds_must_be_dyadic(self):
        with pytest.raises(PreconditionError):
            MultiplierSpec.band(3.0, 8.0)

    def test_band_multiplier_matches_lattice_oracle(self, unit_grid):
        spec = MultiplierSpec.band(1.0, 8.0)
        from kdvlab.spectral import bump_profile

        freqs = unit_grid.frequencies
        expected = bump_profile(freqs / 8.0) - bump_profile(freqs / 1.0)
        assert np.max(np.abs(spec.values(freqs) - expected)) == 0.0


class TestDerivative:
    def test_cosine_derivative(self, unit_grid):
        d = derivative(cosine(unit_grid), 1)
        target = -2 * math.pi * sine(unit_grid).coeffs
        assert np.max(np.abs(d.coeffs - target)) < 1e-12

    def test_antiderivative_inverts_derivative(self, unit_grid, rng):
        f = random_field(unit_grid, rng, mean_zero=True)
        g = derivative(derivative(f, 1), -1)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12

    def test_antiderivative_of_constant_fails(self, unit_grid):
        f = field_from_modes(unit_grid, [(0, 2.0)])
        with pytest.raises(MeanZeroError):
            derivative(f, -1)


class TestPairingAndSymplectic:
    def test_cos_with_cos(self, unit_grid):
        assert abs(pairing(cosine(unit_grid), cosine(unit_grid)) - 0.5) < 1e-14

    def test_pairing_with_zero(self, unit_grid, rng):
        f = random_field(unit_grid, rng)
        assert pairing(f, zero_field(unit_grid)) == 0.0

    def test_grid_mismatch_rejected(self, unit_grid):
        other = TorusGrid.make(2.0, 16)
        with pytest.raises(GridMismatchError):
            pairing(cosine(unit_grid), cosine(other))

    def test_cauchy_schwarz_duality(self, unit_grid, rng):
        for _ in range(20):
            l = random_field(unit_grid, rng, mean_zero=True)
            q = random_field(unit_grid, rng, mean_zero=True)
            lhs = abs(pairing(l, q))
            rhs = sobolev_norm(l, 0.5, True) * sobolev_norm(q, -0.5, True)
            assert lhs <= rhs * (1 + 1e-12)

    def test_omega_self_is_zero(self, unit_grid, rng):
        u = random_field(unit_grid, rng, mean_zero=True)
        assert abs(symplectic_form(u, u)) < 1e-14 * sobolev_norm(u, 0.0) ** 2

    def test_omega_cos_sin(self, unit_grid):
        val = symplectic_form(cosine(unit_grid), sine(unit_grid))
        # oracle: dx^{-1} sin(2 pi x) = -cos(2 pi x)/(2 pi), so
        # omega = -1/(2 pi) * int cos^2 = -1/(4 pi)
        assert abs(val - (-1 / (4 * math.pi))) < 1e-14

    def test_omega_antisymmetric(self, unit_grid, rng):
        u = random_field(unit_grid, rng, mean_zero=True)
        v = random_field(unit_grid, rng, mean_zero=True)
        assert abs(symplectic_form(u, v) + symplectic_form(v, u)) < 1e-12

    def test_omega_gram_rank_full(self):
        grid = TorusGrid.make(1.0, 6)
        basis = []
        for j in range(1, 7):
            basis.append(cosine(grid, j))
            basis.append(sine(grid, j))
        G = np.array([[symplectic_form(a, b) for b in basis] for a in basis])
        assert np.linalg.matrix_rank(G, tol=1e-10) == len(basis)


class TestTranslateRescale:
    def test_translate_preserves_norms(self, unit_grid, rng):
        f = random_field(unit_grid, rng, mean_zero=True)
        g = translate(f, 0.3137)
        for s, hom in [(-1.0, False), (0.5, True)]:
            assert abs(sobolev_norm(f, s, hom) - sobolev_norm(g, s, hom)) < 1e-12

    def test_translate_single_mode_phase(self, unit_grid):
        f = field_from_modes(unit_grid, [(3, 0.5), (-3, 0.5)])
        h = 0.2
        g = translate(f, h)
        expected = 0.5 * np.exp(2j * np.pi * 3 * h)
        assert abs(coeff(g, 3) - expected) < 1e-14

    def test_rescale_identity(self, unit_grid, rng):
        f = random_field(unit_grid, rng)
        g = rescale(f, 1.0)
        assert g.grid == f.grid
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_rescale_half_norm_scaling(self, unit_grid, rng):
        f = random_field(unit_grid, rng, mean_zero=True)
        for lam in (0.5, 2.0, 3.0):
            g = rescale(f, lam)
            assert abs(
                sobolev_norm(g, -0.5, True) - lam * sobolev_norm(f, -0.5, True)
            ) < 1e-10 * lam

    def test_rescaled_soliton_is_soliton(self):
        # q(x) = -2 k0^2 sech^2(k0 x) rescaled by lam equals the k0*lam soliton
        k0, lam, box = 1.0, 2.0, 30.0
        grid = TorusGrid.make(box, 120)

        def soliton(kap):
            def f(x):
                y = np.where(np.abs(x) < box / 2, x, x - box)  # centered rep
                return -2 * kap ** 2 / np.cosh(kap * y) ** 2

            return f

        q = make_field(grid, samples=soliton(k0)(grid.points))
        scaled = rescale(q, lam)
        target_grid = scaled.grid
        target = make_field(
            target_grid,
            samples=-2 * (lam * k0) ** 2
            / np.cosh(lam * k0 * np.where(target_grid.points < box / lam / 2,
                                          target_grid.points,
                                          target_grid.points - box / lam)) ** 2,
        )
        err = sobolev_norm(scaled - target, 0.0) / sobolev_norm(target, 0.0)
        assert err < 1e-10


class TestBernstein:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_low_and_high_estimates(self, unit_grid, rng, sigma):
        c = 2.0 ** sigma
        for _ in range(10):
            f = random_field(unit_grid, rng, mean_zero=True)
            for n in (1.0, 2.0, 4.0):
                lo = low_project(f, n)
                hi = high_project(f, n)
                s = 0.0
                lhs_lo = sobolev_norm(lo, s, True)
                rhs_lo = c * n ** sigma * sobolev_norm(lo, s - sigma, True)
                assert lhs_lo <= rhs_lo * (1 + 1e-10)
                lhs_hi = sobolev_norm(hi, s, True)
                rhs_hi = c * n ** (-sigma) * sobolev_norm(hi, s + sigma, True)
                assert lhs_hi <= rhs_hi * (1 + 1e-10)


class TestPeriodize:
    def narrow_bump(self):
        w = 0.16
        return make_line_field(
            20.0, 256, lambda x: np.exp(-((x / w) ** 2)), support=(-1.0, 1.0),
            samples=1024,
        )

    def test_sample_exact_on_support(self):
        f = self.narrow_bump()
        per = periodize(f, 10.0)
        xs = per.grid.points
        line_vals = np.exp(-((np.where(xs < 5.0, xs, xs - 10.0) / 0.16) ** 2))
        got = per.samples_values()
        assert np.max(np.abs(got - line_vals)) < 1e-11

    def test_l2_norm_preserved(self):
        f = self.narrow_bump()
        per = periodize(f, 10.0)
        assert abs(sobolev_norm(per, 0.0) - sobolev_norm(f, 0.0)) < 1e-10

    def test_support_too_large_rejected(self):
        f = make_line_field(16.0, 64, lambda x: np.exp(-(x ** 2)), support=(-5.0, 5.0))
        with pytest.raises(PreconditionError):
            periodize(f, 8.0)

    def test_integer_norms_preserved(self):
        # third derivative of a gaussian: moments 0..2 vanish, which is what
        # the discrete Hdot^k equality needs down to k = -2 (the torus norm
        # drops the zero mode of each antiderivative, the line norm does not)
        w = 0.5

        def f(x):
            y = x / w
            return (12 * y - 8 * y ** 3) * np.exp(-y * y) / w ** 3

        lf = make_line_field(40.0, 640, f, support=(-4.5, 4.5), samples=2048)
        per = periodize(lf, 10.0)
        for k in (-2, -1, 0, 1, 2):
            hom = True
            a = sobolev_norm(per, float(k), hom)
            b = sobolev_norm(lf, float(k), hom)
            assert abs(a - b) <= 1e-10 * max(a, 1.0), (k, a, b)

    def test_negative_norm_equality_needs_vanishing_moments(self):
        # with a nonzero second moment the k = -2 equality genuinely fails:
        # the defect is the dropped zero mode of the double antiderivative
        w = 0.5

        def f(x):
            y = x / w
            return (4 * y * y - 2) * np.exp(-y * y) / w ** 2

        lf = make_line_field(40.0, 640, f, support=(-4.5, 4.5), samples=2048)
        per = periodize(lf, 10.0)
        a = sobolev_norm(per, -2.0, True)
        b = sobolev_norm(lf, -2.0, True)
        assert abs(a - b) > 1e-3 * b

    def test_fractional_norm_refines_toward_line_value(self):
        w = 0.5

        def f(x):
            y = x / w
            return -2 * y * np.exp(-y * y) / w

        lf = make_line_field(80.0, 1280, f, support=(-4.5, 4.5), samples=4096)
        ref = sobolev_norm(lf, -0.5, True)  # refined box estimate as line oracle
        diffs = []
        for L in (10.0, 20.0, 40.0):
            per = periodize(lf, L)
            diffs.append(abs(sobolev_norm(per, -0.5, True) - ref))
        for a, b in zip(diffs, diffs[1:]):
            ratio = b / a
            # halving within a factor of 4 per doubling of L
            assert 1 / 8 <= ratio <= 2.0, diffs

    def test_line_norm_refinement_pair(self):
        f = self.narrow_bump()
        coarse, refined = line_norm_refinement(f, 0.0)
        assert abs(coarse - refined) < 1e-8 * refined


def test_next_fast_len_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    for n in range(1, 5001):
        assert next_fast_len(n) == scipy_fft.next_fast_len(n), n
        assert next_fast_len(n, real=True) == scipy_fft.next_fast_len(n, real=True), n


class TestPlancherel:
    def test_sample_vs_coefficient_space(self, rng):
        for trial in range(50):
            grid = TorusGrid(2.5, 20, 64)
            f = random_field(grid, rng)
            s = f.samples_values()
            quad = grid.length * float(np.mean(s ** 2))
            coef = sobolev_norm(f, 0.0) ** 2
            assert abs(quad - coef) <= 1e-10 * max(coef, 1e-30)
