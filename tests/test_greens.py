"""Resolvent assembly, diagonal Green's function, perturbation determinant."""

import math
import warnings

import numpy as np
import pytest

from kdvlab import (
    FlowSpec,
    HamiltonianSpec,
    TorusGrid,
    alpha,
    alpha_of,
    assemble_resolvent,
    derivative,
    field_from_modes,
    free_diagonal_constant,
    green_diagonal,
    green_of,
    hs_norm,
    make_field,
    pairing,
    polynomial_invariants,
    sobolev_norm,
    truncate_field,
)
from kdvlab.errors import CertificationError, PreconditionError
from kdvlab import flows, greens
from kdvlab.flows import evolve, rhs
from kdvlab.greens import (
    RICCATI_MIN_CUTOFF,
    ResolventContext,
    alphas_of,
    _lag_sums,
    _pair_sums,
    _riccati_half,
)
from kdvlab.spectral import PeriodicField, product_coeffs

from conftest import random_field
from oracles import (
    alpha_gradient_field,
    alpha_series,
    complex_b,
    dense_green_coeffs,
    green_diagonal_series,
    operator_matrix,
    translate,
    zero_field,
)


def small_random(grid, rng, target_hs, kappa):
    """Random mean-zero field scaled to a prescribed Hilbert-Schmidt norm."""
    f = random_field(grid, rng, decay=1.5, mean_zero=True)
    h = hs_norm(f, kappa)
    return f * (target_hs / h)


class TestAssembly:
    def test_zero_potential_is_diagonal(self, unit_grid):
        ctx = assemble_resolvent(zero_field(unit_grid), 2.0)
        a = operator_matrix(ctx)
        off = a - np.diag(np.diag(a))
        assert np.max(np.abs(off)) == 0.0
        freqs = unit_grid.frequencies
        assert np.max(np.abs(np.diag(a) - (4 * np.pi ** 2 * freqs ** 2 + 4.0))) < 1e-12

    def test_hermitian(self, unit_grid, rng):
        f = random_field(unit_grid, rng)
        a = operator_matrix(assemble_resolvent(f, 1.5))
        assert np.max(np.abs(a - a.conj().T)) < 1e-12 * np.max(np.abs(a))

    def test_apply_matches_sample_space_oracle(self, unit_grid, rng):
        q = random_field(unit_grid, rng, decay=2.0)
        f = random_field(unit_grid, rng, decay=2.0)
        kap = 2.0
        ctx = assemble_resolvent(q, kap)
        got = operator_matrix(ctx) @ f.coeffs
        k = unit_grid.cutoff
        freqs = unit_grid.frequencies
        expected = (4 * np.pi ** 2 * freqs ** 2 + kap ** 2) * f.coeffs
        expected += product_coeffs(q.coeffs, f.coeffs, k, k, k)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_kappa_below_one_rejected(self, unit_grid):
        with pytest.raises(PreconditionError):
            assemble_resolvent(zero_field(unit_grid), 0.5)

    def test_non_hermitian_field_rejected(self, unit_grid):
        # a complex-valued potential: the real cos/sin basis would drop its
        # anti-Hermitian part, so assembly must refuse it
        c = np.zeros(2 * unit_grid.cutoff + 1, dtype=complex)
        c[unit_grid.cutoff + 1] = 0.1
        with pytest.raises(PreconditionError):
            assemble_resolvent(PeriodicField(unit_grid, c), 2.0)


@pytest.mark.parametrize("length, cutoff, kappa", [
    (2 * math.pi, 64, 4.0), (2 * math.pi, 24, 1.0), (8 * math.pi, 288, 4.0), (40.0, 288, 2.0),
])
def test_pair_sums_match_long_lattice(length, cutoff, kappa):
    """S_K against the window sum, and the closed-form S against |a| <= 2^21,
    whose dropped tail is below 2e-14 of S(d) for these lags."""
    grid = TorusGrid.make(length, cutoff)
    s_in, s_full, _ = _pair_sums(grid, kappa)

    def inv_omega(a):
        return 1.0 / (4.0 * math.pi ** 2 * (a / length) ** 2 + kappa ** 2)

    window = np.arange(-cutoff, cutoff + 1.0)
    lattice = np.arange(-2.0 ** 21, 2.0 ** 21 + 1.0)
    for d in (0, 1, cutoff):
        both_in = window[window - d >= -cutoff]
        expected_in = math.fsum(memoryview(inv_omega(both_in) * inv_omega(both_in - d)))
        assert abs(s_in[cutoff + d] - expected_in) <= 1e-13 * expected_in
        expected = math.fsum(memoryview(inv_omega(lattice) * inv_omega(lattice - d)))
        assert abs(s_full[cutoff + d] - expected) <= 1e-13 * expected


def alpha_tail(ctx):
    """The second-order lattice-tail term of ``alpha``: sum_d |qhat(d)|^2 (S - S_K)(d) / 2."""
    s_in, s_full, _ = _pair_sums(ctx.grid, ctx.kappa)
    return 0.5 * np.sum(np.abs(ctx.q.coeffs) ** 2 * (s_full - s_in))


def with_mean(q, mean):
    c = q.coeffs.copy()
    c[q.grid.cutoff] = mean
    return make_field(q.grid, coeffs=c)


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


class TestRealBasisMatchesComplexOracle:
    """The real cos/sin hot path against the complex mode-basis matrices."""

    @pytest.fixture(params=[1, 2, 16, 64])
    def ctx(self, request, rng):
        grid = TorusGrid.make(2.0, request.param)
        return assemble_resolvent(with_mean(small_random(grid, rng, 0.4, 2.0), 0.05), 2.0)

    def test_green_diagonal(self, ctx):
        n = len(ctx.omega)
        expected = dense_green_coeffs(ctx, np.linalg.inv(np.eye(n) + complex_b(ctx)))
        assert relative_error(green_diagonal(ctx).coeffs, expected) <= 1e-13

    def test_hs_norm(self, ctx):
        expected = np.linalg.norm(complex_b(ctx), "fro")
        assert abs(hs_norm(ctx.q, ctx.kappa) - expected) <= 1e-13 * expected

    def test_alpha(self, ctx):
        b = complex_b(ctx)
        expected = -np.sum(np.log1p(np.linalg.eigvalsh(b))) + np.trace(b).real + alpha_tail(ctx)
        assert abs(alpha(ctx).value - expected) <= 1e-13 * abs(expected)

    def test_real_matrix_is_unitary_conjugate(self, ctx):
        k = ctx.grid.cutoff
        u = np.zeros((2 * k + 1, 2 * k + 1), dtype=complex)
        u[k, 0] = 1.0
        for m in range(1, k + 1):
            u[k + m, m] = u[k - m, m] = 1.0 / math.sqrt(2.0)
            u[k + m, k + m], u[k - m, k + m] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
        expected = u.conj().T @ complex_b(ctx) @ u
        assert relative_error(ctx.B_r, expected) <= 1e-13
        assert np.array_equal(ctx.B_r, ctx.B_r.T)


class TestResolventFallbacks:
    """Unless I + B is positive definite, the dense g and alpha raise
    CertificationError, as the Riccati route does."""

    def test_indefinite_raises(self, rng):
        # q = -2 + small: the constant mode of I + B is -1 at kappa = 1
        grid = TorusGrid.make(1.0, 16)
        q = with_mean(random_field(grid, rng, amplitude=0.05), -2.0)
        ctx = assemble_resolvent(q, 1.0)
        n = len(ctx.omega)
        assert np.min(np.linalg.eigvalsh(np.eye(n) + ctx.B_r)) < 0
        with pytest.raises(CertificationError, match="not positive definite"):
            green_diagonal(ctx)
        with pytest.raises(CertificationError, match="not positive definite"):
            alpha(ctx)

    @pytest.mark.parametrize("mean, definite", [(-2.0, False), (0.0, True)])
    def test_certified_only_when_cholesky_ran(self, rng, mean, definite):
        # K = 12, kappa = 1: a mean of -2 makes I + B indefinite, a mean of 0
        # with small oscillation leaves it positive definite
        grid = TorusGrid.make(1.0, 12)
        ctx = assemble_resolvent(with_mean(random_field(grid, rng, amplitude=0.05), mean), 1.0)
        n = len(ctx.omega)
        assert (np.min(np.linalg.eigvalsh(np.eye(n) + ctx.B_r)) > 0) == definite
        if definite:
            green_diagonal(ctx)
        else:
            with pytest.raises(CertificationError):
                green_diagonal(ctx)

    def test_singular_raises(self, unit_grid):
        # q = -kappa^2 annihilates the constants: I + B_r has an exact zero row
        q = field_from_modes(unit_grid, [(0, -4.0)])
        ctx = assemble_resolvent(q, 2.0)
        with pytest.raises(CertificationError, match="not positive definite"):
            green_diagonal(ctx)
        with pytest.raises(CertificationError, match="not positive definite"):
            alpha(ctx)


def test_lag_sums_match_trace_loop(rng):
    n = 7
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    diag = [np.trace(x, offset=-d) for d in range(-(n - 1), n)]
    anti = [np.trace(x[:, ::-1], offset=n - 1 - s) for s in range(2 * n - 1)]
    assert np.max(np.abs(_lag_sums(x) - diag)) <= 1e-13 * np.max(np.abs(diag))
    assert np.max(np.abs(_lag_sums(x[:, ::-1]) - anti)) <= 1e-13 * np.max(np.abs(anti))


class TestHsNorm:
    def test_zero(self, unit_grid):
        assert hs_norm(zero_field(unit_grid), 2.0) == 0.0

    def test_matches_double_sum_oracle(self):
        grid = TorusGrid.make(1.0, 64)
        a = 0.3
        q = field_from_modes(grid, [(1, a / 2), (-1, a / 2)])
        kap = 2.0
        got = hs_norm(q, kap)
        acc = 0.0
        for i in range(-64, 65):
            for j in range(-64, 65):
                d = i - j
                if abs(d) == 1:
                    wi = 4 * math.pi ** 2 * i ** 2 + kap ** 2
                    wj = 4 * math.pi ** 2 * j ** 2 + kap ** 2
                    acc += (a / 2) ** 2 / (wi * wj)
        assert abs(got - math.sqrt(acc)) < 1e-10

    def test_linear_in_q(self, unit_grid, rng):
        q = random_field(unit_grid, rng)
        h1 = hs_norm(q, 3.0)
        h2 = hs_norm(q * 2.0, 3.0)
        assert abs(h2 - 2 * h1) < 1e-12 * h1

    @pytest.mark.parametrize("cutoff", [1, 12, 64, 128])
    def test_matches_frobenius_norm_of_real_matrix(self, cutoff, rng):
        ctx = assemble_resolvent(random_field(TorusGrid.make(2 * math.pi, cutoff), rng), 1.5)
        expected = np.linalg.norm(ctx.B_r)
        assert abs(hs_norm(ctx.q, ctx.kappa) - expected) <= 1e-14 * expected


class TestGreenDiagonal:
    def test_free_circle_constant(self):
        grid = TorusGrid.make(1.0, 32)
        g = green_diagonal(assemble_resolvent(zero_field(grid), 2.0))
        expected = math.cosh(1.0) / math.sinh(1.0) / 4.0
        assert abs(g.coeffs[grid.cutoff].real - expected) < 1e-12
        others = np.delete(g.coeffs, grid.cutoff)
        assert np.max(np.abs(others)) < 1e-14

    @pytest.mark.parametrize("length", [1.0, 2.0, 4.0, 8.0])
    def test_free_constant_approaches_line_value(self, length):
        kap = 2.0
        grid = TorusGrid.make(length, 16)
        g = green_diagonal(assemble_resolvent(zero_field(grid), kap))
        val = g.coeffs[grid.cutoff].real
        assert abs(val - 1.0 / (2 * kap)) <= math.exp(-kap * length)

    def test_series_matches_direct_within_tail(self, rng):
        grid = TorusGrid.make(2.0, 24)
        kap = 2.0
        q = small_random(grid, rng, 0.45, kap)
        ctx = assemble_resolvent(q, kap)
        direct = green_diagonal(ctx)
        series = green_diagonal_series(q, kap, l_max=8)
        assert series.certified
        diff = np.max(np.abs(
            direct.samples_values() - series.g.samples_values()))
        assert diff <= series.tail_bound * 1.01

    def test_series_lmax_zero_is_free_diagonal(self, unit_grid, rng):
        q = random_field(unit_grid, rng, amplitude=0.1, mean_zero=True)
        res = green_diagonal_series(q, 2.0, l_max=0)
        free = free_diagonal_constant(2.0, 1.0)
        assert abs(res.g.coeffs[unit_grid.cutoff].real - free) < 1e-14
        assert np.max(np.abs(np.delete(res.g.coeffs, unit_grid.cutoff))) == 0.0

    def test_divergent_series_tagged_uncertified(self, unit_grid, rng):
        kap = 1.0
        q = small_random(unit_grid, rng, 1.5, kap)
        res = green_diagonal_series(q, kap, l_max=4)
        assert not res.certified
        assert res.tail_bound is None

    def test_green_prime_zero_for_free(self, unit_grid):
        gp = derivative(green_diagonal(assemble_resolvent(zero_field(unit_grid), 2.0)), 1)
        assert np.max(np.abs(gp.coeffs)) < 1e-14

    def test_green_prime_is_derivative(self, unit_grid, rng):
        q = small_random(unit_grid, rng, 0.3, 2.0)
        g = green_diagonal(assemble_resolvent(q, 2.0))
        gp = derivative(g, 1)
        assert np.max(np.abs(gp.coeffs - derivative(g, 1).coeffs)) == 0.0
        assert gp.is_mean_zero()

    def test_green_prime_lipschitz_in_hm1(self, rng):
        # frozen constant from a calibration sweep over the same seeds
        grid = TorusGrid.make(2.0, 24)
        worst = 0.0
        for kap in (1.0, 2.0, 4.0):
            for _ in range(5):
                q = small_random(grid, rng, 0.3, kap)
                v = small_random(grid, rng, 0.02, kap)
                qt = q + v
                gp = derivative(green_diagonal(assemble_resolvent(q, kap)), 1)
                gpt = derivative(green_diagonal(assemble_resolvent(qt, kap)), 1)
                num = sobolev_norm(gp - gpt, -1.0)
                den = sobolev_norm(q - qt, -1.0)
                worst = max(worst, num / den)
        assert worst < 0.6


class TestDiffeomorphismBound:
    def test_h1_ratio_bounded_across_kappas(self, rng):
        grid = TorusGrid.make(2.0, 24)
        worst = 0.0
        for kap in (1.0, 2.0, 4.0, 8.0):
            for _ in range(4):
                q = small_random(grid, rng, 0.3, kap)
                v = small_random(grid, rng, 0.03, kap)
                gq = green_diagonal(assemble_resolvent(q, kap))
                gqt = green_diagonal(assemble_resolvent(q + v, kap))
                ratio = sobolev_norm(gq - gqt, 1.0) / sobolev_norm(v, -1.0)
                worst = max(worst, ratio)
        # paper: ratio bounded uniformly in kappa; frozen empirical bound
        assert worst < 1.0


class TestAlpha:
    def test_zero_potential(self, unit_grid):
        res = alpha(assemble_resolvent(zero_field(unit_grid), 2.0))
        assert res.value == 0.0

    def test_amplitude_scan_quadratic_leading_term(self):
        # alpha(a cos)/a^2 settles to a constant as a -> 0 (the tr(B^2)/2 term);
        # for a pure cosine tr(B^3) = 0, so consecutive ratios converge like a^2
        grid = TorusGrid.make(1.0, 24)
        kap = 2.0
        amps = (4e-2, 2e-2, 1e-2)
        vals = []
        for a in amps:
            q = field_from_modes(grid, [(1, a / 2), (-1, a / 2)])
            ctx = assemble_resolvent(q, kap)
            vals.append(alpha(ctx).value / a ** 2)
            if a == amps[0]:
                assert abs(vals[0] / (0.5 * hs_norm(q, kap) ** 2 / a ** 2) - 1) < 1e-4
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d1 < 1e-4 * abs(vals[0])
        assert d2 / d1 == pytest.approx(0.25, rel=0.2)

    def test_alpha_series_lmax_one_is_zero(self, unit_grid, rng):
        q = small_random(unit_grid, rng, 0.3, 2.0)
        assert alpha_series(assemble_resolvent(q, 2.0), 1).value == 0.0

    def test_alpha_series_l2_term_is_half_hs_squared(self, unit_grid, rng):
        q = small_random(unit_grid, rng, 0.3, 2.0)
        ctx = assemble_resolvent(q, 2.0)
        got = alpha_series(ctx, 2).value
        assert abs(got - 0.5 * hs_norm(q, 2.0) ** 2) < 1e-12

    def test_alpha_series_matches_logdet_within_tail(self, rng):
        grid = TorusGrid.make(2.0, 24)
        kap = 2.0
        q = small_random(grid, rng, 0.5, kap)
        ctx = assemble_resolvent(q, kap)
        series = alpha_series(ctx, 8)
        direct = alpha(ctx)
        assert series.certified
        assert abs(series.value - direct.value) <= series.tail_bound * 1.01

    def test_logdet_branch_failure_raises(self, rng):
        grid = TorusGrid.make(1.0, 16)
        q = small_random(grid, rng, 3.0, 1.0)  # pushes an eigenvalue below -1
        ctx = assemble_resolvent(q, 1.0)
        if np.min(1 + np.linalg.eigvalsh(complex_b(ctx))) <= 0:
            with pytest.raises(CertificationError):
                alpha(ctx)
        else:
            pytest.skip("eigenvalues stayed in the right half line")

    def test_basis_independence_under_cutoff_doubling(self):
        kap = 2.0
        vals = []
        for cutoff in (32, 64):
            grid = TorusGrid.make(2.0, cutoff)
            q = field_from_modes(grid, [(1, 0.02), (-1, 0.02), (3, 0.01j), (-3, -0.01j)])
            vals.append(alpha(assemble_resolvent(q, kap)).value)
        assert abs(vals[1] - vals[0]) <= 1e-8 * abs(vals[0])


class TestVariationalIdentity:
    def test_forward_difference_slope_two(self, rng):
        grid = TorusGrid.make(2.0, 20)
        kap = 2.0
        q = small_random(grid, rng, 0.3, kap)
        v = small_random(grid, rng, 0.3, kap)
        ctx = assemble_resolvent(q, kap)
        grad = alpha_gradient_field(ctx)
        base = alpha(ctx).value
        dirderiv = pairing(grad, v)
        devs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            val = alpha(assemble_resolvent(q + v * eps, kap)).value
            devs.append(abs(val - base - eps * dirderiv))
        # O(eps^2): quartering under halving, generous window
        assert devs[1] / devs[0] == pytest.approx(0.25, rel=0.35)
        assert devs[2] / devs[1] == pytest.approx(0.25, rel=0.35)

    def test_central_difference_matches_pairing(self, rng):
        grid = TorusGrid.make(2.0, 20)
        kap = 2.0
        q = small_random(grid, rng, 0.3, kap)
        v = small_random(grid, rng, 0.3, kap)
        ctx = assemble_resolvent(q, kap)
        dirderiv = pairing(alpha_gradient_field(ctx), v)
        eps = 1e-4
        plus = alpha(assemble_resolvent(q + v * eps, kap)).value
        minus = alpha(assemble_resolvent(q + v * (-eps), kap)).value
        fd = (plus - minus) / (2 * eps)
        assert abs(fd - dirderiv) <= 1e-6 * abs(dirderiv)


class TestPolynomialInvariants:
    def test_cosine_values(self, unit_grid):
        q = field_from_modes(unit_grid, [(1, 0.5), (-1, 0.5)])
        m, p, h = polynomial_invariants(q)
        assert abs(m) < 1e-14
        assert abs(p - 0.25) < 1e-14
        assert abs(h - math.pi ** 2) < 1e-12

    def test_soliton_mass(self):
        k0, box = 1.0, 40.0
        grid = TorusGrid.make(box, 160)
        x = grid.points
        y = np.where(x < box / 2, x, x - box)
        q = make_field(grid, samples=-2 * k0 ** 2 / np.cosh(k0 * y) ** 2)
        m, _, _ = polynomial_invariants(q)
        assert abs(m - (-4 * k0)) < 1e-10


K_STAR = RICCATI_MIN_CUTOFF


def riccati_g(grid, kappa, solve):
    """g on modes 0..K from a ``_riccati_half`` result: the g - g0 it read, plus g0."""
    gh = solve[0].copy()
    gh[0] += free_diagonal_constant(kappa, grid.length)
    return gh


class TestRiccatiRoute:
    """g and alpha at K >= K*, against the dense route at 4K as the reference."""

    @pytest.mark.parametrize("length, cutoff, kappa, decay, target_hs", [
        (2 * math.pi, K_STAR, 4.0, 1.5, 0.9),       # rough: |qhat| ~ |j|^-1.5
        (2 * math.pi, 64, 1.0, 1.5, 0.99),
        (16.0, K_STAR, 4.0, 2.0, 0.5),
        (32.0, 128, 1.0, 2.0, 0.5),
    ])
    def test_closer_to_dense_at_4k_than_dense_at_k(self, monkeypatch, length, cutoff, kappa,
                                                   decay, target_hs):
        grid = TorusGrid.make(length, cutoff)
        f = random_field(grid, np.random.default_rng(cutoff), decay=decay)
        q = f * (target_hs / hs_norm(f, kappa))
        wide = assemble_resolvent(truncate_field(q, 4 * cutoff), kappa)
        ref_g = green_diagonal(wide).coeffs[3 * cutoff:5 * cutoff + 1]
        ref_a = alpha(wide).value
        ctx = assemble_resolvent(q, kappa)
        dense_g, dense_a = green_diagonal(ctx).coeffs, alpha(ctx).value
        calls = []  # the dense g inverts I + B; the dense alpha takes its eigenvalues
        original_inv_ib, original_alpha = ResolventContext.inv_ib, greens.alpha
        monkeypatch.setattr(ResolventContext, "inv_ib",
                            lambda ctx: calls.append(ctx) or original_inv_ib(ctx))
        monkeypatch.setattr(greens, "alpha", lambda ctx: calls.append(ctx) or original_alpha(ctx))
        g, res_a = green_of(q, kappa).coeffs, alpha_of(q, kappa)
        assert calls == []
        assert np.linalg.norm(g - ref_g) <= np.linalg.norm(dense_g - ref_g)
        assert abs(res_a.value - ref_a) <= abs(dense_a - ref_a)
        assert res_a.hs_norm == hs_norm(q, kappa)

    @pytest.mark.parametrize("kappa", [1.0, 4.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("target_hs", [0.25, 0.5, 0.9, 0.99])
    def test_newton_converges_inside_the_unit_ball(self, kappa, sign, target_hs):
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        q = small_random(grid, np.random.default_rng(7), sign * target_hs, kappa)
        dense = alpha(assemble_resolvent(q, kappa)).value
        assert abs(alpha_of(q, kappa).value - dense) <= 1e-4 * abs(dense)
        g = green_of(q, kappa).coeffs
        assert np.all(np.isfinite(g))

    def test_zero_potential_is_exactly_free(self):
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        g = green_of(zero_field(grid), 4.0)
        expected = np.zeros(2 * K_STAR + 1, dtype=complex)
        expected[K_STAR] = free_diagonal_constant(4.0, grid.length)
        assert np.array_equal(g.coeffs, expected)
        assert alpha_of(zero_field(grid), 4.0).value == 0.0

    def test_negative_operator_raises_through_evolve(self):
        # q = -2 kappa^2 makes -d^2 + q + kappa^2 negative: no periodic branch exists
        kappa = 2.0
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        q0 = field_from_modes(grid, [(0, -2.0 * kappa ** 2), (1, 0.01), (-1, 0.01)])
        spec = FlowSpec(HamiltonianSpec.hkappa(kappa), dt=1e-3, T=1e-3, saves=1)
        with pytest.raises(CertificationError):
            evolve(q0, spec)

    @staticmethod
    def assert_raises_without_a_float_warning(qs, kappa):
        # the suite turns a RuntimeWarning into an error; this holds without that filter
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for solve in (lambda: green_of(qs[-1], kappa), lambda: alpha_of(qs[-1], kappa),
                          lambda: alphas_of(qs, kappa)):
                with pytest.raises(CertificationError):
                    solve()

    def test_diverging_newton_raises_without_a_float_warning(self):
        # the iterates from this start overflow (vecdot, multiply) and turn to nan
        # before the solve gives up on them
        grid = TorusGrid.make(32.0, K_STAR)
        q = field_from_modes(grid, [(0, -4.0), (1, 60.0), (-1, 60.0)])
        good = small_random(grid, np.random.default_rng(3), 0.3, 2.0)
        self.assert_raises_without_a_float_warning([good, q], 2.0)

    def test_non_positive_draws_raise_without_a_float_warning(self):
        # mean below -kappa^2: <1, (-d^2 + q + kappa^2) 1> < 0.  Random modes of size
        # 10..1000 times (1 + |j|)^-2.  9 of these 60 draws warned (overflow in vecdot,
        # multiply, divide or exp) while ``_newton`` ran with numpy's float warnings on
        js = np.arange(-K_STAR, K_STAR + 1)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            length, kappa = [2 * math.pi, 16.0, 32.0][seed % 3], [1.0, 2.0, 4.0][seed // 3 % 3]
            grid = TorusGrid.make(length, K_STAR)
            c = rng.standard_normal(js.size) + 1j * rng.standard_normal(js.size)
            c = 0.5 * (c + np.conj(c[::-1])) * 10.0 ** rng.uniform(1, 3) / (1.0 + abs(js)) ** 2
            c[K_STAR] = -kappa ** 2 - rng.uniform(0.1, 10.0)
            self.assert_raises_without_a_float_warning([make_field(grid, coeffs=c)], kappa)

    @pytest.mark.parametrize("bad", [
        [(1, -10.0), (-1, -10.0)],                    # -20 cos x against kappa^2 = 4
        [(0, -8.0), (1, 0.01), (-1, 0.01)],           # -2 kappa^2: no periodic branch
    ])
    def test_stack_raises_the_error_of_its_bad_row(self, bad):
        # the stack stops on its largest residual, so a healthy row before the bad
        # one is left unconverged and must be solved alone to certify
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        good = small_random(grid, np.random.default_rng(3), 0.3, 2.0)
        q_bad = field_from_modes(grid, bad)
        with pytest.raises(CertificationError) as alone:
            alpha_of(q_bad, 2.0)
        with pytest.raises(CertificationError) as stacked:
            alphas_of([good, q_bad, good], 2.0)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("cutoff, dense", [(K_STAR - 1, True), (K_STAR, False)])
    def test_route_switches_at_k_star(self, monkeypatch, cutoff, dense):
        calls = []
        original = ResolventContext.inv_ib

        def counted(ctx):
            calls.append(ctx)
            return original(ctx)

        monkeypatch.setattr(ResolventContext, "inv_ib", counted)
        grid = TorusGrid.make(2 * math.pi, cutoff)
        q = small_random(grid, np.random.default_rng(3), 0.3, 2.0)
        rhs(q, HamiltonianSpec.hkappa(2.0))
        assert bool(calls) == dense

    @pytest.mark.parametrize("length", [2 * math.pi, 64.0])
    def test_newton_correction_reached_and_certifies(self, monkeypatch, length):
        # kappa = 1, ||B||_HS = 0.99: replacing m by its mean stops cutting the
        # residual fourfold, so the integrating-factor correction must finish
        calls = []
        original = greens._newton_correction

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(greens, "_newton_correction", counted)
        grid = TorusGrid.make(length, K_STAR)
        q = small_random(grid, np.random.default_rng(2), 0.99, 1.0)
        g = green_of(q, 1.0).coeffs
        assert calls
        wide = green_diagonal(assemble_resolvent(truncate_field(q, 4 * K_STAR), 1.0))
        ref = wide.coeffs[3 * K_STAR:5 * K_STAR + 1]
        dense = green_diagonal(assemble_resolvent(q, 1.0)).coeffs
        assert np.linalg.norm(g - ref) <= np.linalg.norm(dense - ref)

    def test_warm_starts_match_cold_along_a_trajectory(self, monkeypatch):
        seen = []
        original = flows._riccati_half

        def recording(grid, qh, kappa, nonlinear=None):
            res = original(grid, qh, kappa, nonlinear)
            # qh copied: the Lawson loop builds every stage input in one scratch array
            seen.append((qh.copy(), kappa, nonlinear, riccati_g(grid, kappa, res)))
            return res

        monkeypatch.setattr(flows, "_riccati_half", recording)
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        q0 = small_random(grid, np.random.default_rng(5), 0.3, 4.0)
        # 10 steps: from the 4th on, each start extrapolates the last three steps
        evolve(q0, FlowSpec(HamiltonianSpec.hkappa(4.0), dt=1e-3, T=1e-2, saves=1))
        assert len(seen) == 40 and seen[0][2] is None
        assert all(start is not None for _, _, start, _ in seen[1:])
        for qh, kappa, _, warm in seen:
            full = np.concatenate((np.conj(qh[:0:-1]), qh))
            cold = green_of(PeriodicField(grid, full), kappa).coeffs[K_STAR:]
            assert np.linalg.norm(warm - cold) <= 1e-14 * np.linalg.norm(cold)

    @pytest.mark.parametrize("spoil", [1.0, 1e3])
    def test_stale_state_gives_the_cold_answer(self, spoil):
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        rng = np.random.default_rng(11)
        q = small_random(grid, rng, -0.9, 2.0)
        history = flows._StageHistory(
            flows._extrapolation_table(np.ones(3 * K_STAR // 2 + 1, dtype=complex)))
        # a full-order history, so the start extrapolates through every stored step
        for shift in range(4 * flows.EXTRAPOLATION_ORDER + 1):
            qh = translate(q, 1e-3 * shift).coeffs[K_STAR:]
            history.push(*_riccati_half(grid, qh, 2.0, history.start())[3:])
        history.newest = history.newest * spoil  # 1e3: a start Newton cannot use
        qh = small_random(grid, rng, 0.5, 2.0).coeffs[K_STAR:]
        cold = riccati_g(grid, 2.0, _riccati_half(grid, qh, 2.0))
        warm = riccati_g(grid, 2.0, _riccati_half(grid, qh, 2.0, history.start()))
        assert np.linalg.norm(warm - cold) <= 1e-14 * np.linalg.norm(cold)

    def test_warm_stack_retries_its_spoiled_row_cold(self, monkeypatch):
        # four rows warm-started from their own last solves, one start spoiled 1e3x:
        # the stack certifies the others and solves that row again alone and cold
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        rng = np.random.default_rng(13)
        qhs = np.array([small_random(grid, rng, hs, 2.0).coeffs[K_STAR:]
                        for hs in (0.3, -0.5, 0.7, 0.9)])
        starts = np.array([_riccati_half(grid, qh, 2.0)[3] for qh in qhs])
        starts[2] *= 1e3
        serial = [_riccati_half(grid, qh, 2.0, start) for qh, start in zip(qhs, starts)]
        calls = []

        def recording(grid, qh, kappa, nonlinear=None):
            calls.append((qh, nonlinear))
            return _riccati_half(grid, qh, kappa, nonlinear)

        monkeypatch.setattr(greens, "_riccati_half", recording)
        stack = greens._riccati_half(grid, qhs, 2.0, starts)
        assert len(calls) == 2 and calls[0][0] is qhs
        assert np.array_equal(calls[1][0], qhs[2]) and calls[1][1] is None
        for i, alone in enumerate(serial):
            g, ref = riccati_g(grid, 2.0, (stack[0][i], stack[1][i])), riccati_g(grid, 2.0, alone)
            assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref)
            assert abs(stack[1][i] - alone[1]) <= 1e-13 * (2.0 + alone[1])

    def test_non_real_potential_refused(self):
        grid = TorusGrid.make(2 * math.pi, K_STAR)
        c = np.zeros(2 * K_STAR + 1, dtype=complex)
        c[K_STAR + 1] = 0.1
        q = PeriodicField(grid, c)
        with pytest.raises(PreconditionError):
            green_of(q, 2.0)
        with pytest.raises(PreconditionError):
            alpha_of(q, 2.0)
