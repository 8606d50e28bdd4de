"""Partition of unity, window selection, unwrapping, locality probes."""

import math

import numpy as np
import pytest

from kdvlab import (
    MultiplierSpec,
    TorusGrid,
    build_partition,
    compare_local,
    finite_speed_probe,
    localized_norms,
    localized_smoothing_check,
    lp_project,
    make_field,
    periodize,
    select_cut,
    sobolev_norm,
    truncate_field,
    unwrap,
)
from kdvlab.bridge import RampBump, _window_product_coeffs, fattened_cutoff
from kdvlab.errors import (
    NoAdmissibleWindowError,
    PreconditionError,
    UnderResolvedError,
)
from kdvlab.squeeze import periodized_field


L, N, K, NSAMP = 16.0, 32, 64, 512
BAND = MultiplierSpec.band(0.25, 2.0)


def admissible_field(seed, lo=3, hi=33, unit=True):
    """Random mean-zero field band-limited inside (m/2, 4M] = (1/8, 8]."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid(L, K, NSAMP)
    c = np.zeros(2 * K + 1, dtype=complex)
    for j in range(lo, hi):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        c[K + j] = a
        c[K - j] = np.conj(a)
    u = make_field(grid, coeffs=c)
    if unit:
        u = u * (1.0 / sobolev_norm(u, -0.5, True))
    return u


@pytest.fixture(scope="module")
def partition():
    return build_partition(L, N)


class TestRampBump:
    def test_complementary_ramp_identity(self):
        h = 0.5
        b = RampBump(center=0.0, plateau=h / 4, support=3 * h / 4)
        x = np.linspace(h / 4, 3 * h / 4, 101)
        total = b(x) + b(x - h)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_plateau_and_support(self):
        b = RampBump(center=1.0, plateau=0.25, support=0.75)
        assert np.all(b(np.linspace(0.76, 1.24, 9)) == 1.0)
        assert np.all(b(np.array([0.2, 1.8, 5.0])) == 0.0)

    def test_fourier_matches_quadrature(self):
        b = RampBump(center=0.3, plateau=0.25, support=0.75)
        x = np.linspace(-1.0, 2.0, 60001)
        dx = x[1] - x[0]
        for xi in (0.0, 0.37, 1.0, 2.0, 1.0 / (2 * b.ramp_width)):
            quad = np.sum(b(x) * np.exp(-2j * np.pi * xi * x)) * dx
            assert abs(b.fourier(xi)[0] - quad) < 1e-6

    def test_derivative_norms(self):
        b = RampBump(center=0.0, plateau=1.0, support=1.5)
        x = np.linspace(-2.0, 2.0, 400001)
        d = np.gradient(b(x), x)
        l2 = math.sqrt(np.trapezoid(d * d, x))
        assert abs(b.derivative_l2() - l2) < 1e-3
        assert abs(b.derivative_linf() - np.max(np.abs(d))) < 1e-3


class TestPartition:
    def test_windows_sum_to_one_on_random_points(self, partition, rng):
        x = rng.uniform(-L / 2, L / 2, size=400)
        assert partition.partition_defect(x) <= 1e-12

    def test_each_window_is_the_stated_translate(self, partition):
        h = partition.width
        x = np.linspace(-L / 2, L / 2, 257)
        base = partition.bump(0)
        for k in (1, 7, 31):
            direct = partition.bump(k)(x)
            translated = base(x - k * h)
            assert np.max(np.abs(direct - translated)) < 1e-15

    def test_plateau_value_exactly_one(self, partition):
        h = partition.width
        for k in (0, 5, 20):
            c = partition.centers[k]
            x = np.linspace(c - h / 4, c + h / 4, 33)
            assert np.all(partition.bump(k)(x) == 1.0)

    @pytest.mark.parametrize("n_windows", [8, 12, 32])
    def test_defect_equals_the_per_window_sum(self, n_windows, rng):
        part = build_partition(L, n_windows)
        x = rng.uniform(-L, L, size=400)
        total = sum(part.window_samples(k, x) for k in range(n_windows))
        assert abs(part.partition_defect(x) - float(np.max(np.abs(total - 1.0)))) <= 1e-15

    def test_too_few_windows_rejected(self):
        with pytest.raises(PreconditionError):
            build_partition(L, 4)


class TestLocalizedNorms:
    def test_zero_field(self, partition):
        grid = TorusGrid(L, K, NSAMP)
        u = make_field(grid, coeffs=np.zeros(2 * K + 1, dtype=complex))
        tab = localized_norms(u, partition)
        assert np.all(tab.half == 0.0) and np.all(tab.one == 0.0)
        assert np.all(tab.integrals == 0.0)

    def test_single_high_mode_windows_comparable(self, partition):
        u = admissible_field(0, lo=24, hi=25)  # one frequency, |u| translation-symmetric
        tab = localized_norms(u, partition)
        assert np.max(tab.half) <= 2.0 * np.min(tab.half)

    def test_narrow_bump_far_windows_small(self, partition):
        # gaussian-localized data: spatial and spectral tails both die fast
        grid = TorusGrid(L, K, NSAMP)
        x0 = -L / 2 + 2.0
        rel = np.mod(grid.points - x0 + L / 2, L) - L / 2
        u = make_field(grid, samples=np.exp(-rel ** 2) * np.sin(2 * np.pi * 1.5 * rel))
        tab = localized_norms(u, partition)
        near = tab.half[2:8].max()
        far = tab.half[N // 2: N // 2 + 8].max()
        assert far <= 1e-3 * near

    def test_under_resolved_rejected(self, partition):
        grid = TorusGrid(L, 64, 260)  # fewer than 16 samples per window
        u = make_field(grid, coeffs=np.zeros(129, dtype=complex))
        with pytest.raises(UnderResolvedError):
            localized_norms(u, partition)

    @staticmethod
    def assert_window_coeffs_match_direct_convolution(partition, out_cutoff):
        u = admissible_field(2)
        ku = u.grid.cutoff
        xi = np.arange(-(out_cutoff + ku), out_cutoff + ku + 1) / L
        mid = out_cutoff + 2 * ku
        rows = list(_window_product_coeffs(u, partition, out_cutoff))
        assert len(rows) == partition.N
        for k, row in enumerate(rows):
            direct = np.convolve(partition.bump(k).fourier(xi) / L, u.coeffs)
            ref = direct[mid - out_cutoff:mid + out_cutoff + 1]
            assert np.linalg.norm(row - ref) <= 1e-11 * np.linalg.norm(ref)

    @pytest.mark.parametrize("out_cutoff", [NSAMP, 7])
    def test_window_coeffs_match_direct_convolution(self, partition, out_cutoff):
        self.assert_window_coeffs_match_direct_convolution(partition, out_cutoff)

    @pytest.mark.parametrize("n_windows", [8, 12, 64])
    def test_rolled_window_transforms_match_direct_convolution(self, n_windows):
        # each window's transform is window 0's rolled by kP/N: N must divide P,
        # also when N (12) is not a power of two
        self.assert_window_coeffs_match_direct_convolution(build_partition(L, n_windows), 100)

    def test_integrals_match_quadrature(self, partition):
        u = admissible_field(1)
        tab = localized_norms(u, partition)
        n_fine = 4096
        xs = np.arange(n_fine) * (L / n_fine)
        us = u.samples_values(n_fine)
        for k in (0, 9, 17):
            quad = L * np.mean(partition.window_samples(k, xs) * us)
            assert abs(tab.integrals[k] - quad) < 1e-6 * max(1.0, abs(quad))


class TestSelectCut:
    def test_generic_pair_case(self, partition):
        plan = select_cut(admissible_field(2), partition)
        assert plan.case in ("pair-left", "pair-right")
        assert abs(plan.coefficient) <= 1.0
        k1, k2 = plan.indices
        assert k2 == k1 + 1
        i1, i2 = plan.table.integrals[k1], plan.table.integrals[k2]
        if plan.case == "pair-left":
            assert abs(i1) <= abs(i2)
        else:
            assert abs(i2) < abs(i1)
        assert plan.integral_defect <= 1e-14

    def test_zero_integral_window_gives_single_case(self, partition):
        # a single sine mode is odd about every window center it aligns with,
        # so admissible windows with exactly vanishing integral exist
        grid = TorusGrid(L, K, NSAMP)
        c0 = partition.centers[3]
        u_odd = make_field(
            grid, samples=np.sin(2 * np.pi * 24 * (grid.points - c0) / L))
        plan = select_cut(u_odd, partition)
        assert plan.case == "single"
        assert plan.integral_defect <= 1e-10 * u_odd.l2_norm() * math.sqrt(partition.width)

    def test_cut_window_avoids_origin(self, partition):
        plan = select_cut(admissible_field(4), partition)
        dist = abs((plan.theta + L / 2) % L - L / 2)
        assert dist > 10 * partition.width

    def test_cut_avoids_data_concentration(self, partition):
        # data concentrated at x0: the selected window carries little of it
        grid = TorusGrid(L, K, NSAMP)
        x0 = 5.0
        rel = np.mod(grid.points - x0 + L / 2, L) - L / 2
        u = make_field(grid, samples=np.exp(-rel ** 2) * np.sin(2 * np.pi * 1.5 * rel))
        plan = select_cut(u, partition)
        sel = plan.indices[0]
        assert abs(partition.centers[sel] - x0) > 2 * partition.width
        table_at_data = plan.table.half[
            int((x0 + L / 2) / partition.width) % N]
        assert plan.table.half[sel] < 0.1 * table_at_data

    def test_small_n_has_no_admissible_window(self):
        part16 = build_partition(L, 16)
        with pytest.raises(NoAdmissibleWindowError):
            select_cut(admissible_field(5), part16)


class TestUnwrap:
    def make_plan(self, seed=6):
        part = build_partition(L, N)
        u = admissible_field(seed, unit=False) * 0.05
        return u, part, select_cut(u, part)

    def test_integral_vanishes(self):
        u, _, plan = self.make_plan()
        q0 = unwrap(u, plan)
        scale = u.l2_norm()
        assert abs(q0.integral()) <= 1e-12 * scale
        assert q0.mean_zero_flag()

    def test_hm1_bound_two_a(self):
        u, _, plan = self.make_plan()
        q0 = unwrap(u, plan)
        a_norm = plan.u_half_norm
        assert sobolev_norm(q0, -1.0) <= 2 * a_norm

    def test_half_norm_uniform_bound(self):
        for seed in (6, 7, 8):
            u, _, plan = self.make_plan(seed)
            q0 = unwrap(u, plan)
            assert sobolev_norm(q0, -0.5, True) <= 1.5 * plan.u_half_norm

    def test_sample_exact_on_cutoff_plateau(self):
        u, part, plan = self.make_plan()
        q0 = unwrap(u, plan)
        xs = q0.line_points()
        phi = plan.selected_bump_samples(np.mod(xs, L))
        inside = (xs >= q0.support[0]) & (xs <= q0.support[1]) & (np.abs(phi) == 0.0)
        us = u.samples_values()
        idx = np.round(np.mod(xs, L) / u.grid.spacing).astype(int) % u.grid.samples
        assert np.max(np.abs(q0.samples_values()[inside] - us[idx[inside]])) == 0.0

    def test_support_connected_and_contains_origin(self):
        u, _, plan = self.make_plan()
        q0 = unwrap(u, plan)
        a, b = q0.support
        assert a < 0.0 < b
        assert q0.support_vanishing_defect() <= 1e-12

    def test_fattened_cutoff_is_one_on_support(self):
        u, part, plan = self.make_plan()
        q0 = unwrap(u, plan)
        chi = fattened_cutoff(q0, pad_plateau=part.width / 20,
                              pad_support=part.width / 10)
        xs = q0.line_points()
        inside = (xs >= q0.support[0]) & (xs <= q0.support[1])
        assert np.all(chi(xs[inside]) == 1.0)

    def test_proximity_identity(self):
        # || u - ring(q0) ||_{Hdot^{-1/2}} equals the windowed part exactly
        u, part, plan = self.make_plan()
        q0 = unwrap(u, plan)
        back = truncate_field(periodize(q0, L), K, samples=NSAMP)
        diff_norm = sobolev_norm(u - back, -0.5, True)
        phi_u = make_field(u.grid,
                           samples=plan.selected_bump_samples(u.grid.points)
                           * u.samples_values())
        cc = phi_u.coeffs.copy()
        cc[K] = 0.0
        win_norm = sobolev_norm(make_field(u.grid, coeffs=cc), -0.5, True)
        assert abs(diff_norm - win_norm) <= 1e-6 * win_norm
        rate = math.sqrt(BAND.M / (BAND.N * N))
        assert win_norm <= 2 * 0.8 * rate * plan.u_half_norm

    def test_good_window_abundance(self):
        # Lemma-style claim with the frozen constant 0.8: at least 9/10 of the
        # windows are below 0.8 * sqrt(M/(m N)) * ||u|| in Hdot^{-1/2}
        part = build_partition(L, N)
        rate = math.sqrt(BAND.M / (BAND.N * N))
        for seed in range(10):
            u = admissible_field(100 + seed)
            tab = localized_norms(u, part)
            frac = np.mean(tab.half <= 0.8 * rate)
            assert frac >= 0.9


class TestCompareLocal:
    def setup_run(self, Lc, Nc, m, M, KL, n, proto_amp=0.12):
        def proto(x):
            return proto_amp * np.exp(-x * x) * np.sin(2 * np.pi * 0.7 * x)

        grid = TorusGrid(Lc, KL, n)
        band = MultiplierSpec.band(m, M)
        u0 = lp_project(periodized_field(proto, grid), band)
        part = build_partition(Lc, Nc)
        plan = select_cut(u0, part)
        return u0, plan, band

    def test_initial_error_is_windowed_part(self):
        u0, plan, band = self.setup_run(16.0, 32, 0.25, 2.0, 64, 512)
        times, errs, _ = compare_local(u0, plan, 1.0, band, T=0.01, dt=1e-3, saves=1)
        phi_u = make_field(u0.grid,
                           samples=plan.selected_bump_samples(u0.grid.points)
                           * u0.samples_values())
        expected = sobolev_norm(phi_u, -1.0)
        # exact in the continuum; the discrete gap is the box-representative
        # truncation of the cutoff ramps
        assert errs[0] == pytest.approx(expected, rel=2e-3)

    def test_error_decreases_under_joint_scaling(self):
        # three levels: circle length, window count and mode cutoff double
        # while the band floor m halves
        errors = []
        for level in [(16.0, 32, 0.25, 2.0, 64, 512), (32.0, 64, 0.125, 2.0, 128, 1024),
                      (64.0, 128, 0.0625, 2.0, 256, 2048)]:
            u0, plan, band = self.setup_run(*level)
            _, errs, _ = compare_local(u0, plan, 1.0, band, T=0.04, dt=1e-3, saves=2)
            errors.append(np.max(errs))
        assert errors[0] > errors[1] > errors[2], errors

    def test_rejects_data_outside_band(self):
        u0, plan, _ = self.setup_run(16.0, 32, 0.25, 2.0, 64, 512)
        narrow = MultiplierSpec.band(0.25, 0.5)
        with pytest.raises(PreconditionError):
            compare_local(u0, plan, 1.0, narrow, T=0.01, dt=1e-3, saves=1)


class TestFiniteSpeed:
    def make_q0(self):
        def proto(x):
            return 0.12 * np.exp(-x * x) * np.sin(2 * np.pi * 0.7 * x)

        grid = TorusGrid(16.0, 64, 512)
        u0 = lp_project(periodized_field(proto, grid), BAND)
        plan = select_cut(u0, build_partition(16.0, 32))
        return unwrap(u0, plan)

    def test_margin_precondition(self):
        q0 = self.make_q0()
        with pytest.raises(PreconditionError):
            finite_speed_probe(q0, 2.0, T=1.0, margin=1.0, dt=1e-3)

    def test_exterior_mass_decreases_with_wider_margin(self):
        q0 = self.make_q0()
        masses = []
        for margin in (0.5, 1.5):
            _, m, _ = finite_speed_probe(q0, 1.0, T=0.05, margin=margin, dt=1e-3,
                                         ramp=0.5, saves=2, box_cutoff=160)
            masses.append(np.max(m))
        assert masses[1] < masses[0]

    def test_zero_data_zero_mass(self):
        q0 = self.make_q0()
        from kdvlab.spectral import LineField, PeriodicField

        zero = LineField(
            box=PeriodicField(q0.box.grid, np.zeros_like(q0.box.coeffs)),
            box_start=q0.box_start, support=q0.support,
            exact_samples=np.zeros_like(q0.exact_samples))
        _, m, _ = finite_speed_probe(zero, 1.0, T=0.02, margin=0.5, dt=1e-3,
                                     ramp=0.5, saves=2, box_cutoff=96)
        assert np.max(m) == 0.0


class TestLocalizedSmoothing:
    def test_zero_potential(self):
        grid = TorusGrid.make(16.0, 48)
        q = make_field(grid, coeffs=np.zeros(97, dtype=complex))
        chi = RampBump(center=4.0, plateau=1.0, support=2.0)
        lhs, _ = localized_smoothing_check(q, lambda x: chi.periodized(x, 16.0), 2.0)
        assert lhs < 1e-14

    def test_flat_cutoff_reduces_to_diffeomorphism_bound(self, rng):
        grid = TorusGrid.make(16.0, 48)
        c = rng.standard_normal(97) + 1j * rng.standard_normal(97)
        q = make_field(grid, coeffs=c)
        q = q * (0.2 / sobolev_norm(q, -1.0))
        lhs, _ = localized_smoothing_check(q, lambda x: np.ones_like(x), 2.0)
        assert lhs <= 0.2 * sobolev_norm(q, -1.0)

    def test_ratio_bounded_over_trials(self, rng):
        grid = TorusGrid.make(16.0, 48)
        worst = 0.0
        for _ in range(12):
            c = rng.standard_normal(97) + 1j * rng.standard_normal(97)
            q = make_field(grid, coeffs=c)
            q = q * (0.2 / sobolev_norm(q, -1.0))
            chi = RampBump(center=rng.uniform(2.0, 14.0), plateau=1.0, support=2.0)
            lhs, rhs_v = localized_smoothing_check(
                q, lambda x, b=chi: b.periodized(x, 16.0), 2.0)
            worst = max(worst, lhs / rhs_v)
        assert worst <= 0.05


class TestCutPlanReport:
    def test_json_dict_schema(self, partition):
        plan = select_cut(admissible_field(2), partition)
        d = plan.to_json_dict()
        assert set(d) >= {"case", "indices", "coefficient", "theta",
                          "u_half_norm", "integral_defect", "partition", "windows"}
        assert len(d["windows"]) == N
        import json

        json.dumps(d)  # serializable
