"""Time integration: right-hand sides, conservation, approximation rates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kdvlab import (
    HM1_RADIUS,
    FlowSpec,
    HamiltonianSpec,
    TorusGrid,
    derivative,
    evolve,
    evolve_batch,
    field_from_modes,
    flow_sweep,
    hs_norm,
    make_field,
    monitors,
    polynomial_invariants,
    rhs,
    sobolev_norm,
    symplectic_form,
)
from kdvlab.errors import BlowUpError, CertificationError, PreconditionError
from kdvlab.flows import (
    DFT_MAX_CUTOFF,
    _StageHistory,
    _dft_term,
    _extrapolation_table,
    _fft_term,
    _hkappa_nonlinear,
    _hkappa_term,
    _kdv_dft,
    _kdv_fft,
    _kdv_nonlinear,
    linear_symbol,
)
from kdvlab import flows, greens
from kdvlab.greens import (
    RICCATI_MIN_CUTOFF,
    alpha_of,
    alphas_of,
    first_order_green,
    _riccati_half,
    _riccati_plan,
)
from kdvlab.spectral import PeriodicField, product_coeffs
from kdvlab.squeeze import _propagate_linear

from census import (
    VARIANTS,
    benchmark_hkappa_input,
    count_stage_residuals,
    cut_circle_census,
    cut_circle_input,
    cut_compare_census,
    hkappa_census,
    hkappa_evolve_input,
    record_transforms,
)
from conftest import random_field
from oracles import (calibrate_budget, compare_flows, hamiltonian_value, rescale,
                     time_equicontinuity, translate, zero_field)

TWO_PI = 2 * math.pi


def sine_field(grid, j, amp):
    return field_from_modes(grid, [(j, -0.5j * amp), (-j, 0.5j * amp)])


def small_smooth(grid, scale=1.0):
    return field_from_modes(
        grid,
        [(1, 0.02 * scale), (-1, 0.02 * scale),
         (2, 0.01j * scale), (-2, -0.01j * scale)],
    )


NONLINEAR_HAMS = [
    HamiltonianSpec.kdv(),
    HamiltonianSpec.hkappa(2.0),
    HamiltonianSpec.hkappa_band(2.0, 0.25, 2.0),
]
ALL_HAMS = NONLINEAR_HAMS + [ham.linearised() for ham in NONLINEAR_HAMS]


def vector_field(q, ham):
    """dq/dt at q: ``rhs`` for the nonlinear kinds, and for the linear ones,
    which ``rhs`` refuses, the symbol of their exact multiplier times q."""
    if ham.is_linear:
        return PeriodicField(q.grid, linear_symbol(q.grid, ham) * q.coeffs)
    return rhs(q, ham)


class TestRhs:
    @pytest.mark.parametrize("ham", ALL_HAMS, ids=lambda h: h.kind)
    def test_zero_state_gives_zero(self, ham):
        grid = TorusGrid.make(TWO_PI, 16)
        out = vector_field(zero_field(grid), ham)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    @pytest.mark.parametrize("kind", ["kdv", "kdv_linear"])
    def test_kdv_kinds_refuse_a_kappa(self, kind):
        # a kappa on KdV would be ignored: a user who meant hkappa gets another flow
        with pytest.raises(PreconditionError, match='"kappa"'):
            HamiltonianSpec(kind, kappa=2.0)

    @pytest.mark.parametrize("ham", [h for h in ALL_HAMS if h.is_linear], ids=lambda h: h.kind)
    def test_linear_kinds_are_refused(self, ham):
        with pytest.raises(PreconditionError, match=ham.kind):
            rhs(small_smooth(TorusGrid.make(TWO_PI, 16)), ham)

    def test_kdv_rhs_of_cosine(self, unit_grid):
        q = field_from_modes(unit_grid, [(1, 0.5), (-1, 0.5)])
        out = rhs(q, HamiltonianSpec.kdv())
        target = sine_field(unit_grid, 1, -8 * math.pi ** 3) + \
            sine_field(unit_grid, 2, -6 * math.pi)
        assert np.max(np.abs(out.coeffs - target.coeffs)) < 1e-12 * 8 * math.pi ** 3

    @pytest.mark.parametrize("ham", ALL_HAMS, ids=lambda h: h.kind)
    def test_hamiltonian_vector_field_identity(self, ham, rng):
        # omega(v, dq/dt) equals the directional derivative of the matching
        # Hamiltonian; verifies the g'-gradient wiring for the hkappa kinds
        grid = TorusGrid.make(TWO_PI, 24)

        def rnd(amp):
            c = rng.standard_normal(49) + 1j * rng.standard_normal(49)
            c[24] = 0.0
            f = make_field(grid, coeffs=c)
            return f * (amp / sobolev_norm(f, -1.0))

        q, v = rnd(0.05), rnd(0.05)
        lhs = symplectic_form(v, vector_field(q, ham))
        eps = 1e-5
        fd = (hamiltonian_value(q + v * eps, ham)
              - hamiltonian_value(q + v * (-eps), ham)) / (2 * eps)
        assert abs(lhs - fd) <= 1e-6 * max(abs(fd), 1e-12)

    @pytest.mark.parametrize("cutoff", [16, RICCATI_MIN_CUTOFF])
    @pytest.mark.parametrize("ham", NONLINEAR_HAMS, ids=lambda h: h.kind)
    def test_linearisation_is_the_derivative_of_rhs_at_zero(self, ham, cutoff, rng):
        # the linearised kind steps the flow's own symbol, and that symbol times
        # qhat is the limit of rhs(eps q) / eps, on both routes of g: the gap
        # falls tenfold with eps (for KdV it is exactly eps 3 d/dx (q^2))
        lin = ham.linearised()
        assert (lin.is_linear, lin.kappa, lin.band) == (True, ham.kappa, ham.band)
        assert lin.linearised() == lin
        grid = TorusGrid.make(TWO_PI, cutoff)
        symbol = linear_symbol(grid, lin)
        assert np.array_equal(symbol, linear_symbol(grid, ham))
        q = random_field(grid, rng, decay=2.0, amplitude=0.05)
        exact = symbol * q.coeffs
        gaps = [np.linalg.norm(rhs(q * eps, ham).coeffs / eps - exact) / np.linalg.norm(exact)
                for eps in (1e-3, 1e-4)]
        assert gaps[0] <= 1e-2
        assert gaps[1] == pytest.approx(0.1 * gaps[0], rel=0.05)


    @pytest.mark.parametrize("cutoff", [12, RICCATI_MIN_CUTOFF])
    def test_non_positive_operator_raises_on_both_routes(self, cutoff):
        # q = -4.5 + 0.02 cos x against kappa^2 = 4: -d^2 + q + kappa^2 is not
        # positive; below K* Cholesky of the dense I + B fails, at K* the
        # Riccati Newton does not converge
        grid = TorusGrid.make(TWO_PI, cutoff)
        q = field_from_modes(grid, [(0, -4.5), (1, 0.01), (-1, 0.01)])
        ham = HamiltonianSpec.hkappa(2.0)
        spec = FlowSpec(ham, dt=1e-4, T=3e-4, saves=1)
        with pytest.raises(CertificationError):
            evolve(q, spec)
        if cutoff < RICCATI_MIN_CUTOFF:
            with pytest.raises(CertificationError, match="not positive definite"):
                rhs(q, ham)


class TestEvolve:
    def test_zero_initial_data_stays_zero(self):
        grid = TorusGrid.make(TWO_PI, 16)
        traj = evolve(zero_field(grid), FlowSpec(HamiltonianSpec.kdv(), dt=1e-3,
                                                 T=0.05, saves=5))
        for s in traj.states:
            assert np.max(np.abs(s.coeffs)) == 0.0

    def test_soliton_translates_at_speed_4k0sq(self):
        k0, box = 1.0, 30.0
        grid = TorusGrid.make(box, 81)
        x = grid.points
        y = np.where(x < box / 2, x, x - box)
        q0 = make_field(grid, samples=-2 * k0 ** 2 / np.cosh(k0 * y) ** 2)
        traj = evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=2e-4, T=1.0, saves=2))
        shift = 4 * k0 ** 2 * 1.0
        ys = np.mod(x - shift, box)
        ys = np.where(ys < box / 2, ys, ys - box)
        target = make_field(grid, samples=-2 * k0 ** 2 / np.cosh(k0 * ys) ** 2)
        err = sobolev_norm(traj.final() - target, 0.0)
        assert err < 1e-8

    def test_step_halving_fourth_order(self):
        grid = TorusGrid.make(TWO_PI, 32)
        q0 = small_smooth(grid, scale=5.0)
        ref = evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=2e-4, T=0.5,
                                  saves=1)).final()
        errs = []
        for dt in (8e-3, 4e-3):
            qt = evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=dt, T=0.5,
                                     saves=1)).final()
            errs.append(sobolev_norm(qt - ref, 0.0))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.5)

    def test_blow_up_guard_trips(self):
        grid = TorusGrid.make(1.0, 24)
        q0 = field_from_modes(grid, [(1, 40.0), (-1, 40.0)])
        with pytest.raises(BlowUpError):
            evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=0.05, T=1.0, saves=1))

    @pytest.mark.parametrize("cutoff", [12, RICCATI_MIN_CUTOFF])
    def test_stage_input_blow_up_is_a_blow_up(self, cutoff):
        # 16 kappa^5 = 1.6e301: a stage input overflows within the first step and
        # the remainder then fails on it, on the dense and on the Riccati route;
        # that is the blow-up guard's case, not a non-positive operator's
        grid = TorusGrid.make(TWO_PI, cutoff)
        q0 = field_from_modes(grid, [(1, 0.02), (-1, 0.02)])
        spec = FlowSpec(HamiltonianSpec.hkappa(1e60), dt=1e-3, T=2e-3, saves=1)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(BlowUpError, match="stage input") as err:
            evolve(q0, spec)
        cause = err.value.__cause__
        assert isinstance(cause, CertificationError) and not isinstance(cause, BlowUpError)
        assert err.value.time == pytest.approx(1e-3)
        assert not err.value.norm_after <= 2.0 * err.value.norm_before

    def test_budget_violation_marks_uncertified(self):
        grid = TorusGrid.make(TWO_PI, 16)
        q0 = small_smooth(grid, scale=40.0)  # H^-1 norm above delta0
        assert sobolev_norm(q0, -1.0) > HM1_RADIUS
        traj = evolve(q0, FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=2e-3,
                                   saves=1))
        assert not traj.certified
        assert traj.warnings

    @pytest.mark.parametrize("probe", [0.5, math.nan, math.inf])
    def test_refuses_a_probe_outside_the_domain(self, probe):
        with pytest.raises(PreconditionError):
            FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=2e-3, probes=(2.0, probe))

    def test_scaling_symmetry(self):
        grid = TorusGrid.make(TWO_PI, 32)
        q0 = small_smooth(grid, scale=5.0)
        lam, T = 2.0, 0.5
        a = evolve(rescale(q0, lam),
                   FlowSpec(HamiltonianSpec.kdv(), dt=1e-4, T=T / lam ** 3,
                            saves=1)).final()
        b = rescale(
            evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=T,
                                saves=1)).final(), lam)
        assert sobolev_norm(a - b, 0.0) <= 1e-8 * sobolev_norm(b, 0.0)

    def test_nonzero_mean_accepted_and_mass_conserved(self):
        grid = TorusGrid.make(TWO_PI, 16)
        q0 = small_smooth(grid) + field_from_modes(grid, [(0, 0.1)])
        traj = evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=0.1, saves=2))
        m0 = polynomial_invariants(traj.states[0])[0]
        m1 = polynomial_invariants(traj.final())[0]
        assert abs(m1 - m0) < 1e-12


class TestKdvNonlinear:
    @pytest.mark.parametrize("k", [1, 8, 32, 64])
    def test_matches_complex_fft_product(self, k, rng):
        grid = TorusGrid.make(TWO_PI, k)
        q = make_field(grid, coeffs=rng.standard_normal(2 * k + 1)
                       + 1j * rng.standard_normal(2 * k + 1))
        ref = 3.0 * derivative(PeriodicField(grid, product_coeffs(q.coeffs, q.coeffs, k, k, k)),
                               1).coeffs
        out = _kdv_nonlinear(grid)(q.coeffs[k:])
        assert np.linalg.norm(out - ref[k:]) <= 1e-13 * np.linalg.norm(ref[k:])
        assert out[0] == 0.0
        full = rhs(q, HamiltonianSpec.kdv()).coeffs
        assert np.array_equal(full, np.conj(full[::-1]))

    def test_rows_of_a_stack_are_independent(self, rng):
        grid = TorusGrid.make(TWO_PI, 8)
        qs = [make_field(grid, coeffs=rng.standard_normal(17) + 0j) for _ in range(3)]
        term = _kdv_nonlinear(grid)
        out = term(np.array([q.coeffs[8:] for q in qs]))
        for row, q in zip(out, qs):
            single = term(q.coeffs[8:])
            assert np.linalg.norm(row - single) <= 1e-15 * np.linalg.norm(single)

    @pytest.mark.parametrize("b", [1, 18])
    @pytest.mark.parametrize("k", [1, 8, 32, DFT_MAX_CUTOFF])
    def test_matrix_route_matches_fft_route(self, k, b, rng):
        grid = TorusGrid.make(TWO_PI, k)
        h = rng.standard_normal((b, k + 1)) + 1j * rng.standard_normal((b, k + 1))
        h = h[0] if b == 1 else h
        ref = _kdv_fft(grid)(h)
        out = _kdv_dft(grid)(h)
        assert out.shape == ref.shape
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("route", [_kdv_dft, _kdv_fft], ids=["matrix", "fft"])
    def test_mode_zero_is_zero_and_im_h0_is_ignored(self, route, rng):
        grid = TorusGrid.make(TWO_PI, 16)
        h = rng.standard_normal((3, 17)) + 1j * rng.standard_normal((3, 17))
        real_h0 = h.copy()
        real_h0[:, 0] = real_h0[:, 0].real
        term = route(grid)
        out = term(h)
        assert np.all(out[:, 0] == 0.0)
        assert np.array_equal(out, term(real_h0))

    def test_kernel_is_cached_and_read_only(self):
        for k, func in ((32, _dft_term), (DFT_MAX_CUTOFF, _dft_term),
                        (DFT_MAX_CUTOFF + 1, _fft_term)):
            term = _kdv_nonlinear(TorusGrid.make(TWO_PI, k))
            assert term is _kdv_nonlinear(TorusGrid.make(TWO_PI, k))
            assert term.func is func
            arrays = [a for a in term.args if isinstance(a, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)


def _rel(a, b):
    return np.linalg.norm(a.coeffs - b.coeffs) / np.linalg.norm(b.coeffs)


class TestEvolveBatch:
    def test_batch_of_one_is_evolve(self):
        grid = TorusGrid.make(TWO_PI, 32)
        q0 = small_smooth(grid, scale=5.0)
        spec = FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=0.1, saves=3)
        (final,) = evolve_batch([q0], spec)
        assert np.array_equal(final.coeffs, evolve(q0, spec).final().coeffs)

    def test_blow_up_is_kept_to_its_member(self):
        grid = TorusGrid.make(1.0, 24)
        spec = FlowSpec(HamiltonianSpec.kdv(), dt=0.05, T=1.0, saves=1)
        q0s = [small_smooth(grid, scale=s) for s in (0.1, 0.2, 0.4)]
        q0s.append(field_from_modes(grid, [(1, 40.0), (-1, 40.0)]))
        q0s += [small_smooth(grid, scale=s) for s in (0.6, 0.8, 1.0)]
        out = evolve_batch(q0s, spec)
        with pytest.raises(BlowUpError) as serial:
            evolve(q0s[3], spec)
        assert isinstance(out[3], BlowUpError)
        assert out[3].time == serial.value.time
        for i in (0, 1, 2, 4, 5, 6):
            assert _rel(out[i], evolve(q0s[i], spec).final()) <= 1e-13

    def test_hkappa_batch_matches_serial(self):
        grid = TorusGrid.make(TWO_PI, 16)
        spec = FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=5e-3, saves=1)
        q0s = [small_smooth(grid), translate(small_smooth(grid, scale=2.0), 0.5)]
        for got, q0 in zip(evolve_batch(q0s, spec), q0s):
            assert _rel(got, evolve(q0, spec).final()) <= 1e-13

    @pytest.mark.parametrize("ham", [HamiltonianSpec.kdv().linearised(),
                                     HamiltonianSpec.hkappa(2.0).linearised()],
                             ids=["kdv_linear", "hkappa_linear"])
    def test_linear_kinds_step_the_exact_multiplier(self, ham, rng, monkeypatch):
        # a linear flow has no remainder: each step is c <- e^{lambda dt} c, no rhs
        def never(q, ham):
            raise AssertionError("a linear flow evaluated rhs")

        monkeypatch.setattr(flows, "rhs", never)
        grid = TorusGrid.make(TWO_PI, 16)
        q0s = [random_field(grid, rng, decay=1.5) for _ in range(8)]
        spec = FlowSpec(ham, dt=1e-3, T=0.1, saves=1)
        for got, q0 in zip(evolve_batch(q0s, spec), q0s):
            assert _rel(got, _propagate_linear(q0, ham, spec.T)) <= 1e-12

    @pytest.mark.parametrize("ham", [HamiltonianSpec.kdv(), HamiltonianSpec.hkappa(2.0),
                                     HamiltonianSpec.hkappa_band(2.0, 0.25, 2.0)],
                             ids=["kdv", "hkappa", "hkappa_band"])
    def test_states_are_exactly_hermitian(self, ham, rng):
        k = 16
        grid = TorusGrid.make(TWO_PI, k)
        rough = make_field(grid, coeffs=rng.standard_normal(2 * k + 1)
                           + 1j * rng.standard_normal(2 * k + 1))
        q0s = [small_smooth(grid), rough * (0.05 / sobolev_norm(rough, -1.0))]
        spec = FlowSpec(ham, dt=1e-3, T=5e-3, saves=5)
        states = evolve(q0s[1], spec).states + evolve_batch(q0s, spec)
        assert len(states) == 6 + 2
        for q in states:
            c = q.coeffs
            assert np.array_equal(c[k - 1::-1], np.conj(c[k + 1:]))
            assert c[k].imag == 0.0

    def test_lawson_steps_are_bitwise_textbook_steps(self, rng):
        # the loop builds its stage inputs in one scratch array and accumulates the
        # step in place; written out below with a fresh array per operation, in the
        # same operation order, the Lawson-RK4 steps agree with it bit for bit
        k, dt, steps = 32, 2.0 ** -10, 5
        grid = TorusGrid.make(TWO_PI, k)
        ham = HamiltonianSpec.kdv()
        q0s = [random_field(grid, rng, decay=2.0, amplitude=a) for a in (0.02, 0.05, 0.1)]
        got = flows._lawson_rk4(q0s, FlowSpec(ham, dt=dt, T=steps * dt, saves=1))

        nonlinear = _kdv_nonlinear(grid)
        half = np.exp(linear_symbol(grid, ham)[k:] * (dt / 2.0))
        full = half * half
        c = np.array([q.coeffs[k:] for q in q0s])
        for _ in range(steps):
            a = nonlinear(c)
            b = nonlinear(half * (c + (dt / 2.0) * a))
            cc = nonlinear(half * c + (dt / 2.0) * b)
            d = nonlinear(full * c + (dt * half) * cc)
            c = full * c + (dt / 6.0) * (full * a + (2.0 * half) * (b + cc) + d)
            c.imag[:, 0] = 0.0
        assert len(got) == 3
        for row, want in zip(got, c):
            assert np.array_equal(row[k:], want)
            assert np.array_equal(row[:k], np.conj(want[:0:-1]))

    def test_needs_one_grid(self):
        spec = FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=2e-3, saves=1)
        q0s = [zero_field(TorusGrid.make(TWO_PI, 8)), zero_field(TorusGrid.make(TWO_PI, 9))]
        with pytest.raises(PreconditionError):
            evolve_batch(q0s, spec)


K_STAR = RICCATI_MIN_CUTOFF
RICCATI_HAMS = [HamiltonianSpec.hkappa(2.0), HamiltonianSpec.hkappa_band(2.0, 0.25, 2.0)]


def still_history(cutoff):
    """A fresh ``_StageHistory`` whose transport is the identity (dt = 0)."""
    return _StageHistory(_extrapolation_table(np.ones(3 * cutoff // 2 + 1, dtype=complex)))


# stage solves before every stage's start extrapolates through the starting order
WARM_UP = 4 * (flows.EXTRAPOLATION_ORDER + 1)


def record_final_iterates(monkeypatch):
    """Per Riccati solve from now on, [plan, qh as ``greens._residual`` takes it, w-hat, its
    ``greens._residual`` state (F-hat first), stepped] at the iterate it ends at:
    its start when that certified as it stood, else the result of
    ``greens._newton`` (stepped)."""
    solves, in_newton = [], []
    residual, newton = greens._residual, greens._newton

    def start(plan, qh, q0, wh):
        out = residual(plan, qh, q0, wh)
        if not in_newton:  # the start of a solve, not a Newton iterate
            # qh copied: the Lawson loop builds every stage input in one scratch array
            solves.append([plan, qh.copy(), wh, out, False])
        return out

    def stepped(plan, qh, *args):
        in_newton.append(True)
        try:
            out = newton(plan, qh, *args)
        finally:
            in_newton.pop()
        solves[-1][2:] = [out[0], out[1], True]
        return out

    monkeypatch.setattr(greens, "_residual", start)
    monkeypatch.setattr(greens, "_newton", stepped)
    return solves


def rough_small(grid, rng, hm1=0.05):
    k = grid.cutoff
    f = make_field(grid, coeffs=rng.standard_normal(2 * k + 1)
                   + 1j * rng.standard_normal(2 * k + 1))
    return f * (hm1 / sobolev_norm(f, -1.0))


class TestHkappaNonlinear:
    """The H_kappa kernel of the Lawson loop at K = K*, against per-row ``rhs``."""

    @pytest.mark.parametrize("ham", RICCATI_HAMS, ids=lambda h: h.kind)
    def test_matches_rhs_less_linear_symbol(self, ham, rng):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        term = _hkappa_nonlinear(grid, ham)
        lam = linear_symbol(grid, ham)[K_STAR:]
        for q in (small_smooth(grid, scale=5.0), rough_small(grid, rng)):
            full = rhs(q, ham).coeffs
            h = q.coeffs[K_STAR:]
            ref = full[K_STAR:] - lam * h
            cold = term(h, still_history(K_STAR))
            assert np.linalg.norm(cold - ref) <= 1e-12 * np.linalg.norm(full)

    def test_refuses_a_half_row_with_complex_mean(self):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        h = small_smooth(grid).coeffs[K_STAR:].copy()
        h[0] = 1e-3j
        with pytest.raises(PreconditionError):
            _hkappa_nonlinear(grid, RICCATI_HAMS[0])(h, still_history(K_STAR))

    @pytest.mark.parametrize("ham", RICCATI_HAMS, ids=lambda h: h.kind)
    def test_batch_matches_serial_and_states_are_hermitian(self, ham, rng):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        spec = FlowSpec(ham, dt=1e-3, T=5e-3, saves=5)
        q0s = [small_smooth(grid), rough_small(grid, rng),
               translate(small_smooth(grid, scale=2.0), 0.5)]
        serial = [evolve(q0, spec) for q0 in q0s]
        batch = evolve_batch(q0s, spec)
        for got, traj in zip(batch, serial):
            assert _rel(got, traj.final()) <= 1e-13
        states = [q for traj in serial for q in traj.states] + batch
        for q in states:
            c = q.coeffs
            assert np.array_equal(c[K_STAR - 1::-1], np.conj(c[K_STAR + 1:]))
            assert c[K_STAR].imag == 0.0

    def test_uncertified_row_is_dropped_alone(self):
        # -20 cos x against kappa^2 = 4: -d^2 + q + kappa^2 is not positive
        grid = TorusGrid.make(TWO_PI, K_STAR)
        spec = FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=5e-3, saves=1)
        large = field_from_modes(grid, [(1, -10.0), (-1, -10.0)])
        q0s = [small_smooth(grid), large, small_smooth(grid, scale=2.0)]
        out = evolve_batch(q0s, spec)
        with pytest.raises(CertificationError) as serial:
            evolve(large, spec)
        assert isinstance(out[1], CertificationError)
        assert str(out[1]) == str(serial.value)
        for i in (0, 2):
            assert _rel(out[i], evolve(q0s[i], spec).final()) <= 1e-13

    @pytest.mark.parametrize("ham", RICCATI_HAMS, ids=lambda h: h.kind)
    def test_readout_is_bitwise_the_formula(self, ham, monkeypatch):
        # g - g0 read from the residual's own rfft is, bitwise, the rfft of
        # coth((kappa + dtheta) l / 2) / (m_- - m_+) - coth(kappa l / 2) / (2 kappa)
        # at the solve's final iterate; the term folds 16 kappa^5 (2 pi i j / l) P_band
        # into the first-order multiplier, so it is held to a few roundings of its parts
        grid = TorusGrid.make(TWO_PI, K_STAR)
        term = _hkappa_nonlinear(grid, ham)
        _, kappa, w, amp, amp_m = term.args
        m_lin = first_order_green(grid, kappa)[K_STAR:] * (1.0 if w is None else w)
        half = 0.5 * grid.length
        tol = 8.0 * np.finfo(float).eps  # per part, set before any comparison
        solves = record_final_iterates(monkeypatch)
        history = still_history(K_STAR)
        # a cold row (empty history), then a warm one started from its solve
        for q in (small_smooth(grid), translate(small_smooth(grid), 1e-3)):
            h = q.coeffs[K_STAR:]
            got = term(h, history)
            _, _, _, (_, _, gh, dtheta, _, d, _), _ = solves[-1]
            gx = (1.0 / math.tanh((kappa + dtheta) * half) / d
                  - 1.0 / math.tanh(kappa * half) / (2.0 * kappa))
            assert np.array_equal(gh, np.fft.rfft(gx, norm="forward")[:K_STAR + 1])
            ref = amp * (gh - m_lin * h)
            assert np.all(abs(got - ref) <= tol * (abs(amp * gh) + abs(amp_m * h)))
        assert history.solves == len(solves) == 2

    def test_warm_stage_solve_makes_two_transforms_per_residual(self, monkeypatch):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        term = _hkappa_nonlinear(grid, HamiltonianSpec.hkappa(4.0))
        history = still_history(K_STAR)
        term(small_smooth(grid).coeffs[K_STAR:], history)
        calls = record_transforms(monkeypatch)
        term(translate(small_smooth(grid), 1e-3).coeffs[K_STAR:], history)
        # each residual evaluation starts with the inverse transform of the
        # w-hat pair on modes 0..M, M = 3K/2
        residuals = calls.count(("irfft", (2, 3 * K_STAR // 2 + 1)))
        # a start 1e-3 away does not certify: its residual and at least one step's
        assert residuals >= 2
        # two per residual, the readout of g among them
        assert len(calls) <= 2 * residuals

    def test_certified_warm_start_makes_one_residual_and_the_readout(self, monkeypatch):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        term = _hkappa_nonlinear(grid, HamiltonianSpec.hkappa(4.0))
        history = still_history(K_STAR)
        h = small_smooth(grid).coeffs[K_STAR:]
        term(h, history)
        calls = record_transforms(monkeypatch)
        term(h, history)  # the same q again: its start is already certified
        # the start's residual only: an irfft of the w-hat pair and one rfft of
        # w_-^2, w_+^2 and the samples of g - g0, from which g is read
        m, n = _riccati_plan(grid, 4.0)[:2]
        assert calls == [("irfft", (2, m + 1)), ("rfft", (3, n))]

    def test_pushed_nonlinear_part_is_one_diagonal_step_past_the_solve(self, monkeypatch):
        # N - F-hat / (lin + 2 Re w-hat_0), bitwise, for a cold solve and for a
        # warm one whose start certifies and so takes no step
        grid = TorusGrid.make(TWO_PI, K_STAR)
        term = _hkappa_nonlinear(grid, HamiltonianSpec.hkappa(4.0))
        _, kappa, w, _, _ = term.args
        assert w is None  # no band: the solve takes h itself
        plan = _riccati_plan(grid, kappa)
        m, lin = plan[0], plan[3]
        solves = record_final_iterates(monkeypatch)
        history = still_history(K_STAR)
        qh = h = small_smooth(grid).coeffs[K_STAR:]
        cold = np.zeros((2, m + 1), dtype=complex)
        cold[:, :K_STAR + 1] = qh / lin[:, :K_STAR + 1]
        for _ in range(2):
            start = history.start()
            term(h, history)
            _, _, wh, (fh, *_), took_steps = solves[-1]
            # the certified iterate's nonlinear part: a start that settled is
            # taken as given, not re-formed from w-hat
            nonlinear = wh - cold if took_steps else start
            assert np.array_equal(history.newest,
                                  nonlinear - fh / (lin + 2.0 * wh[:, :1].real))
        assert [took_steps for *_, took_steps in solves] == [True, False]
        assert np.abs(fh).max() <= greens.NEWTON_RTOL * np.abs(qh).max()
        assert np.array_equal(wh, cold + start)  # the warm solve took no step
        assert not np.array_equal(history.newest, start)

    def test_stage_starts_take_at_most_three_residuals_per_solve(self, monkeypatch):
        q0, ham = cut_circle_input()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=6e-3, saves=1))
        assert len(residuals) == 6 * 4
        # from step 4 on every start extrapolates its stage's increments
        assert np.mean(residuals[12:]) <= 3.0

    def test_stage_starts_on_the_hkappa_evolve_input(self, monkeypatch):
        # kappa = 4, K = 64: modes K+1..M of w rotate by up to ~5 rad a step, so
        # stages b and d need the transport on them to extrapolate
        q0, ham = hkappa_evolve_input()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=0.05, saves=1))
        assert len(residuals) == 50 * 4
        assert np.mean(residuals) <= 2.8  # warm-up included

    def test_stage_starts_on_the_cut_compare_circle_flow(self, monkeypatch):
        # the shape of cut_compare's circle flow over its 20 steps
        q0, ham = cut_circle_input()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=0.02, saves=1))
        assert len(residuals) == 20 * 4
        assert np.mean(residuals) <= 2.55  # warm-up included

    @pytest.mark.parametrize("flow, steps", [(hkappa_evolve_input, 50), (cut_circle_input, 20)],
                             ids=["hkappa_evolve", "cut_circle"])
    def test_warm_solves_stop_after_one_diagonal_step(self, monkeypatch, flow, steps):
        # a warm start's first diagonal step leaves a residual far below
        # NEWTON_RTOL; the next, cutting by the same ratio, would only reach
        # rounding, so the solve stops: at most two residuals, the start's and
        # the step's (one where the start already certifies)
        q0, ham = flow()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=steps * 1e-3, saves=1))
        assert len(residuals) == steps * 4
        assert np.mean(residuals[WARM_UP:]) <= 2.05

    def test_stages_a_and_c_end_at_their_start_on_the_hkappa_evolve_input(self, monkeypatch):
        # the starts of stages a and c certify, so they take their start's
        # residual only; b and d, half a step past them, take at most one
        # diagonal step, and their rising orders make most of their starts certify
        q0, ham = hkappa_evolve_input()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=0.05, saves=1))
        per_step = np.reshape(residuals[WARM_UP:], (-1, 4))
        assert len(per_step) == 50 - WARM_UP // 4
        assert (per_step[:, [0, 2]] == 1).all()
        assert (per_step[:, [1, 3]] <= 2).all()
        assert per_step[:, [1, 3]].mean() <= 1.5  # 2 at a fixed order 7

    def test_cut_circle_starts_certify_after_the_warm_up(self, monkeypatch):
        q0, ham = cut_circle_input()
        residuals = count_stage_residuals(monkeypatch)
        evolve(q0, FlowSpec(ham, dt=1e-3, T=0.02, saves=1))
        assert len(residuals) == 20 * 4
        assert np.mean(residuals[WARM_UP:]) <= 1.05

    @pytest.mark.parametrize("flow", [hkappa_evolve_input, cut_circle_input],
                             ids=["hkappa_evolve", "cut_circle"])
    def test_every_solve_and_probe_row_ends_at_the_certified_level(self, monkeypatch, flow):
        # the residual of the iterate each solve ends at (its start, or Newton's
        # result), recomputed from its w-hat, against NEWTON_RTOL times its own
        # row's max |qhat|: stage pairs and alpha stacks
        solves = record_final_iterates(monkeypatch)
        q0, ham = flow()
        evolve(q0, FlowSpec(ham, dt=1e-3, T=0.02, saves=4, probes=(1.0, 2.0)))
        assert [np.shape(wh)[:-2] for _, _, wh, _, _ in solves] == [()] * 80 + [(5,)] * 2
        for plan, qh, wh, _, _ in solves:
            m, n, ik, _, _, two_kappa = plan[:6]
            w = np.fft.irfft(wh, n, norm="forward")
            fh = (ik[:m + 1] + two_kappa) * wh + np.fft.rfft(w * w, norm="forward")[..., :m + 1]
            fh[..., :qh.shape[-1]] -= qh
            rows = np.abs(fh).max(axis=(-2, -1))
            scales = np.abs(qh).reshape(rows.shape + (-1,)).max(axis=-1)
            assert np.all(rows <= greens.NEWTON_RTOL * scales)

    def test_kernel_is_cached_and_read_only(self):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        for ham in RICCATI_HAMS:
            term = _hkappa_nonlinear(grid, ham)
            assert term is _hkappa_nonlinear(TorusGrid.make(TWO_PI, K_STAR), replace(ham))
            assert term.func is _hkappa_term
            # amp and amp m_lin, and the band's w: the unbanded flow has none to multiply by
            arrays = [a for a in term.args if isinstance(a, np.ndarray)]
            assert (term.args[2] is None) == (ham.band is None)
            assert len(arrays) == 2 + (ham.band is not None)
            assert not any(a.flags.writeable for a in arrays)


class TestStageOrders:
    """Each RK stage's extrapolation order: it starts at EXTRAPOLATION_ORDER and
    rises by one for each start at full depth that does not certify, up to
    EXTRAPOLATION_MAX_ORDER, and never falls."""

    @staticmethod
    def push(history, steps, settled):
        """Push steps x 4 solves; (the depth of each start, stage b's order after each step)."""
        part = np.zeros((2, 3 * K_STAR // 2 + 1), dtype=complex)
        depths, orders_b = [], []
        for i in range(4 * steps):
            depths.append(history.depth())
            history.start()
            history.push(part, settled(i))
            orders_b.append(history.orders[1])
        return depths, orders_b[1::4]

    def test_warm_up_follows_the_starting_order(self):
        # WARM_UP is the first solve of the first step whose four starts all
        # extrapolate through EXTRAPOLATION_ORDER steps
        p = flows.EXTRAPOLATION_ORDER
        history = still_history(K_STAR)
        depths, _ = self.push(history, 12, lambda i: True)
        assert depths[WARM_UP:] == [p] * (48 - WARM_UP)
        assert depths[WARM_UP - 4] == p - 1
        assert history.orders == [p] * 4

    def test_an_order_rises_by_one_per_missed_start_at_full_depth_to_the_cap(self):
        p, cap = flows.EXTRAPOLATION_ORDER, flows.EXTRAPOLATION_MAX_ORDER
        history = still_history(K_STAR)
        # stage b's starts never certify, the others' always do
        depths, orders_b = self.push(history, 20, lambda i: i % 4 != 1)
        # misses during the warm-up leave the order alone
        assert orders_b == [p] * p + [min(j, cap) for j in range(p + 1, 21)]
        assert depths[1::4] == [min(j, cap) for j in range(20)]
        assert history.orders == [p, cap, p, p]
        # and certified starts never lower it
        self.push(history, 5, lambda i: True)
        assert history.orders == [p, cap, p, p]


@pytest.fixture(scope="module")
def hkappa_evolve_census():
    """Per hkappa_evolve input variant: ((200, 4) residuals per stage solve, orders,
    np.fft calls per stage solve)."""
    return [hkappa_census(seed) for seed in range(VARIANTS)]


class TestStageCensus:
    """Residuals and transforms per stage solve of the benchmark flows
    (tests/census.py), counted."""

    def test_hkappa_evolve_stage_solves_mostly_end_at_their_start(self, hkappa_evolve_census):
        means = [per_step.mean() for per_step, _, _ in hkappa_evolve_census]
        assert np.mean(means) <= 1.25  # 1.538 with every order fixed at 7
        assert sum(m <= 1.05 for m in means) >= 7

    def test_hkappa_evolve_stage_solves_make_few_transforms(self, hkappa_evolve_census):
        # an irfft and an rfft per residual, g read from the residual's own rfft:
        # 3.34 per solve over the 16 variants with a separate rfft for g
        assert np.mean([per_solve for _, _, per_solve in hkappa_evolve_census]) <= 2.40

    def test_orders_never_exceed_the_cap(self, hkappa_evolve_census):
        orders = [o for _, (row,), _ in hkappa_evolve_census for o in row]
        assert flows.EXTRAPOLATION_ORDER == min(orders)
        assert max(orders) <= flows.EXTRAPOLATION_MAX_ORDER

    def test_cut_circle_stages_keep_the_starting_order(self):
        per_step, orders, _ = cut_circle_census()
        assert orders == [[flows.EXTRAPOLATION_ORDER] * 4]
        assert per_step[WARM_UP // 4:].mean() <= 1.05

    def test_cut_compare_residuals_per_run_hold(self):
        assert np.mean([cut_compare_census(seed)[0] for seed in range(VARIANTS)]) <= 217.7


class TestMonitors:
    def test_zero_trajectory_all_drifts_zero(self):
        grid = TorusGrid.make(TWO_PI, 16)
        traj = evolve(zero_field(grid), FlowSpec(HamiltonianSpec.kdv(), dt=1e-3,
                                                 T=0.05, saves=5, probes=(2.0,)))
        assert all(v == 0.0 for v in monitors(traj).values())

    def test_kdv_conserves_its_invariants(self):
        grid = TorusGrid.make(TWO_PI, 32)
        traj = evolve(small_smooth(grid),
                      FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=1.0, saves=8,
                               probes=(2.0, 4.0)))
        assert max(monitors(traj).values()) <= 1e-6
        assert all(np.all(traj.monitors[f"hs({kap:g})"] < 1.0) for kap in (2.0, 4.0))

    def test_hkappa_conserves_alpha_at_other_kappa(self):
        grid = TorusGrid.make(TWO_PI, 32)
        traj = evolve(small_smooth(grid),
                      FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=0.5, saves=5,
                               probes=(2.0, 3.0)))
        drifts = monitors(traj)
        assert drifts["alpha(2)"] <= 1e-7
        assert drifts["alpha(3)"] <= 1e-6

    @pytest.mark.parametrize("ham", ALL_HAMS, ids=lambda h: h.kind)
    def test_each_flow_conserves_its_hamiltonian(self, ham):
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        traj = evolve(q0, FlowSpec(ham, dt=1e-3, T=0.2, saves=4))
        vals = [hamiltonian_value(s, ham) for s in traj.states]
        scale = max(abs(vals[0]), 1e-12)
        assert max(abs(v - vals[0]) for v in vals) <= 1e-7 * scale

    def test_reads_back_stored_probes(self, monkeypatch):
        grid = TorusGrid.make(TWO_PI, 16)
        traj = evolve(small_smooth(grid),
                      FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=0.05, saves=5,
                               probes=(2.0, 4.0)))
        probed = {kap: alphas_of(traj.states, kap) for kap in (2.0, 4.0)}

        def no_probe(*args):
            raise AssertionError("monitors() recomputed a stored probe")

        monkeypatch.setattr(flows, "alphas_of", no_probe)
        drifts = monitors(traj)
        assert set(drifts) == {"M", "P", "H_kdv", "alpha(2)", "alpha(4)"}
        for kap, alphas in probed.items():
            vals = np.array([a.value for a in alphas])
            scale = float(np.max(np.abs(vals)))
            assert drifts[f"alpha({kap:g})"] == float(np.max(np.abs(vals - vals[0]))) / scale

    def test_stacked_alpha_matches_each_state_alone(self):
        grid = TorusGrid.make(TWO_PI, K_STAR)
        traj = evolve(benchmark_hkappa_input(grid),
                      FlowSpec(HamiltonianSpec.hkappa(4.0), dt=1e-3, T=0.02, saves=10,
                               probes=(2.0, 4.0)))
        for kap in (2.0, 4.0):
            stacked = alphas_of(traj.states, kap)
            assert [a.value for a in stacked] == list(traj.monitors[f"alpha({kap:g})"])
            for q, a in zip(traj.states, stacked):
                alone = alpha_of(q, kap)
                assert abs(a.value - alone.value) <= 1e-13 * abs(alone.value)
                assert a.hs_norm == alone.hs_norm

    def test_evolve_solves_each_probe_as_one_stack(self, monkeypatch):
        solves = record_final_iterates(monkeypatch)  # the w-hat of each solve
        grid = TorusGrid.make(TWO_PI, K_STAR)
        evolve(small_smooth(grid), FlowSpec(HamiltonianSpec.hkappa(4.0), dt=1e-3, T=5e-3,
                                            saves=5, probes=(2.0, 4.0)))
        shapes = [wh.shape for _, _, wh, _, _ in solves]
        pair = (2, 3 * K_STAR // 2 + 1)
        assert shapes.count(pair) == 5 * 4  # one per row and stage
        assert [s for s in shapes if s != pair] == [(6,) + pair] * 2  # one per probe

    def test_needs_at_least_one_probe(self):
        grid = TorusGrid.make(TWO_PI, 16)
        traj = evolve(zero_field(grid), FlowSpec(HamiltonianSpec.kdv(), dt=1e-3,
                                                 T=0.01, saves=2))
        with pytest.raises(PreconditionError):
            monitors(traj)


class TestReversibility:
    """R Phi_T R Phi_T q0 = q0 with (Rq)(x) = q(-x), that is (Rq)^(j) = qhat(-j): each
    flow's vector field anticommutes with R, so R Phi_T R runs it backwards."""

    @pytest.mark.parametrize("dt", [1e-3, 2e-3])
    @pytest.mark.parametrize("cutoff", [16, K_STAR], ids=["dense", "kernel"])
    @pytest.mark.parametrize("ham", ALL_HAMS, ids=lambda h: h.kind)
    def test_reflected_flow_returns_to_the_start(self, ham, cutoff, dt):
        grid = TorusGrid.make(TWO_PI, cutoff)
        js = np.arange(-cutoff, cutoff + 1)
        # |qhat| ~ (1 + |j|)^-3, max 0.05, its phases those of a translate, so q is not even
        q0 = make_field(grid, coeffs=0.05 * (1.0 + abs(js)) ** -3.0 * np.exp(1j * js))
        spec = FlowSpec(ham, dt=dt, T=0.1, saves=1)

        def reflect(q):
            return PeriodicField(grid, q.coeffs[::-1].copy())

        back = reflect(evolve(reflect(evolve(q0, spec).final()), spec).final())
        err = np.linalg.norm(back.coeffs - q0.coeffs) / np.linalg.norm(q0.coeffs)
        # measured: KdV 1.4e-8 and 3.6e-8 at K = 64 (RK4 is not time-symmetric), the
        # H_kappa kinds up to 1.2e-13 (the Riccati solves' tolerance), the linear ones 4e-15
        bound = {"kdv": 1e-6, "hkappa": 1e-12, "hkappa_band": 1e-12}.get(ham.kind, 1e-13)
        assert err <= bound


class TestCompareFlows:
    def test_identical_runs_give_zero(self):
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        spec = FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=0.1, saves=4)
        _, errs, _ = compare_flows(q0, q0, spec, spec)
        assert np.max(errs) < 1e-13

    def test_gronwall_envelope(self):
        # error growth of perturbed initial data bounded by a fitted exponential
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        q1 = q0 + small_smooth(grid, scale=0.01)
        spec = FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=0.5, saves=5)
        times, errs, _ = compare_flows(q0, q1, spec, spec)
        base = errs[0]
        rate = np.log(errs[-1] / base) / times[-1]
        envelope = base * np.exp(rate * times)
        assert np.all(errs <= envelope * 1.05 + 1e-15)

    def test_kappa_sweep_matches_pairwise_compare(self):
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        trajs, sups = flow_sweep(q0, HamiltonianSpec.kdv(), [HamiltonianSpec.hkappa(2.0)],
                                 dt=1e-3, T=0.1, saves=4)
        spec_kdv = FlowSpec(HamiltonianSpec.kdv(), dt=1e-3, T=0.1, saves=4)
        spec_hk = FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=0.1, saves=4)
        _, errs, _ = compare_flows(q0, q0, spec_kdv, spec_hk)
        assert abs(sups[0] - np.max(errs)) < 1e-12
        assert [t.spec.hamiltonian.kind for t in trajs] == ["kdv", "hkappa"]

    def test_kappa_sweep_zero_data(self):
        grid = TorusGrid.make(TWO_PI, 16)
        _, sups = flow_sweep(zero_field(grid), HamiltonianSpec.kdv(),
                             [HamiltonianSpec.hkappa(2.0), HamiltonianSpec.hkappa(4.0)],
                             dt=1e-3, T=0.05, saves=2)
        assert sups == [0.0, 0.0]

    def test_sweep_keeps_a_repeated_flow_and_its_order(self):
        # one distance per listed flow, in list order, each against the one reference
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        hams = [HamiltonianSpec.hkappa(4.0), HamiltonianSpec.hkappa(2.0),
                HamiltonianSpec.hkappa(2.0)]
        trajs, sups = flow_sweep(q0, HamiltonianSpec.kdv(), hams, dt=2e-3, T=0.02, saves=2)
        assert [t.spec.hamiltonian for t in trajs] == [HamiltonianSpec.kdv()] + hams
        assert len(sups) == 3 and sups[1] == sups[2] != sups[0]


class TestEquicontinuity:
    def make_traj(self, q0):
        return evolve(q0, FlowSpec(HamiltonianSpec.hkappa(2.0), dt=1e-3, T=0.5,
                                   saves=10))

    def test_zero_trajectory(self):
        grid = TorusGrid.make(TWO_PI, 16)
        table = time_equicontinuity(self.make_traj(zero_field(grid)))
        assert all(mod == 0.0 for _, mod in table)

    def test_modulus_bounded_by_rhs_oracle(self):
        # Duhamel: ||q(t)-q(s)|| <= |t-s| * sup ||dq/dt||_{H^-1}; the linear
        # part is a translation, so compare against the full rhs norm
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        traj = self.make_traj(q0)
        ham = traj.spec.hamiltonian
        rate = max(sobolev_norm(rhs(s, ham), -1.0) for s in traj.states)
        table = time_equicontinuity(traj)
        for delta, mod in table:
            assert mod <= rate * delta * 1.05
        # modulus vanishes as delta -> 0
        assert table[0][1] < table[-1][1] or table[-1][1] == 0.0

    def test_modulus_translation_invariant(self):
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        t1 = time_equicontinuity(self.make_traj(q0))
        t2 = time_equicontinuity(self.make_traj(translate(q0, 1.234)))
        for (_, a), (_, b) in zip(t1, t2):
            assert abs(a - b) <= 1e-9 * max(a, 1e-30)


class TestGrowthBound:
    def test_fitted_rate_stable_under_dt_refinement(self):
        # ||q(t)||_{Hdot^{-1/2}} <= C ||q0|| e^{c t}; the fitted c must not be
        # an integrator artifact, so it has to survive halving dt
        grid = TorusGrid.make(TWO_PI, 24)
        q0 = small_smooth(grid)
        assert sobolev_norm(q0, -0.5, True) <= HM1_RADIUS / 4
        fitted = []
        for dt in (2e-3, 1e-3):
            traj = evolve(q0, FlowSpec(HamiltonianSpec.hkappa(2.0), dt=dt, T=1.0,
                                       saves=8))
            norms = np.array([sobolev_norm(s, -0.5, True) for s in traj.states])
            c = np.polyfit(traj.times, np.log(norms), 1)[0]
            fitted.append(c)
            assert np.all(norms <= 1.05 * norms[0] * np.exp(max(c, 0.0) * traj.times))
        assert abs(fitted[0] - fitted[1]) <= 1e-3 + 0.1 * abs(fitted[1])


class TestBudget:
    def test_calibrated_default_matches_recalibration(self):
        delta0, _ = calibrate_budget(2.0, 24, kappas=(1.0, 2.0), trials=6, seed=0)
        # the shipped radius is the conservative floor of such calibrations
        assert HM1_RADIUS <= delta0 * 1.5
        assert 0 < HM1_RADIUS

    def test_hs_within_budget_radius(self, rng):
        grid = TorusGrid.make(2.0, 24)
        c = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        f = make_field(grid, coeffs=c)
        f = f * (HM1_RADIUS / sobolev_norm(f, -1.0))
        for kap in (1.0, 2.0, 4.0, 8.0):
            assert hs_norm(f, kap) <= 0.75
