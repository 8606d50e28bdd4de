"""Helpers the tests use to check lab code, kept out of the library because no
subcommand reaches them: field constructors and symmetries, Littlewood-Paley
low and high projections, the dense route's complex-basis matrices, inverse and
Neumann series, the calibration behind ``flows.HM1_RADIUS``, line data and
its periodization, the flows' Hamiltonians, trajectory comparisons and the
locality probes of the circle-to-line bridge."""

import math
from types import SimpleNamespace

import numpy as np

from kdvlab.bridge import RampBump, _evolution_field
from kdvlab.errors import PreconditionError, SupportError
from kdvlab.flows import FlowSpec, HamiltonianSpec, _band_values, evolve
from kdvlab.greens import (
    _lag_sums,
    _pair_sums,
    alpha_of,
    assemble_resolvent,
    first_order_green,
    free_diagonal_constant,
    green_diagonal,
    green_of,
    hs_norm,
    polynomial_invariants,
)
from kdvlab.spectral import (
    LineField,
    PeriodicField,
    TorusGrid,
    _coeffs_from_samples,
    _hermitize,
    bump_profile,
    cubic_integral,
    derivative,
    make_field,
    next_fast_len,
    sobolev_norm,
)


def zero_field(grid):
    return PeriodicField(grid, np.zeros(2 * grid.cutoff + 1, dtype=complex))


def coeff(f, j):
    """Coefficient fhat(j/l) for integer j; 0 beyond the cutoff."""
    k = f.grid.cutoff
    return f.coeffs[j + k] if abs(j) <= k else 0.0 + 0.0j


def translate(f, h):
    """f(. + h): coefficient phases rotate, all Sobolev norms unchanged."""
    phase = np.exp(2j * np.pi * f.grid.frequencies * float(h))
    return PeriodicField(f.grid, _hermitize(f.coeffs * phase))


def rescale(q, lam):
    """KdV scaling q^lam(x) = lam^2 q(lam x) (lam > 0); circle length becomes l/lam."""
    g = q.grid
    return PeriodicField(TorusGrid(g.length / lam, g.cutoff, g.samples), q.coeffs * lam ** 2)


def low_project(f, N):
    """Smooth Littlewood-Paley projection onto frequencies <= N."""
    return PeriodicField(f.grid, f.coeffs * bump_profile(f.grid.frequencies / N))


def high_project(f, N):
    """Smooth Littlewood-Paley projection onto frequencies > N: f less ``low_project``."""
    return PeriodicField(f.grid, f.coeffs * (1.0 - bump_profile(f.grid.frequencies / N)))


def complex_b(ctx):
    """The normalized perturbation B[a, b] = qhat((a-b)/l) / sqrt(omega_a omega_b) in
    the complex mode basis, from a ``greens.assemble_resolvent`` context."""
    k = ctx.grid.cutoff
    qext = np.zeros(4 * k + 1, dtype=complex)
    qext[k:3 * k + 1] = ctx.q.coeffs  # qext[d + 2k] = qhat(d/l)
    idx = np.arange(2 * k + 1)
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    return qext[idx[:, None] - idx[None, :] + 2 * k] * np.outer(inv_sq, inv_sq)


def dense_green_coeffs(ctx, inverse):
    """g_hat from a complex (I+B)^{-1}: lag sums of D^{-1/2} inverse D^{-1/2}
    plus the free-constant and tail-completion terms of ``green_diagonal``."""
    grid = ctx.grid
    k = grid.cutoff
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    m = inverse * np.outer(inv_sq, inv_sq)
    c = np.array([np.trace(m, offset=-d) for d in range(-k, k + 1)]) / grid.length
    s_in, s_full, sum_inv_omega = _pair_sums(grid, ctx.kappa)
    c[k] += free_diagonal_constant(ctx.kappa, grid.length) - sum_inv_omega / grid.length
    return c - ctx.q.coeffs * (s_full - s_in) / grid.length


def operator_matrix(ctx):
    """Dense Hermitian matrix of -d^2/dx^2 + q + kappa^2 in the mode basis."""
    sq = np.sqrt(ctx.omega)
    return complex_b(ctx) * np.outer(sq, sq) + np.diag(ctx.omega)


def green_diagonal_series(q, kappa, l_max):
    """Partial Neumann series for the diagonal Green's function, with the bare
    truncation (no lattice tail).

    Term l is (-1)^l times the lag sums of D^{-1/2} B^l D^{-1/2}; the l = 0
    term is the exact circle constant.  Certified with a geometric tail bound
    when ||B||_HS < 1, else tagged uncertified with no bound.
    """
    ctx = assemble_resolvent(q, kappa)
    grid = ctx.grid
    k = grid.cutoff
    b = complex_b(ctx)
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    scale = np.outer(inv_sq, inv_sq)
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k] = free_diagonal_constant(kappa, grid.length)
    power = np.eye(len(b), dtype=complex)
    for l in range(1, int(l_max) + 1):
        power = power @ b
        c += (-1.0) ** l * _lag_sums(power * scale)[k:3 * k + 1] / grid.length
    norm = hs_norm(q, kappa)
    certified = norm < 1.0
    tail = (norm ** (l_max + 1) / (1.0 - norm) * (_pair_sums(grid, kappa)[2] / grid.length)
            if certified else None)
    return SimpleNamespace(g=PeriodicField(grid, _hermitize(c)), tail_bound=tail,
                           certified=certified)


def alpha_series(ctx, l_max):
    """Partial sum sum_{l=2}^{l_max} (-1)^l/l tr(B^l), with a geometric tail bound
    when ||B||_HS < 1 (else tagged uncertified with no bound)."""
    evals = np.linalg.eigvalsh(complex_b(ctx))
    value = sum((-1.0) ** l / l * float(np.sum(evals ** l)) for l in range(2, int(l_max) + 1))
    norm = hs_norm(ctx.q, ctx.kappa)
    certified = norm < 1.0
    nterm = max(int(l_max) + 1, 2)
    tail = norm ** nterm / (nterm * (1.0 - norm)) if certified else None
    return SimpleNamespace(value=float(value), tail_bound=tail, certified=certified)


def alpha_gradient_field(ctx):
    """The variational derivative of the dense alpha as a field: free constant minus g."""
    c = -green_diagonal(ctx).coeffs
    c[ctx.grid.cutoff] += free_diagonal_constant(ctx.kappa, ctx.grid.length)
    return PeriodicField(ctx.grid, _hermitize(c))


def calibrate_budget(length, cutoff, kappas=(1.0, 2.0, 4.0, 8.0), trials=24, seed=0):
    """Empirical smallness budget (delta0, lipschitz) for a grid family: the
    provenance of ``flows.HM1_RADIUS``.

    delta0: largest H^{-1} radius keeping ||B||_HS <= 1/2 over the kappa grid
    (worst case over random band-limited directions).  lipschitz: observed
    bound for ||g(u)-g(v)||_{H^1} / ||u-v||_{H^{-1}} on small random pairs.
    """
    grid = TorusGrid.make(length, cutoff)
    rng = np.random.default_rng(seed)

    def random_field():
        c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
        return make_field(grid, coeffs=c)

    worst_ratio = 0.0  # hs norm per unit H^{-1} norm
    for _ in range(trials):
        f = random_field()
        nrm = sobolev_norm(f, -1.0)
        for kap in kappas:
            worst_ratio = max(worst_ratio, hs_norm(f, kap) / nrm)
    delta0 = 0.5 / worst_ratio
    lip = 0.0
    for _ in range(trials):
        u, d = random_field(), random_field()
        u = u * (0.25 * delta0 / sobolev_norm(u, -1.0))
        v = u + d * (0.05 * delta0 / sobolev_norm(d, -1.0))
        for kap in kappas:
            gu = green_diagonal(assemble_resolvent(u, kap))
            gv = green_diagonal(assemble_resolvent(v, kap))
            lip = max(lip, sobolev_norm(gu - gv, 1.0) / sobolev_norm(u - v, -1.0))
    return float(delta0), float(lip)


def make_line_field(box_length, cutoff, func, support, samples=None):
    """Embed a compactly supported callable on the box centred at 0, keeping
    modes |j| <= cutoff of the box DFT."""
    box_start = -box_length / 2
    n = samples if samples is not None else next_fast_len(3 * cutoff + 1)
    grid = TorusGrid(box_length, cutoff, n)
    vals = np.asarray(func(box_start + grid.points), dtype=float)
    field = PeriodicField(grid, _coeffs_from_samples(grid, vals))
    return LineField(box=field, box_start=box_start, support=tuple(support),
                     exact_samples=vals)


def periodize(f, L):
    """L-periodization  sum_j f(x + j*L)  of a compactly supported line field.

    The support must fit in an interval of length < L, and the box must hold
    an integer number p of L-periods over a sample count p divides; the
    result keeps modes up to cutoff//p (exact decimation of the box
    coefficients).
    """
    a, b = f.support
    if not (b - a < L):
        raise SupportError(f"support length {b - a:.6g} does not fit in period {L:.6g}")
    p = round(f.box.grid.length / L)
    kL = min(f.box.grid.cutoff // p, (f.box.grid.samples // p - 1) // 2)
    kbox = f.box.grid.cutoff
    js = np.arange(-kL, kL + 1)
    idx = p * js + kbox
    # decimated coefficients live in the box frame; shift to line coordinates
    phase = np.exp(-2j * np.pi * js * (f.box_start / L))
    c = p * f.box.coeffs[idx] * phase
    grid = TorusGrid(L, kL, f.box.grid.samples // p)
    return PeriodicField(grid, _hermitize(c))


def hamiltonian_value(q, ham):
    """The conserved functional generating the flow (under omega_{-1/2}), with
    alpha on the route of g, so the flow conserves the alpha its g belongs to;
    for a linear kind, the quadratic part of its parent flow's."""
    _, momentum, energy = polynomial_invariants(q)
    if ham.kind == "kdv":
        return energy
    if ham.kind == "kdv_linear":
        return energy - cubic_integral(q)
    kap = ham.kappa
    w = _band_values(ham, q.grid)
    if ham.is_linear:  # -16 kappa^5 tr(B^2)/2 = 8 kappa^5 l sum_d m(d) |w qhat(d)|^2
        m = first_order_green(q.grid, kap)
        return (4.0 * kap ** 2 * momentum
                + 8.0 * kap ** 5 * q.grid.length * float(np.sum(m * np.abs(w * q.coeffs) ** 2)))
    qin = PeriodicField(q.grid, q.coeffs * w)
    a = alpha_of(qin, kap).value
    return -16.0 * kap ** 5 * a + 4.0 * kap ** 2 * momentum


def compare_flows(q0u, q0v, spec_a, spec_b):
    """t -> ||u(t) - v(t)||_{H^{-1}} for two evolutions on shared output times."""
    tu = evolve(q0u, spec_a)
    tv = evolve(q0v, spec_b)
    errs = np.array([sobolev_norm(u - v, -1.0) for u, v in zip(tu.states, tv.states)])
    return tu.times, errs, (tu, tv)


def time_equicontinuity(traj):
    """Table of sup { ||q(t)-q(s)||_{H^{-1}} : |t-s| <= delta } over deltas of
    1/8, 1/4, 1/2 and 1 times the trajectory's span."""
    times = traj.times
    deltas = float(times[-1] - times[0]) * np.array([0.125, 0.25, 0.5, 1.0])
    dist = np.array([[sobolev_norm(a - b, -1.0) for b in traj.states] for a in traj.states])
    gap = np.abs(times[:, None] - times[None, :])
    return [(float(d), float(np.max(dist[gap <= d + 1e-12]))) for d in deltas]


def bump_fourier(bump, xi):
    """Line Fourier transform of a RampBump at frequencies xi (exact closed form)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return bump.centered_fourier(xi) * np.exp(-2j * math.pi * xi * bump.center)


def finite_speed_probe(q0, kappa, T, margin, dt, ramp, saves, box_cutoff):
    """Exterior H^{-1} mass of the H_kappa-evolved line data q0 outside its
    margin-fattened support, per save: (times, masses)."""
    if margin < 10.0 * kappa ** 2 * T:
        raise PreconditionError(
            f"margin {margin:.3g} below the transport reach 10*kappa^2*T = "
            f"{10 * kappa ** 2 * T:.3g}"
        )
    a, b = q0.support
    lam = q0.box.grid.length
    interior = RampBump(center=0.5 * (a + b), plateau=0.5 * (b - a) + margin,
                        support=0.5 * (b - a) + margin + ramp)
    ev0 = _evolution_field(q0, box_cutoff)
    traj = evolve(ev0, FlowSpec(HamiltonianSpec.hkappa(kappa), dt=dt, T=T, saves=saves))
    n_ev = ev0.grid.samples
    chi_ext = 1.0 - interior.periodized(q0.box_start + np.arange(n_ev) * (lam / n_ev), lam)
    masses = [sobolev_norm(make_field(ev0.grid, samples=chi_ext * state.samples_values()), -1.0)
              for state in traj.states]
    return traj.times, np.array(masses)


def localized_smoothing_check(q, chi, kappa):
    """(lhs, rhs) pair for the localized smoothing bound on the circle:
    lhs = ||chi g'(q)||_{L^2}, rhs = ||chi q||_{H^{-1}} + ||chi'||_{L^2} +
    ||chi'||_{L^inf}, with the callable chi sampled on a padded grid."""
    length = q.grid.length
    n_pad = next_fast_len(2 * q.grid.samples)
    chi_pad = chi(np.arange(n_pad) * (length / n_pad))

    gprime = derivative(green_of(q, kappa), 1)
    prod = chi_pad * gprime.samples_values(n_pad)
    lhs = math.sqrt(length * float(np.mean(prod ** 2)))

    grid_pad = TorusGrid(length, (n_pad - 1) // 2, n_pad)
    rhs_val = sobolev_norm(make_field(grid_pad, samples=chi_pad * q.samples_values(n_pad)), -1.0)
    dchi = np.gradient(chi_pad, length / n_pad)
    dl2 = math.sqrt(length * float(np.mean(dchi ** 2)))
    return lhs, rhs_val + dl2 + float(np.max(np.abs(dchi)))
