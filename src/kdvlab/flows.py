"""Time integration of the KdV-type Hamiltonian evolutions on the circle.

Three flows share one integrator:

    kdv          dq/dt = -q''' + 6 q q'
    hkappa       dq/dt = 4 kappa^2 q' + 16 kappa^5 g'(q)
    hkappa_band  dq/dt = 4 kappa^2 q' + 16 kappa^5 P_band g'(P_band q)

plus the linear flows (nonlinearity dropped) used as closed-form oracles.

Integrator: Lawson (integrating-factor) RK4.  The exactly-propagated linear
symbol is the full linearization of the flow at q = 0 in Fourier space: the
Airy symbol for KdV, and for the Green's-function flows the transport symbol
*plus* the first-order symbol of 16 kappa^5 d/dx g(q), which carries the
dispersive stiffness (the transport parts cancel at leading order as kappa
grows).  Only the genuinely nonlinear remainder is stepped by RK4, so step
sizes are set by accuracy on the data's own frequencies, not by the grid.

One RK4 loop steps a stack of coefficient rows: ``evolve`` is the stack of
one, ``evolve_batch`` runs many initial data side by side.  A real field has
c(-j) = conj c(j), so the stack holds only modes 0..K of each row (the rfft
layout); full rows are built for saves, results and per-row ``rhs`` calls.
The KdV remainder 3 d/dx (q^2) is computed for the whole stack from that half
by one inverse and one forward real FFT of length next_fast_len(3K+1) (no
aliasing onto |j| <= K); other kinds call ``rhs`` per row.  The H_kappa
``rhs`` takes g from ``greens.green_of``, which solves the Riccati equation
when K >= greens.RICCATI_MIN_CUTOFF and inverts the dense resolvent below it;
``hamiltonian_value`` and the alpha monitors take alpha from ``alpha_of`` on
the same route, so the flow conserves the alpha its g belongs to.  Each row
keeps a small state, a dict that ``rhs`` hands to ``green_of``: the Riccati
solve of one stage warm-starts the next stage of the same row, and the state
is dropped with its row.  Every other caller of ``rhs`` and ``green_of`` (the
alpha monitors, ``hamiltonian_value``, the bridge, the CLI) passes none and
gets a cold solve.  A row whose ``rhs`` raises or whose L^2 norm doubles in a
step stops with its error while the other rows go on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, KdvLabError, PreconditionError
from .greens import (
    alpha_of,
    assemble_resolvent,
    first_order_green,
    green_diagonal,
    green_of,
    hs_norm,
    polynomial_invariants,
)
from .spectral import (
    MultiplierSpec,
    PeriodicField,
    TorusGrid,
    _hermitize,
    cubic_integral,
    derivative,
    make_field,
    next_fast_len,
    sobolev_norm,
)

HKAPPA_KINDS = ("hkappa", "hkappa_band", "hkappa_linear")
ALL_KINDS = ("kdv", "kdv_linear") + HKAPPA_KINDS


@dataclass(frozen=True)
class HamiltonianSpec:
    """Selector for the evolution: KdV, H_kappa, truncated H_kappa, or linear."""

    kind: str
    kappa: float | None = None
    band: MultiplierSpec | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise PreconditionError(f"unknown flow kind {self.kind!r}")
        if self.kind in HKAPPA_KINDS:
            if self.kappa is None or self.kappa < 1:
                raise PreconditionError("hkappa flows need kappa >= 1")
        if self.kind == "hkappa_band":
            if self.band is None or self.band.kind != "band":
                raise PreconditionError("hkappa_band needs a band MultiplierSpec")

    @classmethod
    def kdv(cls):
        return cls("kdv")

    @classmethod
    def kdv_linear(cls):
        return cls("kdv_linear")

    @classmethod
    def hkappa(cls, kappa):
        return cls("hkappa", kappa=float(kappa))

    @classmethod
    def hkappa_linear(cls, kappa):
        return cls("hkappa_linear", kappa=float(kappa))

    @classmethod
    def hkappa_band(cls, kappa, m, M):
        return cls("hkappa_band", kappa=float(kappa), band=MultiplierSpec.band(m, M))

    @property
    def is_linear(self):
        return self.kind in ("kdv_linear", "hkappa_linear")


@dataclass(frozen=True)
class SmallnessBudget:
    """Calibrated well-posedness budget: H^{-1} radius, growth rate, Lipschitz.

    Defaults frozen from ``calibrate_budget`` sweeps over circle lengths 2 and
    2*pi, cutoffs 24-32, kappa in {1,2,4,8} (seed 0): the largest H^{-1} ball
    keeping ||B||_HS <= 1/2 came out at delta0 ~ 1.08; we ship the rounded-down
    0.85 with the observed g-gradient Lipschitz constant rounded up.
    """

    delta0: float = 0.85
    growth_rate: float = 2.0
    lipschitz: float = 0.5

    def as_dict(self):
        return {"delta0": self.delta0, "growth_rate": self.growth_rate,
                "lipschitz": self.lipschitz}


DEFAULT_BUDGET = SmallnessBudget()


def calibrate_budget(length, cutoff, kappas=(1.0, 2.0, 4.0, 8.0), trials=24, seed=0):
    """Empirical smallness budget for a grid family.

    delta0: largest H^{-1} radius keeping ||B||_HS <= 1/2 over the kappa grid
    (worst case over random band-limited directions).  lipschitz: observed
    bound for ||g(u)-g(v)||_{H^1} / ||u-v||_{H^{-1}} on small random pairs.
    """
    grid = TorusGrid.make(length, cutoff)
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0  # hs norm per unit H^{-1} norm
    for _ in range(trials):
        c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
        f = make_field(grid, coeffs=c)
        nrm = sobolev_norm(f, -1.0)
        for kap in kappas:
            ratio = hs_norm(assemble_resolvent(f, kap)) / nrm
            worst_ratio = max(worst_ratio, ratio)
    delta0 = 0.5 / worst_ratio
    lip = 0.0
    for _ in range(trials):
        c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
        d = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
        u = make_field(grid, coeffs=c)
        u = u * (0.25 * delta0 / sobolev_norm(u, -1.0))
        v = u + make_field(grid, coeffs=d) * (0.05 * delta0 / sobolev_norm(make_field(grid, coeffs=d), -1.0))
        for kap in kappas:
            gu = green_diagonal(assemble_resolvent(u, kap)).g
            gv = green_diagonal(assemble_resolvent(v, kap)).g
            num = sobolev_norm(gu - gv, 1.0)
            den = sobolev_norm(u - v, -1.0)
            lip = max(lip, num / den)
    return SmallnessBudget(delta0=float(delta0), growth_rate=2.0, lipschitz=float(lip))


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _band_values(ham, grid):
    """The band multiplier P_band on the grid; 1.0 for the untruncated flows."""
    if ham.band is None:
        return 1.0
    return ham.band.values(grid.frequencies)


def _full_rows(h):
    """Exactly Hermitian rows c_{-K..K} from their nonnegative modes h[..., :K+1]."""
    return np.concatenate((np.conj(h[..., :0:-1]), h), axis=-1)


def _kdv_nonlinear(grid):
    """h -> dealiased 3 d/dx (q^2) on the nonnegative modes 0..K of each row h of q."""
    k = grid.cutoff
    n = next_fast_len(3 * k + 1)
    mult = (6j * math.pi / grid.length) * np.arange(k + 1)

    def term(h):
        q = np.fft.irfft(h, n, norm="forward")
        return mult * np.fft.rfft(q * q, norm="forward")[..., :k + 1]

    return term


def rhs(q, ham, state=None):
    """The right-hand side of the selected evolution at state q.

    ``state`` is passed on to ``green_of`` by the H_kappa flows, to warm-start
    g from the previous call with the same dict; the default is a cold start.
    """
    grid = q.grid
    if ham.kind == "kdv":
        nonlinear = _kdv_nonlinear(grid)(q.coeffs[grid.cutoff:])
        return PeriodicField(grid, -derivative(q, 3).coeffs + _full_rows(nonlinear))
    if ham.kind == "kdv_linear":
        return -1.0 * derivative(q, 3)
    kap = ham.kappa
    transport = 4.0 * kap ** 2 * derivative(q, 1)
    if ham.kind == "hkappa_linear":
        return transport
    w = _band_values(ham, grid)
    qin = PeriodicField(grid, q.coeffs * w)
    gp = derivative(green_of(qin, kap, state).g, 1)
    return transport + 16.0 * kap ** 5 * PeriodicField(grid, gp.coeffs * w)


def hamiltonian_value(q, ham):
    """The conserved functional generating the flow (under omega_{-1/2})."""
    _, momentum, energy = polynomial_invariants(q)
    if ham.kind == "kdv":
        return energy
    if ham.kind == "kdv_linear":
        return energy - cubic_integral(q)
    kap = ham.kappa
    if ham.kind == "hkappa_linear":
        return 4.0 * kap ** 2 * momentum
    qin = PeriodicField(q.grid, q.coeffs * _band_values(ham, q.grid))
    a = alpha_of(qin, kap).value
    return -16.0 * kap ** 5 * a + 4.0 * kap ** 2 * momentum


def linear_symbol(grid, ham):
    """Fourier symbol of the flow's linearization at q = 0 (exactly propagated)."""
    two_pi_i_k = 2j * math.pi * grid.frequencies
    if ham.kind in ("kdv", "kdv_linear"):
        return -two_pi_i_k ** 3
    kap = ham.kappa
    sym = 4.0 * kap ** 2 * two_pi_i_k
    if ham.kind == "hkappa_linear":
        return sym
    # first-order symbol of 16 kappa^5 d/dx g(q)
    gain = 16.0 * kap ** 5 * first_order_green(grid, kap)
    w = _band_values(ham, grid)
    return sym + two_pi_i_k * (gain * w * w)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSpec:
    """Hamiltonian selector plus integrator parameters and monitor probes."""

    hamiltonian: HamiltonianSpec
    dt: float
    T: float
    saves: int = 10
    probes: tuple = ()

    def __post_init__(self):
        if self.dt <= 0:
            raise PreconditionError("dt must be positive")
        if self.T < 0:
            raise PreconditionError("T must be nonnegative")
        if self.T > 0 and self.dt > self.T + 1e-15:
            raise PreconditionError("dt must not exceed T")
        if self.saves < 1:
            raise PreconditionError("need at least one save interval")


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    spec: FlowSpec
    monitors: dict
    warnings: list = field(default_factory=list)
    certified: bool = True

    def final(self):
        return self.states[-1]

    def coeff_table(self):
        """Rows of (t, re c_-K, im c_-K, ..., re c_K, im c_K)."""
        c = np.array([s.coeffs for s in self.states], dtype=complex)
        return np.column_stack((self.times, c.view(float))).tolist()


def _monitor_state(q, probes):
    mass, momentum, energy = polynomial_invariants(q)
    out = {"M": mass, "P": momentum, "H_kdv": energy}
    for kap in probes:
        a = alpha_of(q, kap)
        out[f"alpha({kap:g})"] = a.value
        out[f"hs({kap:g})"] = a.hs_norm
    return out


def _columns(records):
    """Per-state monitor records as one array per key."""
    return {key: np.array([r[key] for r in records]) for key in records[0]}


def _lawson_rk4(q0s, spec, on_save=None):
    """Per member of q0s (one shared grid): its final coefficient row, or the
    ``KdvLabError`` (rhs failure or ``BlowUpError``) that dropped it from the
    stack.  ``on_save(t, c)`` gets the running stack as full rows at t = 0 and
    each save.  The stack holds modes 0..K of each row with Im c_0 = 0, so the
    full rows are exactly Hermitian; a step's row norms (weights 1, 2, 2, ...
    on |c_j|^2) are the next step's pre-step norms.
    """
    grid = q0s[0].grid
    if any(q.grid != grid for q in q0s):
        raise PreconditionError("a batch of initial data needs one shared grid")
    ham = spec.hamiltonian
    k = grid.cutoff
    n_steps = max(1, int(math.ceil(spec.T / spec.dt - 1e-12))) if spec.T > 0 else 0
    dt = spec.T / n_steps if n_steps else spec.dt
    save_steps = set(np.round(np.linspace(0, n_steps, spec.saves + 1)).astype(int).tolist())

    lam = linear_symbol(grid, ham)[k:]
    half = np.exp(lam * (dt / 2.0))
    full = half * half
    dt_half, two_half = dt * half, 2.0 * half
    weights = np.repeat([1.0, 2.0], [2, 2 * k])   # (re, im) of modes 0..K in the float view

    if ham.kind == "kdv":
        nonlinear = _kdv_nonlinear(grid)
    else:
        def nonlinear(c):
            out = np.zeros_like(c)
            for i, row in enumerate(_full_rows(c)):
                if i not in failed:
                    try:
                        out[i] = (rhs(PeriodicField(grid, row), ham, states[i]).coeffs[k:]
                                  - lam * c[i])
                    except KdvLabError as exc:
                        failed[i] = exc
            return out

    def norms(c):
        """L^2 norm of each full coefficient row, from its nonnegative half."""
        v = c.view(float)
        return np.sqrt((v * v) @ weights)

    c = _hermitize(np.array([q.coeffs for q in q0s], dtype=complex))[:, k:].copy()
    members = np.arange(len(q0s))
    states = [{} for _ in q0s]  # per row: the warm start of its next g (see ``rhs``)
    results = [None] * len(q0s)
    if on_save is not None:
        on_save(0.0, _full_rows(c))
    norm_before = norms(c)
    for step in range(1, n_steps + 1):
        failed = {}
        a = nonlinear(c)
        b = nonlinear(half * (c + (dt / 2.0) * a))
        cc = nonlinear(half * c + (dt / 2.0) * b)
        fc = full * c
        d = nonlinear(fc + dt_half * cc)
        c = fc + (dt / 6.0) * (full * a + two_half * (b + cc) + d)
        c.imag[:, 0] = 0.0
        norm_after = norms(c)
        for i in np.flatnonzero((norm_after > 2.0 * norm_before) & (norm_before > 1e-300)):
            before, after = float(norm_before[i]), float(norm_after[i])
            failed.setdefault(i, BlowUpError(
                f"L^2 norm doubled within one step at t={step * dt:.6g} "
                f"({before:.3e} -> {after:.3e}); reduce dt or data size",
                time=step * dt, norm_before=before, norm_after=after))
        if failed:
            for i, exc in failed.items():
                results[members[i]] = exc
            keep = [i not in failed for i in range(len(c))]
            c, members, norm_after = c[keep], members[keep], norm_after[keep]
            states = [st for st, kept in zip(states, keep) if kept]
            if not len(c):
                break
        norm_before = norm_after
        if on_save is not None and step in save_steps:
            on_save(step * dt, _full_rows(c))

    for i, row in zip(members, _full_rows(c)):
        results[i] = row
    return results


def evolve(q0, spec, budget=DEFAULT_BUDGET):
    """Integrate the selected flow from q0; states on a uniform output grid.

    Lawson RK4 with the q=0 linearization applied exactly in Fourier space.
    A blow-up guard aborts if the L^2 norm doubles within a single step; a
    smallness-budget violation downgrades the trajectory to uncertified.
    """
    grid = q0.grid
    ham = spec.hamiltonian
    warnings = []
    certified = True
    times, states, records = [], [], []

    def save(t, c):
        nonlocal certified
        f = PeriodicField(grid, c[0])
        if ham.kind in HKAPPA_KINDS and budget is not None:
            nrm = sobolev_norm(f, -1.0)
            if nrm > budget.delta0 and certified:
                certified = False
                warnings.append(
                    f"H^-1 norm {nrm:.3g} exceeded smallness budget "
                    f"delta0={budget.delta0:.3g} at t={t:.6g}"
                )
        times.append(t)
        states.append(f)
        records.append(_monitor_state(f, spec.probes))

    (final,) = _lawson_rk4([q0], spec, save)
    if isinstance(final, KdvLabError):
        raise final
    return Trajectory(times=np.array(times), states=states, spec=spec,
                      monitors=_columns(records), warnings=warnings,
                      certified=certified)


def evolve_batch(q0s, spec):
    """Final states of the flow from each of q0s, integrated side by side.

    One Lawson-RK4 loop over the stack of all members (see ``evolve``); for
    each member the result is its final PeriodicField, or the ``KdvLabError``
    (such as a ``BlowUpError``) that stopped it while the others went on.
    """
    if not q0s:
        return []
    grid = q0s[0].grid
    return [r if isinstance(r, KdvLabError) else PeriodicField(grid, r)
            for r in _lawson_rk4(q0s, spec)]


# ---------------------------------------------------------------------------
# reporting on trajectories
# ---------------------------------------------------------------------------

@dataclass
class ConservationReport:
    drifts: dict
    scales: dict
    certified: dict

    def max_drift(self, keys=None):
        keys = keys if keys is not None else list(self.drifts)
        return max(self.drifts[k] for k in keys)


def monitors(traj, probes=None):
    """Max relative drift of M, P, H_kdv, and alpha at the probe points.

    The columns ``evolve`` stored in ``traj.monitors`` are read back; only
    probes it did not record are computed from the saved states.
    """
    if probes is None:
        probes = traj.spec.probes
    if len(probes) < 1:
        raise PreconditionError("need at least one alpha probe")
    series = traj.monitors
    missing = [kap for kap in probes if f"alpha({kap:g})" not in series]
    if missing:
        computed = _columns([_monitor_state(q, missing) for q in traj.states])
        series = {**computed, **series}
    drifts, scales, cert = {}, {}, {}
    for key in ["M", "P", "H_kdv"] + [f"alpha({kap:g})" for kap in probes]:
        vals = series[key]
        scale = max(float(np.max(np.abs(vals))), 1e-30)
        drifts[key] = float(np.max(np.abs(vals - vals[0]))) / scale
        scales[key] = scale
        cert[key] = True
    for kap in probes:
        cert[f"alpha({kap:g})"] = bool(np.all(series[f"hs({kap:g})"] < 1.0))
    return ConservationReport(drifts=drifts, scales=scales, certified=cert)


def compare_flows(q0u, q0v, spec_a, spec_b, s=-1.0, homogeneous=False,
                  budget=DEFAULT_BUDGET):
    """t -> ||u(t) - v(t)||_{H^s} for two evolutions on a shared output grid."""
    if q0u.grid != q0v.grid:
        raise PreconditionError("compare_flows needs a shared grid")
    if not (spec_a.T == spec_b.T and spec_a.saves == spec_b.saves):
        raise PreconditionError("compare_flows needs shared output times")
    tu = evolve(q0u, spec_a, budget=budget)
    tv = evolve(q0v, spec_b, budget=budget)
    errs = np.array([
        sobolev_norm(u - v, s, homogeneous) for u, v in zip(tu.states, tv.states)
    ])
    return tu.times, errs, (tu, tv)


def kappa_sweep(q0, kappas, T, dt, saves=10, budget=DEFAULT_BUDGET):
    """kappa -> sup_{t<=T} || KdV(q0)(t) - H_kappa(q0)(t) ||_{H^{-1}}."""
    ref = evolve(q0, FlowSpec(HamiltonianSpec.kdv(), dt=dt, T=T, saves=saves),
                 budget=budget)
    out = {}
    for kap in kappas:
        tr = evolve(q0, FlowSpec(HamiltonianSpec.hkappa(kap), dt=dt, T=T, saves=saves),
                    budget=budget)
        errs = [sobolev_norm(u - v, -1.0) for u, v in zip(ref.states, tr.states)]
        out[float(kap)] = float(np.max(errs))
    return out


def time_equicontinuity(traj, deltas=None):
    """Table of sup { ||q(t)-q(s)||_{H^{-1}} : |t-s| <= delta } over a delta grid."""
    if len(traj.states) < 3:
        raise PreconditionError("need at least 3 saved states")
    times = traj.times
    span = float(times[-1] - times[0])
    if deltas is None:
        deltas = span * np.array([0.125, 0.25, 0.5, 1.0])
    dist = np.array([[sobolev_norm(a - b, -1.0) for b in traj.states] for a in traj.states])
    gap = np.abs(times[:, None] - times[None, :])
    return [(float(d), float(np.max(dist[gap <= d + 1e-12]))) for d in deltas]
