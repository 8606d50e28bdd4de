"""Time integration of the KdV-type Hamiltonian evolutions on the circle.

Three flows share one integrator:

    kdv          dq/dt = -q''' + 6 q q'
    hkappa       dq/dt = 4 kappa^2 q' + 16 kappa^5 g'(q)
    hkappa_band  dq/dt = 4 kappa^2 q' + 16 kappa^5 P_band g'(P_band q)

and for each flow the kind "<flow>_linear", its linearisation at q = 0: the
flow's kappa and band, stepped by the exact multiplier of its ``linear_symbol``.

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
layout); full rows are built for saves and results.  The KdV remainder
3 d/dx (q^2) is computed for the whole stack from that half, on n >= 3K+1
points (no aliasing onto |j| <= K).  The kernel is built once per grid and
has two routes.  When K <= DFT_MAX_CUTOFF it is two real matrix products on
the float view (re, im, re, ...) of the (B, K+1) half stack: a (2K+2, n)
matrix of weighted cos/-sin rows gives the samples of q, and an (n, 2K+2)
matrix takes q^2 to modes 0..K with the 1/n and the 6 pi i j / l folded in
(n = next_fast_len(3K+1)).  Above it, the kernel is one inverse and one
forward real FFT of the real-transform length next_fast_len(3K+1, real=True),
which was faster than the complex length (timings in CHANGES.md, issue 23).
At small K numpy's per-call FFT overhead, not arithmetic, sets the cost,
and the matrices' O(B K^2) lead over the FFTs' O(B K log K) shrinks with K
and B: DFT_MAX_CUTOFF = 64 is the largest K at which the matrices were at
least a quarter faster at both B = 1 and B = 18 (timings in CHANGES.md).

The H_kappa remainder takes one of two routes by K* = greens.RICCATI_MIN_CUTOFF.
At K >= K* it is ``_hkappa_nonlinear``, cached per (grid, flow), once per half
row and stage: one Riccati solve for P_band q, which reads g - g0 (one irfft
and one rfft when its start certifies), less its first-order part, times
16 kappa^5 (2 pi i j / l) P_band; the transport term and the first-order part
of g are in the exactly propagated symbol.  Each row keeps a
``_StageHistory``, dropped with the row: the nonlinear part N that its newest
Riccati solve returned, and per RK stage its extrapolation order p and the
increments over the solve before of that stage's last 12 steps (M = 3K/2).
The N a solve returns is not its certified iterate's but one diagonal Newton
step past it, taken from the residual the solve already has
(``greens._riccati_half``), so a solve whose start certifies as it stands
still records new information.  Its next solve
starts from the newest N plus this stage's increment, extrapolated through
those steps by binomial weights times the powers of the full-step
multiplier, precomputed once per row: three numpy calls per start at any
order.  The multiplier is e^{lambda dt} on modes 0..K and, on the modes
K+1..M that only w has, the rotation e^{8 pi i kappa^2 j dt / l} of the
transport 4 kappa^2 d/dx.  Every stage starts at p = EXTRAPOLATION_ORDER = 7,
the largest fixed order at which cut_compare's residuals per solve stayed at
their floor.  A stage whose start at full order does not certify
(``greens._riccati_half`` reports it) raises its own p by one, and p never
falls: stages b and d of hkappa_evolve, half a step past a and c, need more
steps than 7, and any fixed order above 7 cost cut_compare residuals.  The
cap EXTRAPOLATION_MAX_ORDER = 12 gave the fewest residuals per solve over
hkappa_evolve's 16 input variants (tables in CHANGES.md, issue 24).  The
loop, not greens, builds the start, since the RK cadence and the multiplier
are its facts.  A poor start costs Newton steps only: the solve still
certifies or raises, and a warm start that fails is retried cold.
Below K* it is ``rhs`` on the full row less the linear symbol's part, with g
from ``greens.green_of`` (dense below K*), which raises a CertificationError
where the dense I + B is not positive definite, as the Riccati route does
where -d^2 + q + kappa^2 is not positive.
The alpha monitors take alpha on the route of g, so the flow conserves the
alpha its g belongs to.  ``evolve`` computes the monitors of its saved states
after the loop, alpha and hs as one ``alphas_of`` stack per probe kappa;
``FlowSpec`` refuses a probe kappa outside [1, inf), or two whose monitor
columns alpha(kappa:g) coincide, before anything is evolved.  A row whose
remainder raises or whose L^2 norm doubles in a step stops with its error
while the other rows go on; one that raises on a stage input that is not finite
or above twice the pre-step norm is a BlowUpError from that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .errors import BlowUpError, KdvLabError, PreconditionError
from .greens import (
    RICCATI_MIN_CUTOFF,
    _riccati_half,
    _riccati_plan,
    alphas_of,
    first_order_green,
    green_of,
    polynomial_invariants,
)
# bench/tests/test_bench.py line 74 reads this binding until ROADMAP item 1 unpins it
from .greens import green_diagonal  # noqa: F401
from .spectral import (
    MultiplierSpec,
    PeriodicField,
    _full_rows,
    _hermitize,
    derivative,
    next_fast_len,
    sobolev_norm,
)

ALL_KINDS = ("kdv", "hkappa", "hkappa_band", "kdv_linear", "hkappa_linear", "hkappa_band_linear")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Selector for the evolution: KdV, H_kappa, truncated H_kappa, or one's linearisation."""

    kind: str
    kappa: float | None = None
    band: MultiplierSpec | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise PreconditionError(f"unknown flow kind {self.kind!r}")
        if self.parent == "kdv" and self.kappa is not None:
            raise PreconditionError(f'{self.kind} takes no "kappa": only the hkappa kinds do')
        if self.parent != "kdv":
            try:  # the flow's gain 16 kappa^5 must be a float; kappa^5 may overflow
                valid = (self.kappa is not None and 1 <= self.kappa
                         and 16.0 * self.kappa ** 5 < math.inf)
            except OverflowError:
                valid = False
            if not valid:
                raise PreconditionError(
                    f"hkappa flows need a kappa >= 1 with 16 kappa^5 finite, got {self.kappa}")
        if (self.band is None) == (self.parent == "hkappa_band"):
            raise PreconditionError(f"{self.kind} {'needs a' if self.band is None else 'takes no'}"
                                    ' "band": hkappa_band and its linearisation take one, no '
                                    "other kind does")

    @classmethod
    def kdv(cls):
        return cls("kdv")

    @classmethod
    def hkappa(cls, kappa):
        return cls("hkappa", kappa=float(kappa))

    @classmethod
    def hkappa_band(cls, kappa, m, M):
        return cls("hkappa_band", kappa=float(kappa), band=MultiplierSpec.band(m, M))

    @property
    def parent(self):
        """The nonlinear flow kind: this kind, or the flow a linear kind linearises."""
        return self.kind.removesuffix("_linear")

    @property
    def is_linear(self):
        return self.kind != self.parent

    def linearised(self):
        """The flow's linearisation at q = 0 (module docstring); a linear kind's is itself."""
        return replace(self, kind=f"{self.parent}_linear")


# The H^{-1} radius of the small-data regime (the KV18 well-posedness ball) that
# ``evolve`` holds H_kappa trajectories to.  Frozen from
# ``tests/oracles.calibrate_budget`` sweeps over circle lengths 2 and 2*pi,
# cutoffs 24-32, kappa in {1,2,4,8} (seed 0): the largest H^{-1} ball keeping
# ||B||_HS <= 1/2 came out at delta0 ~ 1.08; this is the rounded-down value.
HM1_RADIUS = 0.85

# The most steps a run may take, and the most saves it may ask for.  The runs in
# use take at most 5000 steps (in the tests; the workloads fewer).  At ~55 us a
# step, the cheapest there is (KdV, K = 32, one row), 10^6 steps take about a
# minute, and a batch or a larger K hours.  A larger count is refused before the
# loop or np.linspace is asked for it.
MAX_STEPS = 10 ** 6


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _band_values(ham, grid):
    """The band multiplier P_band on the grid; 1.0 for the untruncated flows."""
    if ham.band is None:
        return 1.0
    return ham.band.values(grid.frequencies)


DFT_MAX_CUTOFF = 64  # largest K on the matrix route: the module docstring says why


@lru_cache(maxsize=8)
def _kdv_nonlinear(grid):
    """h -> dealiased 3 d/dx (q^2) on the nonnegative modes 0..K of each row h of q:
    two real matrix products when K <= DFT_MAX_CUTOFF, else two real FFTs."""
    return (_kdv_dft if grid.cutoff <= DFT_MAX_CUTOFF else _kdv_fft)(grid)


def _fft_term(k, n, mult, h):
    q = np.fft.irfft(h, n, norm="forward")
    return mult * np.fft.rfft(q * q, norm="forward")[..., :k + 1]


def _dft_term(to_q, to_out, h):
    q = np.ascontiguousarray(h, dtype=complex).view(float) @ to_q
    return ((q * q) @ to_out).view(complex)


def _kdv_fft(grid):
    """The kernel of ``_kdv_nonlinear`` as one irfft and one rfft of the real length n."""
    k = grid.cutoff
    mult = (6j * math.pi / grid.length) * np.arange(k + 1)
    mult.setflags(write=False)
    return partial(_fft_term, k, next_fast_len(3 * k + 1, real=True), mult)


def _kdv_dft(grid):
    """The kernel of ``_kdv_nonlinear`` as two real matrices on the float view of h:
    (2K+2, n) to the n samples of q (the irfft, Im h_0 row exactly 0) and
    (n, 2K+2) from q^2 to modes 0..K (rfft, 1/n, 6 pi i j / l; mode 0 exactly 0)."""
    k = grid.cutoff
    n = next_fast_len(3 * k + 1)
    j = np.arange(k + 1)
    phase = np.exp((2j * math.pi / n) * (np.outer(j, np.arange(n)) % n))
    to_q = np.empty((2 * k + 2, n))
    to_q[0::2], to_q[1::2] = phase.real, -phase.imag
    to_q[2:] *= 2.0
    to_q[1] = 0.0
    scaled = ((6.0 * math.pi / (grid.length * n)) * j)[:, None] * phase
    to_out = np.empty((n, 2 * k + 2))
    to_out[:, 0::2], to_out[:, 1::2] = scaled.imag.T, scaled.real.T
    to_out[:, :2] = 0.0
    for a in (to_q, to_out):
        a.setflags(write=False)
    return partial(_dft_term, to_q, to_out)


EXTRAPOLATION_ORDER = 7       # a stage's starting order: the module docstring says why
EXTRAPOLATION_MAX_ORDER = 12  # the cap on a stage's rising order: the module docstring says why


class _StageHistory:
    """One row's Riccati stage solves as the nonlinear parts N they return (w-hat
    less its linear response, one diagonal step past the certified iterate): the
    newest N, and for each of the four RK stages its order p and the increments
    D_j of its solves over the solve before them, j = 1..p steps back, newest
    first.

    With T the full-step multiplier (e^{lambda dt} on modes 0..K, and on modes
    K+1..M, which only the transport 4 kappa^2 d/dx moves, e^{8 pi i kappa^2 j dt / l}),
    the next solve starts from N + sum_j (-1)^{j+1} C(r, j) T^j D_j: this stage's
    increment extrapolated through its last r steps and transported by the
    linear flow, where r, the depth, is the number of increments the stage has,
    at most p.  The start is N while r = 0, and cold (None) before the first
    solve.  Every order starts at EXTRAPOLATION_ORDER; a solve at full depth
    whose start does not certify raises its stage's order by one, up to
    EXTRAPOLATION_MAX_ORDER, and an order never falls.  A history with no
    transport (None) starts from its newest solve only.
    """

    def __init__(self, transport):
        self.solves = 0
        self.newest = None
        self.orders = [EXTRAPOLATION_ORDER] * 4
        self.weights = []  # [r]: the (r, 1, M + 1) weights C(r, j) (-1)^{j+1} T^j, to the top order
        if transport is not None:
            p = EXTRAPOLATION_MAX_ORDER
            self.powers = np.cumprod(np.broadcast_to(transport, (p, len(transport))), axis=0)
            self.weights = [self._weights(r) for r in range(EXTRAPOLATION_ORDER + 1)]
            # per stage its last p increments at slot and slot + p: ring[slot:slot + r] is one slice
            self.rings, self.slots = list(np.zeros((4, 2 * p, 2, len(transport)), complex)), [0] * 4

    def _weights(self, r):
        return _extrapolation_signs(r) * self.powers[:r, None, :]

    def depth(self):
        """The number of increments the next start extrapolates through."""
        if not (self.solves and self.weights):
            return 0
        return min((self.solves - 1) // 4, self.orders[self.solves % 4])

    def start(self):
        r = self.depth()
        if not r:
            return self.newest
        stage = self.solves % 4
        slot = self.slots[stage]
        return self.newest + (self.weights[r] * self.rings[stage][slot:slot + r]).sum(axis=0)

    def push(self, nonlinear, settled):
        """Record a solve's N; ``settled``: its start certified as it stood."""
        if self.solves and self.weights:
            stage = self.solves % 4
            p = self.orders[stage]
            # a start at full depth, (solves - 1) // 4 >= p, that did not certify
            if not settled and p < EXTRAPOLATION_MAX_ORDER and (self.solves - 1) // 4 >= p:
                p = self.orders[stage] = p + 1
                if p == len(self.weights):
                    self.weights.append(self._weights(p))
            slot = self.slots[stage] = (self.slots[stage] - 1) % EXTRAPOLATION_MAX_ORDER
            ring = self.rings[stage]
            ring[slot + len(ring) // 2] = np.subtract(nonlinear, self.newest, out=ring[slot])
        self.newest = nonlinear
        self.solves += 1


def _extrapolation_signs(r):
    """(-1)^{j+1} C(r, j) for j = 1..r, as an (r, 1, 1) array: the weights that
    extrapolate a polynomial of degree r - 1 from its last r values."""
    return np.array([(-1.0) ** (j + 1) * math.comb(r, j) for j in range(1, r + 1)])[:, None, None]


@lru_cache(maxsize=8)
def _hkappa_nonlinear(grid, ham):
    """(h, history) -> the H_kappa (or band) remainder 16 kappa^5 d/dx P_band (g - g0 -
    m P_band q) on modes 0..K of one half row h, m the first-order symbol of g, by one
    Riccati solve started from ``history`` (a ``_StageHistory``, which records the
    solve; an empty one starts cold) that also reads g; for K >= RICCATI_MIN_CUTOFF."""
    k = grid.cutoff
    amp = (16.0 * ham.kappa ** 5 * 2j * math.pi / grid.length) * np.arange(k + 1)
    amp_m = amp * first_order_green(grid, ham.kappa)[k:]  # the first-order part's, folded
    w = None  # no band: P_band is the identity, and no multiply is spent on it
    if ham.band is not None:
        w = ham.band.values(grid.frequencies[k:])
        w.setflags(write=False)
        amp, amp_m = amp * w, amp_m * w * w
    for a in (amp, amp_m):
        a.setflags(write=False)
    return partial(_hkappa_term, grid, ham.kappa, w, amp, amp_m)


def _hkappa_term(grid, kappa, w, amp, amp_m, h, history):
    if h[0].imag != 0.0:
        raise PreconditionError("q is not real: Im qhat(0) of its half row is not 0")
    gh, _, _, nonlinear, settled = _riccati_half(grid, h if w is None else w * h, kappa,
                                                 history.start())
    history.push(nonlinear, settled)
    return amp * gh - amp_m * h


def rhs(q, ham):
    """The right-hand side of a nonlinear evolution at state q.  The linear kinds
    are refused: their step is the exact multiplier e^{lambda dt}."""
    if ham.is_linear:
        raise PreconditionError(f"rhs takes a nonlinear flow, not {ham.kind!r}, whose "
                                "vector field is linear_symbol times q")
    grid = q.grid
    if ham.kind == "kdv":
        nonlinear = _kdv_nonlinear(grid)(q.coeffs[grid.cutoff:])
        return PeriodicField(grid, -derivative(q, 3).coeffs + _full_rows(nonlinear))
    kap = ham.kappa
    transport = 4.0 * kap ** 2 * derivative(q, 1)
    w = _band_values(ham, grid)
    qin = PeriodicField(grid, q.coeffs * w)
    gp = derivative(green_of(qin, kap), 1)
    return transport + 16.0 * kap ** 5 * PeriodicField(grid, gp.coeffs * w)


def linear_symbol(grid, ham):
    """Fourier symbol of the flow's (a linear kind's parent's) linearization at q = 0."""
    two_pi_i_k = 2j * math.pi * grid.frequencies
    if ham.parent == "kdv":
        return -two_pi_i_k ** 3
    kap = ham.kappa
    sym = 4.0 * kap ** 2 * two_pi_i_k
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
        # written so that NaN fails each test, as +-inf does
        if not 0 < self.dt < math.inf:
            raise PreconditionError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.T < math.inf:
            raise PreconditionError(f"T must be nonnegative and finite, got {self.T}")
        if self.T > 0 and self.dt > self.T + 1e-15:
            raise PreconditionError("dt must not exceed T")
        if not self.T / self.dt <= MAX_STEPS:
            raise PreconditionError(f"dt {self.dt} is too small: T/dt = {self.T / self.dt:.3g} "
                                    f"steps, above MAX_STEPS = {MAX_STEPS}")
        if not 1 <= self.saves <= MAX_STEPS:
            raise PreconditionError(f"saves must be from 1 to MAX_STEPS = {MAX_STEPS}")
        columns = {}  # monitor column -> the probe it holds
        for kap in self.probes:
            if not 1.0 <= kap < math.inf:
                raise PreconditionError(f"alpha probes need a finite kappa >= 1, got {kap}")
            label = f"alpha({kap:g})"
            if label in columns:
                raise PreconditionError(f"alpha probes {columns[label]!r} and {kap!r} share "
                                        f"the monitor column {label}")
            columns[label] = kap


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


def _monitor_columns(states, probes):
    """Monitor columns over the states: M, P and H_kdv of each, and alpha and hs
    at each probe kappa, from one ``alphas_of`` stack per probe."""
    out = {key: np.array(col) for key, col in
           zip(("M", "P", "H_kdv"), zip(*[polynomial_invariants(q) for q in states]))}
    for kap in probes:
        alphas = alphas_of(states, kap)
        out[f"alpha({kap:g})"] = np.array([a.value for a in alphas])
        out[f"hs({kap:g})"] = np.array([a.hs_norm for a in alphas])
    return out


def _lawson_rk4(q0s, spec, on_save=None):
    """Per member of q0s (one shared grid): its final coefficient row, or the
    ``KdvLabError`` (raised by its nonlinear term, or a ``BlowUpError``) that
    dropped it from the stack.  ``on_save(t, c)`` gets the running stack as
    full rows at t = 0 and each save.  The stack holds modes 0..K of each row
    with Im c_0 = 0, so the full rows are exactly Hermitian; a step's row norms
    (weights 1, 2, 2, ... on |c_j|^2) are the next step's pre-step norms.
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

    transport = None
    if ham.kind == "kdv":
        nonlinear = _kdv_nonlinear(grid)
    elif ham.is_linear:
        nonlinear = np.zeros_like  # no remainder: a step is c <- e^{lambda dt} c
    else:
        if k >= RICCATI_MIN_CUTOFF:
            row_term = _hkappa_nonlinear(grid, ham)
            # modes K+1..M of w move with the transport 4 kappa^2 d/dx alone
            j = np.arange(_riccati_plan(grid, ham.kappa)[0] + 1)
            transport = np.exp((8j * math.pi * ham.kappa ** 2 * dt / grid.length) * j)
            transport[:k + 1] = full
        else:
            def row_term(h, _):
                return rhs(PeriodicField(grid, _full_rows(h)), ham).coeffs[k:] - lam * h

        def nonlinear(c):
            out = np.empty_like(c)  # every row is written: its term, or 0 once it failed
            for i, h in enumerate(c):
                if i not in failed:
                    try:
                        out[i] = row_term(h, histories[i])
                        continue
                    except KdvLabError as exc:
                        failed[i], before, after = exc, float(norm_before[i]), float(norms(h))
                        if not after <= 2.0 * before:  # h not finite, or past the guard's ratio
                            failed[i] = BlowUpError(
                                f"L^2 norm of a stage input more than doubled within the step "
                                f"to t={step * dt:.6g} ({before:.3e} -> {after:.3e})",
                                time=step * dt, norm_before=before, norm_after=after)
                            failed[i].__cause__ = exc  # as raise ... from exc would
                out[i] = 0.0
            return out

    def norms(c):
        """L^2 norm of each full coefficient row, from its nonnegative half."""
        v = c.view(float)
        return np.sqrt((v * v) @ weights)

    c = _hermitize(np.array([q.coeffs for q in q0s], dtype=complex))[:, k:].copy()
    members = np.arange(len(q0s))
    histories = [_StageHistory(transport) for _ in q0s]  # per row: its Riccati starts
    results = [None] * len(q0s)
    if on_save is not None:
        on_save(0.0, _full_rows(c))
    norm_before = norms(c)
    for step in range(1, n_steps + 1):
        failed = {}
        # each stage input is built in the scratch s, and c becomes full * c; the
        # step full * c + dt/6 (full a + 2 half (b + cc) + d) accumulates into a,
        # in the textbook's operation order, so every output is bitwise the same.
        # Every remainder returns a fresh array, which this may overwrite
        s = np.empty_like(c)
        a = nonlinear(c)
        np.multiply(dt / 2.0, a, out=s)
        np.add(c, s, out=s)
        b = nonlinear(np.multiply(half, s, out=s))
        np.multiply(half, c, out=s)
        s += (dt / 2.0) * b
        cc = nonlinear(s)
        np.multiply(full, c, out=c)
        np.multiply(dt_half, cc, out=s)
        d = nonlinear(np.add(c, s, out=s))
        np.multiply(full, a, out=a)
        np.add(b, cc, out=b)
        a += np.multiply(two_half, b, out=b)
        a += d
        a *= dt / 6.0
        c = np.add(c, a, out=a)
        c.imag[:, 0] = 0.0
        norm_after = norms(c)
        grew = norm_after > 2.0 * norm_before
        for i in np.flatnonzero(grew & (norm_before > 1e-300)) if grew.any() else ():
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
            histories = [hs for hs, kept in zip(histories, keep) if kept]
            if not len(c):
                break
        norm_before = norm_after
        if on_save is not None and step in save_steps:
            on_save(step * dt, _full_rows(c))

    for i, row in zip(members, _full_rows(c)):
        results[i] = row
    return results


def evolve(q0, spec):
    """Integrate the selected flow from q0; states on a uniform output grid.

    Lawson RK4 with the q=0 linearization applied exactly in Fourier space.
    A blow-up guard aborts if the L^2 norm doubles within a single step.  An
    H_kappa trajectory whose H^{-1} norm exceeds HM1_RADIUS at a save point is
    downgraded to uncertified, with a warning.  The monitors of the saved
    states are computed after the loop, alpha at each probe kappa as one
    stack; an error they raise comes before the flow's own.
    """
    grid = q0.grid
    times, states = [], []

    def save(t, c):
        times.append(t)
        states.append(PeriodicField(grid, c[0]))

    (final,) = _lawson_rk4([q0], spec, save)
    columns = _monitor_columns(states, spec.probes)  # a probe that raises, first
    if isinstance(final, KdvLabError):
        raise final
    warnings = []
    if spec.hamiltonian.parent != "kdv":
        for t, f in zip(times, states):
            nrm = sobolev_norm(f, -1.0)
            if nrm > HM1_RADIUS:
                warnings.append(f"H^-1 norm {nrm:.3g} exceeded smallness budget "
                                f"delta0={HM1_RADIUS:.3g} at t={t:.6g}")
                break
    return Trajectory(times=np.array(times), states=states, spec=spec, monitors=columns,
                      warnings=warnings, certified=not warnings)


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


def monitors(traj):
    """Max relative drift of M, P, H_kdv, and alpha at each probe of the flow's
    spec, read back from the columns ``evolve`` stored in ``traj.monitors``."""
    probes = traj.spec.probes
    if len(probes) < 1:
        raise PreconditionError("need at least one alpha probe")
    series = traj.monitors
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


def sup_distance(ref, traj):
    """sup over the saves of ||ref(t) - traj(t)||_{H^{-1}} for two trajectories
    on shared output times: a reference evolved once serves many flows."""
    return float(np.max([sobolev_norm(u - v, -1.0) for u, v in zip(ref.states, traj.states)]))


def kappa_sweep(q0, kappas, T, dt, saves=10):
    """(kappa -> sup_{t<=T} || KdV(q0)(t) - H_kappa(q0)(t) ||_{H^{-1}}, the
    trajectories evolved: the KdV reference, then one per kappa)."""
    trajs = [evolve(q0, FlowSpec(ham, dt=dt, T=T, saves=saves))
             for ham in [HamiltonianSpec.kdv()] + [HamiltonianSpec.hkappa(k) for k in kappas]]
    return {float(kap): sup_distance(trajs[0], t) for kap, t in zip(kappas, trajs[1:])}, trajs

