"""Circle <-> line bridging: partition of unity, cutting, unwrapping, locality.

The pipeline turns a mean-zero field u on T_L into compactly supported line
data close to it, using only machinery whose error we can measure:

  1. a partition of unity by N translated plateau bumps phi^k (cosine-squared
     ramps, so phi(x) + phi(x - L/N) = 1 exactly on the overlap);
  2. a per-window table of localized negative norms and integrals; windows
     ranked small in both norms and away from the origin are admissible.
     Each window's coefficients are an FFT product of its analytic transform
     with u's.  The windows are translates by L/N, so with an FFT length P
     that N divides, window k's length-P transform is window 0's rolled by
     kP/N, times a constant phase: one exp and one forward FFT serve all N
     windows, and each keeps only its inverse FFT;
  3. a selected bump (single window with vanishing integral or a corrected
     consecutive pair) whose removal makes the remainder mean-zero;
  4. unwrapping: q0 = (1 - periodized selected bump) * u, cut at the selected
     plateau where it vanishes identically, placed on a larger box.

The periodizations satisfy ring(chi0) + ring(phi_sel) = 1, so the t=0
mismatch between u and the re-periodized q0 is exactly the windowed part
ring(phi_sel) * u.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NoAdmissibleWindowError,
    PreconditionError,
    UnderResolvedError,
)
from .flows import FlowSpec, HamiltonianSpec, evolve
from .spectral import (
    LineField,
    PeriodicField,
    TorusGrid,
    _coeffs_from_samples,
    make_field,
    next_fast_len,
    periodize_samples,
    sobolev_norm,
    truncate_field,
)


# ---------------------------------------------------------------------------
# plateau bumps with cosine-squared ramps
# ---------------------------------------------------------------------------

def _circle_distance(x, L):
    """Distance of x from the nearest multiple of L (elementwise)."""
    return np.abs(np.mod(x + L / 2, L) - L / 2)


@dataclass(frozen=True)
class RampBump:
    """Even plateau bump around ``center``: 1 on +-plateau, 0 outside +-support."""

    center: float
    plateau: float
    support: float

    def __post_init__(self):
        if not (0 < self.plateau < self.support):
            raise PreconditionError("need 0 < plateau < support")

    @property
    def ramp_width(self):
        return self.support - self.plateau

    def __call__(self, x):
        return self.profile(np.abs(np.asarray(x, dtype=float) - self.center))

    def profile(self, y):
        """The bump at distance y >= 0 from its center."""
        t = np.clip((y - self.plateau) / self.ramp_width, 0.0, 1.0)
        vals = np.cos(0.5 * math.pi * t) ** 2
        # exact plateau/support values (cos(pi/2) is only ~1e-17 in floats)
        return np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, vals))

    def periodized(self, x, period):
        """sum_j bump(x + j * period), evaluated exactly (<= 2 live translates)."""
        return self.profile(_circle_distance(np.asarray(x, dtype=float) - self.center, period))

    def centered_fourier(self, xi):
        """Line Fourier transform of this bump moved to center 0 (real, even), at the
        float array xi; a translate's transform is this times its phase."""
        w = self.ramp_width
        sp = 2.0 * math.pi * xi
        pole = math.pi / w
        num = np.sin(sp * self.support) + np.sin(sp * self.plateau)
        out = np.empty_like(xi)
        near0 = np.abs(sp) < 1e-9 * pole
        nearp = np.abs(np.abs(sp) - pole) < 1e-7 * pole
        reg = ~(near0 | nearp)
        out[near0] = self.support + self.plateau
        out[reg] = num[reg] * pole ** 2 / (sp[reg] * (pole ** 2 - sp[reg] ** 2))
        if np.any(nearp):
            sgn = np.sign(sp[nearp])
            out[nearp] = 0.5 * w * np.sin(sgn * pole * (self.support + self.plateau) / 2.0)
        return out


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionFamily:
    """N translated bumps phi^k tiling T_L, plateau L/(4N), support 3L/(4N)."""

    L: float
    N: int

    def __post_init__(self):
        if self.N < 8:
            raise PreconditionError(f"need N >= 8 windows, got {self.N}")
        if self.L <= 0:
            raise PreconditionError("period must be positive")

    @property
    def width(self):
        return self.L / self.N

    @cached_property
    def centers(self):
        h = self.width
        c = -self.L / 2 + 0.75 * h + h * np.arange(self.N)
        c.setflags(write=False)
        return c

    def bump(self, k):
        h = self.width
        return RampBump(center=float(self.centers[k]), plateau=h / 4, support=3 * h / 4)

    def window_samples(self, k, x):
        """Periodized window ring(phi^k) at the points x."""
        return self.bump(k).periodized(x, self.L)

    def partition_defect(self, x):
        """max |sum_k ring(phi^k)(x) - 1| over the points x, all N windows as one
        (N, len(x)) array."""
        offsets = np.asarray(x, dtype=float) - self.centers[:, None]
        total = self.bump(0).profile(_circle_distance(offsets, self.L)).sum(axis=0)
        return float(np.max(np.abs(total - 1.0)))


def build_partition(L, N):
    """Partition of unity on T_L; validates the exact-sum invariant."""
    p = PartitionFamily(L=float(L), N=int(N))
    probe = np.linspace(0.0, L, 257, endpoint=False) - L / 2
    defect = p.partition_defect(probe)
    if defect > 1e-12:
        raise PreconditionError(f"partition-of-unity defect {defect:.2e} exceeds 1e-12")
    return p


# ---------------------------------------------------------------------------
# localized norms and window selection
# ---------------------------------------------------------------------------

@dataclass
class WindowTable:
    half: np.ndarray       # ||ring(phi^k) u||_{Hdot^{-1/2}} (mean-zero corrected)
    one: np.ndarray        # ||ring(phi^k) u||_{Hdot^{-1}}
    integrals: np.ndarray  # int ring(phi^k) u

    def as_rows(self):
        return [
            (k, float(self.half[k]), float(self.one[k]), float(self.integrals[k]))
            for k in range(len(self.half))
        ]


def _window_product_coeffs(u, part, out_cutoff):
    """Per window k, the exact coefficients of ring(phi^k) * u up to out_cutoff:
    the convolution phi-hat^k * u-hat as an FFT product of length P >= 2J + 1,
    J = out_cutoff + K_u, which keeps the wrapped terms off the kept modes.

    phi-hat^k on the modes -J..J is the analytic transform of window 0 times
    the phase of a shift by k L/N.  P is a multiple of N, so that phase is, up
    to the constant e^{2 pi i J k/N}, the roll of window 0's length-P transform
    by kP/N: u-hat and window 0 are transformed once, and each window costs
    one inverse FFT.  P keeps every prime factor of N, so a prime N gives
    transforms of a slower length, still faster than a forward and an inverse
    transform of smooth length per window (timings in CHANGES.md, issue 23).
    One window at a time keeps the memory of a row."""
    ku = u.grid.cutoff
    n, j = part.N, out_cutoff + ku
    shift = next_fast_len((2 * j + n) // n)  # so that P = N shift >= 2J + 1
    p = n * shift
    xi = np.arange(-j, j + 1) / part.L
    phihat = part.bump(0).centered_fourier(xi) * np.exp(-2j * math.pi * xi * part.centers[0])
    f0 = np.fft.fft(phihat / part.L, p)
    f0 = np.concatenate((f0, f0))  # f0[k shift:k shift + p] is the roll by k shift
    uh = np.fft.fft(u.coeffs, p)
    keep = slice(2 * ku, 2 * ku + 2 * out_cutoff + 1)
    for k in range(n):
        phase = cmath.exp(2j * math.pi * (j * k % n) / n)
        yield phase * np.fft.ifft(f0[k * shift:k * shift + p] * uh)[keep]


def localized_norms(u, part):
    """Per-window table of (Hdot^{-1/2}, Hdot^{-1}) norms and exact integrals."""
    if abs(u.grid.length - part.L) > 1e-9 * part.L:
        raise PreconditionError("field period does not match the partition period")
    if u.grid.samples < 16 * part.N:
        raise UnderResolvedError(
            f"{u.grid.samples} samples cannot resolve {part.N} windows "
            f"(need >= 16 per window)"
        )
    D = u.grid.samples
    L = part.L
    js = np.arange(-D, D + 1)
    freqs = js / L
    w_half = np.zeros_like(freqs)
    w_one = np.zeros_like(freqs)
    nz = js != 0
    w_half[nz] = np.abs(freqs[nz]) ** (-1.0)
    w_one[nz] = np.abs(freqs[nz]) ** (-2.0)
    half = np.empty(part.N)
    one = np.empty(part.N)
    integrals = np.empty(part.N)
    for k, c in enumerate(_window_product_coeffs(u, part, D)):
        p2 = np.abs(c) ** 2
        half[k] = math.sqrt(L * float(w_half @ p2))
        one[k] = math.sqrt(L * float(w_one @ p2))
        integrals[k] = L * float(c[D].real)
    return WindowTable(half=half, one=one, integrals=integrals)


# The cut policy of ``select_cut`` (see its docstring).
RANK_FRACTION = 0.9
ORIGIN_MARGIN_WINDOWS = 10.0
ZERO_TOL_FACTOR = 1e-10

BOX_FACTOR = 2  # the line box of ``unwrap``, in circle periods


@dataclass
class CutPlan:
    """Everything needed to cut u on the circle and unwrap it to the line."""

    partition: PartitionFamily
    case: str                  # "single" | "pair-left" | "pair-right"
    indices: tuple             # (k0,) or (k1, k1+1)
    coefficient: float         # correction coefficient (0 for single case)
    theta: float               # cut location: center of the vanishing plateau
    table: WindowTable
    u_half_norm: float         # A = ||u||_{Hdot^{-1/2}(T_L)}
    integral_defect: float     # |int ring(phi_sel) u| after correction

    @property
    def theta_star(self):
        """Cut point shifted into (0, L), so the cut window contains 0."""
        L = self.partition.L
        t = self.theta % L
        return t if t > 0 else t + L

    def selected_bump_samples(self, x):
        """Periodized selected bump ring(phi_sel) at points x."""
        p = self.partition
        if self.case == "single":
            return p.window_samples(self.indices[0], x)
        k1, k2 = self.indices
        if self.case == "pair-left":
            return p.window_samples(k1, x) - self.coefficient * p.window_samples(k2, x)
        return p.window_samples(k2, x) - self.coefficient * p.window_samples(k1, x)

    def to_json_dict(self):
        return {
            "case": self.case,
            "indices": [int(i) for i in self.indices],
            "coefficient": float(self.coefficient),
            "theta": float(self.theta),
            "u_half_norm": float(self.u_half_norm),
            "integral_defect": float(self.integral_defect),
            "partition": {"L": self.partition.L, "N": self.partition.N},
            "windows": [
                {"k": k, "hm_half": h, "hm_one": o, "integral": i}
                for (k, h, o, i) in self.table.as_rows()
            ],
        }


def select_cut(u, part):
    """Pick the cut window(s) and the mean-zero correction, by rank.

    The best ceil(RANK_FRACTION*N) windows in each of the two localized norms
    form the admissible pool; windows whose bump support comes within
    ORIGIN_MARGIN_WINDOWS widths of the origin are excluded.  A window whose
    integral is at most ZERO_TOL_FACTOR ||u||_{L^2} sqrt(L/N) in size (numerically
    vanishing) gives the single-bump case; otherwise a consecutive admissible
    pair is corrected so the selected bump removes the full mean of u.
    """
    table = localized_norms(u, part)
    N = part.N
    keep = int(math.ceil(RANK_FRACTION * N))
    s1 = set(np.argsort(table.half, kind="stable")[:keep].tolist())
    s2 = set(np.argsort(table.one, kind="stable")[:keep].tolist())
    h = part.width
    # the bump support of each window stays more than the margin from the origin
    far = _circle_distance(part.centers, part.L) - 0.75 * h > ORIGIN_MARGIN_WINDOWS * h
    s3 = {k for k in s1 & s2 if far[k]}
    if not s3:
        raise NoAdmissibleWindowError(
            "no admissible window: all low-norm windows sit within "
            f"{ORIGIN_MARGIN_WINDOWS} widths of the origin (N={N})"
        )
    a_norm = sobolev_norm(u, -0.5, homogeneous=True)
    tol = ZERO_TOL_FACTOR * u.l2_norm() * math.sqrt(h)
    zeros = sorted((k for k in s3 if abs(table.integrals[k]) <= tol),
                   key=lambda k: table.half[k])
    if zeros:
        k0 = int(zeros[0])
        return CutPlan(
            partition=part, case="single", indices=(k0,), coefficient=0.0,
            theta=float(part.centers[k0]), table=table, u_half_norm=a_norm,
            integral_defect=abs(float(table.integrals[k0])),
        )
    pairs = sorted((k for k in s3 if (k + 1) in s3),
                   key=lambda k: table.half[k] + table.half[k + 1])
    if not pairs:
        raise NoAdmissibleWindowError(
            "no consecutive admissible pair of windows; increase N"
        )
    k1 = int(pairs[0])
    i1, i2 = float(table.integrals[k1]), float(table.integrals[k1 + 1])
    if abs(i1) <= abs(i2):
        case, r, theta = "pair-left", i1 / i2, part.centers[k1]
        defect = abs(i1 - r * i2)
    else:
        case, r, theta = "pair-right", i2 / i1, part.centers[k1 + 1]
        defect = abs(i2 - r * i1)
    return CutPlan(
        partition=part, case=case, indices=(k1, k1 + 1), coefficient=float(r),
        theta=float(theta), table=table, u_half_norm=a_norm,
        integral_defect=float(defect),
    )


# ---------------------------------------------------------------------------
# unwrapping to the line
# ---------------------------------------------------------------------------

def unwrap(u, plan):
    """Cut (1 - ring(phi_sel)) * u at the selected plateau; embed on a box of
    BOX_FACTOR periods.

    The result vanishes identically on the selected plateau, so cutting there
    yields a compactly supported line function with connected support
    containing the origin; its integral is zero by the correction
    construction (mode 0 of the embedding is pinned to the exact value).
    """
    part = plan.partition
    L, n = u.grid.length, u.grid.samples
    dx = L / n
    h = part.width
    i_theta = int(round(plan.theta_star / dx))
    theta_s = i_theta * dx
    if abs(theta_s - plan.theta_star) > h / 4 - 2 * dx:
        raise UnderResolvedError("cut plateau is not resolved by the sample grid")

    u_s = u.samples_values()
    x_circle = u.grid.points
    chi0_circle = 1.0 - plan.selected_bump_samples(x_circle)
    cut_s = chi0_circle * u_s

    n_box = BOX_FACTOR * n
    off = ((BOX_FACTOR - 1) * n) // 2
    x0_idx = i_theta - n - off
    box_start = x0_idx * dx
    m = np.arange(n_box)
    window = (x0_idx + m >= i_theta - n) & (x0_idx + m < i_theta)
    vals = np.zeros(n_box)
    vals[window] = cut_s[(x0_idx + m[window]) % n]

    lam = BOX_FACTOR * L
    k_box = (n_box - 1) // 2
    grid = TorusGrid(lam, k_box, n_box)
    c = _coeffs_from_samples(grid, vals)
    c[k_box] = 0.0  # exact integral from the correction construction
    support = (theta_s - L + h / 4, theta_s - h / 4)
    return LineField(box=PeriodicField(grid, c), box_start=box_start,
                     support=support, exact_samples=vals)


def _evolution_field(linefield, cutoff):
    """Band-limited copy of the embedded field on a products-capable grid.

    The sample count stays a power-of-two multiple of the box grid's, so the
    evolved samples remain aligned with the original lattice.
    """
    n_ev = linefield.box.grid.samples
    base = next_fast_len(3 * cutoff + 1)
    while n_ev < base:
        n_ev *= 2
    return truncate_field(linefield.box, cutoff, samples=n_ev)


def fattened_cutoff(linefield, pad_plateau, pad_support):
    """chi*: 1 on the padded support, 0 beyond the wider padding."""
    a, b = linefield.support
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return RampBump(center=center, plateau=half + pad_plateau,
                    support=half + pad_support)


def compare_local(u0, plan, kappa, band, T, dt, saves=8):
    """Error curve t -> ||u(t) - ring(chi* q(t))_L||_{H^{-1}(T_L)}.

    u evolves under the band-truncated flow on T_L, the unwrapped data under
    the untruncated flow on the embedding box; chi* is the fattened cutoff
    around the support of q0 (chi0 (1-chi*) = 0).  At t = 0 the error equals
    ||ring(phi_sel) u0||_{H^{-1}} exactly.
    """
    part = plan.partition
    L = u0.grid.length
    freqs = np.abs(u0.grid.frequencies)
    live = np.abs(u0.coeffs) > 1e-10 * max(float(np.max(np.abs(u0.coeffs))), 1e-300)
    outside = (freqs > 2 * band.M) | ((freqs <= band.N / 2) & (freqs > 0))
    if np.any(live & outside):
        raise PreconditionError(
            "initial data must be band-limited inside (m/2, 2M] for this comparison"
        )

    circle_spec = FlowSpec(
        HamiltonianSpec.hkappa_band(kappa, band.N, band.M), dt=dt, T=T, saves=saves
    )
    circle = evolve(u0, circle_spec)

    q0 = unwrap(u0, plan)
    k_l = u0.grid.cutoff
    ev0 = _evolution_field(q0, min(2 * k_l + 32, (q0.box.grid.samples - 2) // 3))
    line_spec = FlowSpec(HamiltonianSpec.hkappa(kappa), dt=dt, T=T, saves=saves)
    line = evolve(ev0, line_spec)

    h = part.width
    chi_star = fattened_cutoff(q0, pad_plateau=h / 20, pad_support=h / 10)
    n_ev = ev0.grid.samples
    x_box = q0.box_start + np.arange(n_ev) * (BOX_FACTOR * L / n_ev)
    chi_s = chi_star(x_box)

    n_l = n_ev // BOX_FACTOR
    errors = []
    for uq, qq in zip(circle.states, line.states):
        prod = chi_s * qq.samples_values()
        per = periodize_samples(prod, q0.box_start, L, BOX_FACTOR * L / n_ev)
        grid_l = TorusGrid(L, min(k_l, (n_l - 1) // 2), n_l)
        back = make_field(grid_l, samples=per)
        back_full = truncate_field(back, k_l, samples=u0.grid.samples)
        errors.append(sobolev_norm(uq - back_full, -1.0))
    return circle.times, np.array(errors), (circle, line, q0)

