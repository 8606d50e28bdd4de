"""Fourier-side fields on a circle and compactly supported line data.

Conventions (used everywhere in the package): on the circle of length l the
transform pair is

    fhat(k) = (1/l) * integral_0^l exp(-2*pi*i*k*x) f(x) dx,   k in (1/l)*Z
    f(x)    = sum_k exp(2*pi*i*k*x) fhat(k)

so Plancherel reads ||f||_{L^2}^2 = l * sum |fhat(k)|^2, and the H^s /
homogeneous Hdot^s norms weight |fhat(k)|^2 by (1+|k|^2)^s and |k|^{2s}.
Fields are real valued, stored as Hermitian-symmetric coefficient arrays on
the mode lattice k = j/l, |j| <= K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads numpy.fft on the first np.fft access; importing it here keeps
# that work at import time, out of the first transform's run
import numpy.fft  # noqa: F401

from .errors import (
    GridMismatchError,
    MeanZeroError,
    PreconditionError,
    SupportError,
)

MEAN_ZERO_RTOL = 1e-12

# The most sample points a grid may have, and so the largest mode cutoff K, as a
# grid takes 2K + 1 points or more (3K + 1 or more by default).  The largest
# grids in use have 8192 points (K = 2560, in the tests) and ~900 (K = 288, in
# cut_compare); 2^18 is 32 times the first, while one row of n complex values
# stays 4 MB.  A larger cutoff is refused before next_fast_len searches for its
# transform length, a search that does not end in any time for a huge K.
MAX_SAMPLES = 2 ** 18


@lru_cache(maxsize=256)
def next_fast_len(n, real=False):
    """The smallest 2*3*5*7*11-smooth integer >= n (and >= 1): an FFT length
    that numpy's pocketfft transforms without a slow prime factor.  With
    ``real``, the smallest 2*3*5-smooth one, scipy's rule for real transforms."""
    m = max(int(n), 1)
    while True:
        r = m
        for p in (2, 3, 5) if real else (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusGrid:
    """Sampling of the circle T_l: modes j/l for |j| <= cutoff, n sample points."""

    length: float
    cutoff: int
    samples: int

    def __post_init__(self):
        if not (self.length > 0 and math.isfinite(self.length)):
            raise PreconditionError(f"circle length must be positive, got {self.length}")
        if self.cutoff < 1:
            raise PreconditionError(f"mode cutoff must be >= 1, got {self.cutoff}")
        for key in ("cutoff", "samples"):
            if getattr(self, key) > MAX_SAMPLES:
                raise PreconditionError(f"grid {key} must be at most MAX_SAMPLES = {MAX_SAMPLES} "
                                        "(a cutoff K takes at least 3K + 1 by default)")
        if self.samples < 2 * self.cutoff + 1:
            raise PreconditionError(
                f"need at least 2K+1 = {2 * self.cutoff + 1} samples, got {self.samples}"
            )

    @classmethod
    def make(cls, length, cutoff, samples=None):
        """Grid with dealiasing headroom (n >= 3K+1) unless samples is given."""
        if samples is None:  # a cutoff above MAX_SAMPLES is refused, after a short search
            samples = next_fast_len(3 * min(cutoff, MAX_SAMPLES) + 1)
        return cls(float(length), int(cutoff), int(samples))

    @property
    def modes(self):
        """Integer mode indices j = -K..K."""
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def frequencies(self):
        """Mode frequencies k = j/l."""
        return self.modes / self.length

    @property
    def points(self):
        """Sample locations x_m = m*l/n."""
        return np.arange(self.samples) * (self.length / self.samples)

    @property
    def spacing(self):
        return self.length / self.samples


def _hermitize(coeffs):
    """Hermitian-symmetric part along the last axis (one field or a stack of them)."""
    c = 0.5 * (coeffs + np.conj(coeffs[..., ::-1]))
    k0 = (c.shape[-1] - 1) // 2
    c[..., k0] = c[..., k0].real
    return c


def _full_rows(h):
    """Exactly Hermitian rows c_{-K..K} from their nonnegative modes h[..., :K+1]."""
    return np.concatenate((np.conj(h[..., :0:-1]), h), axis=-1)


def _coeffs_from_samples(grid, values):
    """Hermitized coefficients of modes |j| <= K from grid.samples equispaced real values."""
    chat = np.fft.fft(values) / grid.samples
    return _hermitize(chat[grid.modes % grid.samples])


@dataclass(frozen=True)
class PeriodicField:
    """Real field on T_l held as Hermitian-symmetric Fourier coefficients."""

    grid: TorusGrid
    coeffs: np.ndarray  # complex, index i <-> mode j = i - K

    def __post_init__(self):
        if len(self.coeffs) != 2 * self.grid.cutoff + 1:
            raise PreconditionError(
                f"coefficient array length {len(self.coeffs)} does not match cutoff "
                f"{self.grid.cutoff}"
            )
        self.coeffs.setflags(write=False)

    # -- basic accessors ----------------------------------------------------

    @property
    def mean(self):
        """The spatial mean fhat(0)."""
        return self.coeffs[self.grid.cutoff].real

    def l2_norm(self):
        return math.sqrt(self.grid.length * float(np.sum(np.abs(self.coeffs) ** 2)))

    def is_mean_zero(self):
        scale = self.l2_norm()
        return abs(self.coeffs[self.grid.cutoff]) <= MEAN_ZERO_RTOL * max(scale, 1e-300)

    def samples_values(self, n=None):
        """Real samples on n equispaced points (defaults to grid.samples)."""
        n = self.grid.samples if n is None else int(n)
        if n < 2 * self.grid.cutoff + 1:
            raise PreconditionError("sample count below 2K+1 would alias")
        buf = np.zeros(n, dtype=complex)
        js = self.grid.modes
        buf[js % n] = self.coeffs
        return np.real(np.fft.ifft(buf) * n)

    # -- arithmetic (coefficientwise; used by integrators and tests) --------

    def __add__(self, other):
        _check_same_grid(self, other)
        return PeriodicField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return PeriodicField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return PeriodicField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicField(self.grid, -self.coeffs)


def _check_same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def make_field(grid, samples=None, coeffs=None):
    """Build a PeriodicField from real samples or from raw coefficients.

    Exactly one of ``samples`` / ``coeffs`` must be given.  Hermitian symmetry
    is enforced, so the result is real valued; analyze/synthesize round-trips
    are exact to rounding for band-limited data.
    """
    if (samples is None) == (coeffs is None):
        raise PreconditionError("pass exactly one of samples= or coeffs=")
    if coeffs is not None:
        c = np.asarray(coeffs, dtype=complex).copy()
        if len(c) != 2 * grid.cutoff + 1:
            raise PreconditionError(
                f"expected {2 * grid.cutoff + 1} coefficients, got {len(c)}"
            )
        if not np.all(np.isfinite(c)):
            raise PreconditionError("non-finite coefficients")
        return PeriodicField(grid, _hermitize(c))
    s = np.asarray(samples, dtype=float)
    if len(s) != grid.samples:
        raise PreconditionError(f"expected {grid.samples} samples, got {len(s)}")
    if not np.all(np.isfinite(s)):
        raise PreconditionError("non-finite samples")
    return PeriodicField(grid, _coeffs_from_samples(grid, s))


def field_from_modes(grid, entries):
    """Field from a sparse mode list [(j, complex amplitude), ...], |j| <= K.

    Amplitudes of a repeated j are summed; Hermitian symmetry is enforced as
    in ``make_field``.
    """
    c = np.zeros(2 * grid.cutoff + 1, dtype=complex)
    for j, a in entries:
        if abs(j) > grid.cutoff:
            raise PreconditionError(f"mode {j} beyond cutoff {grid.cutoff}")
        c[int(j) + grid.cutoff] += a
    return make_field(grid, coeffs=c)


# ---------------------------------------------------------------------------
# compactly supported line data, embedded on a box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineField:
    """Compactly supported real function on R, embedded on a large box.

    ``box`` is the band-limited representative on the torus of length
    ``box.grid.length``; sample m sits at line coordinate
    ``box_start + m * spacing``.  ``support`` is a closed interval strictly
    inside the box with margin >= box_length/8.  ``exact_samples``, when
    present, carries the sample values of the underlying cut function before
    band truncation (mode-0 of ``box`` is pinned to the exact integral).
    """

    box: PeriodicField
    box_start: float
    support: tuple
    exact_samples: np.ndarray | None = None

    def __post_init__(self):
        lam = self.box.grid.length
        a, b = self.support
        if not (a < b):
            raise SupportError("empty support interval")
        margin = min(a - self.box_start, self.box_start + lam - b)
        if margin < lam / 8 - 1e-9 * lam:
            raise SupportError(
                f"support margin {margin:.3g} below box_length/8 = {lam / 8:.3g}"
            )
        if self.exact_samples is not None:
            self.exact_samples.setflags(write=False)

    def samples_values(self):
        """Exact cut samples when available, else the band-limited ones."""
        if self.exact_samples is not None:
            return self.exact_samples
        return self.box.samples_values()


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _circle_weights(grid, s, homogeneous):
    k = grid.frequencies
    if homogeneous:
        w = np.zeros(len(k))
        nz = np.arange(len(k)) != grid.cutoff
        w[nz] = np.abs(k[nz]) ** (2.0 * s)
        return w
    return (1.0 + k * k) ** s


def _circle_norm(field, s, homogeneous):
    if homogeneous and s < 0 and not field.is_mean_zero():
        raise MeanZeroError(
            f"homogeneous norm with s={s} < 0 requires a mean-zero field"
        )
    w = _circle_weights(field.grid, s, homogeneous)
    return math.sqrt(field.grid.length * float(np.sum(w * np.abs(field.coeffs) ** 2)))


def _extended_line_field(f):
    """Zero-extend a LineField onto a box twice as long."""
    grid = f.box.grid
    n2 = 2 * grid.samples
    vals = f.samples_values()
    # place the original samples at their line coordinates inside the new box,
    # keeping the new origin on the sample lattice
    offset = int(round(grid.samples / 2))
    start2 = f.box_start - offset * grid.spacing
    s2 = np.zeros(n2)
    s2[offset:offset + grid.samples] = vals
    k2 = 2 * grid.cutoff
    grid2 = TorusGrid(2 * grid.length, k2, n2)
    c = _coeffs_from_samples(grid2, s2)
    if f.exact_samples is not None and f.box.is_mean_zero():
        c[k2] = 0.0
    box2 = PeriodicField(grid2, c)
    return LineField(box=box2, box_start=start2, support=f.support, exact_samples=None)


def line_norm_refinement(f, s, homogeneous=False):
    """(coarse, refined) Riemann-sum estimates of a line Sobolev norm.

    The coarse value uses the embedding box lattice, the refined one a box of
    twice the length (mode spacing halved); their agreement is the
    convergence evidence for the Riemann-sum limit.
    """
    coarse = _circle_norm(f.box, s, homogeneous)
    refined = _circle_norm(_extended_line_field(f).box, s, homogeneous)
    return coarse, refined


def sobolev_norm(f, s, homogeneous=False):
    """Sobolev norm ||f||_{H^s} (or homogeneous Hdot^s) of a field.

    PeriodicField: exact lattice sum.  LineField: Riemann-sum estimate on a
    refined embedding box; see ``line_norm_refinement`` for the convergence
    pair.  Homogeneous s < 0 requires mean zero.
    """
    if isinstance(f, LineField):
        return line_norm_refinement(f, s, homogeneous)[1]
    return _circle_norm(f, s, homogeneous)


# ---------------------------------------------------------------------------
# multipliers (smooth frequency cutoffs)
# ---------------------------------------------------------------------------

def _smooth_step(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, exp-based blend between."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0
    hi = t >= 1
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def bump_profile(xi):
    """Smooth even bump: 1 on [-1,1], 0 outside [-2,2], C-infinity ramps."""
    return _smooth_step(2.0 - np.abs(np.asarray(xi, dtype=float)))


def _check_dyadic(value, name):
    v = float(value)
    if v <= 0:
        raise PreconditionError(f"{name} must be a positive dyadic number")
    e = math.log2(v)
    if abs(e - round(e)) > 1e-9:
        raise PreconditionError(f"{name}={value} is not a power of two")
    return v


@dataclass(frozen=True)
class MultiplierSpec:
    """Smooth Littlewood-Paley band multiplier on frequencies (N, M]."""

    N: float
    M: float

    def __post_init__(self):
        object.__setattr__(self, "N", _check_dyadic(self.N, "N"))
        object.__setattr__(self, "M", _check_dyadic(self.M, "M"))
        if not self.N < self.M:
            raise PreconditionError("band multiplier needs N < M")

    @classmethod
    def band(cls, N, M):
        return cls(N=N, M=M)

    def values(self, freqs):
        """Multiplier evaluated on an array of frequencies."""
        xi = np.asarray(freqs, dtype=float)
        return bump_profile(xi / self.M) - bump_profile(xi / self.N)


def lp_project(f, spec):
    """Apply a smooth Littlewood-Paley multiplier coefficientwise."""
    w = spec.values(f.grid.frequencies)
    return PeriodicField(f.grid, f.coeffs * w)


# ---------------------------------------------------------------------------
# calculus on the circle
# ---------------------------------------------------------------------------

def derivative(f, order=1):
    """d^order/dx^order in Fourier; negative orders need a mean-zero field."""
    g = f.grid
    sym = 2j * np.pi * g.frequencies
    if order >= 0:
        return PeriodicField(g, f.coeffs * sym ** order)
    if not f.is_mean_zero():
        raise MeanZeroError("antiderivative of a field with nonzero mean")
    mult = np.zeros_like(sym)
    nz = np.arange(len(sym)) != g.cutoff
    mult[nz] = sym[nz] ** order
    c = f.coeffs * mult
    c[g.cutoff] = 0.0
    return PeriodicField(g, c)


def pairing(l, q):
    """<l, q> = integral of l*q over the circle."""
    _check_same_grid(l, q)
    val = l.grid.length * np.sum(np.conj(l.coeffs) * q.coeffs)
    return float(np.real(val))


def symplectic_form(u, v):
    """omega(u, v) = integral of u * dx^{-1} v; antisymmetric, mean-zero inputs."""
    if not u.is_mean_zero() or not v.is_mean_zero():
        raise MeanZeroError("symplectic form requires mean-zero fields")
    return pairing(u, derivative(v, -1))


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def product_coeffs(fc, gc, kf, kg, kout):
    """Coefficients (up to kout) of the product of two band-limited factors.

    Zero-padded transform of length > kf + kg + kout, so no aliasing touches
    the returned modes.
    """
    n = next_fast_len(kf + kg + kout + 1)
    bf = np.zeros(n, dtype=complex)
    bg = np.zeros(n, dtype=complex)
    jf = np.arange(-kf, kf + 1)
    jg = np.arange(-kg, kg + 1)
    bf[jf % n] = fc
    bg[jg % n] = gc
    sf = np.fft.ifft(bf) * n
    sg = np.fft.ifft(bg) * n
    ph = np.fft.fft(sf * sg) / n
    jo = np.arange(-kout, kout + 1)
    return ph[jo % n]


def cubic_integral(f):
    """Exact integral of f^3 over the circle (dealiased quadrature)."""
    k = f.grid.cutoff
    n = next_fast_len(3 * k + 1)
    s = f.samples_values(n)
    return f.grid.length * float(np.mean(s ** 3))


def truncate_field(f, cutoff, samples=None):
    """Sharp-truncate (or zero-extend) a field to a new mode cutoff."""
    k, k2 = f.grid.cutoff, int(cutoff)
    grid = TorusGrid.make(f.grid.length, k2, samples)
    c = np.zeros(2 * k2 + 1, dtype=complex)
    m = min(k, k2)
    c[k2 - m:k2 + m + 1] = f.coeffs[k - m:k + m + 1]
    return PeriodicField(grid, c)


# ---------------------------------------------------------------------------
# periodization
# ---------------------------------------------------------------------------

def periodize_samples(samples, box_start, L, spacing):
    """Block-sum periodization of an explicit sample array onto the T_L grid."""
    nL = L / spacing
    if abs(nL - round(nL)) > 1e-9:
        raise SupportError("period is not an integer number of sample spacings")
    nL = int(round(nL))
    if len(samples) % nL != 0:
        raise SupportError("sample count is not divisible by samples-per-period")
    i0 = box_start / spacing
    if abs(i0 - round(i0)) > 1e-6:
        raise SupportError("box start is not aligned with the sample lattice")
    i0 = int(round(i0)) % nL
    out = np.zeros(nL)
    folded = samples.reshape(-1, nL).sum(axis=0)
    out[(i0 + np.arange(nL)) % nL] += folded
    return out
