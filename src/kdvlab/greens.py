"""Schroedinger resolvent machinery on the circle.

g and alpha have two routes, and ``green_of`` and ``alpha_of`` pick one from
the mode cutoff K alone: the Floquet-Riccati route (below) when
K >= RICCATI_MIN_CUTOFF = K*, else the dense route (``green_diagonal`` and
``alpha`` on ``assemble_resolvent``), which the tests also use as the
reference.  Both take a real q and kappa >= 1.

Dense route.  In the Fourier basis e_j of T_l the operator
-d^2/dx^2 + q + kappa^2 is diagonal-plus-Toeplitz,

    A[a, b] = omega_a delta_ab + qhat((a-b)/l),   omega_a = 4 pi^2 (a/l)^2 + kappa^2,

and A = D^{1/2} (I + B) D^{1/2} with D = diag(omega) defines the normalized
perturbation B[a, b] = qhat((a-b)/l) / sqrt(omega_a omega_b), the object whose
Hilbert-Schmidt norm controls every series here.

q is real, so the hot path never forms the complex B.  It works in the
orthonormal real basis (e_0, cos_1..cos_K, sin_1..sin_K), where B_r = U^H B U
is real symmetric.  With a = Re qhat, b = Im qhat (a even, b odd, both zero
beyond K) and 1 <= m, p <= K, the blocks of B_r before the diagonal scaling
by 1/sqrt(omega) are Toeplitz plus Hankel:

    cos-cos  a(m-p) + a(m+p)        sin-sin  a(m-p) - a(m+p)
    cos-sin  b(m-p) - b(m+p)        row 0    a(0), sqrt2 a(p), -sqrt2 b(p).

The diagonal Green's function g_hat(d) = (1/l) sum_{a-b=d} A^{-1}[a, b] is
read for 0 <= d <= K from Y = D_r^{-1/2} (I + B_r)^{-1} D_r^{-1/2}, and
g_hat(-d) = conj g_hat(d):

    l g_hat(d) =   sum_{m-p=d} [(Y_cc + Y_ss) + i (Y_cs - Y_sc)]
                 + sum_{m+p=d} [(Y_cc - Y_ss) - i (Y_cs + Y_sc)] / 2
                 + sqrt2 (Y_0c(d) - i Y_0s(d))  for d >= 1,  Y_00 for d = 0.

The Frobenius norm and the spectrum are invariant under U, so ``hs_norm``
and the renormalized log-determinant

    alpha(kappa; q) = -log det(I + B) + tr B = sum_{l>=2} (-1)^l/l tr(B^l)

are taken from B_r as well.  The complex B, A and ``apply_operator`` are
built only on first use: they are oracles for the tests and the series routes.
LAPACK (``scipy.linalg``) is imported on the first dense inverse, so a run
that stays on the Riccati route, or runs no H_kappa flow, never loads it.

Two exactness conventions: the free diagonal constant on the circle is the
closed form g0 = coth(kappa l / 2) / (2 kappa) rather than the truncated
lattice sum, and ``green_diagonal`` and ``alpha`` add the lattice tails S - S_K
beyond the mode cutoff, so both converge to their circle values as K grows
instead of inheriting an O(K^-3) floor.  S_K(d) is the in-window sum the dense
matrix sees; the full sum S(d) = sum_{a in Z} 1/(omega_a omega_{a-d}) has the
closed form (k = d/l)

    S(d) / l = 2 g0 / (4 pi^2 k^2 + 4 kappa^2)
               + [d = 0] l e^{-kappa l} / (2 kappa^2 (1 - e^{-kappa l})^2).

The series oracles keep the bare truncation.

Floquet-Riccati route.  m = psi'/psi for the two Floquet solutions of
-psi'' + (q + kappa^2) psi = 0 gives the periodic branches m_- ~ +kappa and
m_+ ~ -kappa of m' + m^2 = q + kappa^2, with mean(m_-) = theta = -mean(m_+).
Then g = coth(theta l / 2) / (m_- - m_+), and Hill's formula gives

    alpha = -[(theta - kappa) l + 2 log1p(-e^{-theta l}) - 2 log1p(-e^{-kappa l})]
            + l qhat(0) coth(kappa l / 2) / (2 kappa).

The solve runs on the deviations w = m -/+ kappa of both branches at once, as
one (2, M + 1) stack of w-hat.  w keeps modes 0..M, M = floor(3K/2), on
n = next_fast_len(3M + 1) points, so the residual

    F-hat = (ik +- 2 kappa) w-hat - qhat + P_M rfft(w^2)

is alias-free and costs two transforms.  With M = K the Riccati g on rough data
(kappa = 1, ||B||_HS = 0.99, K = 64) was further from the dense g at 4K than
the dense g at K; with M = 3K/2 it was closer by 900x or more in all 18 cases
tried (l = 2 pi, 16, 32; K = 48, 64, 128; kappa = 1, 4; rough and smooth q).
n, M, ik and the other operators are cached per (grid, kappa).

The cold start is the linear response w' +- 2 kappa w = q, in closed form.
``green_of`` and ``alpha_of`` always start cold.  A warm start is the linear
response of the new q plus the previous solve's nonlinear part, its w-hat less
the linear response of its q; ``_riccati_half`` reads and rewrites it in a
``state`` dict, which the H_kappa flow kernel keeps, one per Lawson-RK4 row.
RK stages are transported at speed ~4 kappa^2, which the linear response
absorbs.  On the ``hkappa_evolve`` stages (seed 7) the relative start
residual is 7.0e-4 cold, 4.4e-3 (median) when the old w-hat is reused as it
is, and 1.9e-12 to 4.4e-6 warm.  A warm start that fails to certify is
retried cold.

Each correction delta solves delta' + 2 m delta = -F.  First with m replaced
by its mean, delta-hat = -F-hat / (ik + 2 mean m), which needs no transform;
such a step is kept while it cuts the residual to DIAGONAL_CUT = 1/4 or less.
The first that does not is taken again as the exact Newton correction: with
Phi = d^{-1}[2 (m - mean m)] periodic, y = e^Phi delta solves
y' + 2 mean(m) y = -e^Phi F, which is diagonal in Fourier space (four more
transforms).  On the stage inputs of ``hkappa_evolve`` and ``cut_compare``
(seed 7) every diagonal step cut the residual 11x or more (median 2000x and
110x).  Transforms per g there are the same for every cut from 0.1 to 0.5:
11.0 cold and 7.9 warm on ``hkappa_evolve`` (9.0 warm at a cut of 0.003, and
16.0 for the Newton-only cold solve this replaced), 15.0 and 10.1 on
``cut_compare`` (22.0 before).  The cut was chosen on a sweep of 1296 cold
solves (K = 64; l = 2 pi, 16, 32, 64; kappa = 1, 2, 4; three decays and seeds;
||B||_HS = +-0.9, +-0.99, +-1.5): 1/4 is the smallest of 0.1, 0.2, 0.25, 0.3
and 0.5 that certifies every case whose I + B is positive definite (0.1
misses 5, at l = 64, kappa = 4, ||B||_HS = 1.5, where Newton diverges from
the end of the shorter diagonal phase), at 31-32 transforms per solve at
||B||_HS = 0.9-0.99 against 28 at 0.1 and 37-39 at 0.5.

The solve stops at a residual (modes 0..M of F) of
ROUNDING_RTOL = 4 eps max |qhat|; once in the Newton phase also when the
residual stops halving at an accepted level (NEWTON_RTOL max |qhat|), or
after NEWTON_PATIENCE = 3 steps without a new smallest residual, and it keeps
the iterate with the smallest residual.  On hard data (l = 64, kappa = 4,
||B||_HS = 1.5) Newton's residual does not fall every step, and stopping at
the first rise left cases uncertified that the dense route shows positive.
Averaging the equation of w_- gives, exactly,

    theta - kappa = (qhat(0) - mean(w_-^2)) / (2 kappa),

so the first-order parts of alpha cancel in closed form and alpha, which is
second order in q, is summed without cancellation.  g is read out as its
value at (w, theta) less the same expression at (0, kappa), plus the closed
form g0 at d = 0, so q = 0 gives g0 and exact zeros.  The route raises
``CertificationError`` unless Newton converged, m_- - m_+ > 0 everywhere and
theta > 0; those certify -d^2 + q + kappa^2 > 0 on T_l.

K* is where the routes' costs cross: ms per g, one BLAS thread, on the 20
stage inputs of a 5-step H_kappa run from data shaped like the
``hkappa_evolve`` input (||q||_{H^-1} = 0.1, dt = 1e-3), cold (no state) and
warm (one state along the run); per cell the median of three runs, each the
median of 15 alternating rounds, on a 2 vCPU Xeon:

    K                    12    24    32    48    64    96   128   288
    l = 2 pi, kappa = 4
      dense            0.12  0.25  0.33  0.35  0.74  2.14  3.75  23.5
      Riccati, cold    0.19  0.25  0.41  0.26  0.45  0.46  0.38  0.53
      Riccati, warm    0.14  0.20  0.32  0.20  0.34  0.33  0.32  0.40
    l = 32, kappa = 1
      dense            0.14  0.19  0.29  0.42  0.63  1.43  2.69  24.5
      Riccati, cold    0.27  0.31  0.51  0.46  0.54  0.61  0.60  0.86
      Riccati, warm    0.14  0.18  0.35  0.27  0.35  0.38  0.36  0.51

K* = 64 is the smallest K listed at which the cold Riccati route wins in both
rows; warm, it wins from K = 48.

A warm solve costs what numpy charges per call more than arithmetic.  On the
799 warm stage inputs of ``hkappa_evolve`` (seed 0; K = 64, n = 294;
in-process minima, one BLAS thread, 2 vCPU) one takes ~83 us over 4.25
residuals: their two transforms ~41 us (irfft 4.2, rfft 5.4 us), the rest of
each residual (w^2, lin w-hat, max |F|) ~4 us, a diagonal step ~3 us, and the
rest goes to the start, the per-step checks, certification and state; the
readout of g adds one rfft, ~6 us with its arithmetic.  Four ways to cut it
were measured and dropped:

  - trimming the numpy calls around the transforms (per-step checks on
    Python floats, no list of starts, the readout of g in place): ~83 -> ~79
    us per warm stage, but in paired cut_compare runs the Python-float checks
    alone gave 0.97x wall time in one set (faster in 8 of 10 pairs, a median
    gain of 1.1 ms against a 3.8 ms quartile spread) and no gain in a second
    set of 12, so the benchmark does not resolve it;
  - real-DFT matrices for the residual, as in ``flows._kdv_dft``: at n = 294
    the pair costs 4.7 + 4.6 us against 4.3 + 5.0 us for irfft + rfft;
  - better warm starts for RK stages b and d, by linear extrapolation or by
    transport with the linear flow: the start residual falls from 1.3e-6 to
    1e-7 - 2e-7, but no Newton step is saved;
  - stacking the save-time alpha probes: 42 cold solves took 1.2 ms as one
    stack against 3.8 ms one by one, bitwise equal, but the per-row stack
    checks cost the one-row flow path ~0.8 us per Newton step, so this waits
    until the flow steps many rows through one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CertificationError,
    LogDetBranchError,
    PreconditionError,
    SingularResolventError,
)
from .spectral import (
    PeriodicField,
    _hermitize,
    cubic_integral,
    next_fast_len,
)

HERMITIAN_RTOL = 1e-12  # allowed asymmetry of qhat(-d) vs conj qhat(d), relative to max |qhat|
SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)


def free_diagonal_constant(kappa, length):
    """Diagonal Green's function of -d^2/dx^2 + kappa^2 on T_l: coth(kl/2)/(2k)."""
    z = 0.5 * kappa * length
    e = math.exp(-2.0 * z)
    return (1.0 + e) / (1.0 - e) / (2.0 * kappa)


def omega_values(grid, kappa):
    k = grid.frequencies
    return 4.0 * math.pi ** 2 * k * k + kappa * kappa


def first_order_green(grid, kappa):
    """m = -S/l, the part of g linear in q: ghat(d) = g0 [d = 0] + m(d) qhat(d) + O(q^2).

    Off d = 0, m = -2 g0 / (4 pi^2 k^2 + 4 kappa^2): g ~ g0 - 2 g0 (-d^2 + 4 kappa^2)^{-1} q.
    """
    k, length = grid.frequencies, grid.length
    m = -2.0 * free_diagonal_constant(kappa, length) / (4.0 * math.pi ** 2 * k * k
                                                        + 4.0 * kappa * kappa)
    m[grid.cutoff] -= length * math.exp(-kappa * length) / (
        2.0 * kappa * kappa * math.expm1(-kappa * length) ** 2)
    return m


@lru_cache(maxsize=64)
def _pair_sums(grid, kappa):
    """S_K(d) (a direct correlation) and S(d) for |d| <= K, and sum_{|a|<=K} 1/omega_a."""
    inv_omega = 1.0 / omega_values(grid, kappa)
    k = grid.cutoff
    s_in = np.correlate(inv_omega, inv_omega, "full")[k:3 * k + 1]
    s_full = -grid.length * first_order_green(grid, kappa)
    return s_in, s_full, float(np.sum(inv_omega))


@dataclass
class ResolventContext:
    """Assembled L + kappa^2 for one (q, kappa): B_r in the real cos/sin basis."""

    q: PeriodicField
    kappa: float
    omega: np.ndarray  # omega_j for j = -K..K
    B_r: np.ndarray    # real symmetric, basis (e_0, cos_1..cos_K, sin_1..sin_K)
    _inv_ib: np.ndarray | None = None
    positive_definite: bool | None = None  # set by inv_ib: whether dpotrf/dpotri succeeded

    @property
    def grid(self):
        return self.q.grid

    @cached_property
    def B(self):
        """Complex normalized perturbation in the mode basis (oracle)."""
        k = self.grid.cutoff
        qext = np.zeros(4 * k + 1, dtype=complex)
        qext[k:3 * k + 1] = self.q.coeffs  # qext[d + 2k] = qhat(d/l)
        idx = np.arange(2 * k + 1)
        inv_sq = 1.0 / np.sqrt(self.omega)
        return qext[idx[:, None] - idx[None, :] + 2 * k] * np.outer(inv_sq, inv_sq)

    @property
    def A(self):
        """Dense Hermitian matrix of -d^2/dx^2 + q + kappa^2 in the mode basis."""
        sq = np.sqrt(self.omega)
        return self.B * np.outer(sq, sq) + np.diag(self.omega)

    def apply_operator(self, coeffs):
        """A acting on a coefficient vector (for oracle checks)."""
        return self.A @ np.asarray(coeffs, dtype=complex)

    def inv_ib(self):
        """Upper triangle of (I + B_r)^{-1}, cached; the strict lower part is zero.

        I + B_r is symmetric positive definite throughout the certified regime
        (||B|| < 1), where dpotrf/dpotri is the cheapest inverse and fills one
        triangle only; outside it we fall back to LU so diagnostics still work,
        and ``positive_definite`` records which of the two ran.
        """
        if self._inv_ib is None:
            from scipy.linalg import lapack  # LAPACK loads on the first dense inverse

            n = len(self.B_r)
            a = self.B_r.copy()
            a.flat[::n + 1] += 1.0
            # factor the lower triangle: LAPACK returns it in Fortran order, so
            # the transpose is the C-ordered upper triangle of the inverse
            cf, info = lapack.dpotrf(a, lower=1)
            if info == 0:
                inv, info = lapack.dpotri(cf, lower=1, overwrite_c=1)
                if info == 0:
                    self.positive_definite = True
                    self._inv_ib = inv.T
                    return self._inv_ib
            self.positive_definite = False
            try:
                self._inv_ib = np.triu(np.linalg.inv(a))
            except np.linalg.LinAlgError as exc:
                smin = float(np.linalg.svd(a, compute_uv=False)[-1])
                raise SingularResolventError(
                    f"I+B is singular (smallest singular value {smin:.3e})",
                    smallest_singular_value=smin,
                ) from exc
        return self._inv_ib


def _real_basis_inv_sqrt(omega):
    """1/sqrt(omega) in the order of the real basis: e_0, cos_1..K, sin_1..K."""
    k = len(omega) // 2
    return 1.0 / np.sqrt(np.concatenate((omega[k:], omega[k + 1:])))


def _hankel(v, k):
    """Overlapping k x k view [i, j] -> v[i + j] of a contiguous 1-d array; read it only."""
    step = v.strides[0]
    return np.ndarray((k, k), v.dtype, v, strides=(step, step))


def _check_domain(q, kappa):
    """The preconditions of both routes: kappa >= 1 and a real q."""
    if kappa < 1:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    c = q.coeffs
    if abs(c - c[::-1].conj()).max() > HERMITIAN_RTOL * abs(c).max():
        raise PreconditionError("q is not real: its coefficients are not Hermitian-symmetric")


def assemble_resolvent(q, kappa):
    """Build the resolvent context for a real q and kappa >= 1.

    B_r is filled block by block from the Toeplitz and Hankel views of
    a = Re qhat and b = Im qhat (see the module docstring).
    """
    _check_domain(q, kappa)
    c = q.coeffs
    k = q.grid.cutoff
    n = 2 * k + 1
    a = np.zeros(n)  # a[d] = Re qhat(d/l) for 0 <= d <= 2K
    b = np.zeros(n)
    a[:k + 1] = c[k:].real
    b[:k + 1] = c[k:].imag
    a_lag = np.concatenate((a[k - 1:0:-1], a[:k]))  # index m - p + K - 1
    b_lag = np.concatenate((-b[k - 1:0:-1], b[:k]))
    ta, tb = _hankel(a_lag, k)[:, ::-1], _hankel(b_lag, k)[:, ::-1]  # [m, p] -> lag m - p
    ha, hb = _hankel(a[2:], k), _hankel(b[2:], k)  # [m, p] -> a[m + p], b[m + p]
    cos, sin = slice(1, k + 1), slice(k + 1, n)
    br = np.empty((n, n))
    np.add(ta, ha, out=br[cos, cos])
    np.subtract(ta, ha, out=br[sin, sin])
    np.subtract(tb, hb, out=br[cos, sin])
    br[sin, cos] = br[cos, sin].T
    br[0, 0] = a[0]
    br[0, cos] = br[cos, 0] = SQRT2 * a[1:k + 1]
    br[0, sin] = br[sin, 0] = -SQRT2 * b[1:k + 1]
    omega = omega_values(q.grid, kappa)
    inv_sq = _real_basis_inv_sqrt(omega)
    br *= np.outer(inv_sq, inv_sq)
    return ResolventContext(q=q, kappa=float(kappa), omega=omega, B_r=br)


def hs_norm(ctx):
    """Hilbert-Schmidt (Frobenius) norm of the normalized perturbation B."""
    return _hs_norm(ctx.q, ctx.kappa)


def _hs_norm(q, kappa):
    """||B||_HS of a real q in O(K): ||B||^2_HS = sum_{|d|<=K} |qhat(d)|^2 S_K(d)."""
    k = q.grid.cutoff
    c = q.coeffs[k:]
    s_in = _pair_sums(q.grid, kappa)[0][k:]  # S_K(d) = S_K(-d), d = 0..K
    rest = float(np.sum((c.real[1:] ** 2 + c.imag[1:] ** 2) * s_in[1:]))
    return math.sqrt(float(c[0].real) ** 2 * s_in[0] + 2.0 * rest)


# ---------------------------------------------------------------------------
# diagonal Green's function
# ---------------------------------------------------------------------------

@dataclass
class GreenResult:
    g: PeriodicField
    kappa: float
    method: str
    free_constant: float
    tail_bound: float | None = None
    certified: bool = True


def _lag_sums(x):
    """Diagonal sums of a square matrix: out[d + n - 1] = sum_{i-j=d} x[i, j].

    x is written column-reversed into an n x 2n zero buffer; read back as rows
    of length 2n - 1, each column holds exactly one lag.  Anti-diagonal sums
    out[s] = sum_{i+j=s} x[i, j] are ``_lag_sums(x[:, ::-1])``.
    """
    n = len(x)
    buf = np.zeros((n, 2 * n), dtype=x.dtype)
    buf[:, :n] = x[:, ::-1]
    return buf.ravel()[:n * (2 * n - 1)].reshape(n, 2 * n - 1).sum(axis=0)


def green_diagonal(ctx):
    """Diagonal Green's function x -> G(x, x; kappa; q) by direct dense solve;
    certified only if I + B is positive definite (the Cholesky inverse ran)."""
    grid = ctx.grid
    k = grid.cutoff
    inv_sq = _real_basis_inv_sqrt(ctx.omega)
    y = ctx.inv_ib() * np.outer(inv_sq, inv_sq)  # Y, upper triangle only
    cos, sin = slice(1, k + 1), slice(k + 1, 2 * k + 1)
    cc, ss, cs = y[cos, cos], y[sin, sin], y[cos, sin]
    # cc and ss are symmetric but stored as upper triangles: their sums at lag
    # d >= 0 sit at lag -d, and their anti-diagonals hold each off-diagonal
    # entry once, so those sums are doubled less the diagonal term
    lag_sym = _lag_sums(cc + ss)[k - 1::-1]  # lags 0..K-1
    lag_cs = _lag_sums(cs)
    diff = cc - ss
    anti_diff = 2.0 * _lag_sums(diff[:, ::-1])  # m + p = 2..2K
    anti_diff[::2] -= np.diagonal(diff)
    anti_cs = _lag_sums(cs[:, ::-1])
    re = np.zeros(k + 1)  # l Re g_hat(d), l Im g_hat(d) for d = 0..K
    im = np.zeros(k + 1)
    re[0] = y[0, 0]
    re[1:] = SQRT2 * y[0, cos]
    im[1:] = -SQRT2 * y[0, sin]
    re[:k] += lag_sym
    im[:k] += lag_cs[k - 1:] - lag_cs[k - 1::-1]
    re[2:] += 0.5 * anti_diff[:k - 1]
    im[2:] -= anti_cs[:k - 1]
    ghat = (re + 1j * im) / grid.length
    c = np.concatenate((np.conj(ghat[:0:-1]), ghat))
    free = free_diagonal_constant(ctx.kappa, grid.length)
    s_in, s_full, sum_inv_omega = _pair_sums(grid, ctx.kappa)
    c[k] += free - sum_inv_omega / grid.length
    c -= ctx.q.coeffs * (s_full - s_in) / grid.length  # first-order lattice tail
    g = PeriodicField(grid, _hermitize(c))
    return GreenResult(g=g, kappa=ctx.kappa, method="direct", free_constant=free,
                       certified=ctx.positive_definite)


def green_diagonal_series(q, kappa, l_max):
    """Partial Neumann series for the diagonal Green's function.

    Term l is (-1)^l times the anti-diagonal sums of D^{-1/2} B^l D^{-1/2};
    the l=0 term is the exact circle constant.  Certified with a geometric
    tail bound when ||B||_HS < 1, otherwise returned tagged uncertified.
    """
    ctx = assemble_resolvent(q, kappa)
    grid = ctx.grid
    free = free_diagonal_constant(kappa, grid.length)
    _, _, sum_inv_omega = _pair_sums(grid, kappa)
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    scale = np.outer(inv_sq, inv_sq)

    c = np.zeros(2 * grid.cutoff + 1, dtype=complex)
    c[grid.cutoff] = free  # exact free diagonal (l = 0)
    power = np.eye(ctx.B.shape[0], dtype=complex)
    sign = 1.0
    for _ in range(1, int(l_max) + 1):
        power = power @ ctx.B
        sign = -sign
        term = _lag_sums(power * scale)[grid.cutoff:3 * grid.cutoff + 1] / grid.length
        # keep the exact free constant convention at d = 0
        c += sign * term

    norm = hs_norm(ctx)
    if norm < 1.0:
        tail = norm ** (l_max + 1) / (1.0 - norm) * (sum_inv_omega / grid.length)
        certified = True
    else:
        tail = None
        certified = False
    g = PeriodicField(grid, _hermitize(c))
    return GreenResult(
        g=g, kappa=float(kappa), method=f"series(l_max={int(l_max)})",
        free_constant=free, tail_bound=tail, certified=certified,
    )


# ---------------------------------------------------------------------------
# perturbation determinant
# ---------------------------------------------------------------------------

@dataclass
class AlphaResult:
    value: float
    kappa: float
    method: str
    hs_norm: float
    tail_bound: float | None = None
    certified: bool = True


def alpha(ctx):
    """alpha(kappa; q) = -log det(I+B) + tr B via the eigenvalues of B_r."""
    evals = np.linalg.eigvalsh(ctx.B_r)
    if np.min(1.0 + evals) <= 0.0:
        raise LogDetBranchError(
            f"eigenvalue of I+B at or below zero (min {1.0 + float(np.min(evals)):.3e})"
        )
    s_in, s_full, sum_inv_omega = _pair_sums(ctx.grid, ctx.kappa)
    trace_b = float(ctx.q.coeffs[ctx.grid.cutoff].real) * sum_inv_omega
    tail = 0.5 * float(np.sum(np.abs(ctx.q.coeffs) ** 2 * (s_full - s_in)))  # second order
    value = -float(np.sum(np.log1p(evals))) + trace_b + tail
    return AlphaResult(value=value, kappa=ctx.kappa, method="logdet", hs_norm=hs_norm(ctx))


def alpha_series(ctx, l_max):
    """Partial sum  sum_{l=2}^{l_max} (-1)^l/l tr(B^l)  with a geometric tail."""
    evals = np.linalg.eigvalsh(ctx.B)
    value = 0.0
    for l in range(2, int(l_max) + 1):
        value += (-1.0) ** l / l * float(np.sum(evals ** l))
    norm = hs_norm(ctx)
    if norm < 1.0:
        nterm = max(int(l_max) + 1, 2)
        tail = norm ** nterm / (nterm * (1.0 - norm))
        certified = True
    else:
        tail = None
        certified = False
    return AlphaResult(
        value=value, kappa=ctx.kappa, method=f"series(l_max={int(l_max)})",
        hs_norm=norm, tail_bound=tail, certified=certified,
    )


# ---------------------------------------------------------------------------
# Floquet-Riccati route, and the choice of route
# ---------------------------------------------------------------------------

RICCATI_MIN_CUTOFF = 64  # K*: from the crossover table in the module docstring
NEWTON_MAX_STEPS = 40
NEWTON_RTOL = 1e-12      # converged: residual <= NEWTON_RTOL * max |qhat|
ROUNDING_RTOL = 4 * EPS  # done: residual <= ROUNDING_RTOL * max |qhat|, rounding level
DIAGONAL_CUT = 0.25      # a diagonal correction is kept while it cuts the residual this much
NEWTON_PATIENCE = 3      # Newton stops after this many steps with no new smallest residual


@lru_cache(maxsize=64)
def _riccati_plan(grid, kappa):
    """(M, n, ik on the rfft modes, ik +- 2 kappa on modes 0..M, the Phi operator 2/ik,
    +-2 kappa) for one (grid, kappa); the arrays are read-only."""
    k = grid.cutoff
    m = 3 * k // 2
    n = next_fast_len(3 * m + 1)
    ik = (2j * math.pi / grid.length) * np.arange(n // 2 + 1)
    ik[n // 2] *= n % 2  # an even n's Nyquist mode has no derivative
    anti = np.zeros(m + 1, dtype=complex)
    anti[1:] = 2.0 / ik[1:m + 1]
    two_kappa = np.array([[2.0 * kappa], [-2.0 * kappa]])
    lin = ik[:m + 1] + two_kappa
    for a in (ik, lin, anti, two_kappa):
        a.setflags(write=False)
    return m, n, ik, lin, anti, two_kappa


def _newton_correction(plan, wh, fh, mean_m):
    """The Newton correction from w-hat with residual F-hat: delta' + 2 m delta = -F
    <=> y' + 2 mean(m) y = -e^Phi F with y = e^Phi delta, diagonal in Fourier space."""
    m, n, ik, _, anti, _ = plan
    phi, f = np.fft.irfft(np.stack((anti * wh, fh)), n, norm="forward")
    e = np.exp(phi)
    yh = np.fft.rfft(e * f, norm="forward") / (ik + 2.0 * mean_m)
    return np.fft.rfft(np.fft.irfft(yh, n, norm="forward") / e, norm="forward")[:, :m + 1]


def _newton(plan, qh, wh, scale):
    """Correct w-hat from the start wh: (w-hat, samples of w, residual) of the iterate
    with the smallest residual.  See the module docstring."""
    m, n, _, lin, _, two_kappa = plan
    k = len(qh) - 1

    def residual(wh):
        w = np.fft.irfft(wh, n, norm="forward")
        fh = np.fft.rfft(w * w, norm="forward")[:, :m + 1]
        fh += lin * wh
        fh[:, :k + 1] -= qh
        return w, fh, float(np.abs(fh).max())

    w, fh, res = residual(wh)
    best = wh, w, res
    diagonal, stale = True, 0
    for _ in range(NEWTON_MAX_STEPS):
        if res <= ROUNDING_RTOL * scale:
            break
        mean_m = 0.5 * two_kappa + wh[:, :1].real  # (theta, -theta) at a solution
        if not mean_m[0, 0] > 0.0 > mean_m[1, 0]:
            break  # both corrections are singular at mean(m) = 0
        if diagonal:
            # delta' + 2 mean(m) delta = -F, no transform: ik + 2 mean(m) = lin + 2 mean(w)
            new = wh - fh / (lin + 2.0 * wh[:, :1].real)
        else:
            new = wh - _newton_correction(plan, wh, fh, mean_m)
        new_w, new_fh, new_res = residual(new)
        if diagonal and not new_res <= DIAGONAL_CUT * res:
            diagonal = False  # retake the step from wh as a Newton correction
            continue
        halved = new_res <= 0.5 * best[2]
        wh, w, fh, res = new, new_w, new_fh, new_res
        if res < best[2]:
            best, stale = (wh, w, res), 0
        else:
            stale += 1  # Newton need not decrease the residual every step (a nan never does)
        if not halved and best[2] <= NEWTON_RTOL * scale or stale == NEWTON_PATIENCE:
            break
    return best


def _riccati(q, kappa):
    """``_riccati_half`` of a real q, cold, after the checks of ``_check_domain``."""
    _check_domain(q, kappa)
    return _riccati_half(q.grid, q.coeffs[q.grid.cutoff:], kappa)


def _riccati_half(grid, qh, kappa, state=None):
    """(samples of m_- - m_+, theta - kappa, mean w_-^2) from qhat on modes 0..K
    (the mean is Re qhat(0)): see the module docstring.

    ``state`` (a dict, or None for a cold start) carries one row's last solve
    into its next: read as the warm start, and overwritten by this solve.  A
    warm start that does not certify is retried cold.
    """
    plan = _riccati_plan(grid, kappa)
    m, _, _, lin, _, two_kappa = plan
    k = grid.cutoff
    scale = float(np.abs(qh).max())
    # the linear response, w' +- 2 kappa w = q, is the cold start
    cold = np.zeros((2, m + 1), dtype=complex)
    cold[:, :k + 1] = qh / lin[:, :k + 1]
    starts = [cold]
    if state is not None and state.get("plan") is plan:
        starts.insert(0, cold + state["nonlinear"])
    for start in starts:
        wh, w, res = _newton(plan, qh, start, scale)
        sq = float(w[0] @ w[0]) / len(w[0])
        dtheta = (float(qh[0].real) - sq) / (2.0 * kappa)
        d = two_kappa[0] + w[0] - w[1]
        converged = res <= NEWTON_RTOL * scale
        if converged and kappa + dtheta > 0.0 and d.min() > 0.0:
            break
    else:
        if not converged:
            raise CertificationError(
                f"Riccati Newton did not converge at kappa={kappa:g}, K={k} "
                f"(residual {res:.3e} against max |qhat| {scale:.3e})")
        raise CertificationError(
            f"Riccati branches do not certify -d^2 + q + kappa^2 > 0 at kappa={kappa:g}: "
            f"theta = {kappa + dtheta:.3e}, min(m_- - m_+) = {d.min():.3e}")
    if state is not None:
        state.update(plan=plan, nonlinear=wh - cold)
    return d, dtheta, sq


def _riccati_green_hat(grid, kappa, d, dtheta):
    """g - g0 on modes 0..K from a Riccati solve's (m_- - m_+, theta - kappa)."""
    half = 0.5 * grid.length
    gx = (1.0 / math.tanh((kappa + dtheta) * half) / d
          - 1.0 / math.tanh(kappa * half) / (2.0 * kappa))
    return np.fft.rfft(gx, norm="forward")[:grid.cutoff + 1]


def green_of(q, kappa):
    """The diagonal Green's function of a real q: by the Riccati route when the
    mode cutoff is at least RICCATI_MIN_CUTOFF, else by ``green_diagonal``.
    Either route raises CertificationError unless -d^2 + q + kappa^2 > 0 is
    certified (on the dense route: Cholesky of I + B ran)."""
    grid = q.grid
    if grid.cutoff < RICCATI_MIN_CUTOFF:
        green = green_diagonal(assemble_resolvent(q, kappa))
        if not green.certified:
            raise CertificationError("-d^2 + q + kappa^2 is not positive: I + B is not "
                                     "positive definite (the dense inverse fell back to LU)")
        return green
    d, dtheta, _ = _riccati(q, kappa)
    gh = _riccati_green_hat(grid, kappa, d, dtheta)
    free = free_diagonal_constant(kappa, grid.length)
    gh[0] += free
    g = PeriodicField(grid, np.concatenate((np.conj(gh[:0:-1]), gh)))
    return GreenResult(g=g, kappa=float(kappa), method="riccati", free_constant=free)


def alpha_of(q, kappa):
    """alpha(kappa; q) for a real q: Hill's formula on the Riccati route when the
    mode cutoff is at least RICCATI_MIN_CUTOFF, else ``alpha``'s log-determinant."""
    if q.grid.cutoff < RICCATI_MIN_CUTOFF:
        return alpha(assemble_resolvent(q, kappa))
    _, dtheta, sq = _riccati(q, kappa)
    length = q.grid.length
    # Hill's formula with theta - kappa substituted; free_excess = g0 - 1/(2 kappa)
    free_excess = -math.exp(-kappa * length) / (kappa * math.expm1(-kappa * length))
    value = (length * sq / (2.0 * kappa) + length * float(q.mean) * free_excess
             + 2.0 * math.log1p(-math.exp(-kappa * length))
             - 2.0 * math.log1p(-math.exp(-(kappa + dtheta) * length)))
    return AlphaResult(value=value, kappa=float(kappa), method="hill",
                       hs_norm=_hs_norm(q, kappa))


def alpha_gradient_field(ctx):
    """The variational derivative of alpha as a field: free constant minus g."""
    res = green_diagonal(ctx)
    c = -res.g.coeffs.copy()
    c[ctx.grid.cutoff] += res.free_constant
    return PeriodicField(ctx.grid, _hermitize(c))


# ---------------------------------------------------------------------------
# polynomial conserved quantities
# ---------------------------------------------------------------------------

def polynomial_invariants(q):
    """(M, P, H) = (int q, int q^2/2, int (q')^2/2 + q^3), dealiased quadrature."""
    grid = q.grid
    mass = grid.length * float(q.coeffs[grid.cutoff].real)
    momentum = 0.5 * grid.length * float(np.sum(np.abs(q.coeffs) ** 2))
    kin = 0.5 * grid.length * float(
        np.sum((2.0 * math.pi * grid.frequencies) ** 2 * np.abs(q.coeffs) ** 2)
    )
    energy = kin + cubic_integral(q)
    return mass, momentum, energy
