"""Schroedinger resolvent machinery on the circle.

g and alpha have two routes, and ``green_of`` and ``alpha_of`` pick one from
the mode cutoff K alone: the Floquet-Riccati route (below) when
K >= RICCATI_MIN_CUTOFF = K*, else the dense route (``green_diagonal`` and
``alpha`` on ``assemble_resolvent``), which the tests also use as the
reference.  Both take a real q and kappa >= 1, and both certify
-d^2 + q + kappa^2 > 0 or raise CertificationError.

Dense route.  In the Fourier basis e_j of T_l the operator
-d^2/dx^2 + q + kappa^2 is diagonal-plus-Toeplitz,

    A[a, b] = omega_a delta_ab + qhat((a-b)/l),   omega_a = 4 pi^2 (a/l)^2 + kappa^2,

and A = D^{1/2} (I + B) D^{1/2} with D = diag(omega) defines the normalized
perturbation B[a, b] = qhat((a-b)/l) / sqrt(omega_a omega_b), the object whose
Hilbert-Schmidt norm controls the expansions in q.

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

The spectrum is invariant under U, so the renormalized log-determinant

    alpha(kappa; q) = -log det(I + B) + tr B = sum_{l>=2} (-1)^l/l tr(B^l)

is taken from the eigenvalues of B_r as well (the complex B and the Neumann
series are test oracles, in ``tests/oracles.py``).  Where I + B_r is not
positive definite, that is where -d^2 + q + kappa^2 is not positive on modes
|j| <= K, its Cholesky inverse ``inv_ib`` and ``alpha`` raise
CertificationError.  ``hs_norm`` (both routes) needs no matrix.  LAPACK
(``scipy.linalg``) is imported on the first dense inverse, and no other kdvlab
module imports scipy, so a run that stays on the Riccati route, or runs no
H_kappa flow, never loads scipy.

Two exactness conventions: the free diagonal constant on the circle is the
closed form g0 = coth(kappa l / 2) / (2 kappa) rather than the truncated
lattice sum, and ``green_diagonal`` and ``alpha`` add the lattice tails S - S_K
beyond the mode cutoff, so both converge to their circle values as K grows
instead of inheriting an O(K^-3) floor.  S_K(d) is the in-window sum the dense
matrix sees; the full sum S(d) = sum_{a in Z} 1/(omega_a omega_{a-d}) has the
closed form (k = d/l)

    S(d) / l = 2 g0 / (4 pi^2 k^2 + 4 kappa^2)
               + [d = 0] l e^{-kappa l} / (2 kappa^2 (1 - e^{-kappa l})^2).

Floquet-Riccati route.  m = psi'/psi for the two Floquet solutions of
-psi'' + (q + kappa^2) psi = 0 gives the periodic branches m_- ~ +kappa and
m_+ ~ -kappa of m' + m^2 = q + kappa^2, with mean(m_-) = theta = -mean(m_+).
Then g = coth(theta l / 2) / (m_- - m_+), and Hill's formula gives

    alpha = -[(theta - kappa) l + 2 log1p(-e^{-theta l}) - 2 log1p(-e^{-kappa l})]
            + l qhat(0) coth(kappa l / 2) / (2 kappa).

The solve runs on the deviations w = m -/+ kappa of both branches at once, as
one (2, M + 1) stack of w-hat.  w keeps modes 0..M, M = floor(3K/2), on n
points, n the smallest 2*3*5-smooth length >= 3M + 1 (scipy's rule for real
transforms, as every transform here is real), so the residual

    F-hat = (ik +- 2 kappa) w-hat - qhat + P_M rfft(w^2)

is alias-free and costs two transforms (the rfft also reads g, below).
M = 3K/2 because with M = K the Riccati g on rough data was further from the
dense g at 4K than the dense g at K (accuracy figures and the real length's
transform timings in CHANGES.md, issue 23); n, M, ik and the other operators
are cached per (grid, kappa).

``_riccati_half`` is the one Riccati driver.  It solves one half row of qhat
(modes 0..K) or a stack (S, K + 1) of them, from the cold start or a warm one,
for g (``green_of``, the H_kappa flow) and theta and mean w_-^2
(``alphas_of``, whose stack still transforms its g rows).  The cold start is
the linear response w' +- 2 kappa w = q, in closed form, and ``green_of`` and
``alphas_of`` always start cold.  A warm start is the linear response of the
new q plus a guess at the nonlinear part N of w-hat (w-hat less the linear
response of its q): ``_riccati_half`` takes the guess, one (2, M + 1) pair per
row, and returns the solve's own N.  The H_kappa flow builds its guesses by
``flows._StageHistory``'s rule.  A row whose warm start fails to certify is
solved again cold, so a poor guess costs Newton steps only.

``_newton`` takes one (2, M + 1) pair or a stack (S, 2, M + 1) of them, one
per row of qhat, through the same ``...`` indexing: one row is never given a
unit stack axis, which would make every residual dearer.  A stack is iterated
as one: every stopping test compares its largest residual with the smallest
row's max |qhat|, and the test that mean(m_-) > 0 > mean(m_+) covers every
row.  ``_riccati_half`` certifies the whole stack at once when its largest
residual, its smallest theta and its smallest m_- - m_+ pass; else each row
as one row is, and a row that fails (say because another row's trouble
stopped the stack, or its warm start was poor) is solved again alone and
cold, which certifies it or raises its CertificationError.  ``alphas_of``
solves the alpha probes of many states as one cold stack (``flows.evolve``
makes one of all its saved states per probe kappa); the flow's stage solves
are warm single rows.

Each correction delta solves delta' + 2 m delta = -F.  First with m replaced
by its mean, delta-hat = -F-hat / (ik + 2 mean m), which needs no transform;
such a step is kept while it cuts the residual to DIAGONAL_CUT = 1/4 or less.
The first that does not is taken again as the exact Newton correction: with
Phi = d^{-1}[2 (m - mean m)] periodic, y = e^Phi delta solves
y' + 2 mean(m) y = -e^Phi F, which is diagonal in Fourier space (four more
transforms).  1/4 is the smallest cut tried that certifies every case of a
sweep of hard cold solves whose I + B is positive definite (CHANGES.md).

The solve stops at a residual (modes 0..M of F) of
ROUNDING_RTOL = 4 eps max |qhat|, or of NEWTON_RTOL max |qhat| at its start
(the start stop, below); once in the Newton phase also when the
residual stops halving at an accepted level (NEWTON_RTOL max |qhat|), or
after NEWTON_PATIENCE = 3 steps without a new smallest residual, and it keeps
the iterate with the smallest residual.  On hard data (l = 64, kappa = 4,
||B||_HS = 1.5) Newton's residual does not fall every step, and stopping at
the first rise left cases uncertified that the dense route shows positive.
Where -d^2 + q + kappa^2 is not positive the iterates may overflow to inf or nan,
which is never a new smallest residual, so ``_newton`` runs with float warnings off.

An accepted diagonal step that takes the residual from r to r' also ends the
solve, the contraction stop, when r' <= NEWTON_RTOL max |qhat| and
r'^2 <= ROUNDING_RTOL max |qhat| r: the next diagonal step, cutting by the
same ratio r'/r, is predicted to land below rounding, so it would buy only
digits the certified level does not ask for, at two transforms.

The start itself is held to NEWTON_RTOL max |qhat|, not to rounding: a start
at the certified level ends the solve with no step (the start stop), and every
later iterate keeps the tests above.  ``_riccati_half`` takes the start's
residual itself and calls ``_newton`` only when the start misses, which goes
on from that residual, so a solve whose start certifies makes one residual,
one irfft and one rfft, and reports itself ``settled`` (the flows raise a
stage's extrapolation order on an unsettled start).  The outputs are then read
from an iterate whose residual was computed and is certified, but a solve that
takes no step learns nothing new, and a history that stored its iterate would
extrapolate its own extrapolations.  So the nonlinear part ``_riccati_half``
returns for the next start is the certified iterate's N (a settled start as
given) less one diagonal correction F-hat / (lin + 2 Re w-hat_0), from the
residual the solve already has, at no transform; without that step the start
stop saved few residuals (CHANGES.md).

Averaging the equation of w_- gives, exactly,

    theta - kappa = (qhat(0) - mean(w_-^2)) / (2 kappa),

so the first-order parts of alpha cancel in closed form and alpha, which is
second order in q, is summed without cancellation.  Each residual's rfft takes
the samples of coth(theta l / 2) / (m_- - m_+) less the same at (0, kappa), so
it reads g - g0 on modes 0..K (exact zeros at q = 0).  The route raises
``CertificationError`` unless Newton converged, m_- - m_+ > 0 everywhere and
theta > 0; those certify -d^2 + q + kappa^2 > 0 on T_l.

K* = 64 is where the routes' costs cross: the smallest K at which the cold
Riccati g was faster than the dense one on both data shapes timed, l = 2 pi
with kappa = 4 and l = 32 with kappa = 1 (timings in CHANGES.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CertificationError, PreconditionError
from .spectral import (
    PeriodicField,
    _full_rows,
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

    @property
    def grid(self):
        return self.q.grid

    def inv_ib(self):
        """Upper triangle of (I + B_r)^{-1} by dpotrf/dpotri, which fill one triangle
        only; CertificationError where either fails: I + B_r is not positive definite."""
        from scipy.linalg import lapack  # LAPACK loads on the first dense inverse

        n = len(self.B_r)
        a = self.B_r.copy()
        a.flat[::n + 1] += 1.0
        # factor the lower triangle: LAPACK returns it in Fortran order, so
        # the transpose is the C-ordered upper triangle of the inverse
        cf, info = lapack.dpotrf(a, lower=1)
        if info == 0:
            inv, info = lapack.dpotri(cf, lower=1, overwrite_c=1)
        if info != 0:
            raise CertificationError(
                f"-d^2 + q + kappa^2 is not positive at kappa={self.kappa:g}: I + B is not "
                f"positive definite (Cholesky info {info})")
        return inv.T


def _real_basis_inv_sqrt(omega):
    """1/sqrt(omega) in the order of the real basis: e_0, cos_1..K, sin_1..K."""
    k = len(omega) // 2
    return 1.0 / np.sqrt(np.concatenate((omega[k:], omega[k + 1:])))


def _hankel(v, k):
    """Overlapping k x k view [i, j] -> v[i + j] of a contiguous 1-d array; read it only."""
    step = v.strides[0]
    return np.ndarray((k, k), v.dtype, v, strides=(step, step))


def _check_domain(c, kappa):
    """The preconditions of both routes: a finite kappa >= 1 and real q, for the coefficient
    row c of one q or a stack (..., 2K + 1) of them."""
    if not 1 <= kappa < math.inf:
        raise PreconditionError(f"kappa must be finite and >= 1, got {kappa}")
    if np.any(abs(c - c[..., ::-1].conj()).max(axis=-1) > HERMITIAN_RTOL * abs(c).max(axis=-1)):
        raise PreconditionError("q is not real: its coefficients are not Hermitian-symmetric")


def assemble_resolvent(q, kappa):
    """Build the resolvent context for a real q and kappa >= 1.

    B_r is filled block by block from the Toeplitz and Hankel views of
    a = Re qhat and b = Im qhat (see the module docstring).
    """
    c = q.coeffs
    _check_domain(c, kappa)
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


def hs_norm(q, kappa):
    """||B||_HS of a real q in O(K): ||B||^2_HS = sum_{|d|<=K} |qhat(d)|^2 S_K(d)."""
    k = q.grid.cutoff
    c = q.coeffs[k:]
    s_in = _pair_sums(q.grid, kappa)[0][k:]  # S_K(d) = S_K(-d), d = 0..K
    rest = float(np.sum((c.real[1:] ** 2 + c.imag[1:] ** 2) * s_in[1:]))
    return math.sqrt(float(c[0].real) ** 2 * s_in[0] + 2.0 * rest)


# ---------------------------------------------------------------------------
# diagonal Green's function
# ---------------------------------------------------------------------------

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
    raises CertificationError unless I + B is positive definite."""
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
    c = _full_rows((re + 1j * im) / grid.length)
    s_in, s_full, sum_inv_omega = _pair_sums(grid, ctx.kappa)
    c[k] += free_diagonal_constant(ctx.kappa, grid.length) - sum_inv_omega / grid.length
    c -= ctx.q.coeffs * (s_full - s_in) / grid.length  # first-order lattice tail
    return PeriodicField(grid, _hermitize(c))


# ---------------------------------------------------------------------------
# perturbation determinant
# ---------------------------------------------------------------------------

@dataclass
class AlphaResult:
    value: float
    hs_norm: float


def alpha(ctx):
    """alpha(kappa; q) = -log det(I+B) + tr B via the eigenvalues of B_r; raises
    CertificationError unless I + B is positive definite."""
    evals = np.linalg.eigvalsh(ctx.B_r)
    if np.min(1.0 + evals) <= 0.0:
        raise CertificationError(
            f"-d^2 + q + kappa^2 is not positive at kappa={ctx.kappa:g}: I + B is not "
            f"positive definite (smallest eigenvalue {1.0 + float(np.min(evals)):.3e})")
    s_in, s_full, sum_inv_omega = _pair_sums(ctx.grid, ctx.kappa)
    trace_b = float(ctx.q.coeffs[ctx.grid.cutoff].real) * sum_inv_omega
    tail = 0.5 * float(np.sum(np.abs(ctx.q.coeffs) ** 2 * (s_full - s_in)))  # second order
    value = -float(np.sum(np.log1p(evals))) + trace_b + tail
    return AlphaResult(value=value, hs_norm=hs_norm(ctx.q, ctx.kappa))


# ---------------------------------------------------------------------------
# Floquet-Riccati route, and the choice of route
# ---------------------------------------------------------------------------

RICCATI_MIN_CUTOFF = 64  # K*: the module docstring says why
NEWTON_MAX_STEPS = 40
NEWTON_RTOL = 1e-12      # converged: residual <= NEWTON_RTOL * max |qhat|
ROUNDING_RTOL = 4 * EPS  # done: residual <= ROUNDING_RTOL * max |qhat|, rounding level
DIAGONAL_CUT = 0.25      # a diagonal correction is kept while it cuts the residual this much
NEWTON_PATIENCE = 3      # Newton stops after this many steps with no new smallest residual


@lru_cache(maxsize=64)
def _riccati_plan(grid, kappa):
    """(M, n, ik on the rfft modes, ik +- 2 kappa on modes 0..M, the Phi operator 2/ik,
    +-2 kappa, kappa, l/2, g0) for one (grid, kappa); the arrays are read-only."""
    k = grid.cutoff
    m = 3 * k // 2
    n = next_fast_len(3 * m + 1, real=True)  # every transform here is real
    ik = (2j * math.pi / grid.length) * np.arange(n // 2 + 1)
    ik[n // 2] *= n % 2  # an even n's Nyquist mode has no derivative
    anti = np.zeros(m + 1, dtype=complex)
    anti[1:] = 2.0 / ik[1:m + 1]
    two_kappa = np.array([[2.0 * kappa], [-2.0 * kappa]])
    lin = ik[:m + 1] + two_kappa
    for a in (ik, lin, anti, two_kappa):
        a.setflags(write=False)
    half = 0.5 * grid.length
    return m, n, ik, lin, anti, two_kappa, kappa, half, 0.5 / math.tanh(kappa * half) / kappa


def _newton_correction(plan, wh, fh, mean_m):
    """The Newton correction from w-hat with residual F-hat: delta' + 2 m delta = -F
    <=> y' + 2 mean(m) y = -e^Phi F with y = e^Phi delta, diagonal in Fourier space."""
    m, n, ik, _, anti, *_ = plan
    phi, f = np.fft.irfft(np.stack((anti * wh, fh)), n, norm="forward")
    e = np.exp(phi)
    yh = np.fft.rfft(e * f, norm="forward") / (ik + 2.0 * mean_m)
    return np.fft.rfft(np.fft.irfft(yh, n, norm="forward") / e, norm="forward")[..., :m + 1]


def _residual(plan, qh, q0, wh):
    """(F-hat, its largest |F-hat|, g - g0 on modes 0..K, theta - kappa, mean w_-^2, m_- - m_+,
    whether theta > 0 and m_- - m_+ > 0, else g = 0 as it is not read) at w-hat wh, a (2, M + 1)
    pair for the half row qh or (S, 2, M + 1) for qh (S, 1, K + 1); q0 = Re qhat(0)."""
    m, n, _, lin, _, _, kappa, half, g0 = plan
    w = np.fft.irfft(wh, n, norm="forward")
    sq = np.vecdot(w[..., 0, :], w[..., 0, :]) / n
    d = 2.0 * kappa + w[..., 0, :] - w[..., 1, :]
    x = np.zeros(w.shape[:-2] + (3, n))
    np.multiply(w, w, out=x[..., :2, :])
    if wh.ndim == 2:  # one row, in floats
        dtheta = (q0 - float(sq)) / (2.0 * kappa)
        if ok := kappa + dtheta > 0.0 and np.minimum.reduce(d) > 0.0:
            np.divide(1.0 / math.tanh((kappa + dtheta) * half), d, out=x[2])
    else:
        dtheta = (q0 - sq) / (2.0 * kappa)
        ok = (kappa + dtheta > 0.0) & (np.minimum.reduce(d, axis=-1) > 0.0)
        np.divide((1.0 / np.tanh((kappa + dtheta) * half))[:, None], d, out=x[:, 2],
                  where=ok[:, None])
    x[..., 2, :] -= g0
    t = np.fft.rfft(x, norm="forward")
    fh = lin * wh
    fh += t[..., :2, :m + 1]
    fh[..., :qh.shape[-1]] -= qh
    return fh, float(np.abs(fh).max()), t[..., 2, :qh.shape[-1]], dtheta, sq, d, ok


@np.errstate(all="ignore")  # a diverging iterate may overflow: its residual says so
def _newton(plan, qh, q0, wh, state, scale):
    """Correct w-hat from an iterate wh whose ``_residual`` state is at hand (a start
    above NEWTON_RTOL scale), a pair or a stack for qh as ``_residual`` takes it:
    (w-hat, state) of the iterate with the smallest largest residual over the stack.
    Every test compares the stack's largest residual with scale, the smallest row's
    max |qhat|, so one pair is solved as alone.  See the module docstring."""
    _, _, _, lin, _, two_kappa, *_ = plan
    best, (fh, res) = (wh, state), state[:2]
    diagonal, stale = True, 0
    for _ in range(NEWTON_MAX_STEPS):
        mean_m = 0.5 * two_kappa + wh[..., :1].real  # (theta, -theta) at a solution
        if not (two_kappa * mean_m).min() > 0.0:
            break  # both corrections are singular at mean(m) = 0, in any row
        if diagonal:
            # delta' + 2 mean(m) delta = -F, no transform: ik + 2 mean(m) = lin + 2 mean(w)
            new = wh - fh / (lin + 2.0 * wh[..., :1].real)
        else:
            new = wh - _newton_correction(plan, wh, fh, mean_m)
        new_state = _residual(plan, qh, q0, new)
        new_res = new_state[1]
        if diagonal and not new_res <= DIAGONAL_CUT * res:
            diagonal = False  # retake the step from wh as a Newton correction
            continue
        halved = new_res <= 0.5 * best[1][1]
        # a next diagonal step, cutting by the same ratio, would land below rounding
        contracted = (diagonal and new_res <= NEWTON_RTOL * scale
                      and new_res * new_res <= ROUNDING_RTOL * scale * res)
        wh, state, (fh, res) = new, new_state, new_state[:2]
        if res < best[1][1]:
            best, stale = (wh, state), 0
        else:
            stale += 1  # Newton need not decrease the residual every step (a nan never does)
        if (res <= ROUNDING_RTOL * scale or contracted
                or not halved and best[1][1] <= NEWTON_RTOL * scale or stale == NEWTON_PATIENCE):
            break
    return best


def _riccati_half(grid, qh, kappa, nonlinear=None):
    """(g - g0 on modes 0..K, theta - kappa, mean w_-^2, the nonlinear part of
    w-hat, settled) from qhat on modes 0..K (the mean is Re qhat(0)), for one
    half row qh or for each row of a stack (S, K + 1) of them: see the module
    docstring.

    The nonlinear part is w-hat less the linear response of qh, a (2, M + 1)
    pair per row.  Given one (None for a cold start), the solve starts from the
    linear response plus it, and ``settled`` is whether that start certified as
    it stood: one residual, the start stop, and no step or retry.  A stack is
    solved as one and each row certified after; a row that does not certify is
    solved again alone and cold, which certifies it or raises its
    CertificationError.  The nonlinear part returned is the certified iterate's
    (a settled start as given) less one diagonal correction F-hat / (lin + 2 Re
    w-hat_0), from the residual at hand: the next start, not the outputs' iterate.
    """
    plan = _riccati_plan(grid, kappa)
    m, lin = plan[0], plan[3]
    k, row = grid.cutoff, qh.ndim == 1
    scales = np.abs(qh).max(axis=-1)  # scale: the smallest row's; floats for one row
    scale, q0, pair = ((float(scales), float(qh[0].real), qh) if row else  # a stack's
                       (float(scales.min()), qh[:, 0].real, qh[:, None, :]))  # pair axis
    # the linear response, w' +- 2 kappa w = q, is the cold start
    cold = np.zeros(qh.shape[:-1] + (2, m + 1), dtype=complex)
    np.divide(pair, lin[:, :k + 1], out=cold[..., :k + 1])
    wh = cold if nonlinear is None else cold + nonlinear
    state = _residual(plan, pair, q0, wh)
    settled = state[1] <= NEWTON_RTOL * scale  # the start stop
    if not settled:
        wh, state = _newton(plan, pair, q0, wh, state, scale)
    fh, res, gh, dtheta, sq, d, ok = state
    if res <= NEWTON_RTOL * scale and (ok if row else ok.all()):
        # one diagonal step past the certified iterate, from the residual at hand
        start = nonlinear if settled and nonlinear is not None else wh - cold
        return gh, dtheta, sq, start - fh / (lin + 2.0 * wh[..., :1].real), settled
    if row:  # a warm start is retried cold, a cold one raises
        if nonlinear is not None:
            return _riccati_half(grid, qh, kappa)[:4] + (False,)
        if not res <= NEWTON_RTOL * scale:
            raise CertificationError(
                f"Riccati Newton did not converge at kappa={kappa:g}, K={k} "
                f"(residual {res:.3e} against max |qhat| {scale:.3e})")
        raise CertificationError(
            f"Riccati branches do not certify -d^2 + q + kappa^2 > 0 at kappa={kappa:g}: "
            f"theta = {kappa + dtheta:.3e}, min(m_- - m_+) = {d.min():.3e}")
    certified = (np.abs(fh).max(axis=(1, 2)) <= NEWTON_RTOL * scales) & ok
    with np.errstate(divide="ignore", invalid="ignore"):  # its failed rows are replaced
        step = (wh - cold) - fh / (lin + 2.0 * wh[..., :1].real)
    for i in np.flatnonzero(~certified):
        gh[i], dtheta[i], sq[i], step[i], _ = _riccati_half(grid, qh[i], kappa)
    return gh, dtheta, sq, step, False


def green_of(q, kappa):
    """The diagonal Green's function of a real q: by the Riccati route when the
    mode cutoff is at least RICCATI_MIN_CUTOFF, else by ``green_diagonal``.
    Either route raises CertificationError unless -d^2 + q + kappa^2 > 0 is
    certified."""
    grid = q.grid
    if grid.cutoff < RICCATI_MIN_CUTOFF:
        return green_diagonal(assemble_resolvent(q, kappa))
    _check_domain(q.coeffs, kappa)
    gh, _, _, _, _ = _riccati_half(grid, q.coeffs[grid.cutoff:], kappa)
    gh[0] += free_diagonal_constant(kappa, grid.length)
    return PeriodicField(grid, _full_rows(gh))


def alphas_of(qs, kappa):
    """alpha(kappa; q) of each real q of a list on one grid: Hill's formula from one
    Riccati solve on their stack when the mode cutoff is at least
    RICCATI_MIN_CUTOFF, else ``alpha``'s log-determinant of each."""
    grid = qs[0].grid
    if any(q.grid != grid for q in qs):
        raise PreconditionError("a stack of alpha probes needs one shared grid")
    if grid.cutoff < RICCATI_MIN_CUTOFF:
        return [alpha(assemble_resolvent(q, kappa)) for q in qs]
    c = np.array([q.coeffs for q in qs])
    _check_domain(c, kappa)
    _, dthetas, sqs, _, _ = _riccati_half(grid, c[:, grid.cutoff:], kappa)
    length = grid.length
    # Hill's formula with theta - kappa substituted; free_excess = g0 - 1/(2 kappa)
    free_excess = -math.exp(-kappa * length) / (kappa * math.expm1(-kappa * length))
    free_log = 2.0 * math.log1p(-math.exp(-kappa * length))
    return [AlphaResult(value=(length * sq / (2.0 * kappa) + length * float(q.mean) * free_excess
                               + free_log - 2.0 * math.log1p(-math.exp(-(kappa + dtheta) * length))),
                        hs_norm=hs_norm(q, kappa))
            for q, dtheta, sq in zip(qs, dthetas.tolist(), sqs.tolist())]


def alpha_of(q, kappa):
    """alpha(kappa; q) for a real q: ``alphas_of`` of the one q."""
    (a,) = alphas_of([q], kappa)
    return a


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
