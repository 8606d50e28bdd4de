"""Schroedinger resolvent machinery on the circle.

The operator -d^2/dx^2 + q + kappa^2 is assembled in the Fourier basis of
T_l, where it is diagonal-plus-Toeplitz:

    A[a, b] = omega_a delta_ab + qhat((a-b)/l),   omega_a = 4 pi^2 (a/l)^2 + kappa^2.

Writing A = D^{1/2} (I + B) D^{1/2} with D = diag(omega) gives the normalized
perturbation B[a, b] = qhat((a-b)/l) / sqrt(omega_a omega_b), the object whose
Hilbert-Schmidt norm controls every series here.  From A^{-1} we read off the
diagonal Green's function (anti-diagonal sums of the inverse) and the
renormalized log-determinant

    alpha(kappa; q) = -log det(I + B) + tr B = sum_{l>=2} (-1)^l/l tr(B^l).

Two exactness conventions: the free diagonal constant on the circle is the
closed form coth(kappa l / 2) / (2 kappa) rather than the truncated lattice
sum, and the first-order/second-order lattice tails beyond the mode cutoff
are completed by explicit summation in ``green_diagonal`` and ``alpha``, so
both converge to their circle values as K grows instead of inheriting an
O(K^-3) floor.  The series oracles keep the bare truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack
from scipy.signal import fftconvolve

from .errors import LogDetBranchError, PreconditionError, SingularResolventError
from .spectral import (
    PeriodicField,
    _hermitize,
    cubic_integral,
)

TAIL_SUM_MIN = 4096  # half-width of the extended lattice used for tail completion


def free_diagonal_constant(kappa, length):
    """Diagonal Green's function of -d^2/dx^2 + kappa^2 on T_l: coth(kl/2)/(2k)."""
    z = 0.5 * kappa * length
    e = math.exp(-2.0 * z)
    return (1.0 + e) / (1.0 - e) / (2.0 * kappa)


def omega_values(grid, kappa):
    k = grid.frequencies
    return 4.0 * math.pi ** 2 * k * k + kappa * kappa


@lru_cache(maxsize=64)
def _pair_sums(length, cutoff, kappa):
    """Lattice sums S_K(d), S_ext(d) of 1/(omega_a omega_{a-d}), |d| <= 2K.

    S_K restricts both indices to the cutoff window (exactly what the dense
    matrix sees); S_ext sums over a window wide enough that the remainder is
    far below rounding for every quantity built on top.
    """
    two_pi_sq = 4.0 * math.pi ** 2

    def inv_omega(js):
        return 1.0 / (two_pi_sq * (js / length) ** 2 + kappa * kappa)

    w_in = inv_omega(np.arange(-cutoff, cutoff + 1))
    corr_in = fftconvolve(w_in, w_in[::-1])
    kext = max(TAIL_SUM_MIN, 8 * cutoff)
    w_ext = inv_omega(np.arange(-kext, kext + 1))
    corr_ext = fftconvolve(w_ext, w_ext[::-1])
    lags = np.arange(-2 * cutoff, 2 * cutoff + 1)
    s_in = corr_in[lags + 2 * cutoff]
    s_ext = corr_ext[lags + 2 * kext]
    return s_in, s_ext, float(np.sum(w_in))


@dataclass
class ResolventContext:
    """Assembled L + kappa^2 for one (q, kappa), with its normalized matrix."""

    q: PeriodicField
    kappa: float
    omega: np.ndarray
    B: np.ndarray
    _inv_ib: np.ndarray | None = None

    @property
    def grid(self):
        return self.q.grid

    @property
    def A(self):
        """Dense Hermitian matrix of -d^2/dx^2 + q + kappa^2 in the mode basis."""
        sq = np.sqrt(self.omega)
        return self.B * np.outer(sq, sq) + np.diag(self.omega)

    def apply_operator(self, coeffs):
        """A acting on a coefficient vector (for oracle checks)."""
        return self.A @ np.asarray(coeffs, dtype=complex)

    def inv_ib(self):
        """(I + B)^{-1}, cached; Cholesky route with an LU fallback.

        I + B is Hermitian and positive definite throughout the certified
        regime (||B|| < 1), where zpotrf/zpotri is the cheapest full inverse;
        outside it we fall back to LU so diagnostics still work.
        """
        if self._inv_ib is None:
            n = self.B.shape[0]
            a = np.eye(n) + self.B
            cf, info = lapack.zpotrf(a, lower=0)
            if info == 0:
                inv, info2 = lapack.zpotri(cf, lower=0)
                if info2 == 0:
                    self._inv_ib = np.triu(inv) + np.triu(inv, 1).conj().T
                    return self._inv_ib
            try:
                self._inv_ib = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                smin = float(np.linalg.svd(a, compute_uv=False)[-1])
                raise SingularResolventError(
                    f"I+B is singular (smallest singular value {smin:.3e})",
                    smallest_singular_value=smin,
                ) from exc
        return self._inv_ib

    def pair_sums(self):
        return _pair_sums(self.grid.length, self.grid.cutoff, self.kappa)


def assemble_resolvent(q, kappa):
    """Build the dense resolvent context for (q, kappa); requires kappa >= 1."""
    if kappa < 1:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    grid = q.grid
    k = grid.cutoff
    omega = omega_values(grid, kappa)
    qext = np.zeros(4 * k + 1, dtype=complex)
    qext[k:3 * k + 1] = q.coeffs  # qext[d + 2k] = qhat(d/l)
    idx = np.arange(2 * k + 1)
    toep = qext[idx[:, None] - idx[None, :] + 2 * k]
    inv_sq = 1.0 / np.sqrt(omega)
    B = toep * np.outer(inv_sq, inv_sq)
    return ResolventContext(q=q, kappa=float(kappa), omega=omega, B=B)


def hs_norm(ctx):
    """Hilbert-Schmidt (Frobenius) norm of the normalized perturbation B."""
    return float(np.linalg.norm(ctx.B, "fro"))


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


def _antidiagonal_coeffs(matrix, cutoff, length):
    """Field coefficients g_hat(d/l) = (1/l) sum_{a-b=d} M[a,b], |d| <= cutoff."""
    c = np.empty(2 * cutoff + 1, dtype=complex)
    for d in range(-cutoff, cutoff + 1):
        c[d + cutoff] = np.trace(matrix, offset=-d)
    return c / length


def _completion_term(ctx):
    """First-order lattice-tail completion of g: -qhat(d) (S_ext - S_K)(d) / l."""
    s_in, s_ext, _ = ctx.pair_sums()
    k = ctx.grid.cutoff
    w = (s_ext - s_in)[k:3 * k + 1]  # lags -K..K
    return -ctx.q.coeffs * w / ctx.grid.length


def green_diagonal(ctx):
    """Diagonal Green's function x -> G(x, x; kappa; q) by direct dense solve."""
    grid = ctx.grid
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    m = ctx.inv_ib() * np.outer(inv_sq, inv_sq)
    c = _antidiagonal_coeffs(m, grid.cutoff, grid.length)
    free = free_diagonal_constant(ctx.kappa, grid.length)
    _, _, sum_inv_omega = ctx.pair_sums()
    c[grid.cutoff] += free - sum_inv_omega / grid.length
    c += _completion_term(ctx)
    g = PeriodicField(grid, _hermitize(c))
    return GreenResult(g=g, kappa=ctx.kappa, method="direct", free_constant=free)


def green_diagonal_series(q, kappa, l_max):
    """Partial Neumann series for the diagonal Green's function.

    Term l is (-1)^l times the anti-diagonal sums of D^{-1/2} B^l D^{-1/2};
    the l=0 term is the exact circle constant.  Certified with a geometric
    tail bound when ||B||_HS < 1, otherwise returned tagged uncertified.
    """
    ctx = assemble_resolvent(q, kappa)
    grid = ctx.grid
    free = free_diagonal_constant(kappa, grid.length)
    _, _, sum_inv_omega = ctx.pair_sums()
    inv_sq = 1.0 / np.sqrt(ctx.omega)
    scale = np.outer(inv_sq, inv_sq)

    c = np.zeros(2 * grid.cutoff + 1, dtype=complex)
    c[grid.cutoff] = free  # exact free diagonal (l = 0)
    power = np.eye(ctx.B.shape[0], dtype=complex)
    sign = 1.0
    for _ in range(1, int(l_max) + 1):
        power = power @ ctx.B
        sign = -sign
        term = _antidiagonal_coeffs(power * scale, grid.cutoff, grid.length)
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


def _alpha_completion(ctx):
    s_in, s_ext, _ = ctx.pair_sums()
    qsq = np.abs(ctx.q.coeffs) ** 2
    k = ctx.grid.cutoff
    w = (s_ext - s_in)[k:3 * k + 1]
    return 0.5 * float(np.sum(qsq * w))


def alpha(ctx):
    """alpha(kappa; q) = -log det(I+B) + tr B via the eigenvalues of B."""
    evals = np.linalg.eigvalsh(ctx.B)
    if np.min(1.0 + evals) <= 0.0:
        raise LogDetBranchError(
            f"eigenvalue of I+B at or below zero (min {1.0 + float(np.min(evals)):.3e})"
        )
    _, _, sum_inv_omega = ctx.pair_sums()
    trace_b = float(ctx.q.coeffs[ctx.grid.cutoff].real) * sum_inv_omega
    value = -float(np.sum(np.log1p(evals))) + trace_b + _alpha_completion(ctx)
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
