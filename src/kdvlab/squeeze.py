"""Non-squeezing experiment harness.

A scenario fixes the cylinder data (observable l, target alpha, radius r),
the ball data (center z, radius R), a time horizon and a flow, all
discretized on a circle through periodization and a smooth band projection.
The harness then looks for initial data in the ball whose evolved pairing
escapes the cylinder, measures the area that the evolved boundary circle of
a symplectic 2-plane slice of the ball encloses in the pairing plane (from
LOOP_POINTS evolved points, one batch for every flow), and cross-checks
everything against the closed-form answer for the linear flows (where the
propagator is a unit-modulus Fourier multiplier and the area is pi R^2).

Searches are heuristics and are reported as best-found values with an
"exceeds r" certificate; nothing here claims optimality.

Ball samples come from a seeded standard-library ``random.Random`` stream,
read as vectorized uniforms and Box-Muller normals (``sample_ball``), not from
numpy.random, whose import (11 modules) costs a short squeeze run more than
its sampling does.  The move off numpy's ``default_rng`` changed the samples
drawn for a given seed (CHANGES.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    KdvLabError,
    PreconditionError,
    SearchFailureError,
)
from .flows import MAX_STEPS, FlowSpec, HamiltonianSpec, evolve_batch, linear_symbol
from .spectral import (
    MultiplierSpec,
    PeriodicField,
    TorusGrid,
    _hermitize,
    field_from_modes,
    lp_project,
    make_field,
    pairing,
    sobolev_norm,
)


# ---------------------------------------------------------------------------
# prototypes on the line and their periodizations
# ---------------------------------------------------------------------------

def _gauss_prime(width, amplitude, center):
    def f(x):
        y = (x - center) / width
        return amplitude * (-2.0 * y / width) * np.exp(-y * y)

    return f


def _gauss_bump(width, amplitude, center):
    def f(x):
        y = (x - center) / width
        return amplitude * np.exp(-y * y)

    return f


def prototype_callable(cfg):
    """Line prototype from a config dict: gauss_prime | gauss_bump."""
    p = config_numbers(cfg, "prototype block", kind=None, width=float, amplitude=float,
                       center=float)
    kind = p.get("kind", "gauss_prime")
    args = (p.get("width", 1.0), p.get("amplitude", 1.0), p.get("center", 0.0))
    if kind == "gauss_prime":
        return _gauss_prime(*args)
    if kind == "gauss_bump":
        return _gauss_bump(*args)
    raise PreconditionError(f"unknown prototype kind {kind!r}")


def periodized_field(func, grid):
    """Sample sum_{|j| <= 6} f(x + j*L) on the grid (f decaying fast on the line)."""
    x = grid.points
    total = np.zeros_like(x)
    for j in range(-6, 7):
        total += func(x + j * grid.length)
    return make_field(grid, samples=total)


def config_number(value, where, key, kind=float):
    """value converted to ``kind`` (int or float) if it is a number of that kind
    (an integer for int, never a bool) and, for float, an integer in float range;
    else a PreconditionError naming key."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise PreconditionError(f'{where}: "{key}" must be {what}, got {value!r}')
    try:
        return kind(value)
    except OverflowError:  # JSON integers have no bound
        raise PreconditionError(f'{where}: "{key}" is an integer beyond float range') from None


def config_list(value, key):
    """value if it is a JSON list; else a PreconditionError naming key."""
    if not isinstance(value, list):
        raise PreconditionError(f'"{key}" must be a list, got {value!r}')
    return value


def config_numbers(block, where, required=(), **kinds):
    """The entries block gives, each key one of ``kinds``: a number of its kind
    (``config_number``), or any value where the kind is None (a name, a block).
    A block that is not a JSON object is a PreconditionError naming it; a
    missing ``required`` key, an unknown key or a wrong type is one naming the
    key."""
    if not isinstance(block, dict):
        raise PreconditionError(f"{where} must be a JSON object, got {block!r}")
    for key in required:
        if key not in block:
            raise PreconditionError(f'{where} lacks the key "{key}"')
    for key in block:
        if key not in kinds:
            raise PreconditionError(f'{where} has the unknown key "{key}"')
    return {key: value if kinds[key] is None else config_number(value, where, key, kinds[key])
            for key, value in block.items()}


def grid_from_config(block):
    """TorusGrid from a {length, cutoff, samples (optional)} block."""
    return TorusGrid.make(**config_numbers(block, "grid block", ("length", "cutoff"),
                                           length=float, cutoff=int, samples=int))


def band_from_config(block):
    """Band multiplier from an {m, M} block."""
    b = config_numbers(block, "band block", ("m", "M"), m=float, M=float)
    return MultiplierSpec.band(b["m"], b["M"])


def flow_from_config(block, band=None):
    """HamiltonianSpec from a {kind, kappa, band} block.  A band key sets the flow's
    band, which HamiltonianSpec refuses on a kind other than hkappa_band and its
    linearisation; without one, those two take ``band``, a scenario's own."""
    banded = isinstance(block, dict) and block.get("kind") in ("hkappa_band",
                                                               "hkappa_band_linear")
    f = config_numbers(block, "flow block",
                       ("kind",) + (("kappa", "band") if banded and band is None else ()),
                       kind=None, kappa=float, band=None)
    if "band" in f:
        band = band_from_config(f["band"])
    elif not banded:
        band = None
    return HamiltonianSpec(f["kind"], kappa=f.get("kappa"), band=band)


def field_from_config(block, grid):
    """Field from a config block: a ``modes`` list {j, re, im}, else a prototype."""
    if isinstance(block, dict) and "modes" in block:
        entries = [config_numbers(e, "modes entry", ("j",), j=int, re=float, im=float)
                   for e in config_list(block["modes"], "modes")]
        return field_from_modes(grid, [(e["j"], complex(e.get("re", 0.0), e.get("im", 0.0)))
                                       for e in entries])
    return periodized_field(prototype_callable(block), grid)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqueezeScenario:
    center: PeriodicField        # z: mean-zero, band-projected
    observable: PeriodicField    # l: unit Hdot^{1/2} after projection
    alpha_target: float
    r: float
    R: float
    T: float
    flow: HamiltonianSpec
    band: MultiplierSpec
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each test, as +-inf does
        for name, value in (("r", self.r), ("R", self.R), ("T", self.T),
                            ("alpha", self.alpha_target)):
            if not abs(value) < math.inf:
                raise PreconditionError(f"scenario {name} must be finite, got {value}")
        if not (0 < self.r < self.R):
            raise PreconditionError("need 0 < r < R")
        if self.T < 0:
            raise PreconditionError(f"scenario T must be nonnegative, got {self.T}")
        if self.seed < 0:
            raise PreconditionError(f"scenario seed must be nonnegative, got {self.seed}")
        nrm = sobolev_norm(self.observable, 0.5, homogeneous=True)
        if abs(nrm - 1.0) > 1e-10:
            raise PreconditionError(f"observable norm {nrm} is not 1 within 1e-10")

    @property
    def grid(self):
        return self.center.grid

    def live_modes(self):
        """Boolean mask of modes inside the scenario band (multiplier > 0)."""
        w = self.band.values(self.grid.frequencies)
        return w > 1e-13


def build_scenario(config):
    """Assemble a scenario from a config dict.

    Keys: grid {length, cutoff, samples?}, band {m, M}, center (prototype or
    mode list), observable (prototype or mode list), alpha, r, R, T,
    flow {kind, kappa?}, seed; any other key is refused.  Centers are
    periodized then band-projected (hence mean-zero); observables are
    renormalized to unit Hdot^{1/2}.
    """
    cfg = config_numbers(
        config, "scenario block", ("grid", "band", "center", "observable", "r", "R", "T"),
        grid=None, band=None, center=None, observable=None, flow=None, alpha=float,
        r=float, R=float, T=float, seed=int)
    grid = grid_from_config(cfg["grid"])
    band = band_from_config(cfg["band"])
    zeta = lp_project(field_from_config(cfg["center"], grid), band)
    l_raw = field_from_config(cfg["observable"], grid)
    l_proj = lp_project(l_raw, band)
    l_norm = sobolev_norm(l_proj, 0.5, homogeneous=True)
    if l_norm < 1e-12:
        raise PreconditionError("projected observable is numerically zero")
    lam = l_proj * (1.0 / l_norm)
    flow = flow_from_config(cfg.get("flow", {"kind": "kdv"}), band)
    return SqueezeScenario(center=zeta, observable=lam, alpha_target=cfg.get("alpha", 0.0),
                           r=cfg["r"], R=cfg["R"], T=cfg["T"], flow=flow, band=band,
                           seed=cfg.get("seed", 0))


# ---------------------------------------------------------------------------
# ball sampling
# ---------------------------------------------------------------------------

def _uniforms(rng, n):
    """n uniforms in [0, 1) from one ``rng.randbytes`` call: the top 53 bits of each
    little-endian uint64, over 2^53."""
    return (np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> np.uint64(11)) * 2.0 ** -53


def _complex_normals(u):
    """len(u) // 2 complex normals, real and imaginary parts independent standard
    normals, from the uniforms u by Box-Muller: a radius from the first half and an
    angle from the second.  log1p(-u) keeps a zero uniform finite."""
    m = len(u) // 2
    return np.sqrt(-2.0 * np.log1p(-u[:m])) * np.exp(2j * math.pi * u[m:2 * m])


def _half_norm(f):
    return sobolev_norm(f, -0.5, homogeneous=True)


def sample_ball(scenario, count, seed=None):
    """Mean-zero band-limited samples with ||q - z||_{Hdot^{-1/2}} < R.

    Each sample is z + 0.999 u R v / ||v||: v a Hermitized complex Gaussian
    direction with the modes outside the band and the mean cleared, and u a
    radius fraction uniform in [0, 1).  Both come from one ``_uniforms`` call of
    4K + 3 uniforms per sample, drawn from a standard-library ``random.Random``
    seeded with ``seed`` (defaults to the scenario's): deterministic per seed
    and platform, with no numpy.random import.  The draws came from numpy's
    ``default_rng`` before this stream replaced it, and every seed's samples
    changed with it (CHANGES.md).
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    rng = random.Random(scenario.seed if seed is None else seed)
    grid = scenario.grid
    k = grid.cutoff
    dead = ~scenario.live_modes()
    out = []
    for _ in range(count):
        u = _uniforms(rng, 4 * k + 3)
        c = _hermitize(_complex_normals(u[:-1]))
        c[dead] = 0.0
        c[k] = 0.0
        v = PeriodicField(grid, _hermitize(c))
        nrm = _half_norm(v)
        if nrm < 1e-300:
            out.append(scenario.center)
            continue
        scale = 0.999 * float(u[-1]) * scenario.R / nrm
        out.append(scenario.center + v * scale)
    return out


# ---------------------------------------------------------------------------
# evolving and pairing
# ---------------------------------------------------------------------------

def _propagate_linear(q, ham, T):
    lam = linear_symbol(q.grid, ham)
    return PeriodicField(q.grid, _hermitize(q.coeffs * np.exp(lam * T)))


def _evolve_all(scenario, q0s, dt):
    """q(T) for each of q0s under the scenario flow, as one ``evolve_batch`` (a
    stopped member's entry is its KdvLabError)."""
    return evolve_batch(q0s, FlowSpec(scenario.flow, dt=dt, T=scenario.T, saves=1))


def evolved_pairing(scenario, qT):
    """|<l, q(T)> - alpha| for one evolved member of ``_evolve_all``, or the
    KdvLabError that stopped it, raised."""
    if isinstance(qT, KdvLabError):
        raise qT
    return abs(pairing(scenario.observable, qT) - scenario.alpha_target)


def _dual_direction(scenario, w):
    """Unit Hdot^{-1/2} maximizer of <w, .> over the scenario's mode set."""
    grid = scenario.grid
    k = np.abs(grid.frequencies)
    c = k * w.coeffs
    c[~scenario.live_modes()] = 0.0
    f = PeriodicField(grid, _hermitize(c))
    nrm = _half_norm(f)
    if nrm < 1e-300:
        raise PreconditionError("degenerate dual direction (observable outside band)")
    return f * (1.0 / nrm)


@dataclass(frozen=True)
class SearchBudget:
    starts: int = 16
    rounds: int = 2
    step: float = 0.5
    dt: float = 1e-3
    directions: int = 8

    def __post_init__(self):
        if self.starts < 1 or self.rounds < 0 or self.directions < 0:
            raise PreconditionError("search budget needs starts >= 1, rounds >= 0 and "
                                    f"directions >= 0, got {self}")
        # a start is one ball sample and a round one evolve batch, so a count
        # past MAX_STEPS would run for hours; refused before either runs
        for key in ("starts", "rounds"):
            if not getattr(self, key) <= MAX_STEPS:
                raise PreconditionError(f'search budget: "{key}" must be at most '
                                        f"MAX_STEPS = {MAX_STEPS}")
        # written so that NaN fails, as +-inf does
        if not (0 < self.step < math.inf and 0 < self.dt < math.inf):
            raise PreconditionError("search budget needs 0 < step < inf and 0 < dt < inf, "
                                    f"got {self}")


@dataclass
class SearchResult:
    witness: PeriodicField
    value: float
    exceeds_r: bool
    evaluations: int
    failures: list


def escape_search(scenario, budget=SearchBudget()):
    """Maximize |<l, q(T)> - alpha| over the ball by multi-start + ascent.

    Starts: seeded ball samples plus the two informed starts z +- R dual along
    the dual of the back-propagated observable U(-T) l (exact for the linear
    flows).  Ascent: Jacobi rounds of one batch each; a round's trials are +-
    coordinate steps on the highest-weight modes from the best point at its
    start, projected back into the ball, and the search moves to the best
    trial if it gains, else halves the step.  Deterministic for a fixed
    (scenario, seed, budget) triple.

    The first round is speculative: before any evolve the search guesses the
    best start as the informed start whose linearised pairing is larger
    (z + R dual when <U(-T) l, z> - alpha >= 0, else z - R dual) and evolves
    that start's trials in the starts' batch.  When the scored best start is
    the guess, round 1 scores those rows; otherwise it drops them unscored and
    evolves its trials from the real best, as every later round does.  A
    wrong guess costs one batch of trials more; the result is the same.
    """
    failures = []
    evaluations = 0

    def scored(q0s, qTs, label):
        """(value, q0) per member of q0s that evolved, qTs their evolved states."""
        nonlocal evaluations
        out = []
        for i, (q0, qT) in enumerate(zip(q0s, qTs)):
            evaluations += 1
            try:
                out.append((evolved_pairing(scenario, qT), q0))
            except KdvLabError as exc:  # keep searching
                failures.append(f"{label.format(i)}: {exc}")
        return out

    def clipped(q0):
        v = q0 - scenario.center
        nrm = _half_norm(v)
        cap = 0.9999 * scenario.R
        if nrm > cap:
            return scenario.center + v * (cap / nrm)
        return q0

    grid = scenario.grid
    live = np.flatnonzero(scenario.live_modes() & (grid.modes > 0))
    weights = np.abs(scenario.observable.coeffs[live])
    order = live[np.argsort(-weights, kind="stable")][:budget.directions]
    eye = np.eye(2 * grid.cutoff + 1, dtype=complex)
    directions = [PeriodicField(grid, _hermitize(unit * eye[idx]))
                  for idx in order for unit in (1.0, 1.0j)]
    norms = [_half_norm(d) for d in directions]
    step = budget.step * scenario.R

    def ascent_trials(best):
        return [clipped(best + direction * (sgn * step / nrm))
                for direction, nrm in zip(directions, norms) for sgn in (+1.0, -1.0)]

    candidates = sample_ball(scenario, budget.starts)
    # informed starts: dual of the back-propagated observable, both signs
    # (back-propagation along the flow's linear part; exact for linear kinds)
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    guess, speculative = None, []
    try:
        dual = _dual_direction(scenario, back)
    except PreconditionError:
        pass
    else:
        informed = [clipped(scenario.center + dual * (sgn * scenario.R)) for sgn in (+1.0, -1.0)]
        candidates += informed
        # the guessed best start: the informed start with the larger linearised pairing
        guess = informed[0 if pairing(back, scenario.center) >= scenario.alpha_target else 1]
        if budget.rounds:
            speculative = ascent_trials(guess)

    evolved = _evolve_all(scenario, candidates + speculative, budget.dt)
    starts = scored(candidates, evolved[:len(candidates)], "candidate {}")
    if not starts:
        raise SearchFailureError(
            "all candidate evolutions failed: " + "; ".join(failures[:4])
        )
    # max keeps the first of equal values: the lowest start, or trial, index
    best_val, best = max(starts, key=lambda t: t[0])
    # round 1's rows, if the guess was the best start
    ready = (speculative, evolved[len(candidates):]) if best is guess else None
    for _ in range(budget.rounds):
        if ready is None:
            trials = ascent_trials(best)
            ready = (trials, _evolve_all(scenario, trials, budget.dt))
        val, trial = max(scored(*ready, "ascent"), key=lambda t: t[0],
                         default=(-math.inf, None))
        ready = None
        if val > best_val + 1e-15:
            best_val, best = val, trial
        else:
            step *= 0.5
    return SearchResult(witness=best, value=float(best_val),
                        exceeds_r=bool(best_val > scenario.r),
                        evaluations=evaluations, failures=failures)


def linear_oracle(scenario):
    """Exact escape value under the scenario flow's linearisation at q = 0 (itself
    for a linear kind), whose propagator U is the flow's ``linear_symbol`` multiplier:
    |<U(-T) l, z> - alpha| + R * ||U(-T) l||_{Hdot^{1/2}} (last factor = 1)."""
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    base = abs(pairing(back, scenario.center) - scenario.alpha_target)
    dual_norm = sobolev_norm(back, 0.5, homogeneous=True)
    return base + scenario.R * dual_norm


# ---------------------------------------------------------------------------
# image area of a symplectic 2-plane slice
# ---------------------------------------------------------------------------

# Points on the slice circle that image_area evolves; the area it reports moved
# by rounding only from 8 to 64 points on the KdV and linear test scenarios.
LOOP_POINTS = 16


def hilbert_partner(f):
    """Hilbert-transform partner: fhat(k) -> -i sign(k) fhat(k) (real field)."""
    sgn = np.sign(f.grid.modes).astype(float)
    return PeriodicField(f.grid, _hermitize(-1j * sgn * f.coeffs))


@dataclass
class AreaResult:
    area: float
    values: np.ndarray       # complex pairing values at the LOOP_POINTS evolved points


def slice_basis(scenario):
    """(e1, e2): unit Hdot^{-1/2} conjugate pair realizing <l, q(T)>.

    The pair is the dual of the observable pulled back through the flow's
    linear part (and its Hilbert partner).  Under a unit-modulus linear flow
    the slice circle then maps onto the circle of radius R in the pairing
    plane; for nonlinear flows the same pullback is the natural heuristic slice.
    """
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    e1 = _dual_direction(scenario, back)
    e2 = hilbert_partner(e1)
    n2 = _half_norm(e2)
    if n2 < 1e-12:
        raise PreconditionError("degenerate slice: Hilbert partner vanishes")
    e2 = e2 * (1.0 / n2)
    w = np.zeros(2 * scenario.grid.cutoff + 1)
    nz = scenario.grid.modes != 0
    w[nz] = np.abs(scenario.grid.frequencies[nz]) ** (-1.0)
    gram_cross = scenario.grid.length * float(
        np.sum(w * np.real(np.conj(e1.coeffs) * e2.coeffs))
    )
    if abs(gram_cross) > 1e-8:
        raise PreconditionError("degenerate slice: basis pair is not conjugate")
    return e1, e2


def slice_loop(scenario):
    """The LOOP_POINTS points z + R (e1 cos theta + e2 sin theta), theta = 2 pi i / n."""
    e1, e2 = slice_basis(scenario)
    thetas = 2.0 * math.pi * np.arange(LOOP_POINTS) / LOOP_POINTS
    return [scenario.center + e1 * (scenario.R * math.cos(th)) + e2 * (scenario.R * math.sin(th))
            for th in thetas]


def image_area(scenario, dt=1e-3):
    """Signed area enclosed by the image of the slice circle under
    q -> <l, q(T)> + i <l_H, q(T)>, with l_H the Hilbert partner of l.

    The LOOP_POINTS points of ``slice_loop`` are evolved as one batch, and the
    first failed point's error is raised.  The loop
    w(theta) = sum_k what_k e^{i k theta} encloses pi sum_k k |what_k|^2,
    exact when w has no mode at or beyond n/2.  On a
    unit-modulus linear flow w is the circle of radius R, so the area is
    pi R^2; on a nonlinear flow it is a probe near pi R^2 while the pairings
    stay near-linear on the slice.
    """
    l_h = hilbert_partner(scenario.observable)
    values = []
    for qT in _evolve_all(scenario, slice_loop(scenario), dt):
        if isinstance(qT, KdvLabError):
            raise qT
        values.append(pairing(scenario.observable, qT) + 1j * pairing(l_h, qT))
    values = np.array(values)
    w_hat = np.fft.fft(values) / LOOP_POINTS
    k = np.fft.fftfreq(LOOP_POINTS, 1.0 / LOOP_POINTS)
    return AreaResult(area=float(math.pi * np.sum(k * np.abs(w_hat) ** 2)), values=values)
