"""The escape search as documented, one ``evolve_batch`` per phase: a reference
for ``squeeze.escape_search``, which evolves round 1 speculatively with the starts."""

import math

import numpy as np

from kdvlab import sample_ball
from kdvlab.errors import KdvLabError, PreconditionError, SearchFailureError
from kdvlab.spectral import PeriodicField, _hermitize
from kdvlab.squeeze import (SearchResult, _dual_direction, _evolve_all, _half_norm,
                            _propagate_linear, evolved_pairing)


def sequential_search(scenario, budget):
    """Score the starts (ball samples, then z + R dual and z - R dual) as one
    batch, then run each Jacobi round as one batch of +- steps from the best
    point at its start."""
    failures = []
    evaluations = 0
    cap = 0.9999 * scenario.R

    def clipped(q0):
        v = q0 - scenario.center
        nrm = _half_norm(v)
        return scenario.center + v * (cap / nrm) if nrm > cap else q0

    def scored(q0s, label):
        nonlocal evaluations
        out = []
        for i, (q0, qT) in enumerate(zip(q0s, _evolve_all(scenario, q0s, budget.dt))):
            evaluations += 1
            try:
                out.append((evolved_pairing(scenario, qT), q0))
            except KdvLabError as exc:
                failures.append(f"{label.format(i)}: {exc}")
        return out

    candidates = sample_ball(scenario, budget.starts)
    back = _propagate_linear(scenario.observable, scenario.flow, -scenario.T)
    try:
        dual = _dual_direction(scenario, back)
        candidates += [clipped(scenario.center + dual * (sgn * scenario.R))
                       for sgn in (+1.0, -1.0)]
    except PreconditionError:
        pass
    starts = scored(candidates, "candidate {}")
    if not starts:
        raise SearchFailureError("all candidate evolutions failed")
    best_val, best = max(starts, key=lambda t: t[0])

    grid = scenario.grid
    live = np.flatnonzero(scenario.live_modes() & (grid.modes > 0))
    order = live[np.argsort(-np.abs(scenario.observable.coeffs[live]),
                            kind="stable")][:budget.directions]
    eye = np.eye(2 * grid.cutoff + 1, dtype=complex)
    directions = [PeriodicField(grid, _hermitize(unit * eye[idx]))
                  for idx in order for unit in (1.0, 1.0j)]
    step = budget.step * scenario.R
    for _ in range(budget.rounds):
        trials = [clipped(best + d * (sgn * step / _half_norm(d)))
                  for d in directions for sgn in (+1.0, -1.0)]
        val, trial = max(scored(trials, "ascent"), key=lambda t: t[0],
                         default=(-math.inf, None))
        if val > best_val + 1e-15:
            best_val, best = val, trial
        else:
            step *= 0.5
    return SearchResult(witness=best, value=float(best_val),
                        exceeds_r=bool(best_val > scenario.r),
                        evaluations=evaluations, failures=failures)


def assert_same_search(result, reference):
    """The search equals the reference: its value to 1e-13 relative (batches of
    other sizes round differently), its witness exactly, and its counts."""
    assert abs(result.value - reference.value) <= 1e-13 * abs(reference.value)
    assert np.array_equal(result.witness.coeffs, reference.witness.coeffs)
    assert result.evaluations == reference.evaluations
    assert result.failures == reference.failures
