"""Single-call layer timings over the mode cutoff K (ROADMAP item 1).

Each layer function is timed alone on an L=2*pi circle with data shaped like
the ``hkappa_evolve`` input (||q||_{H^-1} = 0.1), at every K in ``CUTOFFS``.
Functions that take a resolvent context get a freshly assembled one (built
outside the timed call), so ``greens.green_diagonal`` includes the inverse.
Reported as ``<fn>.K<k>.us`` (median microseconds per call) and
``<fn>.slope`` (least-squares slope of log time against log K).
"""

import math
import time

import numpy as np

CUTOFFS = (32, 64, 128, 256)
KAPPA = 4.0
MIN_SECONDS = 0.15   # per (function, K): repeat at least this long ...
MIN_REPS = 5         # ... and at least this often
MAX_REPS = 2000

FUNCTIONS = (
    "spectral.product_coeffs",
    "greens.assemble_resolvent",
    "greens.inv_ib",
    "greens.green_diagonal",
    "greens.alpha",
    "flows.rhs.kdv",
    "flows.rhs.hkappa",
    "flows.step.hkappa",
)


def metric_names():
    return [f"{fn}.K{k}.us" for fn in FUNCTIONS for k in CUTOFFS] + \
           [f"{fn}.slope" for fn in FUNCTIONS]


def _median_us(call, prepare=None):
    """Median wall time of call(prepare()) in microseconds; prepare is untimed."""
    prepare = prepare or (lambda: None)
    call(prepare())  # warm caches (lattice sums, FFT plans)
    times = []
    spent = 0.0
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or spent < MIN_SECONDS):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return 1e6 * float(np.median(times))


def sweep(seed):
    from kdvlab import FlowSpec, HamiltonianSpec, TorusGrid, make_field
    from kdvlab.flows import evolve, rhs
    from kdvlab.greens import alpha, assemble_resolvent, green_diagonal
    from kdvlab.spectral import product_coeffs

    from workloads import random_modes

    kdv, hk = HamiltonianSpec.kdv(), HamiltonianSpec.hkappa(KAPPA)
    out = {}
    for k in CUTOFFS:
        grid = TorusGrid.make(2.0 * math.pi, k)
        q = make_field(grid, coeffs=random_modes(np.random.default_rng(seed), grid.length, k))
        step = FlowSpec(hk, dt=1e-3, T=1e-3, saves=1)

        def fresh():
            return assemble_resolvent(q, KAPPA)

        cases = {
            "spectral.product_coeffs": (lambda _: product_coeffs(q.coeffs, q.coeffs, k, k, k), None),
            "greens.assemble_resolvent": (lambda _: fresh(), None),
            "greens.inv_ib": (lambda ctx: ctx.inv_ib(), fresh),
            "greens.green_diagonal": (green_diagonal, fresh),
            "greens.alpha": (alpha, fresh),
            "flows.rhs.kdv": (lambda _: rhs(q, kdv), None),
            "flows.rhs.hkappa": (lambda _: rhs(q, hk), None),
            "flows.step.hkappa": (lambda _: evolve(q, step), None),
        }
        for fn in FUNCTIONS:
            call, prepare = cases[fn]
            out[f"{fn}.K{k}.us"] = _median_us(call, prepare)
    logk = np.log(CUTOFFS)
    for fn in FUNCTIONS:
        logt = np.log([out[f"{fn}.K{k}.us"] for k in CUTOFFS])
        out[f"{fn}.slope"] = float(np.polyfit(logk, logt, 1)[0])
    return out
