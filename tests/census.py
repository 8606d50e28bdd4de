"""Residuals and transforms per Riccati stage solve of the H_kappa flows: counts,
not timings.

A residual is one evaluation of F-hat, and each starts with the inverse
transform of the (2, M + 1) w-hat pair, M = 3K/2.  ``count_stage_residuals``
counts those transforms per stage solve of ``flows``, and the census also
counts every np.fft call that ``greens`` makes in the run (the read-out of g
included), through a proxy for the numpy of ``greens``, so the counts are
the same on every machine and every run.

Run as a script,

    PYTHONPATH=src python tests/census.py

it prints residuals per solve for each RK stage a, b, c and d, np.fft calls
per solve, and the stages' extrapolation orders at the end, over the 200
steps of each of the 16 input variants of the hkappa_evolve benchmark and
over the 20 steps of the cut_compare circle flow; then the residuals per run
of the cut_compare benchmark (its circle and line flows) for each variant.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kdvlab import (
    FlowSpec,
    HamiltonianSpec,
    MultiplierSpec,
    TorusGrid,
    build_partition,
    evolve,
    lp_project,
    make_field,
    select_cut,
)
from kdvlab import flows, greens
from kdvlab.bridge import compare_local
from kdvlab.squeeze import periodized_field, prototype_callable

VARIANTS = 16
HKAPPA_STEPS = 200  # hkappa_evolve: T = 0.2 at dt = 1e-3
CUT_STEPS = 20      # cut_compare: T = 0.02 at dt = 1e-3


def record_transforms(monkeypatch, calls=None):
    """The (name, input shape) of each np.fft transform that greens makes from
    now on, recorded through a proxy for its numpy (appended to ``calls``, if
    given)."""
    calls = [] if calls is None else calls

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    class CountingNumpy:
        """numpy, with the transforms of np.fft recorded."""
        fft = SimpleNamespace(**{name: counted(name)
                                 for name in ("fft", "ifft", "rfft", "irfft")})

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(greens, "np", CountingNumpy())
    return calls


def count_stage_residuals(monkeypatch, calls=None):
    """Per stage solve of the flows from now on, its residual evaluations: the
    inverse transforms of its (2, M + 1) w-hat pair, M = 3K/2.  Every transform
    of greens is appended to ``calls``, if given (``record_transforms``)."""
    calls = record_transforms(monkeypatch, calls)
    residuals = []
    solve = flows._riccati_half

    def counted(grid, *args):
        before = len(calls)
        out = solve(grid, *args)
        pair = ("irfft", (2, 3 * grid.cutoff // 2 + 1))
        residuals.append(calls[before:].count(pair))
        return out

    monkeypatch.setattr(flows, "_riccati_half", counted)
    return residuals


def stage_census(run):
    """(the residuals of each stage solve, the np.fft calls of greens, the final
    stage orders of each row's ``_StageHistory``) of the flows that ``run()``
    evolves."""
    histories, calls = [], []

    class Recorded(flows._StageHistory):
        def __init__(self, table):
            super().__init__(table)
            histories.append(self)

    with pytest.MonkeyPatch.context() as mp:
        residuals = count_stage_residuals(mp, calls)
        mp.setattr(flows, "_StageHistory", Recorded)
        run()
    return residuals, len(calls), [h.orders for h in histories]


def benchmark_hkappa_input(grid, seed=0):
    """The initial data of the hkappa_evolve benchmark workload (variant ``seed``):
    |qhat(j)| ~ (1 + |j|)^-2 with random phases, real, scaled to radius 0.1."""
    k, length = grid.cutoff, grid.length
    js = np.arange(-k, k + 1)
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)) / (1.0 + abs(js)) ** 2
    c = 0.5 * (c + np.conj(c[::-1]))
    c[k] = c[k].real
    size = math.sqrt(length * float(np.sum(abs(c) ** 2 / (1.0 + (js / length) ** 2))))
    return make_field(grid, coeffs=c * (0.1 / size))


def hkappa_evolve_input(seed=0):
    """The hkappa_evolve benchmark's input (variant ``seed``) and its flow at kappa = 4."""
    grid = TorusGrid.make(2 * math.pi, greens.RICCATI_MIN_CUTOFF)
    return benchmark_hkappa_input(grid, seed), HamiltonianSpec.hkappa(4.0)


CUT_BAND = MultiplierSpec.band(0.125, 2.0)


def cut_circle_input():
    """The shape of cut_compare's circle flow: the band-projected prototype on
    L = 32, K = 128, and its flow at kappa = 1 over the band [1/8, 2]."""
    grid = TorusGrid.make(32.0, 128)
    q0 = lp_project(periodized_field(prototype_callable(
        {"kind": "gauss_prime", "width": 1.0, "amplitude": 0.1}), grid), CUT_BAND)
    return q0, HamiltonianSpec.hkappa_band(1.0, 0.125, 2.0)


def cut_compare_input(seed):
    """The cut_compare benchmark's circle data and cut plan (variant ``seed``):
    the prototype's amplitude and centre drawn as the benchmark draws them."""
    rng = np.random.default_rng(1000 + seed)
    prototype = {"kind": "gauss_prime", "width": 1.0,
                 "amplitude": float(rng.uniform(0.08, 0.12)),
                 "center": float(rng.uniform(-0.5, 0.5))}
    grid = TorusGrid.make(32.0, 128, 1024)
    u0 = lp_project(periodized_field(prototype_callable(prototype), grid), CUT_BAND)
    return u0, select_cut(u0, build_partition(grid.length, 64))


def _per_step(run):
    """((steps, 4) residuals of each stage solve, final stage orders, np.fft calls
    of greens per stage solve) of a run that computes no monitor, so that every
    transform belongs to a stage solve or its read-out of g."""
    residuals, transforms, orders = stage_census(run)
    return np.reshape(residuals, (-1, 4)), orders, transforms / len(residuals)


def hkappa_census(seed):
    """``_per_step`` of hkappa_evolve variant ``seed``."""
    q0, ham = hkappa_evolve_input(seed)
    spec = FlowSpec(ham, dt=1e-3, T=HKAPPA_STEPS * 1e-3, saves=1)
    return _per_step(lambda: evolve(q0, spec))


def cut_circle_census():
    """``_per_step`` of the cut_compare circle flow."""
    q0, ham = cut_circle_input()
    spec = FlowSpec(ham, dt=1e-3, T=CUT_STEPS * 1e-3, saves=1)
    return _per_step(lambda: evolve(q0, spec))


def cut_compare_census(seed):
    """(the residuals of all stage solves of one cut_compare run, variant
    ``seed``, the final stage orders of its circle and line flows)."""
    u0, plan = cut_compare_input(seed)
    residuals, _, orders = stage_census(
        lambda: compare_local(u0, plan, 1.0, CUT_BAND, T=CUT_STEPS * 1e-3, dt=1e-3, saves=2))
    return sum(residuals), orders


def _row(label, per_step, orders, transforms):
    stages = " ".join(f"{v:6.3f}" for v in per_step.mean(axis=0))
    return f"{label:<17} {stages}   {per_step.mean():6.3f}   {transforms:6.3f}   {orders[0]}"


def main():
    print(f"{'residuals/solve':<17}      a      b      c      d     all   np.fft   orders a-d")
    means, transforms = [], []
    for seed in range(VARIANTS):
        per_step, orders, per_solve = hkappa_census(seed)
        means.append(per_step.mean())
        transforms.append(per_solve)
        print(_row(f"hkappa_evolve {seed}", per_step, orders, per_solve))
    print(f"hkappa_evolve: {np.mean(means):.4f} residuals and {np.mean(transforms):.4f} np.fft "
          f"calls per solve over {VARIANTS} variants, {sum(m <= 1.05 for m in means)} of them "
          "at <= 1.05 residuals")
    print(_row("cut_circle", *cut_circle_census()))
    runs = [cut_compare_census(seed)[0] for seed in range(VARIANTS)]
    print("cut_compare residuals per run:", " ".join(map(str, runs)))
    print(f"cut_compare: {np.mean(runs):.2f} per run over {VARIANTS} variants")


if __name__ == "__main__":
    main()
