"""Tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest -q bench/tests
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_emitted_names_are_declared(declared):
    e2e, layers, workloads = declared
    assert run.END_TO_END == e2e
    assert run.per_layer_units() == layers
    assert sorted(workloads) == sorted(run.wl.WORKLOADS)
    for name in [*e2e, *layers, *workloads]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _bindings():
    import kdvlab
    import kdvlab.cli  # noqa: F401  (not imported by the package itself)
    from kdvlab.greens import ResolventContext

    mods = [m for n, m in sys.modules.items() if n.startswith("kdvlab") and m is not None]
    snap = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    snap[(id(ResolventContext), "inv_ib")] = ResolventContext.__dict__["inv_ib"]
    return kdvlab, snap


def _tiny_evolve(tmp_path, tag):
    from kdvlab.cli import main

    cfg = {"grid": {"length": 6.283185307179586, "cutoff": 12},
           "initial": {"modes": [{"j": 1, "re": 0.02}, {"j": -1, "re": 0.02}]},
           "flow": {"kind": "hkappa", "kappa": 2.0},
           "time": {"dt": 1e-3, "T": 0.003, "saves": 3}, "probes": [2.0]}
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / tag)]) == 0


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    kdvlab, before = _bindings()
    from kdvlab import cli, flows, greens

    tracer = Tracer()
    tracer.install()
    try:
        assert flows.green_diagonal is not before[(id(greens), "green_diagonal")]
        assert cli.evolve is not before[(id(flows), "evolve")]
        assert kdvlab.evolve is cli.evolve
        _tiny_evolve(tmp_path, "a")
    finally:
        assert tracer.remove()
    _, after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = layer_totals(tracer.arrays())
    assert totals["cli.main"][0] == 1
    assert totals["greens.inv_ib"][0] == totals["flows.rhs"][0] == 12


def test_counts_repeat_across_traced_runs(tmp_path):
    counts = []
    for tag in ("a", "b"):
        tracer = Tracer()
        tracer.install()
        try:
            _tiny_evolve(tmp_path, tag)
        finally:
            tracer.remove()
        counts.append({k: v[0] for k, v in layer_totals(tracer.arrays()).items()})
    assert counts[0] == counts[1]


def test_self_time_subtracts_children():
    spans = {"labels": np.array(["a", "b"]), "name_idx": np.array([0, 1, 1]),
             "start": np.array([0.0, 1.0, 3.0]), "end": np.array([10.0, 2.0, 5.0]),
             "parent": np.array([-1, 0, 0])}
    totals = layer_totals(spans)
    assert totals["a"] == (1, pytest.approx(7.0))
    assert totals["b"] == (2, pytest.approx(3.0))


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_declared_metrics(declared, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "kdv_escape",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = declared[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        m = result["metrics"]
        assert m["greens.inv_ib.calls"]["value"] == 0
        assert m["squeeze.evolved_pairing.calls"]["value"] == 50
