"""CLI subcommands: config parsing, outputs, manifests, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from kdvlab import FlowSpec, HamiltonianSpec, compare_flows, flows
from kdvlab.cli import main
from kdvlab.reporting import sha256_digest, write_csv
from kdvlab.squeeze import band_from_config, field_from_config, grid_from_config


def run_cli(tmp_path, name, cfg, out="out"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    code = main([name, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, out_dir


GRID = {"length": 6.283185307179586, "cutoff": 24}
MODES = {"modes": [{"j": 1, "re": 0.02}, {"j": -1, "re": 0.02},
                   {"j": 2, "im": 0.01}, {"j": -2, "im": -0.01}]}


def test_evolve_writes_trajectory_and_monitors(tmp_path):
    cfg = {
        "grid": GRID,
        "initial": MODES,
        "flow": {"kind": "kdv"},
        "time": {"dt": 1e-3, "T": 0.02, "saves": 2},
        "probes": [2.0],
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    mon = (out / "monitors.csv").read_text().splitlines()
    assert "alpha(2)" in mon[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"trajectory.csv", "monitors.csv"}


def test_hkappa_evolve_repeats_byte_identically_in_one_process(tmp_path):
    # K = 64 takes the warm-started Riccati route: no warm start may leak from
    # one run into the next
    cfg = {
        "grid": {"length": 6.283185307179586, "cutoff": 64},
        "initial": MODES,
        "flow": {"kind": "hkappa", "kappa": 4.0},
        "time": {"dt": 1e-3, "T": 0.004, "saves": 2},
    }
    outs = [run_cli(tmp_path, "evolve", cfg, out=tag) for tag in ("a", "b")]
    assert [code for code, _ in outs] == [0, 0]
    a, b = ((out / "trajectory.csv").read_bytes() for _, out in outs)
    assert a == b


EVOLVE = {
    "grid": GRID,
    "initial": MODES,
    "flow": {"kind": "kdv"},
    "time": {"dt": 1e-3, "T": 0.002, "saves": 1},
}


SCENARIO = {
    "grid": {"length": 16.0, "cutoff": 48},
    "band": {"m": 0.25, "M": 2.0},
    "center": {"kind": "gauss_prime", "width": 1.0, "amplitude": 0.05},
    "observable": {"kind": "gauss_bump", "width": 1.5, "amplitude": 1.0},
    "alpha": 0.01, "r": 0.02, "R": 0.04, "T": 0.7,
    "flow": {"kind": "kdv_linear"},
    "seed": 42,
}


@pytest.mark.parametrize("command, cfg, key", [
    ("evolve", dict(EVOLVE, initial={"modes": [{"re": 0.1}]}), '"j"'),
    ("evolve", {k: v for k, v in EVOLVE.items() if k != "time"}, "time"),
    ("evolve", dict(EVOLVE, time={"T": 0.01}), '"dt"'),
    ("squeeze", {"scenario": {k: v for k, v in SCENARIO.items() if k != "r"}}, '"r"'),
    ("squeeze", {"scenario": dict(SCENARIO, band={"m": 0.25})}, '"M"'),
    ("evolve", dict(EVOLVE, flow={"kind": "hkappa_band", "kappa": 4.0}), '"band"'),
], ids=["mode_without_j", "no_time_block", "time_without_dt", "scenario_without_r",
        "band_without_M", "hkappa_band_without_band"])
def test_missing_key_exit_code_2(tmp_path, capsys, command, cfg, key):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and key in err


def test_greens_and_alpha_tables(tmp_path):
    cfg = {"grid": GRID, "initial": MODES, "kappas": [2.0, 4.0]}
    code, out = run_cli(tmp_path, "greens", cfg)
    assert code == 0
    assert (out / "green_diagonal.csv").exists()
    code, out = run_cli(tmp_path, "alpha", cfg, out="out2")
    assert code == 0
    lines = (out / "alpha.csv").read_text().splitlines()
    assert lines[0] == "kappa,alpha,hs_norm"
    assert len(lines) == 3


def test_sweep_kappa(tmp_path):
    cfg = {
        "grid": GRID,
        "initial": MODES,
        "time": {"dt": 2e-3, "T": 0.05, "saves": 2},
        "kappas": [2.0, 4.0],
    }
    code, out = run_cli(tmp_path, "sweep-kappa", cfg)
    assert code == 0
    lines = (out / "kappa_sweep.csv").read_text().splitlines()
    assert lines[0] == "kappa,sup_error"
    assert len(lines) == 3


def test_sweep_band(tmp_path):
    cfg = {
        "grid": {"length": 16.0, "cutoff": 48},
        "initial": {"modes": [{"j": 20, "re": 0.01}, {"j": -20, "re": 0.01}]},
        "flow": {"kind": "hkappa", "kappa": 2.0},
        "time": {"dt": 5e-3, "T": 0.05, "saves": 2},
        "bands": [{"m": 0.25, "M": 2.0}],
    }
    code, out = run_cli(tmp_path, "sweep-band", cfg)
    assert code == 0
    lines = (out / "band_sweep.csv").read_text().splitlines()
    assert lines[0] == "m,M,sup_error,rate,ratio"


def test_sweep_band_evolves_the_full_flow_once(tmp_path, monkeypatch):
    cfg = {
        "grid": {"length": 16.0, "cutoff": 48},
        "initial": {"modes": [{"j": 20, "re": 0.01}, {"j": -20, "re": 0.01}]},
        "flow": {"kind": "hkappa", "kappa": 2.0},
        "time": {"dt": 5e-3, "T": 0.05, "saves": 2},
        "bands": [{"m": 0.25, "M": 2.0}, {"m": 0.5, "M": 2.0}, {"m": 0.25, "M": 4.0}],
    }
    # the table as one compare_flows pair per band evolves it
    q0 = field_from_config(cfg["initial"], grid_from_config(cfg["grid"]))
    full = FlowSpec(HamiltonianSpec.hkappa(2.0), dt=5e-3, T=0.05, saves=2)
    rows = []
    for band in map(band_from_config, cfg["bands"]):
        banded = FlowSpec(HamiltonianSpec.hkappa_band(2.0, band.N, band.M), dt=5e-3,
                          T=0.05, saves=2)
        sup = float(max(compare_flows(q0, q0, banded, full)[1]))
        rate = band.N ** 0.5 + band.M ** (-0.5)
        rows.append([band.N, band.M, sup, rate, sup / rate])
    expected = write_csv(tmp_path / "expected.csv", ["m", "M", "sup_error", "rate", "ratio"],
                         rows)

    calls = []
    original = flows._lawson_rk4

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(flows, "_lawson_rk4", counted)
    code, out = run_cli(tmp_path, "sweep-band", cfg)
    assert code == 0
    assert len(calls) == len(cfg["bands"]) + 1
    assert (out / "band_sweep.csv").read_bytes() == expected.read_bytes()


def test_cutcompare(tmp_path):
    cfg = {
        "grid": {"length": 16.0, "cutoff": 64, "samples": 512},
        "initial": {"prototype": {"kind": "gauss_prime", "width": 1.0,
                                  "amplitude": 0.1}},
        "partition": {"N": 32},
        "band": {"m": 0.25, "M": 2.0},
        "flow": {"kappa": 1.0},
        "time": {"dt": 2e-3, "T": 0.01, "saves": 1},
    }
    code, out = run_cli(tmp_path, "cutcompare", cfg)
    assert code == 0
    plan = json.loads((out / "cutplan.json").read_text())
    assert plan["case"] in ("single", "pair-left", "pair-right")
    assert (out / "cut_error.csv").exists()


def test_squeeze_linear(tmp_path):
    cfg = {"scenario": SCENARIO, "search": {"starts": 8, "rounds": 0}}
    code, out = run_cli(tmp_path, "squeeze", cfg)
    assert code == 0
    lines = (out / "squeeze.csv").read_text().splitlines()
    assert lines[0] == "r,R,best_value,exceeds_r,evaluations"


def test_area_linear(tmp_path):
    cfg = {"scenario": SCENARIO, "area": {"resolution": 128}}
    code, out = run_cli(tmp_path, "area", cfg)
    assert code == 0
    assert (out / "area.csv").exists()


def test_area_refuses_default_resolution_on_nonlinear_flow(tmp_path, monkeypatch, capsys):
    # resolution 512 asks for 1 + 257 * 1609 = 413,514 evolved slice samples
    def never(*args, **kwargs):
        raise AssertionError("evolve_batch must not run")

    monkeypatch.setattr("kdvlab.squeeze.evolve_batch", never)
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"})}
    code, out = run_cli(tmp_path, "area", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "413514" in err and "resolution=512" in err
    assert not (out / "area.csv").exists()


def test_report_collects_digests(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("x\n1.0\n")
    cfg = {"files": [str(f)]}
    code, out = run_cli(tmp_path, "report", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]["data.csv"] == sha256_digest(f)


def test_precondition_failure_exit_code_2(tmp_path):
    bad = dict(SCENARIO, r=0.05, R=0.04)
    cfg = {"scenario": bad}
    code, _ = run_cli(tmp_path, "squeeze", cfg)
    assert code == 2


@pytest.mark.parametrize("j", [-9, 9])
def test_out_of_range_mode_exit_code_2(tmp_path, j, capsys):
    cfg = {
        "grid": {"length": 6.283185307179586, "cutoff": 8},
        "initial": {"modes": [{"j": j, "re": 0.01}]},
        "flow": {"kind": "kdv"},
        "time": {"dt": 1e-3, "T": 0.002, "saves": 1},
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 2
    assert f"mode {j} beyond cutoff 8" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_out_of_range_scenario_center_exit_code_2(tmp_path):
    center = {"modes": [{"j": 49, "re": 0.01}, {"j": -49, "re": 0.01}]}
    code, _ = run_cli(tmp_path, "squeeze", {"scenario": dict(SCENARIO, center=center)})
    assert code == 2


def test_certification_failure_exit_code_3(tmp_path):
    cfg = {
        "grid": {"length": 1.0, "cutoff": 24},
        "initial": {"modes": [{"j": 1, "re": 40.0}, {"j": -1, "re": 40.0}]},
        "flow": {"kind": "kdv"},
        "time": {"dt": 0.05, "T": 0.5, "saves": 1},
    }
    code, _ = run_cli(tmp_path, "evolve", cfg)
    assert code == 3



# q = -4.5 + 0.02 cos x: -d^2 + q + kappa^2 is not positive at kappa = 2
NON_POSITIVE = {"modes": [{"j": 0, "re": -4.5}, {"j": 1, "re": 0.01}, {"j": -1, "re": 0.01}]}


def test_uncertified_dense_resolvent_exit_code_3(tmp_path, capsys):
    # at K = 12 (< K*) I + B needs the LU fallback, which certifies nothing
    cfg = {
        "grid": {"length": 6.283185307179586, "cutoff": 12},
        "initial": NON_POSITIVE,
        "flow": {"kind": "hkappa", "kappa": 2.0},
        "time": {"dt": 1e-4, "T": 3e-4, "saves": 1},
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 3
    assert "not positive definite" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("cutoff", [12, 64])
def test_greens_refuses_a_non_positive_operator(tmp_path, capsys, cutoff):
    # below K* = 64 the dense I + B falls back to LU; at K* Newton finds no branch
    cfg = {"grid": {"length": 6.283185307179586, "cutoff": cutoff},
           "initial": NON_POSITIVE, "kappas": [2.0]}
    code, out = run_cli(tmp_path, "greens", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical certification failure:")
    assert not (out / "green_diagonal.csv").exists()


def test_manifest_records_the_radius_and_repeats_byte_identically(tmp_path):
    manifests = []
    for tag in ("a", "b"):
        code, out = run_cli(tmp_path, "evolve", EVOLVE, out=tag)
        assert code == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert json.loads(manifests[0])["budgets"] == {"delta0": 0.85}
    assert manifests[0] == manifests[1]


# q = 6 cos x: ||q||_{H^-1} ~ 10, far outside the HM1_RADIUS ball, while
# -d^2 + q + kappa^2 stays positive at kappa = 4
OUTSIDE_BALL = {"modes": [{"j": 1, "re": 3.0}, {"j": -1, "re": 3.0}]}


def test_evolve_outside_the_ball_writes_its_artifacts_and_exits_3(tmp_path, capsys):
    cfg = {"grid": {"length": 6.283185307179586, "cutoff": 12}, "initial": OUTSIDE_BALL,
           "flow": {"kind": "hkappa", "kappa": 4.0}, "time": {"dt": 1e-4, "T": 2e-4, "saves": 1}}
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 3
    assert "smallness budget" in capsys.readouterr().err
    assert (out / "trajectory.csv").exists() and (out / "monitors.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is False
    assert len(manifest["warnings"]) == 1 and "exceeded" in manifest["warnings"][0]
    assert set(manifest["outputs"]) == {"trajectory.csv", "monitors.csv"}


def test_certified_evolve_exits_0_and_says_so(tmp_path):
    code, out = run_cli(tmp_path, "evolve", dict(EVOLVE, flow={"kind": "hkappa", "kappa": 2.0}))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is True and manifest["warnings"] == []


@pytest.mark.parametrize("search", [{"dt": -1.0}, {"starts": -5}, {"rounds": -3},
                                    {"step": -1.0}],
                         ids=["negative_dt", "negative_starts", "negative_rounds",
                              "negative_step"])
def test_out_of_domain_search_budget_exit_code_2(tmp_path, capsys, monkeypatch, search):
    def never(*args, **kwargs):
        raise AssertionError("evolve_batch must not run")

    monkeypatch.setattr("kdvlab.squeeze.evolve_batch", never)
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"}), "search": search}
    code, out = run_cli(tmp_path, "squeeze", cfg)
    assert code == 2
    assert "search budget" in capsys.readouterr().err
    assert not (out / "squeeze.csv").exists()


def test_squeeze_repeats_byte_identically(tmp_path):
    # a KdV search: the starts and each ascent round are one evolve batch
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"}, T=0.05,
                            grid={"length": 16.0, "cutoff": 24}),
           "search": {"starts": 4, "rounds": 1, "directions": 2, "dt": 5e-3}}
    digests = []
    for tag in ("a", "b"):
        code, out = run_cli(tmp_path, "squeeze", cfg, out=tag)
        assert code == 0
        digests.append(json.loads((out / "manifest.json").read_text())["outputs"]["squeeze.csv"])
    assert digests[0] == digests[1]


def test_cli_import_leaves_out_scipy_signal():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = ("import sys, kdvlab.cli; "
            "print(*(m for m in ('scipy.signal', 'scipy.fft', 'scipy.special') "
            "if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "", run.stdout + run.stderr


LAZY_LAPACK = """
import json, sys
import kdvlab.cli
from kdvlab import (FlowSpec, HamiltonianSpec, TorusGrid, assemble_resolvent, evolve,
                    field_from_modes, green_diagonal)
modes = [(1, 0.02), (-1, 0.02), (2, 0.01j), (-2, -0.01j)]
loaded = ["scipy.linalg" in sys.modules]
for k, ham in ((32, HamiltonianSpec.kdv()), (64, HamiltonianSpec.hkappa(2.0))):
    evolve(field_from_modes(TorusGrid.make(6.0, k), modes), FlowSpec(ham, dt=1e-3, T=2e-3))
    loaded.append("scipy.linalg" in sys.modules)
q = field_from_modes(TorusGrid.make(6.0, 12), modes)
g = green_diagonal(assemble_resolvent(q, 2.0)).g
loaded.append("scipy.linalg" in sys.modules)
print(json.dumps({"loaded": loaded, "g": g.coeffs.view(float).tolist()}))
"""


def test_scipy_linalg_loads_only_on_the_dense_route():
    from kdvlab import TorusGrid, assemble_resolvent, field_from_modes, green_diagonal

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", LAZY_LAPACK], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    # import, KdV evolve at K = 32, H_kappa evolve at K = 64, dense g at K = 12
    assert out["loaded"] == [False, False, False, True]
    q = field_from_modes(TorusGrid.make(6.0, 12), [(1, 0.02), (-1, 0.02), (2, 0.01j),
                                                   (-2, -0.01j)])
    g = green_diagonal(assemble_resolvent(q, 2.0)).g
    assert g.coeffs.view(float).tolist() == out["g"]


@pytest.mark.parametrize("command, cfg, key", [
    ("evolve", dict(EVOLVE, time={"dt": "0.001", "T": 0.002}), '"dt"'),
    ("squeeze", {"scenario": SCENARIO, "search": {"starts": "16"}}, '"starts"'),
    ("squeeze", {"scenario": SCENARIO, "search": {"start": 16}}, '"start"'),
    ("area", {"scenario": SCENARIO, "area": {"resolution": 64.0}}, '"resolution"'),
    ("evolve", dict(EVOLVE, grid=dict(GRID, cutoff=True)), '"cutoff"'),
    ("evolve", dict(EVOLVE, initial={"modes": [{"j": 1, "re": "0.1"}]}), '"re"'),
    ("evolve", dict(EVOLVE, flow={"kind": "hkappa", "kappa": "4"}), '"kappa"'),
    ("squeeze", {"scenario": dict(SCENARIO, radius=0.04)}, '"radius"'),
    ("squeeze", {"scenario": dict(SCENARIO, center=dict(SCENARIO["center"], widht=1.0))},
     '"widht"'),
    ("evolve", dict(EVOLVE, probe=[2.0]), '"probe"'),
    ("evolve", dict(EVOLVE, initial=dict(MODES, mode=[])), '"mode"'),
], ids=["string_dt", "string_search_starts", "unknown_search_key", "float_resolution",
        "bool_cutoff", "string_mode_amplitude", "string_kappa", "unknown_scenario_key",
        "unknown_prototype_key", "unknown_top_level_key", "unknown_initial_key"])
def test_wrong_type_or_unknown_key_exit_code_2(tmp_path, capsys, command, cfg, key):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and key in err


def test_empty_search_block_gives_default_budget(tmp_path, monkeypatch):
    from kdvlab import cli
    from kdvlab.squeeze import SearchBudget, escape_search

    seen = []

    def record(scenario, budget):
        seen.append(budget)
        return escape_search(scenario, SearchBudget(starts=1, rounds=0))

    monkeypatch.setattr(cli, "escape_search", record)
    code, _ = run_cli(tmp_path, "squeeze", {"scenario": SCENARIO, "search": {}})
    assert code == 0
    assert seen == [SearchBudget()]
