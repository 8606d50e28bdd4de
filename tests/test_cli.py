"""CLI subcommands: config parsing, outputs, manifests, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from kdvlab.cli import main
from kdvlab.reporting import sha256_digest


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


def test_cli_import_leaves_out_scipy_signal():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = ("import sys, kdvlab.cli; "
            "print(*(m for m in ('scipy.signal', 'scipy.fft', 'scipy.special') "
            "if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "", run.stdout + run.stderr


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
