"""CLI subcommands: config parsing, outputs, manifests, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from kdvlab import FlowSpec, HamiltonianSpec, flows, squeeze
from kdvlab.cli import main
from kdvlab.reporting import sha256_digest, write_csv
from kdvlab.squeeze import band_from_config, field_from_config, grid_from_config

from oracles import compare_flows


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


def test_evolve_refuses_a_bad_probe_before_it_evolves(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(flows, "_lawson_rk4", lambda *args: calls.append(args))
    cfg = {
        "grid": {"length": 6.283185307179586, "cutoff": 64},
        "initial": MODES,
        "flow": {"kind": "hkappa", "kappa": 4.0},
        "time": {"dt": 1e-3, "T": 0.2, "saves": 20},
        "probes": [2.0, 0.5],
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 2
    assert calls == []
    assert not list(out.glob("*.csv"))


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


SWEEP_KAPPA = {
    "grid": GRID,
    "initial": MODES,
    "time": {"dt": 2e-3, "T": 0.05, "saves": 2},
    "kappas": [2.0, 4.0],
}


def count_evolves(monkeypatch):
    """The argument tuples of every ``flows._lawson_rk4`` call from now on."""
    calls = []
    original = flows._lawson_rk4

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(flows, "_lawson_rk4", counted)
    return calls


def test_sweep_kappa(tmp_path):
    code, out = run_cli(tmp_path, "sweep-kappa", SWEEP_KAPPA)
    assert code == 0
    lines = (out / "kappa_sweep.csv").read_text().splitlines()
    assert lines[0] == "kappa,sup_error"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is True and manifest["warnings"] == []


# modes j = +-1 of size 0.3 on the circle of length 2 pi: ||q0||_{H^-1} ~ 1.05,
# outside the HM1_RADIUS ball from the start
LARGE_MODES = {"modes": [{"j": 1, "re": 0.3}, {"j": -1, "re": 0.3}]}


def test_sweep_kappa_writes_one_row_per_distinct_kappa(tmp_path, monkeypatch):
    # a repeated kappa is evolved again, and its row is written once
    cfg = dict(SWEEP_KAPPA, kappas=[4.0, 2.0, 2.0])
    q0 = field_from_config(cfg["initial"], grid_from_config(cfg["grid"]))
    kdv = FlowSpec(HamiltonianSpec.kdv(), dt=2e-3, T=0.05, saves=2)
    rows = [[kap, float(max(compare_flows(
        q0, q0, kdv, FlowSpec(HamiltonianSpec.hkappa(kap), dt=2e-3, T=0.05, saves=2))[1]))]
        for kap in (2.0, 4.0)]
    expected = write_csv(tmp_path / "expected.csv", ["kappa", "sup_error"], rows)
    calls = count_evolves(monkeypatch)
    code, out = run_cli(tmp_path, "sweep-kappa", cfg)
    assert code == 0
    assert len(calls) == 1 + len(cfg["kappas"])
    assert (out / "kappa_sweep.csv").read_bytes() == expected.read_bytes()


def test_uncertified_sweep_kappa_exit_code_3(tmp_path, capsys):
    cfg = {"grid": GRID, "initial": LARGE_MODES, "time": {"dt": 2e-3, "T": 0.01, "saves": 1},
           "kappas": [2.0, 4.0]}
    code, out = run_cli(tmp_path, "sweep-kappa", cfg)
    assert code == 3
    assert "smallness budget" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    # one warning per H_kappa trajectory; the KdV reference is not budgeted
    assert manifest["certified"] is False and len(manifest["warnings"]) == 2
    assert set(manifest["outputs"]) == {"kappa_sweep.csv"}


def test_uncertified_sweep_band_exit_code_3(tmp_path, capsys):
    cfg = {"grid": GRID, "initial": LARGE_MODES, "flow": {"kind": "hkappa", "kappa": 2.0},
           "time": {"dt": 2e-3, "T": 0.01, "saves": 1}, "bands": [{"m": 0.25, "M": 4.0}]}
    code, out = run_cli(tmp_path, "sweep-band", cfg)
    assert code == 3
    assert "smallness budget" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    # the full flow, then the band flow
    assert manifest["certified"] is False and len(manifest["warnings"]) == 2
    assert set(manifest["outputs"]) == {"band_sweep.csv"}


SWEEP_BAND = {
    "grid": {"length": 16.0, "cutoff": 48},
    "initial": {"modes": [{"j": 20, "re": 0.01}, {"j": -20, "re": 0.01}]},
    "flow": {"kind": "hkappa", "kappa": 2.0},
    "time": {"dt": 5e-3, "T": 0.05, "saves": 2},
    "bands": [{"m": 0.25, "M": 2.0}],
}


def test_sweep_band(tmp_path):
    code, out = run_cli(tmp_path, "sweep-band", SWEEP_BAND)
    assert code == 0
    lines = (out / "band_sweep.csv").read_text().splitlines()
    assert lines[0] == "m,M,sup_error,rate,ratio"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is True and manifest["warnings"] == []


def test_sweep_band_evolves_the_full_flow_once(tmp_path, monkeypatch):
    cfg = dict(SWEEP_BAND, bands=[{"m": 0.25, "M": 2.0}, {"m": 0.5, "M": 2.0},
                                  {"m": 0.25, "M": 4.0}])
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
    calls = count_evolves(monkeypatch)
    code, out = run_cli(tmp_path, "sweep-band", cfg)
    assert code == 0
    assert len(calls) == len(cfg["bands"]) + 1
    assert (out / "band_sweep.csv").read_bytes() == expected.read_bytes()


def test_sweep_band_refuses_a_bad_band_before_it_evolves(tmp_path, capsys, monkeypatch):
    # m = 0.3 is not a power of two: the whole list is read before the first evolve
    cfg = dict(SWEEP_BAND, bands=[{"m": 0.25, "M": 2.0}, {"m": 0.3, "M": 2.0}])
    calls = count_evolves(monkeypatch)
    code, out = run_cli(tmp_path, "sweep-band", cfg)
    assert code == 2
    assert calls == []
    assert "power of two" in capsys.readouterr().err
    assert not out.exists()


CUTCOMPARE = {
    "grid": {"length": 16.0, "cutoff": 64, "samples": 512},
    "initial": {"prototype": {"kind": "gauss_prime", "width": 1.0,
                              "amplitude": 0.1}},
    "partition": {"N": 32},
    "band": {"m": 0.25, "M": 2.0},
    "flow": {"kappa": 1.0},
    "time": {"dt": 2e-3, "T": 0.01, "saves": 1},
}


def test_cutcompare(tmp_path):
    code, out = run_cli(tmp_path, "cutcompare", CUTCOMPARE)
    assert code == 0
    plan = json.loads((out / "cutplan.json").read_text())
    assert plan["case"] in ("single", "pair-left", "pair-right")
    assert (out / "cut_error.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is True and manifest["warnings"] == []


def test_uncertified_cutcompare_exit_code_3(tmp_path, capsys):
    # the benchmark's cut_compare config (variant 0) at 30x its amplitude: both
    # trajectories start outside the HM1_RADIUS ball
    cfg = {
        "grid": {"length": 32.0, "cutoff": 128, "samples": 1024},
        "initial": {"prototype": {"kind": "gauss_prime", "width": 1.0, "amplitude": 3.0,
                                  "center": 0.10384184700632959}},
        "partition": {"N": 64},
        "band": {"m": 0.125, "M": 2.0},
        "flow": {"kappa": 1.0},
        "time": {"dt": 1e-3, "T": 0.02, "saves": 2},
    }
    code, out = run_cli(tmp_path, "cutcompare", cfg)
    assert code == 3
    assert "smallness budget" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is False and len(manifest["warnings"]) == 2
    assert set(manifest["outputs"]) == {"cut_error.csv", "cutplan.json"}


def test_squeeze_linear(tmp_path):
    cfg = {"scenario": SCENARIO, "search": {"starts": 8, "rounds": 0}}
    code, out = run_cli(tmp_path, "squeeze", cfg)
    assert code == 0
    header, row = (out / "squeeze.csv").read_text().splitlines()
    assert header == "r,R,best_value,exceeds_r,evaluations,linear_value"
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["linear_value"] == squeeze.linear_oracle(squeeze.build_scenario(SCENARIO))
    assert 0 <= values["linear_value"] - values["best_value"] <= 1e-3 * SCENARIO["R"]


def test_area_linear(tmp_path):
    cfg = {"scenario": SCENARIO, "area": {"dt": 1e-3}}
    code, out = run_cli(tmp_path, "area", cfg)
    assert code == 0
    header, row = (out / "area.csv").read_text().splitlines()
    assert header == "R,area,pi_R_sq,ratio,points"
    assert abs(float(row.split(",")[3]) - 1.0) <= 1e-12


def test_area_runs_kdv_at_defaults_in_one_batch(tmp_path, monkeypatch):
    sizes = []
    original = squeeze.evolve_batch

    def counted(q0s, spec):
        sizes.append(len(q0s))
        return original(q0s, spec)

    monkeypatch.setattr(squeeze, "evolve_batch", counted)
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"})}
    code, out = run_cli(tmp_path, "area", cfg)
    assert code == 0
    assert sizes == [squeeze.LOOP_POINTS]
    assert (out / "area.csv").exists()


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
    assert not out.exists()


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


@pytest.mark.parametrize("cutoff", [12, 64])
def test_stage_blow_up_exit_code_3(tmp_path, capsys, cutoff):
    # kappa = 1e60: a stage input of the first step overflows, on either route of g
    cfg = dict(EVOLVE, grid=dict(GRID, cutoff=cutoff), flow={"kind": "hkappa", "kappa": 1e60})
    with pytest.warns(RuntimeWarning):
        code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical certification failure:") and "stage input" in err
    assert not out.exists()


def test_uncertified_dense_resolvent_exit_code_3(tmp_path, capsys):
    # at K = 12 (< K*) the dense route's Cholesky of I + B fails
    cfg = {
        "grid": {"length": 6.283185307179586, "cutoff": 12},
        "initial": NON_POSITIVE,
        "flow": {"kind": "hkappa", "kappa": 2.0},
        "time": {"dt": 1e-4, "T": 3e-4, "saves": 1},
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 3
    assert "not positive definite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cutoff", [12, 64])
def test_greens_refuses_a_non_positive_operator(tmp_path, capsys, cutoff):
    # below K* = 64 Cholesky of the dense I + B fails; at K* Newton finds no branch
    cfg = {"grid": {"length": 6.283185307179586, "cutoff": cutoff},
           "initial": NON_POSITIVE, "kappas": [2.0]}
    code, out = run_cli(tmp_path, "greens", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical certification failure:")
    assert not out.exists()


def test_out_directory_is_made_at_the_first_write(tmp_path):
    # a nested --out that does not exist yet is made for the run's outputs
    code, out = run_cli(tmp_path, "evolve", EVOLVE, out="runs/a/b")
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "monitors.csv",
                                                     "trajectory.csv"]


def test_manifest_records_the_radius_and_repeats_byte_identically(tmp_path):
    manifests = []
    for tag in ("a", "b"):
        code, out = run_cli(tmp_path, "evolve", EVOLVE, out=tag)
        assert code == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert json.loads(manifests[0])["budgets"] == {"delta0": 0.85}
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command, cfg, artifacts", [
    ("evolve", dict(EVOLVE, probes=[2.0]), {"trajectory.csv", "monitors.csv"}),
    ("sweep-band", SWEEP_BAND, {"band_sweep.csv"}),
    ("sweep-kappa", SWEEP_KAPPA, {"kappa_sweep.csv"}),
], ids=["evolve", "sweep-band", "sweep-kappa"])
def test_reruns_into_one_out_byte_identically(tmp_path, command, cfg, artifacts):
    # a rerun unlinks each old file and creates it anew: with a hard link held
    # to each first-run file, its old inode cannot be reused by the rerun
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == artifacts | {"manifest.json"}
    held = tmp_path / "held"
    held.mkdir()
    for name in first:
        os.link(out / name, held / name)
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    outputs = json.loads(first["manifest.json"])["outputs"]
    assert outputs == {name: sha256_digest(out / name) for name in outputs}
    for name in first:
        assert (held / name).read_bytes() == first[name]
        assert os.stat(held / name).st_ino != os.stat(out / name).st_ino


def test_cutcompare_reruns_replace_every_artifact(tmp_path):
    # each first-run file is held by a hard link: a rerun that wrote one in
    # place would leave the link and the file one inode
    code, out = run_cli(tmp_path, "cutcompare", CUTCOMPARE)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["cut_error.csv", "cutplan.json", "manifest.json"]
    held = tmp_path / "held"
    held.mkdir()
    for name in names:
        os.link(out / name, held / name)
    code, _ = run_cli(tmp_path, "cutcompare", CUTCOMPARE)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == names
    digests = [json.loads((d / "manifest.json").read_text())["outputs"] for d in (held, out)]
    assert digests[0] == digests[1]
    for name in names:
        assert not os.path.samefile(held / name, out / name)
        assert (held / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("block, key, value", [("flow", "kappa", math.nan),
                                               ("time", "dt", math.nan),
                                               ("time", "T", math.inf),
                                               ("time", "dt", 1e-320),
                                               ("flow", "kappa", 1e100),
                                               ("time", "dt", 1e-300),
                                               ("time", "saves", 10 ** 400),
                                               ("grid", "cutoff", 10 ** 400)],
                         ids=["kappa-nan", "dt-nan", "T-inf", "T-over-dt-inf",
                              "kappa-to-the-5-inf", "T-over-dt-above-max-steps",
                              "saves-above-max-steps", "cutoff-above-max-samples"])
def test_non_finite_flow_parameter_exit_code_2(tmp_path, capsys, block, key, value):
    # json writes and reads these as NaN and Infinity; T/dt = 0.004/1e-320 and
    # 16 kappa^5 = 1.6e501 are beyond float range; T/dt = 4e297 steps, 10^400
    # saves and a cutoff of 10^400 are finite but beyond flows.MAX_STEPS and
    # spectral.MAX_SAMPLES, refused before any work (the cutoff's search for a
    # transform length would not end)
    cfg = {"grid": {"length": 6.283185307179586, "cutoff": 16}, "initial": MODES,
           "flow": {"kind": "hkappa", "kappa": 2.0},
           "time": {"dt": 1e-3, "T": 0.004, "saves": 1}}
    cfg[block] = dict(cfg[block], **{key: value})
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 2
    assert f"{key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["greens", "alpha"])
@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_non_finite_kappa_exit_code_2(tmp_path, capsys, command, kappa):
    cfg = {"grid": {"length": 6.283185307179586, "cutoff": 16}, "initial": MODES,
           "kappas": [kappa]}
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert "kappa must be finite" in capsys.readouterr().err
    assert not out.exists()


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
                                    {"step": -1.0}, {"step": math.inf}, {"dt": math.inf},
                                    {"starts": 10 ** 400}, {"rounds": 10 ** 400}],
                         ids=["negative_dt", "negative_starts", "negative_rounds",
                              "negative_step", "infinite_step", "infinite_dt",
                              "starts_above_max_steps", "rounds_above_max_steps"])
def test_out_of_domain_search_budget_exit_code_2(tmp_path, capsys, monkeypatch, search):
    # 10^400 starts would loop sample_ball for ever, and 10^400 rounds evolve a
    # batch per round for ever: both are refused with the count past flows.MAX_STEPS
    def never(*args, **kwargs):
        raise AssertionError("sample_ball and evolve_batch must not run")

    monkeypatch.setattr("kdvlab.squeeze.evolve_batch", never)
    monkeypatch.setattr("kdvlab.squeeze.sample_ball", never)
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"}), "search": search}
    code, out = run_cli(tmp_path, "squeeze", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "search budget" in err and next(iter(search)) in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [("squeeze", "alpha", math.nan),
                                                 ("squeeze", "R", math.inf),
                                                 ("squeeze", "r", math.nan),
                                                 ("area", "T", math.nan),
                                                 ("area", "T", -math.inf)],
                         ids=["alpha-nan", "R-inf", "r-nan", "T-nan", "T-minus-inf"])
def test_non_finite_scenario_field_exit_code_2(tmp_path, capsys, command, key, value):
    # json writes and reads these as NaN and Infinity
    cfg = {"scenario": dict(SCENARIO, flow={"kind": "kdv"}, **{key: value})}
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert f"scenario {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["squeeze", "area"])
@pytest.mark.parametrize("key, value", [("seed", -1), ("T", -0.2)], ids=["seed", "T"])
def test_negative_scenario_seed_or_time_exit_code_2(tmp_path, capsys, command, key, value):
    # on the linear flow, whose exact multiplier would run a negative T backwards
    cfg = {"scenario": dict(SCENARIO, **{key: value})}
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert f"scenario {key} must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


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


def run_script(script, *args):
    """The finished run of ``python -c script *args`` in a fresh process, with src
    first on its path."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True)


CLI_IMPORT = """
import json, sys
import kdvlab.cli
loaded = [m for m in ('scipy', 'scipy.signal', 'scipy.fft', 'scipy.special', 'kdvlab.bridge')
          if m in sys.modules]
from kdvlab import select_cut
import kdvlab.bridge
try:
    kdvlab.no_such_name
    unknown = 'resolved'
except AttributeError:
    unknown = 'AttributeError'
print(json.dumps({"loaded": loaded, "bridge_name": select_cut is kdvlab.bridge.select_cut,
                  "unknown": unknown}))
"""


def test_cli_import_leaves_out_scipy_and_bridge():
    run = run_script(CLI_IMPORT)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"loaded": [], "bridge_name": True,
                                      "unknown": "AttributeError"}


RUN_IMPORTS = """
import json, os, sys, tempfile
import kdvlab.cli
cfg = {"grid": {"length": 6.283185307179586, "cutoff": 64},
       "flow": {"kind": "hkappa", "kappa": 4.0},
       "initial": {"modes": [{"j": 1, "re": 0.02}, {"j": -1, "re": 0.02}]},
       "time": {"dt": 1e-3, "T": 2e-3}, "probes": [2.0, 4.0]}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    before = set(sys.modules)
    code = kdvlab.cli.main(["evolve", "--config", path, "--out", tmp])
    print(json.dumps({"code": code, "imported": sorted(set(sys.modules) - before)}))
"""


def test_cli_run_imports_nothing():
    # an H_kappa evolve at K = 64 makes its first transforms inside main: the
    # numpy.fft import belongs to the import of kdvlab, not to the run
    run = run_script(RUN_IMPORTS)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {"code": 0, "imported": []}


LAZY_LAPACK = """
import json, os, sys, tempfile
import kdvlab.cli
from kdvlab import (FlowSpec, HamiltonianSpec, TorusGrid, assemble_resolvent, evolve,
                    field_from_modes, green_diagonal)
modes = [(1, 0.02), (-1, 0.02), (2, 0.01j), (-2, -0.01j)]


def manifest_versions(k, flow):
    cfg = {"grid": {"length": 6.0, "cutoff": k}, "flow": flow,
           "initial": {"modes": [{"j": 1, "re": 0.02}, {"j": -1, "re": 0.02}]},
           "time": {"dt": 1e-3, "T": 2e-3}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert kdvlab.cli.main(["evolve", "--config", path, "--out", tmp]) == 0
        with open(os.path.join(tmp, "manifest.json")) as fh:
            return json.load(fh)["versions"]


loaded = ["scipy.linalg" in sys.modules]
kdv_versions = manifest_versions(32, {"kind": "kdv"})
for k, ham in ((32, HamiltonianSpec.kdv()), (64, HamiltonianSpec.hkappa(2.0))):
    evolve(field_from_modes(TorusGrid.make(6.0, k), modes), FlowSpec(ham, dt=1e-3, T=2e-3))
    loaded.append("scipy.linalg" in sys.modules)
q = field_from_modes(TorusGrid.make(6.0, 12), modes)
g = green_diagonal(assemble_resolvent(q, 2.0))
loaded.append("scipy.linalg" in sys.modules)
hkappa_versions = manifest_versions(12, {"kind": "hkappa", "kappa": 2.0})
print(json.dumps({"loaded": loaded, "g": g.coeffs.view(float).tolist(),
                  "kdv_versions": kdv_versions, "hkappa_versions": hkappa_versions,
                  "scipy": sys.modules["scipy"].__version__}))
"""


def test_scipy_linalg_loads_only_on_the_dense_route():
    from kdvlab import TorusGrid, assemble_resolvent, field_from_modes, green_diagonal

    run = run_script(LAZY_LAPACK)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    # import, KdV evolve at K = 32, H_kappa evolve at K = 64, dense g at K = 12
    assert out["loaded"] == [False, False, False, True]
    # a manifest lists scipy only once the dense route has loaded it
    assert "scipy" not in out["kdv_versions"]
    assert out["hkappa_versions"]["scipy"] == out["scipy"]
    q = field_from_modes(TorusGrid.make(6.0, 12), [(1, 0.02), (-1, 0.02), (2, 0.01j),
                                                   (-2, -0.01j)])
    g = green_diagonal(assemble_resolvent(q, 2.0))
    assert g.coeffs.view(float).tolist() == out["g"]


NO_NUMPY_RANDOM = """
import json, os, sys, tempfile
import kdvlab.cli
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for command in ("squeeze", "area"):
        path = os.path.join(tmp, command + ".json")
        with open(path, "w") as fh:
            json.dump({"scenario": json.loads(sys.argv[1])}, fh)
        codes.append(kdvlab.cli.main([command, "--config", path,
                                      "--out", os.path.join(tmp, command)]))
print(json.dumps({"codes": codes,
                  "numpy.random": sorted(m for m in sys.modules if m.startswith("numpy.random"))}))
"""


def test_squeeze_and_area_never_import_numpy_random():
    # the ball samples come from a standard-library stream: numpy.random's import
    # (11 modules) would cost a short squeeze run more than its sampling does
    run = run_script(NO_NUMPY_RANDOM, json.dumps(SCENARIO))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {"codes": [0, 0], "numpy.random": []}


@pytest.mark.parametrize("command, cfg, key", [
    ("evolve", dict(EVOLVE, time={"dt": "0.001", "T": 0.002}), '"dt"'),
    ("squeeze", {"scenario": SCENARIO, "search": {"starts": "16"}}, '"starts"'),
    ("squeeze", {"scenario": SCENARIO, "search": {"start": 16}}, '"start"'),
    ("area", {"scenario": SCENARIO, "area": {"dt": "0.001"}}, '"dt"'),
    ("evolve", dict(EVOLVE, grid=dict(GRID, cutoff=True)), '"cutoff"'),
    ("evolve", dict(EVOLVE, initial={"modes": [{"j": 1, "re": "0.1"}]}), '"re"'),
    ("evolve", dict(EVOLVE, flow={"kind": "hkappa", "kappa": "4"}), '"kappa"'),
    ("squeeze", {"scenario": dict(SCENARIO, radius=0.04)}, '"radius"'),
    ("squeeze", {"scenario": dict(SCENARIO, center=dict(SCENARIO["center"], widht=1.0))},
     '"widht"'),
    ("evolve", dict(EVOLVE, probe=[2.0]), '"probe"'),
    ("evolve", dict(EVOLVE, initial=dict(MODES, mode=[])), '"mode"'),
    ("evolve", dict(EVOLVE, time={"dt": 1e-3, "T": 10 ** 400}), '"T"'),
    ("evolve", dict(EVOLVE, grid=dict(GRID, length=10 ** 400)), '"length"'),
    ("evolve", dict(EVOLVE, flow={"kind": "hkappa", "kappa": 2.0, "band": SCENARIO["band"]}),
     '"band"'),
    ("evolve", dict(EVOLVE, flow={"kind": "kdv", "band": SCENARIO["band"]}), '"band"'),
    ("squeeze", {"scenario": dict(SCENARIO, flow={"kind": "kdv", "band": SCENARIO["band"]})},
     '"band"'),
    ("evolve", dict(EVOLVE, flow={"kind": "kdv", "kappa": 2.0}), '"kappa"'),
    ("evolve", dict(EVOLVE, flow={"kind": "kdv_linear", "kappa": 2.0}), '"kappa"'),
], ids=["string_dt", "string_search_starts", "unknown_search_key", "string_area_dt",
        "bool_cutoff", "string_mode_amplitude", "string_kappa", "unknown_scenario_key",
        "unknown_prototype_key", "unknown_top_level_key", "unknown_initial_key",
        "integer_T_beyond_float", "integer_length_beyond_float", "band_on_hkappa",
        "band_on_kdv", "band_on_scenario_kdv", "kappa_on_kdv", "kappa_on_kdv_linear"])
def test_wrong_type_or_unknown_key_exit_code_2(tmp_path, capsys, command, cfg, key):
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and key in err
    assert not out.exists()


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


def test_probes_sharing_a_monitor_column_exit_code_2(tmp_path, capsys):
    # alpha(2) would hold both 2.0 and 2.0000001, and one of them would be lost
    code, out = run_cli(tmp_path, "evolve", dict(EVOLVE, probes=[2.0, 2.0000001, 3.0]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and "2.0 " in err and "2.0000001" in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [("sweep-band", SWEEP_BAND),
                                          ("cutcompare", CUTCOMPARE)])
@pytest.mark.parametrize("flow, key", [
    ({"kind": "kdv", "kappa": 2.0}, '"kind"'),
    ({"kind": "hkappa_band", "kappa": 2.0}, '"kind"'),
    ({"kind": "hkappa", "kappa": 2.0, "band": {"m": 0.25, "M": 2.0}}, '"band"'),
], ids=["kdv", "hkappa_band", "band"])
def test_flow_block_other_than_hkappa_exit_code_2(tmp_path, capsys, command, cfg, flow, key):
    # these subcommands run H_kappa and set their own bands
    code, _ = run_cli(tmp_path, command, dict(cfg, flow=flow))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and key in err


@pytest.mark.parametrize("text", [None, '{"grid": ', "[1, 2]", "\udcff"],
                         ids=["missing_file", "malformed_json", "not_an_object", "not_text"])
def test_unreadable_config_exit_code_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and str(path) in err


@pytest.mark.parametrize("files, named", [("s", '"files"'), (["nope.csv"], "nope.csv"),
                                          ([3], '"files"')],
                         ids=["string", "missing_file", "not_a_path"])
def test_report_of_files_it_cannot_read_exit_code_2(tmp_path, capsys, monkeypatch, files, named):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(tmp_path, "report", {"files": files})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and named in err


GREENS = {"grid": GRID, "initial": MODES}


@pytest.mark.parametrize("command, cfg, named", [
    ("greens", dict(GREENS, grid=5), "grid block must be a JSON object"),
    ("greens", dict(GREENS, initial=3), "initial block must be a JSON object"),
    ("greens", dict(GREENS, initial={"modes": [5]}), "modes entry must be a JSON object"),
    ("greens", dict(GREENS, initial={"modes": {"j": 1}}), '"modes" must be a list'),
    ("greens", dict(GREENS, kappas=2.0), '"kappas" must be a list'),
    ("evolve", dict(EVOLVE, probes=2.0), '"probes" must be a list'),
    ("squeeze", {"scenario": []}, "scenario block must be a JSON object"),
    ("squeeze", {"scenario": SCENARIO, "search": []}, "search block must be a JSON object"),
    ("cutcompare", dict(CUTCOMPARE, partition=64), "partition block must be a JSON object"),
    ("sweep-band", dict(SWEEP_BAND, bands={"m": 0.25, "M": 2.0}), '"bands" must be a list'),
    ("evolve", dict(EVOLVE, flow=5), "flow block must be a JSON object"),
    ("squeeze", {"scenario": dict(SCENARIO, center=5)}, "prototype block must be a JSON object"),
    ("cutcompare", dict(CUTCOMPARE, box_cutoff=96), 'unknown key "box_cutoff"'),
], ids=["grid_number", "initial_number", "mode_entry_number", "modes_object",
        "kappas_number", "probes_number", "scenario_list", "search_list", "partition_number",
        "bands_object", "flow_number", "center_number", "retired_box_cutoff"])
def test_config_value_of_the_wrong_json_shape_exit_code_2(tmp_path, capsys, command, cfg,
                                                          named):
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and named in err
    assert not out.exists()
