"""Command-line interface.

Subcommands: evolve, greens, alpha, sweep-band, sweep-kappa, cutcompare,
squeeze, area, report.  All take a JSON config and an output directory,
made at the first output written, so a refused run leaves none behind;
outputs are CSV tables plus a manifest with sha256 digests.  Config blocks:

  grid     {length, cutoff K, samples (optional)}
  initial  {modes: [{j, re, im}, ...]} with |j| <= K and repeated j summed,
           or {prototype: {kind: gauss_prime | gauss_bump, width, amplitude,
           center}} periodized onto the grid
  flow     {kind: kdv | hkappa | hkappa_band | <kind>_linear (that flow's
           linearisation at q = 0: its kappa, band and linear_symbol), kappa (hkappa
           kinds only), band: {m, M} (hkappa_band(_linear) only)}; sweep-band and
           cutcompare take {kappa, kind: hkappa (optional)}, as they set the bands
  time     {dt, T, saves (optional)}

Other top-level keys: probes (evolve), kappas (greens, alpha, sweep-kappa),
bands (sweep-band), band, partition (cutcompare), files (report).

squeeze and area take a scenario block instead (see squeeze.build_scenario),
and each an optional block whose keys are all optional; a key left out takes
the default of squeeze.SearchBudget or squeeze.image_area:

  search   (squeeze) {starts: seeded ball samples (2 informed starts are
           added; all evolved as one batch), rounds: Jacobi ascent rounds,
           one batch each, step: first ascent step as a fraction of R, dt:
           time step, directions: modes tried per round}; starts >= 1,
           rounds and directions >= 0, step and dt > 0
  area     (area) {dt: time step}; the squeeze.LOOP_POINTS points of the
           slice circle are evolved as one batch

Exit codes: 0 success, 2 precondition failure (such as a config file that
is missing or holds no JSON object, a report file that cannot be read, a
mode with |j| > K, a mode entry without j, a missing required block or key,
a block or mode entry that is not a JSON object, a modes, probes, kappas or
bands value that is not a list, a value of the wrong type, a flow kind or key
the subcommand does not take, or an unknown key at the top level or in an
initial, grid, time, flow, band, partition, search, area, scenario,
prototype or mode entry block), 3 numerical certification failure.  An
evolve, sweep-band, sweep-kappa or cutcompare one of whose H_kappa
trajectories leaves the flows.HM1_RADIUS ball still writes its outputs and
manifest, with certified: false and the warnings in the manifest, and exits
3; every manifest of these four records certified and warnings.  sweep-band
checks every band of its list before it evolves any flow.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; importing
# it here keeps that work at import time, out of the run
import locale  # noqa: F401
import os
import sys

import numpy as np

from .errors import CertificationError, PreconditionError
from .flows import (
    HM1_RADIUS,
    FlowSpec,
    HamiltonianSpec,
    evolve,
    flow_sweep,
    monitors,
)
from .greens import alpha_of, green_of
from .reporting import RunManifest, run_report, write_csv, write_json
from .spectral import lp_project, sobolev_norm
from .squeeze import (
    SearchBudget,
    band_from_config,
    build_scenario,
    config_list,
    config_number,
    config_numbers,
    escape_search,
    field_from_config,
    flow_from_config,
    grid_from_config,
    image_area,
    linear_oracle,
)


def _field_from(cfg, grid):
    init = config_numbers(cfg["initial"], "initial block", modes=None, prototype=None)
    if "modes" in init:
        return field_from_config(init, grid)
    if "prototype" in init:
        return field_from_config(init["prototype"], grid)
    raise PreconditionError("initial data must give 'modes' or 'prototype'")


def _time_from(cfg, saves):
    """FlowSpec keywords dt, T and saves from the time block (saves defaults to ``saves``)."""
    return {"saves": saves, **config_numbers(cfg["time"], "time block", ("dt", "T"), dt=float,
                                             T=float, saves=int)}


def _kappa(cfg):
    """kappa from a flow block that names the H_kappa flow or no kind."""
    flow = config_numbers(cfg["flow"], "flow block", ("kappa",), kind=None, kappa=float)
    if flow.get("kind", "hkappa") != "hkappa":
        raise PreconditionError(f'flow block "kind" must be "hkappa" here, got {flow["kind"]!r}')
    return flow["kappa"]


def _numbers(cfg, key, default):
    """The list cfg[key] (``default`` when absent), each entry checked to be a number."""
    return [config_number(v, f"{key} list", key) for v in config_list(cfg.get(key, default), key)]


def _manifest(cfg, outputs, out_dir, seeds=None, trajs=()):
    """Write the manifest.  With trajectories it records whether all stayed
    certified, and if one did not it raises CertificationError after writing."""
    man = RunManifest(config=cfg, budgets={"delta0": HM1_RADIUS}, seeds=seeds or {})
    if trajs:
        man.certified = all(t.certified for t in trajs)
        man.warnings = [w for t in trajs for w in t.warnings]
    for p in outputs:
        man.add_output(p)
    paths = run_report(man, out_dir)
    if man.certified is False:
        raise CertificationError("a trajectory left the smallness budget (artifacts "
                                 "written, manifest certified: false): "
                                 + "; ".join(man.warnings))
    return paths


def cmd_evolve(cfg, out):
    grid = grid_from_config(cfg["grid"])
    q0 = _field_from(cfg, grid)
    spec = FlowSpec(flow_from_config(cfg["flow"]), **_time_from(cfg, 10),
                    probes=tuple(_numbers(cfg, "probes", [])))
    traj = evolve(q0, spec)
    coeff_header = ["t"]
    for j in range(-grid.cutoff, grid.cutoff + 1):
        coeff_header += [f"re_{j}", f"im_{j}"]
    p1 = write_csv(os.path.join(out, "trajectory.csv"), coeff_header,
                   traj.coeff_table())
    mon_keys = sorted(traj.monitors)
    rows = [[traj.times[i]] + [traj.monitors[k][i] for k in mon_keys]
            for i in range(len(traj.times))]
    p2 = write_csv(os.path.join(out, "monitors.csv"), ["t"] + mon_keys, rows)
    if spec.probes:
        print("max relative drifts:")
        for key, val in sorted(monitors(traj).items()):
            print(f"  {key}: {val:.3e}")
    return _manifest(cfg, [p1, p2], out, trajs=(traj,))


def cmd_greens(cfg, out):
    grid = grid_from_config(cfg["grid"])
    q = _field_from(cfg, grid)
    rows = []
    for kap in _numbers(cfg, "kappas", [2.0]):
        rows += [[kap, x, g] for x, g in zip(grid.points, green_of(q, kap).samples_values())]
    p = write_csv(os.path.join(out, "green_diagonal.csv"), ["kappa", "x", "g"], rows)
    return _manifest(cfg, [p], out)


def cmd_alpha(cfg, out):
    grid = grid_from_config(cfg["grid"])
    q = _field_from(cfg, grid)
    rows = []
    for kap in _numbers(cfg, "kappas", [2.0, 4.0, 8.0]):
        a = alpha_of(q, kap)
        rows.append([kap, a.value, a.hs_norm])
    p = write_csv(os.path.join(out, "alpha.csv"), ["kappa", "alpha", "hs_norm"], rows)
    return _manifest(cfg, [p], out)


def cmd_sweep_band(cfg, out):
    grid = grid_from_config(cfg["grid"])
    q0 = _field_from(cfg, grid)
    time_kw = _time_from(cfg, 10)
    kap = _kappa(cfg)
    bands = [band_from_config(b) for b in config_list(cfg["bands"], "bands")]
    trajs, sups = flow_sweep(q0, HamiltonianSpec.hkappa(kap),
                             [HamiltonianSpec.hkappa_band(kap, b.N, b.M) for b in bands], **time_kw)
    rates = [b.N ** 0.5 + b.M ** (-0.5) for b in bands]
    rows = [[b.N, b.M, sup, rate, sup / rate] for b, sup, rate in zip(bands, sups, rates)]
    p = write_csv(os.path.join(out, "band_sweep.csv"),
                  ["m", "M", "sup_error", "rate", "ratio"], rows)
    return _manifest(cfg, [p], out, trajs=trajs)


def cmd_sweep_kappa(cfg, out):
    grid = grid_from_config(cfg["grid"])
    q0 = _field_from(cfg, grid)
    kappas = _numbers(cfg, "kappas", [2.0, 4.0, 8.0])
    time_kw = _time_from(cfg, 10)
    trajs, sups = flow_sweep(q0, HamiltonianSpec.kdv(), [HamiltonianSpec.hkappa(k) for k in kappas],
                             **time_kw)
    # one row per distinct kappa: a repeated kappa's later run takes its entry
    rows = [[k, v] for k, v in sorted({float(k): v for k, v in zip(kappas, sups)}.items())]
    p = write_csv(os.path.join(out, "kappa_sweep.csv"), ["kappa", "sup_error"], rows)
    return _manifest(cfg, [p], out, trajs=trajs)


def cmd_cutcompare(cfg, out):
    from .bridge import build_partition, compare_local, select_cut  # loads on first use

    grid = grid_from_config(cfg["grid"])
    band = band_from_config(cfg["band"])
    u0 = lp_project(_field_from(cfg, grid), band)
    n_windows = config_numbers(cfg["partition"], "partition block", ("N",), N=int)["N"]
    plan = select_cut(u0, build_partition(grid.length, n_windows))
    times, errs, (circle, line, q0) = compare_local(u0, plan, _kappa(cfg), band,
                                                    **_time_from(cfg, 8))
    p_plan = write_json(os.path.join(out, "cutplan.json"), plan.to_json_dict())
    rows = list(zip(times, errs))
    p = write_csv(os.path.join(out, "cut_error.csv"), ["t", "error_hm1"], rows)
    print(f"cut case {plan.case}, windows {plan.indices}, "
          f"|int q0| = {plan.integral_defect:.3e}, "
          f"||q0||_H-1 = {sobolev_norm(q0, -1.0):.4g}")
    return _manifest(cfg, [p, p_plan], out, trajs=(circle, line))


def cmd_squeeze(cfg, out):
    scenario = build_scenario(cfg["scenario"])
    budget = SearchBudget(**config_numbers(cfg.get("search", {}), "search block", starts=int,
                                           rounds=int, step=float, dt=float, directions=int))
    result = escape_search(scenario, budget)
    rows = [[scenario.r, scenario.R, result.value, int(result.exceeds_r),
             result.evaluations, linear_oracle(scenario)]]
    p = write_csv(os.path.join(out, "squeeze.csv"),
                  ["r", "R", "best_value", "exceeds_r", "evaluations", "linear_value"], rows)
    print(f"best |<l,q(T)>-alpha| = {result.value:.6g} "
          f"({'exceeds' if result.exceeds_r else 'does not exceed'} r={scenario.r})")
    return _manifest(cfg, [p], out, seeds={"scenario": scenario.seed})


def cmd_area(cfg, out):
    scenario = build_scenario(cfg["scenario"])
    res = image_area(scenario, **config_numbers(cfg.get("area", {}), "area block", dt=float))
    expected = float(np.pi * scenario.R ** 2)
    rows = [[scenario.R, res.area, expected, res.area / expected, len(res.values)]]
    p = write_csv(os.path.join(out, "area.csv"), ["R", "area", "pi_R_sq", "ratio", "points"],
                  rows)
    print(f"slice image area {res.area:.6g} vs pi R^2 = {expected:.6g}")
    return _manifest(cfg, [p], out, seeds={"scenario": scenario.seed})


def cmd_report(cfg, out):
    files = cfg.get("files", [])
    if not (isinstance(files, list) and all(isinstance(p, str) for p in files)):
        raise PreconditionError('report config "files" must be a list of file paths')
    man = RunManifest(config=cfg)
    for path in files:
        try:
            man.add_output(path)
        except OSError as exc:
            raise PreconditionError(
                f'report config "files" names {path!r}: {exc.strerror}') from exc
    paths = run_report(man, out)
    print(f"manifest with {len(man.outputs)} entries -> {paths[0]}")
    return paths


# subcommand -> (handler, top-level config blocks it requires, optional top-level keys)
COMMANDS = {
    "evolve": (cmd_evolve, ("grid", "initial", "flow", "time"), ("probes",)),
    "greens": (cmd_greens, ("grid", "initial"), ("kappas",)),
    "alpha": (cmd_alpha, ("grid", "initial"), ("kappas",)),
    "sweep-band": (cmd_sweep_band, ("grid", "initial", "flow", "time", "bands"), ()),
    "sweep-kappa": (cmd_sweep_kappa, ("grid", "initial", "time"), ("kappas",)),
    "cutcompare": (cmd_cutcompare, ("grid", "initial", "band", "partition", "flow", "time"),
                   ()),
    "squeeze": (cmd_squeeze, ("scenario",), ("search",)),
    "area": (cmd_area, ("scenario",), ("area",)),
    "report": (cmd_report, (), ("files",)),
}


def _read_config(path):
    """The JSON object in the config file; a file that cannot be read or does
    not hold one is a PreconditionError naming it."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise PreconditionError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise PreconditionError(f"config file {path} holds no JSON object")
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kdvlab", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    command, required, optional = COMMANDS[args.command]
    try:
        cfg = _read_config(args.config)
        config_numbers(cfg, f"{args.command} config", required,
                       **dict.fromkeys(required + optional))
        command(cfg, args.out)
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
