"""Regenerate ``references.json``: the outputs of every workload variant.

    PYTHONPATH=src python3 bench/make_references.py

Run this only on a commit whose outputs are trusted; the checks in
``workloads.check_outputs`` compare later code against these numbers.
Tolerances are fixed here, from truncation errors measured on the same
variant, never from the code under test:

  hkappa_evolve  final state: 10x the larger of the time-step error (dt vs
                 dt/2) and the mode-truncation error (K=64 vs K=96, compared
                 on |j| <= 64), as a relative L2 norm of the coefficients.
                 alpha drift: per probe, 10x the largest drift seen over all variants.
  kdv_escape     best_value: 10x the time-step error of the value (dt vs dt/2
                 over the same starts), relative.
  cut_compare    the cut case and windows must match exactly.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(os.path.dirname(HERE), ".bench_runs")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from kdvlab import (  # noqa: E402
    FlowSpec, HamiltonianSpec, build_scenario, escape_search, evolve, truncate_field,
)
from kdvlab.cli import main  # noqa: E402
from kdvlab.squeeze import SearchBudget  # noqa: E402


def run_cli(name, cfg, tmp):
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(tmp, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([wl.WORKLOADS[name]["subcommand"], "--config", path, "--out", out])
    if code != 0:
        raise SystemExit(f"{name}: CLI exit code {code}")
    return out


def hkappa_reference(seed, tmp):
    cfg = wl.hkappa_config(seed)
    out = run_cli("hkappa_evolve", cfg, tmp)
    final = wl.final_state(out)
    q0 = wl.build_inputs("hkappa_evolve", cfg)
    flow = HamiltonianSpec.hkappa(cfg["flow"]["kappa"])
    t = cfg["time"]
    half = evolve(q0, FlowSpec(flow, dt=t["dt"] / 2, T=t["T"], saves=1)).final().coeffs
    err_dt = wl.relative_error(final, half)
    wide = truncate_field(q0, 96)
    fine = evolve(wide, FlowSpec(flow, dt=t["dt"], T=t["T"], saves=1)).final()
    err_k = wl.relative_error(final, truncate_field(fine, 64).coeffs)
    return {"final_re": final.real.tolist(), "final_im": final.imag.tolist(),
            "err_dt": err_dt, "err_k": err_k, "final_tol": 10.0 * max(err_dt, err_k),
            "drifts": wl.alpha_drifts(out)}


def escape_reference(seed, tmp):
    cfg = wl.escape_config(seed)
    row = wl.escape_row(run_cli("kdv_escape", cfg, tmp))
    search = dict(cfg["search"], dt=cfg["search"]["dt"] / 2)
    half = escape_search(build_scenario(cfg["scenario"]), SearchBudget(**search)).value
    err_dt = abs(row["best_value"] - half) / abs(half)
    return {"best_value": row["best_value"], "err_dt": err_dt, "best_value_tol": 10.0 * err_dt}


def cut_reference(seed, tmp):
    out = run_cli("cut_compare", wl.cut_config(seed), tmp)
    with open(os.path.join(out, "cutplan.json")) as fh:
        plan = json.load(fh)
    return {"case": plan["case"], "indices": plan["indices"]}


def main_refs():
    makers = {"hkappa_evolve": hkappa_reference, "kdv_escape": escape_reference,
              "cut_compare": cut_reference}
    refs = {}
    os.makedirs(SCRATCH, exist_ok=True)
    for name, make in makers.items():
        refs[name] = {}
        for v in range(wl.VARIANTS):
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                refs[name][str(v)] = make(v, tmp)
            print(name, v, {k: x for k, x in refs[name][str(v)].items()
                            if k not in ("final_re", "final_im")}, flush=True)
    hk = refs["hkappa_evolve"].values()
    drift_tol = {key: 10.0 * max(r["drifts"][key] for r in hk) for key in wl.PROBE_KEYS}
    for r in hk:
        r["alpha_drift_tol"] = drift_tol
    write_references(refs)


def write_references(refs):
    """One line per variant; final states kept to 12 significant digits,
    far below their tolerances."""
    lines = []
    for name in sorted(refs):
        rows = []
        for v, r in sorted(refs[name].items(), key=lambda kv: int(kv[0])):
            r = {k: ([float(f"{x:.12g}") for x in x_] if k.startswith("final_") and
                     isinstance(x_, list) else x_) for k, x_ in r.items()}
            rows.append(f"  {json.dumps(v)}: {json.dumps(r, sort_keys=True)}")
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(wl.REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main_refs()
