"""The three benchmark workloads: CLI configs made from a seed, input
builders for the set-up timing, and the output checks.

Every workload is one ``kdvlab`` CLI subcommand.  The seed selects one of
``VARIANTS`` input variants (``seed % VARIANTS``); ``references.json`` holds
the outputs of each variant as computed by ``make_references.py``, so the
checks compare against fixed numbers rather than against the code under test.

This module imports only numpy at top level: the config generator runs in the
benchmark driver, and ``kdvlab`` is imported lazily inside the builders and
checks, which run in the worker processes.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

VARIANTS = 16
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# kdv_escape: the KdV desk scenario of the squeeze tests, with a search of
# 16 + 2 starts and one ascent round over 8 modes x (re, im) x (+, -) = 50 evolves.
ESCAPE_SCENARIO = {
    "grid": {"length": 16.0, "cutoff": 32},
    "band": {"m": 0.25, "M": 2.0},
    "center": {"kind": "gauss_prime", "width": 1.0, "amplitude": 0.05},
    "observable": {"kind": "gauss_bump", "width": 1.5, "amplitude": 1.0},
    "alpha": 0.01, "r": 0.02, "R": 0.04, "T": 0.2,
    "flow": {"kind": "kdv"},
}
ESCAPE_SEARCH = {"starts": 16, "rounds": 1, "directions": 8, "dt": 2e-3}
ESCAPE_EVOLVES = 16 + 2 + 1 * 8 * 2 * 2


def variant(seed):
    return int(seed) % VARIANTS


def random_modes(rng, length, k, hm1_radius=0.1):
    """Real-field coefficients, |qhat(j)| ~ (1+|j|)^-2, scaled to ||q||_{H^-1} = radius."""
    js = np.arange(-k, k + 1)
    c = (rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1))
    c = c / (1.0 + np.abs(js)) ** 2
    c = 0.5 * (c + np.conj(c[::-1]))  # Hermitian symmetric: a real field
    c[k] = c[k].real
    hm1 = math.sqrt(length * float(np.sum(np.abs(c) ** 2 / (1.0 + (js / length) ** 2))))
    return c * (hm1_radius / hm1)


def hkappa_config(seed):
    """H_kappa evolve at K=64, kappa=4, probes at kappa = 2 and 4."""
    length, k = 2.0 * math.pi, 64
    js = np.arange(-k, k + 1)
    c = random_modes(np.random.default_rng(variant(seed)), length, k)
    return {
        "grid": {"length": length, "cutoff": k},
        "initial": {"modes": [{"j": int(j), "re": float(a.real), "im": float(a.imag)}
                              for j, a in zip(js, c)]},
        "flow": {"kind": "hkappa", "kappa": 4.0},
        "time": {"dt": 1e-3, "T": 0.2, "saves": 20},
        "probes": [2.0, 4.0],
    }


PROBE_KEYS = ("alpha(2)", "alpha(4)")


def escape_config(seed):
    """KdV escape search; the seed scales the ball center and picks the ball samples."""
    rng = np.random.default_rng(2000 + variant(seed))
    center = dict(ESCAPE_SCENARIO["center"], amplitude=float(rng.uniform(0.04, 0.06)))
    return {"scenario": dict(ESCAPE_SCENARIO, center=center, seed=variant(seed)),
            "search": dict(ESCAPE_SEARCH)}


def cut_config(seed):
    """cutcompare at L=32, K=128, n=1024, N=64; seed moves the prototype a little."""
    rng = np.random.default_rng(1000 + variant(seed))
    return {
        "grid": {"length": 32.0, "cutoff": 128, "samples": 1024},
        "initial": {"prototype": {"kind": "gauss_prime", "width": 1.0,
                                  "amplitude": float(rng.uniform(0.08, 0.12)),
                                  "center": float(rng.uniform(-0.5, 0.5))}},
        "partition": {"N": 64},
        "band": {"m": 0.125, "M": 2.0},
        "flow": {"kappa": 1.0},
        "time": {"dt": 1e-3, "T": 0.02, "saves": 2},
    }


def n_steps(T, dt):
    """Lawson-RK4 steps ``evolve`` takes for one FlowSpec(T, dt)."""
    return max(1, int(math.ceil(T / dt - 1e-12))) if T > 0 else 0


# Per run: the CLI subcommand, the config maker, and what the FlowSpecs passed
# to ``evolve`` imply: trajectories, Lawson-RK4 steps and saved states.
WORKLOADS = {
    "hkappa_evolve": {"subcommand": "evolve", "config": hkappa_config,
                      "trajectories": 1, "steps": n_steps(0.2, 1e-3),
                      "saved_states": 20 + 1},
    "kdv_escape": {"subcommand": "squeeze", "config": escape_config,
                   "trajectories": ESCAPE_EVOLVES,
                   "steps": ESCAPE_EVOLVES * n_steps(ESCAPE_SCENARIO["T"],
                                                     ESCAPE_SEARCH["dt"]),
                   "saved_states": ESCAPE_EVOLVES * 2},
    "cut_compare": {"subcommand": "cutcompare", "config": cut_config,
                    "trajectories": 2, "steps": 2 * n_steps(0.02, 1e-3),
                    "saved_states": 2 * (2 + 1)},
}


# ---------------------------------------------------------------------------
# input builders (timed as part of set-up, in the worker)
# ---------------------------------------------------------------------------

def _cut_inputs(cfg):
    from kdvlab import MultiplierSpec, TorusGrid, build_partition, lp_project, select_cut
    from kdvlab.squeeze import periodized_field, prototype_callable

    g = cfg["grid"]
    grid = TorusGrid.make(g["length"], g["cutoff"], g["samples"])
    band = MultiplierSpec.band(cfg["band"]["m"], cfg["band"]["M"])
    u0 = lp_project(periodized_field(prototype_callable(cfg["initial"]["prototype"]),
                                     grid), band)
    plan = select_cut(u0, build_partition(grid.length, cfg["partition"]["N"]))
    return u0, plan


def build_inputs(name, cfg):
    """Build the workload's inputs through the public builders."""
    if name == "hkappa_evolve":
        from kdvlab import TorusGrid, make_field

        g = cfg["grid"]
        grid = TorusGrid.make(g["length"], g["cutoff"])
        c = np.zeros(2 * grid.cutoff + 1, dtype=complex)
        for e in cfg["initial"]["modes"]:
            c[e["j"] + grid.cutoff] = complex(e["re"], e["im"])
        return make_field(grid, coeffs=c)
    if name == "kdv_escape":
        from kdvlab import build_scenario

        return build_scenario(cfg["scenario"])
    return _cut_inputs(cfg)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def alpha_drifts(out_dir):
    """Max relative drift of each alpha(kappa) column of monitors.csv."""
    header, rows = read_csv(os.path.join(out_dir, "monitors.csv"))
    out = {}
    for i, key in enumerate(header):
        if key.startswith("alpha("):
            v = rows[:, i]
            out[key] = float(np.max(np.abs(v - v[0])) / max(np.max(np.abs(v)), 1e-30))
    return out


def final_state(out_dir):
    """Last saved state of trajectory.csv as a complex coefficient vector."""
    _, rows = read_csv(os.path.join(out_dir, "trajectory.csv"))
    last = rows[-1, 1:]
    return last[0::2] + 1j * last[1::2]


def escape_row(out_dir):
    header, rows = read_csv(os.path.join(out_dir, "squeeze.csv"))
    return dict(zip(header, rows[0]))


def relative_error(value, reference):
    reference = np.asarray(reference)
    return float(np.linalg.norm(np.asarray(value) - reference) / np.linalg.norm(reference))


def check_outputs(name, seed, out_dir, captured, inputs):
    """[(check name, passed, detail)] for one finished CLI run."""
    ref = load_references()[name][str(variant(seed))]
    checks = []
    if name == "hkappa_evolve":
        traj = captured["evolve"]
        checks.append(("certified", bool(traj.certified), str(traj.warnings)))
        drifts = alpha_drifts(out_dir)
        for key in PROBE_KEYS:
            drift, tol = drifts.get(key, math.inf), ref["alpha_drift_tol"][key]
            checks.append((f"drift {key}", drift < tol, f"{drift:.3e} < {tol:.3e}"))
        err = relative_error(final_state(out_dir),
                             np.array(ref["final_re"]) + 1j * np.array(ref["final_im"]))
        checks.append(("final state", err <= ref["final_tol"],
                       f"rel L2 {err:.3e} <= {ref['final_tol']:.3e}"))
    elif name == "kdv_escape":
        row = escape_row(out_dir)
        checks.append(("exceeds_r", row["exceeds_r"] == 1, str(row["exceeds_r"])))
        checks.append(("evaluations", row["evaluations"] == ESCAPE_EVOLVES,
                       str(row["evaluations"])))
        err = abs(row["best_value"] - ref["best_value"]) / abs(ref["best_value"])
        checks.append(("best_value", err <= ref["best_value_tol"],
                       f"rel {err:.3e} <= {ref['best_value_tol']:.3e}"))
    else:
        from kdvlab import make_field, sobolev_norm

        with open(os.path.join(out_dir, "cutplan.json")) as fh:
            plan_out = json.load(fh)
        same = plan_out["case"] == ref["case"] and plan_out["indices"] == ref["indices"]
        checks.append(("cut plan", same, f"{plan_out['case']} {plan_out['indices']}"))
        u0, plan = inputs
        phi_u = make_field(u0.grid, samples=plan.selected_bump_samples(u0.grid.points)
                           * u0.samples_values())
        expected = sobolev_norm(phi_u, -1.0)
        _, rows = read_csv(os.path.join(out_dir, "cut_error.csv"))
        err = abs(rows[0, 1] - expected) / expected
        checks.append(("error at t=0", err <= 2e-3, f"rel {err:.3e} <= 2e-3"))
    return checks
