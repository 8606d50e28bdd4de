"""kdvlab benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src`` (no install step).  Every repeat is one ``kdvlab`` CLI subcommand in a
fresh worker process with BLAS pinned to one thread (see ``worker.py``), one
call at a time (closed loop, one client).  Repeats continue until S seconds
have passed, and timings are reported as medians over the repeats.

--trace 0  end-to-end metrics: wall_s, setup_s, steps_per_s, peak_rss_mb.
--trace 1  per-layer metrics: span self times and counts from a traced pass
           (``tracing.py``), each traced repeat paired with the untraced one
           run just before it (the median paired difference is the tracing
           overhead), plus the single-call K-sweep (``ksweep.py``).

Prints the environment, every metric with its unit and every output check,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  Run artifacts go to ``.bench_runs/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
sys.path.insert(0, HERE)

import ksweep  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPEATS = {0: 3, 1: 2}   # by --trace; a traced round is a plain + traced pair
WORKER_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0   # start no repeat that could end after this

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

# Span names (module.function) whose self time and call count the traced pass reports.
SELF_TIMES = (
    "greens.assemble_resolvent", "greens.inv_ib", "greens.green_diagonal",
    "greens.hs_norm", "greens.alpha",
    "flows.evolve", "flows.rhs", "flows.monitors", "flows.linear_symbol",
    "spectral.product_coeffs", "spectral.derivative", "spectral.sobolev_norm",
    "spectral.make_field",
    "bridge.localized_norms", "bridge.select_cut", "bridge.unwrap", "bridge.compare_local",
    "squeeze.build_scenario", "squeeze.sample_ball", "squeeze.escape_search",
    "reporting.write_csv", "reporting.run_report", "cli.main",
)
CALLS = (
    "greens.assemble_resolvent", "greens.inv_ib", "greens.alpha", "flows.evolve",
    "flows.rhs", "spectral.product_coeffs", "squeeze.evolved_pairing",
)
DERIVED = {
    "greens.resolvents_per_step": "1/step",
    "greens.alpha_per_save": "1/save",
    "flows.rk4_steps": "count",
    "squeeze.failures_per_evaluation": "ratio",
    "reporting.write_csv.bytes": "bytes",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units():
    units = {f"{n}.self_s": "s" for n in SELF_TIMES}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update(DERIVED)
    units.update({m: ("1" if m.endswith(".slope") else "us") for m in ksweep.metric_names()})
    return units


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def run_worker(job, run_dir, tag):
    job_path = os.path.join(run_dir, f"job-{tag}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {tag} exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_repeat(name, seed, mode, run_dir, config_path, i):
    out = os.path.join(run_dir, f"out-{i}")
    job = {"workload": name, "seed": seed, "mode": mode, "config": config_path,
           "out": out, "src": SRC, "spans": os.path.join(run_dir, "spans.npz")}
    rec = run_worker(job, run_dir, f"{mode}-{i}")
    shutil.rmtree(out, ignore_errors=True)
    rec["mode"] = mode
    return rec


def repeat_until(seconds, start, modes, min_rounds, run):
    """Call run(mode, i) for each mode in turn until ``seconds`` have passed."""
    records, longest, i = [], 0.0, 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= min_rounds and elapsed >= seconds:
            break
        if i >= 1 and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = time.perf_counter()
        records += [run(mode, i) for mode in modes]
        longest = max(longest, time.perf_counter() - t0)
        i += 1
    return records


def tally(name, records):
    """Apply the digest check across repeats; (attempted, failed, check lines).

    One operation is one trajectory.  A repeat whose exit code or any output
    check fails counts all its trajectories as failed; otherwise each
    trajectory the escape search recorded as failed counts.
    """
    per_run = wl.WORKLOADS[name]["trajectories"]
    digests = next((r["digests"] for r in records if "digests" in r), None)
    attempted = failed = 0
    outcomes = {}   # check -> [repeats passed, repeats run, detail]
    errors = []
    for i, rec in enumerate(records):
        checks = rec["checks"] + [["same manifest digests in every repeat",
                                   rec.get("digests") == digests, ""]]
        ok = all(passed for _, passed, _ in checks)
        attempted += per_run
        failed += rec["search_failures"] if ok else per_run
        for check, passed, detail in checks:
            o = outcomes.setdefault(check, [0, 0, detail])
            o[0] += passed
            o[1] += 1
            if not passed:
                o[2] = f"{rec['mode']} repeat {i}: {detail}"
        if rec.get("error"):
            errors.append(f"{rec['mode']} repeat {i}:\n{rec['error']}")
    lines = [f"  {'PASS' if p == n else 'FAIL'}  {check}  [{p}/{n} repeats]  {detail}".rstrip()
             for check, (p, n, detail) in outcomes.items()]
    return attempted, failed, lines + errors


def median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(name, records):
    wall = median(records, "wall_s")
    return {
        "wall_s": wall,
        "setup_s": median(records, "setup_s"),
        "steps_per_s": wl.WORKLOADS[name]["steps"] / wall,
        "peak_rss_mb": median(records, "peak_rss_mb"),
    }


def per_layer(name, records, sweep):
    traced = [r for r in records if r["mode"] == "traced"]
    plain = [r for r in records if r["mode"] == "plain"]
    layers = [r["layers"] for r in traced]

    def calls(span):
        return layers[0].get(span, (0, 0.0))[0]

    def self_s(span):
        return statistics.median(lay.get(span, (0, 0.0))[1] for lay in layers)

    w = wl.WORKLOADS[name]
    evaluations = calls("squeeze.evolved_pairing")
    m = {f"{n}.self_s": self_s(n) for n in SELF_TIMES}
    m.update({f"{n}.calls": calls(n) for n in CALLS})
    m.update({
        "greens.resolvents_per_step": calls("greens.assemble_resolvent") / w["steps"],
        "greens.alpha_per_save": calls("greens.alpha") / w["saved_states"],
        "flows.rk4_steps": w["steps"],
        "squeeze.failures_per_evaluation":
            traced[0]["search_failures"] / evaluations if evaluations else 0.0,
        "reporting.write_csv.bytes": traced[0]["csv_bytes"],
        "setup.import_s": median(records, "import_s"),
        "trace.overhead_s": statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)),
    })
    m.update(sweep)
    return m


def counts_repeat(records):
    """Every traced repeat made the same number of calls to every span name."""
    counts = [{k: v[0] for k, v in r["layers"].items()} for r in records
              if r["mode"] == "traced"]
    return all(c == counts[0] for c in counts)


def environment(seed, record):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"versions": record["versions"], "threads": record["threads"],
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "python": sys.version.split()[0], "platform": platform.platform()}


def benchmark(name, seed, seconds, trace):
    if not os.path.isdir(os.path.join(SRC, "kdvlab")):
        raise BenchmarkError(f"no kdvlab package under {SRC}")
    run_dir = os.path.join(RUNS, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(wl.WORKLOADS[name]["config"](seed), fh, indent=1)

    start = time.perf_counter()
    sweep = {}
    if trace:
        sweep = run_worker({"mode": "ksweep", "seed": seed, "src": SRC}, run_dir, "ksweep")
        modes = ("plain", "traced")
    else:
        modes = ("plain",)
    records = repeat_until(seconds, start, modes, MIN_REPEATS[trace],
                           lambda mode, i: run_repeat(name, seed, mode, run_dir,
                                                      config_path, i))
    attempted, failed, lines = tally(name, records)
    if trace:
        same = counts_repeat(records)
        lines.append(f"  {'PASS' if same else 'FAIL'}  traced span counts repeat exactly")
        if not same:
            failed = attempted
        metrics = per_layer(name, records, sweep)
        units = per_layer_units()
    else:
        metrics = end_to_end(name, records)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = environment(seed, records[0])
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": name, "repeats": len(records), "environment": env,
                   "checks": lines, "records": records, **result}, fh, indent=1, default=str)
    return result, env, lines, len(records)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, env, lines, repeats = benchmark(args.workload, args.seed, args.seconds,
                                                args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {repeats}  variant {wl.variant(args.seed)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_frac {result['failed'] / result['attempted']:.3g}")
    print("checks:")
    print("\n".join(lines))
    print("metrics:")
    for key, m in result["metrics"].items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
