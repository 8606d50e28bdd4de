"""One benchmark repeat in a fresh process: ``python3 bench/worker.py JOB.json``.

Modes (``job["mode"]``):
  plain   time the import and input set-up, then one ``kdvlab.cli.main`` call;
  traced  the same call with every kdvlab binding wrapped by ``tracing.Tracer``;
  ksweep  time single layer calls over a range of mode cutoffs.

Prints one JSON record as its last line of output.  BLAS threads are pinned
to one before numpy is first imported.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _capture(module, name, store):
    """Rebind module.name to record its return value; returns the undo."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        store[name] = original(*args, **kwargs)
        return store[name]

    setattr(module, name, recorder)
    return lambda: setattr(module, name, original)


def _csv_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir) if f.endswith(".csv"))


def run_cli(job):
    t0 = time.perf_counter()
    import kdvlab.cli as cli

    import_s = time.perf_counter() - t0
    import workloads as wl

    name = job["workload"]
    with open(job["config"]) as fh:
        cfg = json.load(fh)
    inputs = wl.build_inputs(name, cfg)
    setup_s = time.perf_counter() - t0

    tracer = None
    if job["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    captured = {}
    target = {"hkappa_evolve": "evolve", "kdv_escape": "escape_search"}.get(name)
    undo = _capture(cli, target, captured) if target else (lambda: None)

    subcommand = wl.WORKLOADS[name]["subcommand"]
    argv = [subcommand, "--config", job["config"], "--out", job["out"]]
    printed = io.StringIO()
    error = None
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except Exception:  # a raising trajectory is a failed operation, not a crash
        code, error = None, traceback.format_exc(limit=4)
    wall_s = time.perf_counter() - t1
    undo()

    rec = {"import_s": import_s, "setup_s": setup_s, "wall_s": wall_s,
           "exit_code": code, "error": error, "stdout": printed.getvalue()[-2000:]}
    checks = [("exit code 0", code == 0, str(code))]
    if code == 0:
        try:
            checks += wl.check_outputs(name, job["seed"], job["out"], captured, inputs)
            with open(os.path.join(job["out"], "manifest.json")) as fh:
                rec["digests"] = json.load(fh)["outputs"]
        except Exception:  # unreadable or missing output counts as a failed check
            checks.append(("outputs readable", False, traceback.format_exc(limit=2)))
    search = captured.get("escape_search")
    rec["search_failures"] = len(search.failures) if search is not None else 0
    if tracer is not None:
        from tracing import layer_totals

        checks.append(("trace wrappers removed", tracer.remove(), ""))
        spans = tracer.arrays()
        tracer.save(job["spans"])
        rec["layers"] = layer_totals(spans)
        rec["spans"] = int(len(spans["start"]))
        rec["csv_bytes"] = _csv_bytes(job["out"]) if code == 0 else 0
    rec["checks"] = [[n, bool(ok), detail] for n, ok, detail in checks]
    from kdvlab.reporting import tool_versions

    rec["versions"] = tool_versions()
    rec["threads"] = {v: os.environ[v] for v in THREAD_VARS}
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    if job["mode"] == "ksweep":
        from ksweep import sweep

        rec = sweep(job["seed"])
    else:
        rec = run_cli(job)
    print(json.dumps(rec))


if __name__ == "__main__":
    main(sys.argv[1])
