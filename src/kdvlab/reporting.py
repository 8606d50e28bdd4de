"""Deterministic CSV/JSON emission and run manifests.

Floats are written with repr (shortest round-trip form), files are digested
with sha256, and manifests serialize with sorted keys, so re-running a
configuration byte-reproduces every artifact.  A rerun into the same output
directory unlinks each old file and creates it anew: on ext4, a file truncated
and rewritten in place is flushed at close, which unlink and create avoid
(timings in CHANGES.md, issue 23).  A manifest's ``versions`` lists the libraries the run loaded:
kdvlab, numpy and Python always, scipy only when the dense resolvent route
imported its LAPACK.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import stat
import sys
from dataclasses import dataclass, field

import numpy as np


_FLOATS = frozenset({float})


def _fmt(x):
    # floats first: most cells are floats, and neither bool nor np.bool_ is one
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_new(path, text):
    """Write text to path as a new file, unlinking a regular file already there.
    Its directory is made here, at a run's first write, so that a run refused
    before it writes anything leaves no empty output directory behind."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """Plain deterministic CSV: header row, repr-formatted numeric cells.  A row
    of Python floats only (such as ``Trajectory.coeff_table``'s) is joined from
    repr directly, which is what ``_fmt`` writes for each of its cells."""
    lines = [",".join(header)]
    for row in rows:
        if _FLOATS.issuperset(map(type, row)):
            lines.append(",".join(map(repr, row)))
        else:
            lines.append(",".join(_fmt(x) for x in row))
    _write_new(path, "\n".join(lines) + "\n")
    return path


def write_json(path, payload):
    """Deterministic JSON: sorted keys, two-space indent, no trailing newline."""
    _write_new(path, json.dumps(payload, sort_keys=True, indent=2))
    return path


def sha256_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def tool_versions():
    """Versions of kdvlab, numpy and Python, and of scipy if this process loaded it."""
    from . import __version__

    versions = {"kdvlab": __version__, "numpy": np.__version__,
                "python": platform.python_version()}
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        versions["scipy"] = scipy.__version__
    return versions


@dataclass
class RunManifest:
    """Reproduction record: scenario/config, budgets, seeds, digests, and for a
    trajectory run whether it stayed certified (None: no trajectory)."""

    config: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    versions: dict = field(default_factory=tool_versions)
    outputs: dict = field(default_factory=dict)
    certified: bool | None = None
    warnings: list = field(default_factory=list)

    def add_output(self, path):
        self.outputs[str(path).rsplit("/", 1)[-1]] = sha256_digest(path)

    def to_json(self):
        payload = {
            "config": self.config,
            "budgets": self.budgets,
            "seeds": self.seeds,
            "versions": self.versions,
            "outputs": self.outputs,
        }
        if self.certified is not None:
            payload.update(certified=self.certified, warnings=self.warnings)
        return json.dumps(payload, sort_keys=True, indent=2, default=float)


def run_report(manifest, out_dir):
    """Write manifest.json next to the outputs it records; returns paths."""
    path = os.path.join(str(out_dir), "manifest.json")
    _write_new(path, manifest.to_json() + "\n")
    return [path] + [os.path.join(str(out_dir), k) for k in sorted(manifest.outputs)]
