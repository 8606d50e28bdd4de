"""Deterministic CSV/JSON emission and run manifests.

Floats are written with repr (shortest round-trip form), files are digested
with sha256, and manifests serialize with sorted keys, so re-running a
configuration byte-reproduces every artifact.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field

import numpy as np
import scipy


def _fmt(x):
    # floats first: most cells are floats, and neither bool nor np.bool_ is one
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    """Plain deterministic CSV: header row, repr-formatted numeric cells."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def sha256_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def tool_versions():
    from . import __version__

    return {
        "kdvlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


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
    import os

    path = os.path.join(str(out_dir), "manifest.json")
    with open(path, "w") as fh:
        fh.write(manifest.to_json() + "\n")
    return [path] + [os.path.join(str(out_dir), k) for k in sorted(manifest.outputs)]
