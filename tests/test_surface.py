"""The library's public surface is what its own code reaches.

Every public top-level function or class of ``src/kdvlab`` is referenced by
another part of ``src`` (a subcommand's path), not only by ``__init__`` and
the tests; and no module imports a name it does not use, but for the
``# noqa`` imports listed with their reasons.  Helpers that only
tests need live in ``tests/oracles.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kdvlab"

# public names no src code references yet, each with the reason it stays
UNREFERENCED = {
    "product_coeffs": "bench/ksweep.py times it as the spectral product layer",
    "symplectic_form": "the symplectic form, for the slice-area probe to call",
}

# "module: imported name" of each import that src marks "# noqa", with the reason it stays
NOQA_IMPORTS = {
    "spectral: numpy.fft": "loads numpy's FFT module at import time, not in the first transform",
    "cli: locale": "argparse's gettext imports it when the first parser is built",
    "flows: green_diagonal": ("bench/tests/test_bench.py reads this binding until ROADMAP "
                              "item 1 unpins it"),
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _used_names(nodes):
    """Identifiers loaded in the nodes: bare names and attribute names."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def test_every_public_definition_is_referenced_in_src():
    nodes = [n for name, tree in _modules().items() if name != "__init__" for n in tree.body]
    used = [_used_names([n]) for n in nodes]
    unreferenced = [
        node.name for i, node in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for k, names in enumerate(used) if k != i)]
    assert sorted(set(unreferenced) - set(UNREFERENCED)) == []
    assert sorted(set(UNREFERENCED) - set(unreferenced)) == []


def test_no_module_imports_a_name_it_does_not_use():
    unused, noqa = [], []
    for name, tree in _modules().items():
        if name == "__init__":  # its imports are the package's exports
            continue
        lines = (SRC / f"{name}.py").read_text().splitlines()
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = _used_names(n for n in tree.body if n not in imports)
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                noqa += [f"{name}: {alias.name}" for alias in node.names]
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{name}: {bound}")
    assert unused == []
    assert sorted(set(noqa) - set(NOQA_IMPORTS)) == []
    assert sorted(set(NOQA_IMPORTS) - set(noqa)) == []
