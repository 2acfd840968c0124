"""Every function and method in `src/dyadlab` has a caller in `src/dyadlab`,
and every module imports only the layers below it.

Code only tests reach belongs in `tests/` (enumeration oracles live in
`tests/oracles.py`), so a non-dunder `def` whose name is never used as a name
or an attribute anywhere in the package fails here, unless `KEEP` names it
with its reason.

The check is by name, not by binding: a method whose name collides with a
name used elsewhere (for example `measure`, a local variable in
`universal.py`) counts as used and is not caught.

A leading underscore is the one statement of what a module keeps to itself:
no module imports another's `_name`, and no `__all__` restates the surface.
`LAYERS` lists the package modules each module may import.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyadlab"

KEEP = {
    "error": "argparse calls `_Parser.error` on every usage error",
    "escape_measure_bruteforce": "its `budget` default is read by the benchmark; it moves with the next benchmark change",
    "smoothing_measure": "acceptance criterion 9; library-only, as the README records",
}

_CONSTRUCTION_BASE = {"exactnum", "report", "lattice"}
LAYERS = {
    "__init__": set(),
    "exactnum": set(),
    "report": set(),
    "lattice": {"exactnum", "report"},
    "universal": _CONSTRUCTION_BASE,
    "dense_divergence": _CONSTRUCTION_BASE,
    "interior_gap": _CONSTRUCTION_BASE,
    "cli": _CONSTRUCTION_BASE | {"universal", "dense_divergence", "interior_gap"},
    "__main__": {"cli"},
}


@functools.cache
def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _defined(trees) -> dict[str, str]:
    """Non-dunder function and method names, each with one place it is defined."""
    out = {}
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, f"{fname}:{node.lineno}")
    return out


def _used(trees) -> set[str]:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _layer_findings(trees) -> list[str]:
    """Imports outside a module's layer, imports of another module's `_name`, and `__all__` lists."""
    findings = []
    for fname, tree in trees.items():
        module = fname.removesuffix(".py")
        allowed = LAYERS.get(module)
        if allowed is None:
            findings.append(f"{fname}: not in LAYERS")
            allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "__all__":
                findings.append(f"{fname}:{node.lineno}: __all__")
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            names = [a.name for a in node.names]
            for target in [node.module] if node.module else names:
                if target not in allowed:
                    findings.append(f"{fname}:{node.lineno}: imports {target}")
            if node.module:
                findings += [f"{fname}:{node.lineno}: imports {node.module}.{n}" for n in names if n.startswith("_")]
    return findings


def test_every_src_function_has_a_src_caller():
    trees = _trees()
    reached = _used(trees) | set(KEEP)
    unreached = {name: where for name, where in _defined(trees).items() if name not in reached}
    assert not unreached, f"no caller in src/dyadlab: {unreached}"


def test_keep_list_names_only_defined_unreached_names():
    trees = _trees()
    defined, used = _defined(trees), _used(trees)
    assert set(KEEP) <= set(defined)
    assert not set(KEEP) & used, "a kept name gained a caller; drop it from KEEP"


def test_modules_import_only_their_layers():
    findings = _layer_findings(_trees())
    assert not findings, "\n".join(findings)
