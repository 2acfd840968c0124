"""Every function and method in `src/dyadlab` has a caller in `src/dyadlab`.

Code only tests reach belongs in `tests/` (enumeration oracles live in
`tests/oracles.py`), so a non-dunder `def` whose name is never used as a name
or an attribute anywhere in the package fails here, unless `KEEP` names it
with its reason.

The check is by name, not by binding: a method whose name collides with a
name used elsewhere (for example `measure`, a local variable in
`universal.py`) counts as used and is not caught.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyadlab"

KEEP = {
    "error": "argparse calls `_Parser.error` on every usage error",
    "eval": "`PiecewiseLinear.eval` is the point query the sum tests compare against",
    "escape_measure_bruteforce": "its `budget` default is read by the benchmark; it moves with the next benchmark change",
    "smooth_indicator": "acceptance criterion 9; library-only, as the README records",
}


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


def test_every_src_function_has_a_src_caller():
    trees = _trees()
    unreached = {name: where for name, where in _defined(trees).items() if name not in _used(trees) | set(KEEP)}
    assert not unreached, f"no caller in src/dyadlab: {unreached}"


def test_keep_list_names_only_defined_unreached_names():
    trees = _trees()
    defined, used = _defined(trees), _used(trees)
    assert set(KEEP) <= set(defined)
    assert not set(KEEP) & used, "a kept name gained a caller; drop it from KEEP"
