"""Every function and method in `src/dyadlab` has a caller in `src/dyadlab`,
and every module imports only the layers below it.

Code only tests reach belongs in `tests/` (enumeration oracles live in
`tests/oracles.py`), so a non-dunder `def` whose name is never used as a name
or an attribute anywhere in the package fails here, unless `KEEP` names it
with its reason.

That check is by name, not by binding: a method whose name collides with a
name used elsewhere (for example `measure`, a local variable in
`universal.py`) counts as used and is not caught.  So a second check runs the
command line: every `tests/test_report_bytes.py` case plus `RUNS` (the usage
error, refusals and the merged open set those cases miss), in one fresh
interpreter under `sys.setprofile`, and fails on any non-dunder `def`,
nested ones included, that never ran and that `KEEP` does not name.  The
interpreter is fresh because the parsers are built once per process.

A parameter default earns its place only if `src/dyadlab` both relies on it
and overrides it: some call there omits the parameter and some call passes
it, by keyword or by position.  A default no call overrides is a constant
only tests vary; a default every call passes serves only tests.  A call that
merely forwards another default no call overrides (directly, or through a
local assigned from it) does not count as overriding.  Dunders are skipped,
and a method's `self` or `cls` is not a position.  `KEEP` names the
exceptions as `function.parameter`.

A leading underscore is the one statement of what a module keeps to itself:
no module imports another's `_name`, no `__all__` restates the surface, and
no module reads a non-dunder `_name` attribute off anything but `self` or
`cls`, so one object's private fields stay its own.  `LAYERS` lists the
package modules each module may import.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

from test_report_bytes import CASES, G_THM31

SRC = Path(__file__).resolve().parents[1] / "src" / "dyadlab"

KEEP = {
    "error": "argparse calls `_Parser.error` on every usage error",
    "escape_measure_bruteforce": "its `budget` default is read by the benchmark; it moves with the next benchmark change",
    "smoothing_measure": "acceptance criterion 9; library-only, as the README records",
    "main.argv": "tests and the benchmark pass it; the console script and `python -m dyadlab` read sys.argv",
    "escape_measure_bruteforce.budget": "the benchmark reads it",
    "_make": "`GapBlock._replace` builds through it, so `GapBlock.__new__` checks that path too",
}

# command lines the execution check runs beyond the report-bytes cases;
# "{G2}" is an open set of three open parts, two of which overlap and merge;
# tent 7 needs 144 bits on its grid, past a 64-bit guard; and the universal
# sum at x = 2^-100 is a Dyadic sum past it
RUNS = [
    ["eval", "thm31", "--jmaxes", "3", "--xs", "0", "--G", "{G2}"],
    ["verify", "universal", "--suite", "lemma", "--limit", "x"],
    ["--span-guard", "64", "eval", "thm33", "--jmaxes", "2", "--xs", "1*2^-100"],
    ["--span-guard", "64", "eval", "thm31", "--jmaxes", "3", "--xs", "1*2^-100"],
    ["--span-guard", "64", "verify", "thm31", "--suite", "lower", "--jmax", "7"],
    ["--span-guard", "64", "eval", "universal", "--limits", "1,1", "--xs", "1*2^-100"],
]

# Runs each argv list read from stdin through `main`, output discarded, and
# prints every code object called as [file, first line, name].
_TRACE = """
import contextlib, io, json, sys
codes = {}

def hook(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code

sys.setprofile(hook)
from dyadlab.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in codes.values()]))
"""

_CONSTRUCTION_BASE = {"exactnum", "report", "lattice"}
LAYERS = {
    "__init__": set(),
    "exactnum": set(),
    "report": set(),
    "lattice": {"exactnum"},
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


_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaults(trees) -> dict[str, dict[str, int | None]]:
    """Per non-dunder function name, its defaulted parameters, each with the
    call position that sets it (None for keyword-only)."""
    methods = {
        id(node)
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, _FUNCTION)
    }
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, _FUNCTION) or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            a, skip = node.args, 1 if id(node) in methods else 0
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = {arg.arg: i - skip for i, arg in enumerate(positional) if i >= first}
            params |= {arg.arg: None for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            if params:
                out.setdefault(node.name, {}).update(params)
    return out


def _calls(trees) -> list[tuple[ast.Call, ast.AST | None]]:
    """Every call in the package with the function it sits in (None at module level)."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((child, fn))
            visit(child, child if isinstance(child, _FUNCTION) else fn)

    for tree in trees.values():
        visit(tree, None)
    return out


def _passed(call: ast.Call, param: str, pos: int | None):
    """The expression `call` passes for `param`, True if unknowable (`*a`, `**kw`), None if omitted."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if any(kw.arg is None for kw in call.keywords):
        return True
    if pos is not None:
        for i, arg in enumerate(call.args[: pos + 1]):
            if isinstance(arg, ast.Starred):
                return True
            if i == pos:
                return arg
    return None


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _forwarded(fn, constant: set[str]) -> set[str]:
    """Names in `fn` holding a value derived from one of its defaults in `constant`."""
    if fn is None:
        return set()
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg) and f"{fn.name}.{a.arg}" in constant}
    assigns = [n for n in ast.walk(fn) if isinstance(n, ast.Assign)]
    while True:
        grown = names | {t for n in assigns if _names(n.value) & names for target in n.targets for t in _names(target)}
        if grown == names:
            return names
        names = grown


def _default_findings(trees) -> dict[str, str]:
    """`function.parameter` for each default src never overrides, or always overrides."""
    defaults, calls = _defaults(trees), _calls(trees)
    constant: set[str] = set()
    while True:
        overridden, omitted = set(), set()
        for call, fn in calls:
            name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            forwarded = _forwarded(fn, constant)
            for param, pos in defaults.get(name, {}).items():
                value = _passed(call, param, pos)
                if value is None:
                    omitted.add(f"{name}.{param}")
                elif value is True or not _names(value) & forwarded:
                    overridden.add(f"{name}.{param}")
        every = {f"{name}.{param}" for name, params in defaults.items() for param in params}
        if every - overridden == constant:
            break
        constant = every - overridden
    return {
        key: "no src call overrides it" if key in constant else "every src call passes it"
        for key in sorted(every)
        if key in constant or key not in omitted
    }


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
    functions = {name for name in KEEP if "." not in name}
    assert functions <= set(defined)
    assert not functions & used, "a kept name gained a caller; drop it from KEEP"
    parameters = set(KEEP) - functions
    assert parameters <= set(_default_findings(trees)), "a kept default is now both relied on and overridden; drop it"


def test_every_src_default_is_relied_on_and_overridden_in_src():
    findings = {key: why for key, why in _default_findings(_trees()).items() if key not in KEEP}
    assert not findings, f"defaults only tests need: {findings}"


def test_modules_import_only_their_layers():
    findings = _layer_findings(_trees())
    assert not findings, "\n".join(findings)


def _private_reads(trees) -> list[str]:
    """Every `x._name` (dunders aside) whose `x` is not the name `self` or `cls`."""
    return [
        f"{fname}:{node.lineno}: {ast.unparse(node)}"
        for fname, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_module_reads_another_objects_private_attribute():
    findings = _private_reads(_trees())
    assert not findings, "\n".join(findings)


def test_private_read_check_sees_a_private_read():
    tree = ast.parse("def f(seq, self):\n    return seq._grid, self._grid, seq.__class__, seq.grid\n")
    assert _private_reads({"m.py": tree}) == ["m.py:2: seq._grid"]


def _ran(tmp_path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every code object the corpus calls."""
    (tmp_path / "g.json").write_text(json.dumps(G_THM31))
    (tmp_path / "g2.json").write_text(json.dumps(["(0,1)", "(1*2^-1,2)", "(5,6)"]))
    paths = {"out": tmp_path / "out", "G": tmp_path / "g.json", "G2": tmp_path / "g2.json", "seq": tmp_path / "seq.json"}
    corpus = [["construct", "universal", "--limit", "2,3", "--out", "{seq}"], *CASES.values(), *RUNS]
    corpus = [[a.format(**paths) for a in argv] for argv in corpus]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE],
        input=json.dumps(corpus),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        check=True,
    )
    return {tuple(code) for code in json.loads(proc.stdout)}


def test_every_src_function_runs_under_the_command_line(tmp_path):
    ran = _ran(tmp_path)
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_trees()[path.name]):
            if not isinstance(node, _FUNCTION) or node.name in KEEP or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (str(path), first, node.name) not in ran:
                unrun.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unrun, f"no command runs: {unrun}"
