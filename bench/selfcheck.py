"""Quick self-check of the benchmark itself.

    python3 bench/selfcheck.py

Validates BENCHMARK.json and bench/workloads.json, runs every workload at
minimal size (one pass, `--seconds 1`) untraced and traced, and checks that
each run's last line is a correct result naming exactly the metrics
BENCHMARK.json declares, with their units.  Finally it runs the benchmark in
a directory holding only BENCHMARK.json and bench/, where it must fail
without printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_benchmark_json(bench: dict) -> list[str]:
    errs = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errs.append(f"BENCHMARK.json keys {sorted(bench)}")
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        errs.append("command must be 1..32 strings of at most 200 characters")
    for p in bench["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/") or not (ROOT / p).is_dir():
            errs.append(f"bad path {p!r}")
    if not (1 <= len(bench["paths"]) <= 16):
        errs.append("paths must list 1..16 directories")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errs.append("run_seconds must be a whole number in 1..60")
    if not (2 <= len(bench["workloads"]) <= 8):
        errs.append("need 2..8 workloads")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"workload entry {w}")
        names.append(w["name"])
    for key, extra, lo, hi in (("end_to_end", {"bound"}, 1, 16), ("per_layer", set(), 1, 128)):
        metrics = bench[key]
        if not (lo <= len(metrics) <= hi):
            errs.append(f"{key} must hold {lo}..{hi} metrics")
        for m in metrics:
            if set(m) != {"name", "unit", "better"} | extra:
                errs.append(f"{key} entry keys {sorted(m)}")
            if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                errs.append(f"{key} entry {m}")
            if extra and not 0 < m["bound"] <= 0.25:
                errs.append(f"bound of {m['name']} outside (0, 0.25]")
            names.append(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errs.append("setup_s must have the largest bound")
    errs += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    if len(json.dumps(bench)) > 64 * 1024:
        errs.append("BENCHMARK.json above 64 KiB")
    return errs


def check_workloads_json(bench: dict, config: dict) -> list[str]:
    errs = []
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(config["workloads"]):
        errs.append(f"workloads differ: {declared} vs {list(config['workloads'])}")
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, wl in config["workloads"].items():
        for tpl in wl["pass"]:
            if not {"name", "argv", "expect_s"} <= set(tpl) or tpl["argv"][0] != "verify":
                errs.append(f"{name}: bad op template {tpl.get('name')}")
    for pred in config["predictions"]:
        for m in pred["layer"] + pred["moves"]:
            if m not in metrics:
                errs.append(f"prediction names unknown metric {m}")
        for w in pred["on"] + pred["unchanged_on"]:
            if w not in config["workloads"]:
                errs.append(f"prediction names unknown workload {w}")
    return errs


def run_bench(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    rc, lines = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if rc != 0 or not lines:
        return [f"{where}: exit {rc}"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"{where}: last line is not JSON: {lines[-1][:200]}"]
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errs.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
        errs += [f"{where}: {line.strip()}" for line in lines if "PROBLEM" in line]
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errs.append(f"{where}: metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errs.append(f"{where}: metric {name} = {m}")
        elif not trace and m["value"] == 0:
            errs.append(f"{where}: end-to-end metric {name} is 0")
    return errs


def check_without_program() -> list[str]:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, lines = run_bench(bare, "tent-sums", 0)
    finally:
        shutil.rmtree(bare)
    if rc == 0 or any(line.startswith("{") for line in lines):
        return [f"without src/ the benchmark exited {rc} and printed {lines[-1:] }"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH / "workloads.json").read_text())
    errs = check_benchmark_json(bench) + check_workloads_json(bench, config)
    for w in bench["workloads"]:
        for trace in (0, 1):
            errs += check_result(bench, w["name"], trace)
            print(f"checked {w['name']} --trace {trace}", flush=True)
    errs += check_without_program()
    for e in errs:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errs else "passed"))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
