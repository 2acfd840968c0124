"""Layered verify-sweep benchmark for dyadlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
bench/workloads.json, or `all` to run each in turn.  Every verify op is a call
of `dyadlab.cli.main` with a `--report` file; op times are normalized by the
reference kernel in bench/kernel.py.  With `--trace 0` the last line of
standard output is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  Outputs are
checked: exit codes against what each op may return, report structure against
the exit code, and at the default seed every report's SHA-256 against
bench/digests.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402
import tracing  # noqa: E402
from worker import load_workloads, pass_ops  # noqa: E402

SETUP_REPEATS = 7
SETUP_KERNEL_RUNS = 5  # kernel runs on each side of a set-up
RUN_LIMIT_S = 170  # a run must end within 180 s
FRESH_MIN_OPS = 4


def median_norm(records: list[dict], field: str = "norm_s") -> dict[str, float]:
    by_tpl: dict[str, list[float]] = {}
    for rec in records:
        if rec.get("exit") is not None and field in rec:
            by_tpl.setdefault(rec["template"], []).append(rec[field])
    return {name: statistics.median(v) for name, v in by_tpl.items()}


def pass_total(workload: dict, per_template: dict[str, float]) -> float:
    """Sum over one pass of a per-template figure (0 for a template with no
    usable op, which only happens in a run that is already incorrect)."""
    return sum(tpl.get("count", 1) * per_template.get(tpl["name"], 0.0) for tpl in workload["pass"])


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_fingerprint(span_guard: int | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "span_guard": span_guard,
        "c_ref_s": kernel.C_REF,
    }


class Run:
    """One workload run: set-up, sweep, checks and metrics."""

    def __init__(self, name: str, workload: dict, args, digests: dict, stride: int):
        self.name = name
        self.wl = workload
        self.args = args
        self.digests = digests
        self.seed_base = args.seed * stride
        self.out = ROOT / ".bench_out" / name
        self.art = self.out / "art"
        self.problems: list[str] = []
        self.t0 = time.perf_counter()

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def _worker(self, *argv: str) -> subprocess.CompletedProcess | None:
        """Run worker.py to completion; None (and a problem noted) when it
        would outlast the run's time limit, in which case it is killed."""
        try:
            return subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), *argv],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self._remaining()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {' '.join(argv[:2])} killed at the {RUN_LIMIT_S} s run limit")
            return None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> list[float]:
        """Normalized times of fresh-interpreter set-ups, each bracketed by
        kernel blocks (a child process cannot be probed from inside)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.art.mkdir(parents=True)
        kernel.run_kernel()
        times = []
        k_prev = _kernel_block()
        for rep in range(SETUP_REPEATS + 1):
            t = time.perf_counter()
            proc = self._worker("setup", self.name, str(self.art))
            dt = time.perf_counter() - t
            k_next = _kernel_block()
            if proc is None:
                break
            if proc.returncode != 0:
                self.problems.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                break
            if rep:  # the first repeat warms the bytecode cache and is not counted
                speeds = [kernel.C_REF / k for k in k_prev + k_next]
                times.append(dt * sum(speeds) / len(speeds))
            k_prev = k_next
        for fname, want in self.digests.get("artifacts", {}).get(self.name, {}).items():
            path = self.art / fname
            got = _sha256(path) if path.exists() else None
            if got != want:
                self.problems.append(f"artifact {fname}: sha256 {got} != recorded {want}")
        return times

    # -- sweep ----------------------------------------------------------------

    def _sweep_worker(self, first: int, max_ops, min_ops: int, seconds: float) -> dict | None:
        spec = {
            "workload": self.name,
            "first_op": first,
            "max_ops": max_ops,
            "min_ops": min_ops,
            "seconds": seconds,
            "trace": bool(self.args.trace),
            "seed_base": self.seed_base,
            "art": str(self.art),
            "out": str(self.out),
        }
        spec_path = self.out / f"spec-{first}.json"
        result_path = self.out / f"result-{first}.json"
        spec_path.write_text(json.dumps(spec))
        proc = self._worker("sweep", str(spec_path), str(result_path))
        if proc is None:
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.problems.append(f"sweep worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        return json.loads(result_path.read_text())

    def sweep(self) -> list[dict]:
        """Worker results; one worker, or one per op for fresh-interpreter workloads."""
        per_pass = len(pass_ops(self.wl))
        trace = bool(self.args.trace)
        min_ops = per_pass * (2 if trace else 1)
        if not self.wl["fresh_interpreter_per_op"]:
            result = self._sweep_worker(0, None, min_ops, self.args.seconds)
            return [result] if result else []
        # one-op passes of several seconds: a median needs a few of them
        min_ops = max(min_ops, FRESH_MIN_OPS)
        results = []
        start = time.perf_counter()
        last = 0.0
        g = 0
        while g < min_ops or time.perf_counter() - start + last <= self.args.seconds:
            t = time.perf_counter()
            result = self._sweep_worker(g, 1, 1, 0)
            if result is None:
                break
            results.append(result)
            last = time.perf_counter() - t
            g += 1
        return results

    # -- checks ---------------------------------------------------------------

    def check(self, records: list[dict]) -> int:
        """Number of ops whose outcome is wrong; details go to self.problems."""
        allowed = {t["name"]: {0, 1} if t.get("may_fail") else {0} for t in self.wl["pass"]}
        recorded = self.digests.get("ops", {})
        bad = 0
        for rec in records:
            why = None
            rc = rec.get("exit")
            if rec.get("error"):
                why = rec["error"]
            elif rc not in allowed[rec["template"]]:
                why = f"exit {rc}"
            elif not rec.get("report_ok"):
                why = "malformed report"
            elif (rc == 1) != (rec["report_failures"] > 0):
                why = f"exit {rc} with {rec['report_failures']} failed claims in the report"
            elif rec["key"] in recorded:
                want = recorded[rec["key"]]
                if want["exit"] == 0 and (rc != 0 or rec["sha256"] != want["sha256"]):
                    why = f"exit {rc}, sha256 {rec['sha256'][:16]} != recorded {want['sha256'][:16]}"
            if why:
                bad += 1
                self.problems.append(f"op {rec['op']} [{rec['key']}]: {why}")
        return bad

    def digest_checked(self, records: list[dict]) -> int:
        recorded = self.digests.get("ops", {})
        return sum(1 for r in records if r["key"] in recorded and recorded[r["key"]]["exit"] == 0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _kernel_block() -> list[float]:
    return [kernel.run_kernel() for _ in range(SETUP_KERNEL_RUNS)]


def fail_frac(workload: dict, records: list[dict]) -> float:
    """Share of ops that exited non-zero, weighted so that a partial last pass
    counts each template as often as a whole pass would."""
    rates = {}
    for tpl in workload["pass"]:
        runs = [r for r in records if r["template"] == tpl["name"]]
        if runs:
            rates[tpl["name"]] = sum(1 for r in runs if r.get("exit") != 0) / len(runs)
    return pass_total(workload, rates) / len(pass_ops(workload))


def end_to_end(run: Run, setup_times: list[float], results: list[dict]) -> tuple[dict, list[str]]:
    records = [r for res in results for r in res["records"]]
    wl = run.wl
    sweep = pass_total(wl, median_norm(records))
    sweep_raw = pass_total(wl, median_norm(records, "raw_s"))
    entries = pass_total(wl, median_norm(records, "entries"))
    rss = statistics.median(res["maxrss_kb"] for res in results) / 1024
    ff = fail_frac(wl, records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (sweep, "s"),
        "claims_per_s": (entries / sweep if sweep else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "pass_frac": (1 - ff, "ratio"),
    }
    lines = [
        f"  setup_s      {metrics['setup_s'][0]:.4f} s  (median of {len(setup_times)} fresh interpreters)",
        f"  sweep_s      {sweep:.4f} s  (raw {sweep_raw:.4f} s, not gated; {len(records)} ops)",
        f"  claims_per_s {metrics['claims_per_s'][0]:.1f} 1/s  ({entries:.0f} report entries per pass)",
        f"  peak_rss_mb  {rss:.1f} MB",
        f"  fail_frac    {ff:.4f}  (pass_frac {1 - ff:.4f}; known false FAILs are counted)",
    ]
    by_tpl: dict[str, list[float]] = {}
    for rec in records:
        by_tpl.setdefault(rec["template"], []).append(rec["norm_s"])
    for name, values in by_tpl.items():
        t = tail(values)
        t_text = f"p{t[0]} {t[1]:.4f} s" if t else "tail n/a"
        lines.append(f"    op {name:<20} n={len(values):<3} median {statistics.median(values):.4f} s  {t_text}")
    return metrics, lines


def per_layer(run: Run, results: list[dict]) -> tuple[dict, list[str]]:
    records = [r for res in results for r in res["records"]]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    passes = max(1, len({r["pass"] for r in traced}))
    sweep_untraced = pass_total(run.wl, median_norm(untraced))
    sweep_traced = pass_total(run.wl, median_norm(traced))

    spans: dict[str, list] = {}
    samples: dict[str, int] = {}
    builds: list[list[int]] = []
    dy_ops = dy_ctor = bits = 0
    for res in results:
        tr = res["trace"]
        for name, (n, secs) in tr["spans"].items():
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += n
            agg[1] += secs
        for mod, n in tr["samples"].items():
            samples[mod] = samples.get(mod, 0) + n
        builds.extend(tr["builds"])
        dy_ops += tr["dyadic_ops"]
        dy_ctor += tr["dyadic_ctor"]
        bits = max(bits, tr["mantissa_bits_max"])
    budget = results[0]["escape_budget"]
    layer_samples = sum(samples.get(m, 0) for m in tracing.SAMPLED_MODULES)

    def calls(prefix: str) -> float:
        return sum(n for name, (n, _) in spans.items() if name.startswith(prefix)) / passes

    def us(name: str) -> float:
        n, secs = spans.get(name, (0, 0.0))
        return secs / n * 1e6 if n else 0.0

    def self_s(module: str) -> float:
        return sweep_untraced * samples.get(module, 0) / layer_samples if layer_samples else 0.0

    blocks_built = sum(sum(b) for b in builds)
    exact_ops = dy_ops / passes
    m = {
        "cli.calls": (calls("cli."), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "report.self_s": (self_s("report"), "s"),
        "report.bytes": (sum(r.get("report_bytes", 0) for r in traced) / passes, "B"),
        "universal.calls": (calls("universal."), "count"),
        "universal.self_s": (self_s("universal"), "s"),
        "universal.builds": (sum(len(b) for b in builds) / passes, "count"),
        "universal.blocks_built": (blocks_built / passes, "count"),
        "universal.build_reuse": (sum(max(b) for b in builds) / blocks_built if blocks_built else 0.0, "ratio"),
        "universal.witness_us": (us("universal.covering_witness"), "us"),
        "universal.escape_components": (sum(r.get("escape_components", 0) for r in traced) / passes, "count"),
        "universal.escape_budget_frac": (max((r.get("escape_max_components", 0) for r in traced), default=0) / budget, "ratio"),
        "dense_divergence.calls": (calls("dense_divergence."), "count"),
        "dense_divergence.self_s": (self_s("dense_divergence"), "s"),
        "interior_gap.calls": (calls("interior_gap."), "count"),
        "interior_gap.self_s": (self_s("interior_gap"), "s"),
        "lattice.calls": (calls("lattice."), "count"),
        "lattice.self_s": (self_s("lattice"), "s"),
        "lattice.floor_sum_calls": (calls("lattice.floor_sum"), "count"),
        "lattice.count_ap_calls": (calls("lattice.count_ap_in_periodic"), "count"),
        "lattice.count_ap_us": (us("lattice.count_ap_in_periodic"), "us"),
        "lattice.count_upto_calls": (calls("lattice.GapBlockSeq.count_upto"), "count"),
        "lattice.count_upto_us": (us("lattice.GapBlockSeq.count_upto"), "us"),
        "lattice.value_at_us": (us("lattice.GapBlockSeq.value_at"), "us"),
        "lattice.sum_pl_calls": (calls("lattice.sum_pl_over_ap"), "count"),
        "lattice.sum_pl_us": (us("lattice.sum_pl_over_ap"), "us"),
        "exactnum.ops": (exact_ops, "count"),
        "exactnum.ctor_calls": (dy_ctor / passes, "count"),
        "exactnum.self_s": (self_s("exactnum"), "s"),
        "exactnum.ns_per_op": (self_s("exactnum") / exact_ops * 1e9 if exact_ops else 0.0, "ns"),
        "exactnum.mantissa_bits_max": (bits, "bits"),
        "exactnum.self_share": (samples.get("exactnum", 0) / layer_samples if layer_samples else 0.0, "ratio"),
        "trace.overhead_s": (sweep_traced - sweep_untraced, "s"),
    }
    lines = [
        f"  traced passes {passes}, untraced sweep_s {sweep_untraced:.4f} s, traced {sweep_traced:.4f} s, "
        f"overhead {sweep_traced - sweep_untraced:+.4f} s",
        f"  stack samples: " + ", ".join(f"{k} {v}" for k, v in sorted(samples.items())),
    ]
    lines += [f"  {name:<30} {value:.6g} {unit}" for name, (value, unit) in m.items()]
    return m, lines


def run_workload(name: str, workload: dict, args, config: dict, digests: dict) -> dict:
    run = Run(name, workload, args, digests, config["seed_stride"])
    setup_times = run.setup()
    results = run.sweep() if not run.problems else []
    records = [r for res in results for r in res["records"]]
    failed = run.check(records) + (0 if results else 1)
    attempted = max(1, len(records))
    correct = failed == 0 and not run.problems
    span_guard = results[0]["span_guard"] if results else None
    print(f"== {name}  seed {args.seed}  trace {args.trace}  why: {workload['why']}")
    print("  host " + json.dumps(host_fingerprint(span_guard)))
    metrics: dict = {}
    if results and setup_times:
        metrics, lines = per_layer(run, results) if args.trace else end_to_end(run, setup_times, results)
        print("\n".join(lines))
    print(f"  digest check: {run.digest_checked(records)} reports compared with bench/digests.json "
          f"(recorded at seed {config['default_seed']})")
    for problem in run.problems:
        print(f"  PROBLEM {problem}")
    print(f"  correct {correct}: {attempted} ops, {failed} with a wrong outcome")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    config = load_workloads()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*config["workloads"], "all"])
    p.add_argument("--seed", type=int, default=config["default_seed"])
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dyadlab" / "cli.py").is_file():
        print(f"no dyadlab sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(BENCH / "digests.json") as fh:
        digests = json.load(fh)
    names = list(config["workloads"]) if args.workload == "all" else [args.workload]
    outs = {name: run_workload(name, config["workloads"][name], args, config, digests) for name in names}
    if len(outs) == 1:
        final = next(iter(outs.values()))
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{n}.{k}": v for n, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final, separators=(", ", ": ")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
