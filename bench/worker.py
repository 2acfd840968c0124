"""Benchmark worker: runs in a fresh interpreter started by `run.py`.

    worker.py setup <workload> <artifact dir>
        import dyadlab.cli and write the workload's `construct` artifacts;
        the parent times the whole process.
    worker.py sweep <spec.json> <result.json>
        run verify ops in-process, each normalized by reference-kernel runs
        around and inside it, and write one JSON result with a record per op.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import kernel  # noqa: E402

OP_TIMEOUT_S = 90
PROBE_INTERVAL_S = 0.02  # in-op kernel probes cost about 5% of an op


def import_cli():
    """Import dyadlab.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import dyadlab
    import dyadlab.cli

    where = Path(dyadlab.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"dyadlab imported from {where}, not from {SRC}")
    return dyadlab, dyadlab.cli


def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def pass_ops(workload: dict) -> list[dict]:
    """The op templates of one pass, each `count` expanded in order."""
    ops = []
    for tpl in workload["pass"]:
        ops.extend([tpl] * tpl.get("count", 1))
    return ops


def op_argv(tpl: dict, op_seed: int, art: str) -> list[str]:
    return [a.format(seed=op_seed, art=art) for a in tpl["argv"]]


def op_key(tpl: dict, op_seed: int) -> str:
    """Identity of an op for the digest table: its argv with the artifact
    directory left symbolic."""
    return " ".join(op_argv(tpl, op_seed, "{art}"))


class OpTimeout(Exception):
    pass


class SpeedProbe:
    """Runs the reference kernel from a SIGALRM timer while an op runs, so the
    op's normalization sees the host speed during the op, not just around it.
    The probe also enforces the op time limit."""

    def __init__(self):
        self.kernel_times: list[float] = []
        self.spent = 0.0
        self.deadline = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if t0 > self.deadline:
            raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")
        self.kernel_times.append(kernel.run_kernel())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.kernel_times, self.spent = [], 0.0
        self.deadline = time.perf_counter() + OP_TIMEOUT_S
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def run_setup(workload_name: str, art: str) -> int:
    _, cli = import_cli()
    wl = load_workloads()["workloads"][workload_name]
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        for argv in wl["setup"]:
            rc = cli.main([a.format(art=art) for a in argv])
            if rc != 0:
                return 1
    return 0


def _report_facts(path: Path, facts: dict) -> None:
    """Digest, size and structure of one `--report` file, recorded into facts."""
    data = path.read_bytes()
    facts["sha256"] = hashlib.sha256(data).hexdigest()
    facts["report_bytes"] = len(data)
    entries = json.loads(data)
    facts["entries"] = len(entries)
    keys_ok = all(
        isinstance(e, dict) and set(e) == {"claim", "params", "lhs", "rhs", "pass"} for e in entries
    )
    claims = [e["claim"] for e in entries] if keys_ok else []
    facts["report_ok"] = keys_ok and claims == sorted(claims)
    facts["report_failures"] = sum(
        1 for e in entries if keys_ok and not e["pass"] and not e["params"].get("informational")
    )
    escape = [e["params"] for e in entries if keys_ok and e["claim"].startswith("escape-measure/")]
    facts["escape_components"] = sum(
        p["translates"] * p["components"] for p in escape if "translates" in p
    )
    facts["escape_max_components"] = max(
        (p["translates"] * p["components"] for p in escape if "translates" in p), default=0
    )


def run_sweep(spec: dict) -> dict:
    """Run ops `first_op`, `first_op`+1, ... of the workload's endless pass
    sequence until `seconds` have passed (after at least `min_ops`) or
    `max_ops` ran.  With `trace`, odd passes run traced and even ones plain,
    and the budget is only checked at pass boundaries."""
    dyadlab, cli = import_cli()
    wl = load_workloads()["workloads"][spec["workload"]]
    ops = pass_ops(wl)
    out_dir = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(dyadlab)
    universal = sys.modules["dyadlab.universal"]
    budget = inspect.signature(universal.escape_measure_bruteforce).parameters["budget"].default

    probe = SpeedProbe()
    kernel.run_kernel()  # warm-up, discarded
    records: list[dict] = []
    first, max_ops = spec["first_op"], spec["max_ops"]
    last_raw: dict[str, float] = {}
    g = first
    k_prev = kernel.run_kernel()
    t_start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while max_ops is None or g - first < max_ops:
            tpl = ops[g % len(ops)]
            p = g // len(ops)
            if g - first >= spec["min_ops"] and (tracer is None or g % len(ops) == 0):
                if tracer is None:
                    guess = last_raw.get(tpl["name"], tpl["expect_s"])
                else:
                    guess = sum(last_raw.get(t["name"], t["expect_s"]) for t in ops)
                if time.perf_counter() - t_start + guess > spec["seconds"]:
                    break
            traced = tracer is not None and p % 2 == 1
            if tracer is not None and traced != tracer.patched:
                tracer.patch() if traced else tracer.unpatch()
            op_seed = spec["seed_base"] + g
            report = out_dir / f"op-{g}.json"
            argv = op_argv(tpl, op_seed, spec["art"]) + ["--report", str(report)]
            rec = {"op": g, "pass": p, "template": tpl["name"], "key": op_key(tpl, op_seed),
                   "traced": traced, "error": None}
            if traced:
                span_lo = len(tracer.spans)
                tracer.start_op(g)
            probe.start()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sink):
                    rc = cli.main(argv)
            except OpTimeout as exc:
                rc, rec["error"] = None, str(exc)
            except Exception as exc:  # a traceback in the program is a failed op
                rc, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            probe.stop()
            raw = time.perf_counter() - t0 - probe.spent
            if traced:
                tracer.end_op()
                rec["span_range"] = [span_lo, len(tracer.spans)]
            k_next = kernel.run_kernel()
            speeds = [kernel.C_REF / k for k in [k_prev, *probe.kernel_times, k_next]]
            factor = sum(speeds) / len(speeds)
            rec.update(exit=rc, raw_s=raw, factor=factor, norm_s=raw * factor, probes=len(speeds),
                       k_brackets=(k_prev + k_next) / 2,
                       k_probes=statistics.fmean(probe.kernel_times) if probe.kernel_times else None)
            k_prev = k_next
            last_raw[tpl["name"]] = raw
            records.append(rec)
            g += 1
    if tracer is not None:
        tracer.close()

    for rec in records:
        path = out_dir / f"op-{rec['op']}.json"
        if not path.exists():
            continue
        try:
            _report_facts(path, rec)
        except (ValueError, KeyError, TypeError) as exc:
            rec["report_ok"] = False
            rec["error"] = rec["error"] or f"unreadable report: {exc}"
        path.unlink()
    result = {
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_guard": sys.modules["dyadlab.exactnum"].span_guard(),
        "escape_budget": budget,
    }
    if tracer is not None:
        result["trace"] = summarize_trace(tracer, records)
        tracer.write_spans(str(out_dir / f"spans-{first}.jsonl"))
    return result


def summarize_trace(tracer, records: list[dict]) -> dict:
    """Totals over the traced ops: span count and normalized inclusive seconds
    per span name, builds, stack samples per module, and Dyadic call counts."""
    spans: dict[str, list] = {}
    for rec in records:
        if not rec["traced"]:
            continue
        lo, hi = rec["span_range"]
        for name, start, end, _parent, _op in tracer.spans[lo:hi]:
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) * rec["factor"]
    builds: dict[int, list[int]] = {}
    for op, blocks in tracer.builds:
        builds.setdefault(op, []).append(blocks)
    total_ops, ctor_calls = tracer.dyadic_totals()
    return {
        "spans": spans,
        "builds": list(builds.values()),
        "samples": tracer.samples,
        "dyadic_ops": total_ops,
        "dyadic_ctor": ctor_calls,
        "mantissa_bits_max": tracer.mantissa_bits_max[0],
    }


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return run_setup(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "sweep":
        with open(argv[1]) as fh:
            spec = json.load(fh)
        result = run_sweep(spec)
        with open(argv[2], "w") as fh:
            json.dump(result, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
