"""Record bench/digests.json: exit code and report SHA-256 of the first ops of
every workload at the default seed, and the SHA-256 of each set-up artifact.

    python3 bench/record_digests.py

Run from the root of a checkout whose report bytes are the reference.  A
report digest is stored only for an op that exits 0.  Record more ops than a
run reaches, so that every op of a default-seed run is compared.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import load_workloads, pass_ops  # noqa: E402

OPS_RECORDED = {"covering-deep": 150, "series-sweep": 96, "escape-row1": 1, "tent-sums": 110}


def _worker(*argv: str) -> None:
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def main() -> int:
    config = load_workloads()
    seed_base = config["default_seed"] * config["seed_stride"]
    out = ROOT / ".bench_out" / "record"
    digests: dict = {"artifacts": {}, "ops": {}}
    for name, wl in config["workloads"].items():
        art = out / name / "art"
        art.mkdir(parents=True, exist_ok=True)
        _worker("setup", name, str(art))
        digests["artifacts"][name] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(art.iterdir())
        }
        spec = {"workload": name, "first_op": 0, "max_ops": OPS_RECORDED[name],
                "min_ops": OPS_RECORDED[name], "seconds": 0, "trace": False,
                "seed_base": seed_base, "art": str(art), "out": str(out / name)}
        spec_path, result_path = out / name / "spec.json", out / name / "result.json"
        spec_path.write_text(json.dumps(spec))
        _worker("sweep", str(spec_path), str(result_path))
        records = json.loads(result_path.read_text())["records"]
        if len(records) != OPS_RECORDED[name]:
            raise SystemExit(f"{name}: recorded {len(records)} ops, wanted {OPS_RECORDED[name]}")
        for rec in records:
            entry = {"exit": rec["exit"]}
            if rec["exit"] == 0:
                entry["sha256"] = rec["sha256"]
            digests["ops"][rec["key"]] = entry
        print(f"{name}: {len(records)} ops, {len(pass_ops(wl))} per pass, "
              f"exits {sorted({r['exit'] for r in records}, key=str)}")
    with open(BENCH / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
