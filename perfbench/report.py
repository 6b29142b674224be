"""Run every workload untraced and traced with one seed and print the tables.

    python3 perfbench/report.py [--seed N]

Each workload runs four times in the order untraced, traced, traced,
untraced. Row per workload: every end-to-end metric by name and unit, from
the first untraced run. Then the per-layer metrics of the first traced run,
one column per workload, and the tracing overhead: the traced runs' summed
op time over the untraced runs', on the ops all four completed. They see the
same inputs in the same order, and the mirrored order cancels a steady drift
in the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int, log: Path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--log", str(log)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(log, encoding="utf-8") as fh:
        times = [json.loads(line)["s"] for line in fh if line.startswith('{"op"')]
    return result, times


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"# seed {args.seed}, {seconds} s per run, nproc {os.cpu_count()}, "
          f"Python {platform.python_version()}")
    untraced, traced, overhead = {}, {}, {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        log = Path(tmp) / "ops.jsonl"
        for w in workloads:
            untraced[w], u1 = run(w, args.seed, seconds, 0, log)
            traced[w], t1 = run(w, args.seed, seconds, 1, log)
            _, t2 = run(w, args.seed, seconds, 1, log)
            _, u2 = run(w, args.seed, seconds, 0, log)
            k = min(map(len, (u1, t1, t2, u2)))
            overhead[w] = (sum(t1[:k]) + sum(t2[:k])) / (sum(u1[:k]) + sum(u2[:k])) - 1.0

    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    cols = ["workload", "ops", "undecided", "correct"] + [f"{n} [{units[n]}]" for n in names]
    print("\t".join(cols))
    for w in workloads:
        r = untraced[w]
        row = [w, str(r["attempted"]), str(r["failed"]), str(r["correct"])]
        row += [f"{r['metrics'][n]['value']:.6g}" for n in names]
        print("\t".join(row))

    print()
    print("\t".join(["per-layer metric [unit]"] + workloads))
    for m in spec["per_layer"]:
        row = [f"{m['name']} [{m['unit']}]"]
        row += [f"{traced[w]['metrics'][m['name']]['value']:.4g}" for w in workloads]
        print("\t".join(row))
    print("\t".join(["tracing overhead [share]"] + [f"{overhead[w]:.3f}" for w in workloads]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
