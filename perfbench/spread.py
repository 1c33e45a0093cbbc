"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--out FILE]

Runs ``run.py`` once per seed (untraced, at BENCHMARK.json's run_seconds)
and prints, per metric, the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, which must stay
within the metric's bound.  The timings before scaling to nominal speed
(see speed.py) are listed too, as ``unscaled.*``, without a bound.  With
``--out`` the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # the timings before scaling to nominal speed, for comparison
        for line in proc.stdout.splitlines():
            if line.startswith("unscaled: "):
                for pair in line.split()[1:]:
                    name, _, value = pair.partition("=")
                    values.setdefault(f"unscaled.{name}", []).append(float(value))
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        print(f"{name:20s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}  bound {bounds.get(name)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
