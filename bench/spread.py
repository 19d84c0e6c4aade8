"""Run the benchmark once per seed and report each end-to-end metric's median and spread.

    python3 bench/spread.py --workload kemf-many --seeds 1-10

The spread is the distance between the first and third quartile of the
per-seed values (`statistics.quantiles(values, n=4)`) as a share of their
median.  A metric is flagged when its spread exceeds a third of the bound
in BENCHMARK.json.  Runs are sequential, each in a fresh process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)

    worst = 0.0
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
        print(f"{metric['name']:22s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {spread:.3f} bound {metric['bound']}{flag}")
    print(f"all correct: {all(r['correct'] for r in results)}; "
          f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
