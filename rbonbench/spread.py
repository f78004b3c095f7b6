"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 rbonbench/spread.py --workload sweep --seeds 0-9 [--trace 0] [--out FILE]

Spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, the figure a
metric's bound in BENCHMARK.json must cover. Runs are sequential, so they
do not compete with each other for the machine. --out writes the medians,
quartiles and every run's provenance as JSON, the form of baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(results):
    names = results[0][1]["metrics"]
    table = {}
    for name in names:
        values = [r[1]["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        table[name] = {
            "unit": names[name]["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values,
        }
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", default="0-9", type=seed_list, help="e.g. 0-9 or 5")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            result = results[-1][1]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        table = summarize(results)
        for name, row in table.items():
            print(f"  {name:34s} median {row['median']:12.6g} {row['unit']:6s} "
                  f"spread {row['spread']:7.4f}")
        summary[workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "all_correct": all(r[1]["correct"] for r in results),
            "metrics": table,
            "provenance": [r[0]["provenance"] for r in results],
            "accuracy": [r[0]["accuracy"] for r in results],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
