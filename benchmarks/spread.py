"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload eval-many --seeds 0-9
    python3 benchmarks/spread.py --workload eval-many --seeds 0-9 --trace 1 --out spread.json
    python3 benchmarks/spread.py --workload cli-quickstart --seeds 0-9 --update-reference

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median. ``--update-reference`` stores each seed's deterministic output
values (descriptor counts, accuracies, report digests) in
``reference.json``, which ``run.py`` then checks on every later run of
those seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="a range like 0-9 or a list like 3,5,8")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the per-seed metrics and the summary as JSON")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    runs, failures = {}, 0
    for seed in parse_seeds(args.seeds):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if child.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"seed {seed}: FAILED (exit {child.returncode})\n{child.stdout[-2000:]}{child.stderr[-2000:]}")
            continue
        record = json.loads((ROOT / ".egobench" / f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        runs[seed] = {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
                      "row": {k: m["value"] for k, m in record["end_to_end"].items()},
                      "values": record["values"]}
        shown = " ".join(f"{k}={v:.4g}" for k, v in runs[seed]["row"].items())
        print(f"seed {seed}: {shown}", flush=True)

    if not runs:
        return 1
    names = next(iter(runs.values()))["metrics" if args.trace else "row"]
    summary = {}
    print(f"{args.workload}: {len(runs)} runs, {failures} failed")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in names:
        values = [r["metrics" if args.trace else "row"][name] for r in runs.values()]
        summary[name] = s = summarize(values)
        print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                              "seconds": args.seconds, "runs": runs,
                                              "summary": summary}, indent=2) + "\n")
    if args.update_reference:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text())
        entry = reference.setdefault(args.workload, {})
        entry.update({str(seed): run["values"] for seed, run in runs.items()})
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
