"""Run the benchmark over a range of seeds and summarize it as one JSON file.

    python3 perfbench/baseline.py --seeds 300-309 --out perfbench/results/BENCH_baseline.json
    python3 perfbench/baseline.py --seeds 400-409 --out second.json \
        --against perfbench/results/BENCH_baseline.json

For every workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed and `run.py --trace 1` on the first seed, one invocation at a time.
For each end-to-end metric it records the values, their median, their
quartiles and their spread, the quartile distance over the median; the
traced run's per-layer metrics are recorded as they are.

A metric's declared bound is checked in two ways. Its spread must stay
within the bound, for every metric but `setup_s`. With `--against`, the
median of this set must not be worse than that of the earlier set by more
than the bound, for every metric, `setup_s` included. Exits 1 if any
invocation reports `correct: false` or any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark invocation: (its last-line summary, its full result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    full = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return summary, json.loads(full.read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, inclusive")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    summary, correct, checks_pass = {"workloads": {}}, True, True
    for spec in declared["workloads"]:
        workload = spec["name"]
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, full = invoke(workload, seed, declared["run_seconds"], 0)
            correct = correct and result["correct"]
            summary.setdefault("environment", {
                k: v for k, v in full["environment"].items() if k not in ("workload", "seed", "trace")
            })
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.3f}", flush=True)
        end_to_end = {}
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry = {
                "unit": metric["unit"],
                "median": median,
                "quartiles": [q1, q3],
                "spread": (q3 - q1) / median,
                "bound": bound,
                "values": vals,
            }
            ok = name == "setup_s" or entry["spread"] <= bound
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                worse = (median - before if metric["better"] == "lower" else before - median) / before
                entry["worse_than_earlier"] = worse
                ok = ok and worse <= bound
            entry["within_bound"] = ok
            checks_pass = checks_pass and ok
            end_to_end[name] = entry
        traced, traced_full = invoke(workload, args.seeds[0], declared["run_seconds"], 1)
        correct = correct and traced["correct"]
        summary["workloads"][workload] = {
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "per_layer_seed": args.seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_details": {
                k: v for k, v in traced_full["details"].items() if k != "outputs"
            },
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    for workload, data in summary["workloads"].items():
        for name, m in data["end_to_end"].items():
            drift = f" worse {m['worse_than_earlier']:+.3f}" if "worse_than_earlier" in m else ""
            print(f"{workload:14s} {name:20s} median {m['median']:12.6g} {m['unit']:4s}"
                  f" spread {m['spread']:.3f}{drift} (bound {m['bound']})"
                  f"{'' if m['within_bound'] else ' OUT OF BOUND'}")
    return 0 if correct and checks_pass else 1


if __name__ == "__main__":
    sys.exit(main())
