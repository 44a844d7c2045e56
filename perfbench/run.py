"""The datamarket benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Each measurement runs in a fresh,
single-threaded worker process (`worker.py`), one at a time, in a closed
loop: every scenario runs to quiescence before the next one starts.

--trace 0 reports the end-to-end metrics. It repeats whole runs of the
workload (at least `MIN_RUNS`, and more until --seconds have passed). Each
run is preceded by `SETUP_PER_RUN` workers that only import the package
and generate the scenarios, and followed by one that times passes of
`verify_journal` over the run's journals in a process of its own, as
`datamarket verify` does. Each end-to-end metric is the median over those
workers, or over all verify passes. Timings are in reference seconds, host
seconds corrected for the host's speed at the time (see `worker.py`); the
host seconds are kept in the full result.

--trace 1 reports the per-layer metrics: one untraced run, one run with the
package's public functions rebound to span wrappers (`tracing.py`), one
run under cProfile with self time bucketed by module, and microbenchmarks
of single operations.

Every run checks its outputs (report ok, quiescence, settlement and journal
event counts, `verify_journal` agreeing with the live ledger) and records
the sha256 of every journal and state digest; these must be identical in
every run of one invocation. `attempted` counts the workers started and
`failed` those that crashed, failed a check or produced different outputs.
The full result, with the environment header, goes to `perfbench/out/`;
the last line of standard output is the JSON summary
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "datamarket"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_PER_RUN = 2
MIN_RUNS = 2
# No worker starts or keeps running past this, so an invocation ends
# within three minutes.
DEADLINE_S = 170.0

# The ROADMAP's single-shot µs/op figures, recorded beside the
# microbenchmarks for comparison.
ROADMAP_MICRO_US = {
    "crypto.sign.micro_us_per_op": 120.0,
    "crypto.verify.micro_us_per_op": 205.0,
    "crypto.encrypt_for.micro_us_per_op": 143.0,
    "crypto.decrypt.micro_us_per_op": 146.0,
    "messages.DataResponse.digest.micro_us_per_op": 6.4,
    "messages.decode.micro_us_per_op": 17.5,
    # 0.21 s for 3,364 events at 80x40.
    "ledger.verify_journal.micro_us_per_event": 62.4,
}

CRYPTO_OPS = ["sign", "verify", "encrypt_for", "decrypt", "generate_keypair"]
LEDGER_OPS = ["register_order", "select_sellers", "close_response", "close_order"]
ACTOR_STEPS = ["Seller.step", "Buyer.step", "Buyer.handle", "Notary.handle"]
MODULES = ["crypto", "messages", "ledger", "transport", "actors", "runner", "scenario"]


class WorkerError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"{mode}: no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode}: worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode}: worker exited {proc.returncode}: {proc.stderr[-1500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"{mode}: worker printed no result") from None


class Runs:
    """Worker processes of one invocation. Every workload run must pass its
    own checks and repeat the outputs of the first run; a worker that
    crashes, fails a check or differs counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def add(self, label: str, call) -> dict | None:
        self.attempted += 1
        try:
            result = call()
        except WorkerError as exc:
            self.fail(f"{label}: {exc}")
            return None
        if "outputs" in result and self.reference is None:
            self.reference = result["outputs"]
        if result.get("problems"):
            self.fail(f"{label}: {'; '.join(result['problems'][:5])}")
        elif "outputs" in result and result["outputs"] != self.reference:
            self.fail(f"{label}: outputs differ from the first run")
        return result

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_metrics(args, deadline: float) -> tuple[Runs, dict, dict]:
    runs = Runs()
    setups, results, verifies = [], [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for _ in range(SETUP_PER_RUN):
            setups.append(
                runs.add(
                    f"setup {len(setups) + 1}",
                    lambda: spawn("setup", args.workload, args.seed, deadline),
                )
            )
        result = runs.add(
            f"run {len(results) + 1}",
            lambda: spawn("run", args.workload, args.seed, deadline),
        )
        if result is not None:
            results.append(result)
            verify = runs.add(
                f"verify {len(results)}",
                lambda: spawn("verify", args.workload, args.seed, deadline),
            )
            if verify is not None:
                verifies.append(verify)
        now = time.monotonic()
        if len(results) >= MIN_RUNS and now - start >= args.seconds:
            break
        if deadline - now < 1.5 * (now - began):
            break
    if not results or not verifies:
        return runs, {}, {}
    setup_s = [r["setup_s"] for r in setups + results if r is not None]
    wall = statistics.median(r["wall_s"] for r in results)
    pass_s = [t for v in verifies for t in v["pass_s"]]
    out = runs.reference
    metrics = {
        "wall_s": (wall, "s"),
        "settlements_per_s": (out["settlements"] / wall, "1/s"),
        "events_per_s": (out["events"] / wall, "1/s"),
        "verify_events_per_s": (verifies[0]["events_per_pass"] / statistics.median(pass_s), "1/s"),
        "scenario_ms_p50": (statistics.median(percentile(r["scenario_ms"], 50) for r in results), "ms"),
        "scenario_ms_p99": (statistics.median(percentile(r["scenario_ms"], 99) for r in results), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    details = {
        "runs_behind_each_median": len(results),
        "setup_samples": len(setup_s),
        "verify_passes": len(pass_s),
        "scenario_latency_samples_per_run": out["scenarios"],
        "wall_s_per_run": [r["wall_s"] for r in results],
        "host_wall_s_per_run": [r["host_wall_s"] for r in results],
        "speeds_per_run": [r["speeds"] for r in results],
        "setup_s_samples": setup_s,
        "host_setup_s_samples": [r["host_setup_s"] for r in setups + results if r is not None],
        "verify_pass_s": pass_s,
        "host_verify_pass_s": [t for v in verifies for t in v["host_pass_s"]],
        "outputs": out,
    }
    return runs, metrics, details


def layer_metrics(args, deadline: float) -> tuple[Runs, dict, dict]:
    runs = Runs()
    plain = runs.add("untraced run", lambda: spawn("run", args.workload, args.seed, deadline))
    traced = runs.add("traced run", lambda: spawn("traced", args.workload, args.seed, deadline))
    profiled = runs.add("profiled run", lambda: spawn("profile", args.workload, args.seed, deadline))
    micro = runs.add("microbenchmarks", lambda: spawn("micro", args.workload, args.seed, deadline))
    if None in (plain, traced, profiled, micro):
        return runs, {}, {}

    out = runs.reference
    settlements, events = out["settlements"], out["events"]
    wall = traced["wall_s"]
    stats = traced["run_stats"]
    verify = traced["verify_stats"]
    shares = profiled["shares"]
    m = {}

    def per_op(name):
        s = stats[name]
        return s["total_s"] * 1e6 / s["calls"] if s["calls"] else 0.0

    def self_share(prefix):
        return sum(
            s["self_s"] for n, s in stats.items()
            if n.startswith(prefix + ".") and n != "runner.run_scenario"
        ) / wall

    for op in CRYPTO_OPS:
        m[f"crypto.{op}.calls"] = (stats[f"crypto.{op}"]["calls"], "count")
        m[f"crypto.{op}.us_per_op"] = (per_op(f"crypto.{op}"), "us")
    m["messages.decode.calls"] = (stats["messages.decode"]["calls"], "count")
    m["messages.decode.us_per_op"] = (per_op("messages.decode"), "us")
    for name in ["DataResponse.digest", "DataResponse.signing_bytes", "validate_response"]:
        m[f"messages.{name}.calls_per_settlement"] = (
            stats[f"messages.{name}"]["calls"] / settlements,
            "calls/settlement",
        )
    m["encoding.self_share"] = (shares.get("encoding", 0.0), "ratio")
    for op in LEDGER_OPS:
        m[f"ledger.{op}.us_per_op"] = (per_op(f"ledger.{op}"), "us")
    m["ledger.conservation_holds.calls_per_event"] = (
        stats["ledger.conservation_holds"]["calls"] / events,
        "calls/event",
    )
    m["ledger.conservation_holds.us_per_op"] = (per_op("ledger.conservation_holds"), "us")
    m["ledger.open_orders.calls"] = (stats["ledger.open_orders"]["calls"], "count")
    m["ledger.open_orders.us_per_op"] = (per_op("ledger.open_orders"), "us")
    # Inside the run, the invariant suite replays each journal once.
    m["ledger.replay.us_per_event"] = (stats["ledger.replay"]["total_s"] * 1e6 / events, "us")
    m["ledger.verify_journal.us_per_event"] = (
        verify["ledger.verify_journal"]["total_s"] * 1e6 / traced["verify_events"],
        "us",
    )
    m["ledger.journal_bytes.us_per_op"] = (per_op("ledger.journal_bytes"), "us")
    for name in ["send", "tick"]:
        m[f"transport.Network.{name}.calls"] = (stats[f"transport.Network.{name}"]["calls"], "count")
        m[f"transport.Network.{name}.us_per_op"] = (per_op(f"transport.Network.{name}"), "us")
    m["transport.sends_per_settlement"] = (out["sends"] / settlements, "sends/settlement")
    m["transport.transcript_bytes"] = (out["transcript_bytes"], "bytes")
    for step in ACTOR_STEPS:
        s = stats[f"actors.{step}"]
        m[f"actors.{step}.calls"] = (s["calls"], "count")
        m[f"actors.{step}.us_per_op"] = (per_op(f"actors.{step}"), "us")
        m[f"actors.{step}.self_share"] = (s["self_s"] / wall, "ratio")
    m["runner.run_invariants.s"] = (stats["runner.run_invariants"]["total_s"], "s")
    m["runner.run_invariants.share"] = (stats["runner.run_invariants"]["total_s"] / wall, "ratio")
    m["runner.build_report.s"] = (stats["runner.build_report"]["total_s"], "s")
    m["runner.tick_loop.s"] = (traced["tick_loop_s"], "s")
    m["scenario.generate.us_per_scenario"] = (traced["generate_s"] * 1e6 / out["scenarios"], "us")
    m["scenario.Scenario.validate.us_per_op"] = (per_op("scenario.Scenario.validate"), "us")
    for module in MODULES:
        m[f"{module}.self_share"] = (self_share(module), "ratio")
        m[f"{module}.profile_share"] = (shares.get(module, 0.0), "ratio")
    m["other.profile_share"] = (shares.get("other", 0.0), "ratio")
    # One traced and one untraced run differ by more through host noise
    # than through tracing, so the overhead is estimated from the span count
    # and the microbenchmarked cost of one span, figures that repeat.
    m["trace.overhead_s"] = (traced["spans"] * micro["span_cost_us"] / 1e6, "s")
    m["trace.coverage"] = (sum(m[f"{module}.self_share"][0] for module in MODULES), "ratio")
    m["trace.spans"] = (traced["spans"], "count")
    for name, value in micro["micro_us"].items():
        m[name] = (value, "us")

    details = {
        "runs_behind_each_value": 1,
        "untraced_wall_s": plain["host_wall_s"],
        "traced_wall_s": traced["wall_s"],
        "traced_over_untraced_wall": traced["wall_s"] / plain["host_wall_s"],
        "span_cost_us": micro["span_cost_us"],
        "transport_dropped_ratio": out["dropped"] / out["sends"],
        "profiled_wall_s": profiled["wall_s"],
        "spans_file": traced["spans_file"],
        "span_self_share_vs_profile_share": {
            module: {
                "span_self_share": m[f"{module}.self_share"][0] if module in MODULES else None,
                "profile_share": shares.get(module, 0.0),
            }
            for module in MODULES + ["encoding", "other"]
        },
        "micro_us_vs_roadmap": {
            name: {"measured": value, "roadmap": ROADMAP_MICRO_US.get(name)}
            for name, value in micro["micro_us"].items()
        },
        "micro_journal_events": micro["micro_journal_events"],
        "outputs": out,
    }
    return runs, m, details


def environment(args) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            revision = None
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        crypto_version = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto_version = None
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = layer_metrics if args.trace else timed_metrics
    runs, metrics, details = measure(args, deadline)
    result = {
        "environment": environment(args),
        "workload_seeds": WORKLOADS[args.workload].seeds(args.seed),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "error_rate": runs.failed / runs.attempted,
        "problems": runs.problems,
        "details": details,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"full result: {path.relative_to(ROOT)}")
    header = {k: result[k] for k in ("environment", "workload_seeds", "attempted", "failed", "problems")}
    header["runs"] = {k: v for k, v in details.items() if k.startswith("runs_behind")}
    print(json.dumps(header, indent=2))
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": runs.failed == 0 and bool(metrics),
                "attempted": runs.attempted,
                "failed": runs.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
