"""One measurement in a fresh process.

    python3 perfbench/worker.py <mode> <workload> <seed>

Modes:
  setup    import the package and generate the workload's scenarios;
  run      setup, then run every scenario the way `datamarket run
           --journal-out` does (run, report, invariant suite, render,
           journal bytes), and write the journals to `perfbench/out/`;
  verify   time passes of `verify_journal` over the journals the last run
           wrote;
  traced   run with the public functions rebound to span wrappers, then
           verify each journal once;
  profile  run under cProfile, with self time bucketed by module, then
           verify each journal once;
  micro    microbenchmarks of single operations, independent of workload.

The last line of standard output is one JSON object. Wall-clock numbers are
only ever written here, never into a journal or a report.

The setup, run and verify modes report each timing twice: in host seconds,
and in reference seconds. A shared host switches between speeds that differ
by up to 1.7x, from second to second and for minutes at a time, and a fixed
CPU loop slows with the program. So while the run and verify modes time the
program, a timer interrupts it every `PROBE_PERIOD_S` to time a fixed
reference task that calls no code of the package (`Probe`). The probes'
own time is left out of every timing, and each segment's host seconds are
scaled by its speed: the mean of `REFERENCE_S` over the probe times taken
during it. A reference second is thus the time the work would take on a host
that runs the reference task in `REFERENCE_S`.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pickle
import pstats
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Host seconds of `verify_journal` in one `verify` worker, and in one of
# its segments.
VERIFY_SECONDS = 3.0
VERIFY_SEGMENT_S = 0.5
# Host seconds of scenarios in one segment of a run.
SEGMENT_S = 1.0
# A fixed, nominal time for one reference task, near what this host takes in
# its slower state; and host seconds between two probes.
REFERENCE_S = 0.0055
PROBE_PERIOD_S = 0.1


class Probe:
    """Samples the host's speed with a reference task: Python loops over
    dicts and hashlib, and Ed25519 signatures through `cryptography`,
    roughly the program's mix. Inside `with probe:` a timer signal runs one
    task every `PROBE_PERIOD_S`; `clock()` is `perf_counter()` less the
    time spent in probes. Create it after the package is imported, so that
    its own imports do not shorten the import time that setup measures."""

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        self.key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self.speeds: list[float] = []
        self.paused = 0.0
        self.busy = False
        self.task()

    def task(self) -> int:
        digest, table = bytes(32), {}
        for i in range(4000):
            digest = hashlib.sha256(digest).digest()
            table[digest[:3]] = i
        for _ in range(30):
            self.key.sign(digest)
        return len(table)

    def sample(self, *_) -> None:
        if self.busy:
            return
        self.busy = True
        start = perf_counter()
        self.task()
        self.speeds.append(REFERENCE_S / (perf_counter() - start))
        self.paused += perf_counter() - start
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return perf_counter() - self.paused

    def speed_since(self, mark: int) -> float:
        """Reference seconds per host second since `len(self.speeds)` was
        `mark`: the mean over the probes since then and the one before."""
        recent = self.speeds[max(mark - 1, 0):]
        return sum(recent) / len(recent)


def setup(workload: str, seed: int, tracer=None):
    """Import the package and generate the scenarios. Returns (scenarios,
    setup seconds, generation seconds)."""
    t0 = perf_counter()
    import datamarket  # noqa: F401

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    from workloads import WORKLOADS

    t1 = perf_counter()
    scenarios = WORKLOADS[workload].scenarios(seed)
    t2 = perf_counter()
    return scenarios, t2 - t0, t2 - t1


def run_all(scenarios, profiler=None, probe=None):
    """Run each scenario to quiescence, one after the other. Returns
    per-scenario host milliseconds, per-scenario output records, the
    (journal bytes, state digest, event count) triples and the peak RSS in
    MB. With a sampling probe, host times leave out the probes, and the
    speed of each scenario's segment is returned too; without one, those
    speeds are empty."""
    from datamarket import ledger, runner

    clock = probe.clock if probe else perf_counter
    per_ms, records, journals, speeds = [], [], [], []
    mark = len(probe.speeds) if probe else 0
    segment_s = 0.0
    for index, scenario in enumerate(scenarios):
        if profiler is not None:
            profiler.enable()
        start = clock()
        result = runner.run_scenario(scenario)
        result.report.render()
        journal = ledger.journal_bytes(result.ledger)
        elapsed = clock() - start
        if profiler is not None:
            profiler.disable()
        per_ms.append(elapsed * 1e3)
        report = result.report
        events = len(result.ledger.journal)
        transcript = result.network.transcript
        records.append(
            {
                "ok": report.ok,
                "quiescent": report.quiescent,
                "failures": report.invariant_failures + report.oracle_failures,
                "settlements": len(report.rows),
                "events": events,
                "journal_sha256": hashlib.sha256(journal).hexdigest(),
                "state_digest": report.state_digest,
                "sends": len(transcript),
                "dropped": sum(1 for env in transcript if env.delivery_tick is None),
                "transcript_bytes": sum(len(env.message) for env in transcript),
            }
        )
        journals.append((journal, report.state_digest, events))
        segment_s += elapsed
        if probe and (segment_s >= SEGMENT_S or index == len(scenarios) - 1):
            speeds += [probe.speed_since(mark)] * (len(per_ms) - len(speeds))
            mark, segment_s = len(probe.speeds), 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return per_ms, records, journals, peak_rss_mb, speeds


def verify_pass(journals, clock=perf_counter) -> tuple[float, int, bool]:
    """Verify every journal once. Returns (seconds, events, digests match)."""
    from datamarket import ledger

    start = clock()
    markets = [ledger.verify_journal(data) for data, _, _ in journals]
    elapsed = clock() - start
    events = sum(n for _, _, n in journals)
    match = all(m.state_digest().hex() == d for m, (_, d, _) in zip(markets, journals))
    return elapsed, events, match


def outputs(records) -> dict:
    """The simulated outputs that must repeat exactly across runs."""
    return {
        "scenarios": len(records),
        "settlements": sum(r["settlements"] for r in records),
        "events": sum(r["events"] for r in records),
        "sends": sum(r["sends"] for r in records),
        "dropped": sum(r["dropped"] for r in records),
        "transcript_bytes": sum(r["transcript_bytes"] for r in records),
        "journal_sha256": [r["journal_sha256"] for r in records],
        "state_digests": [r["state_digest"] for r in records],
    }


def gate(workload: str, records, verified: bool = True) -> list[str]:
    """Per-run correctness failures; an empty list means the run passed."""
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    problems = []
    for i, r in enumerate(records):
        if not r["ok"]:
            problems.append(f"scenario {i}: report not ok: {r['failures'][:3]}")
        if not r["quiescent"]:
            problems.append(f"scenario {i}: did not reach quiescence")
        expected = spec.expected_settlements()
        if expected is not None and r["settlements"] != expected:
            problems.append(f"scenario {i}: {r['settlements']} settlements, expected {expected}")
        expected = spec.expected_events()
        if expected is not None and r["events"] != expected:
            problems.append(f"scenario {i}: {r['events']} journal events, expected {expected}")
    if not verified:
        problems.append("verify_journal state digest differs from the live ledger")
    return problems


def mode_setup(workload, seed):
    _, setup_s, _ = setup(workload, seed)
    probe = Probe()
    for _ in range(9):
        probe.sample()
    host_speed = statistics.median(probe.speeds)
    return {"setup_s": setup_s * host_speed, "host_setup_s": setup_s}


def journals_path(workload, seed) -> Path:
    return HERE / "out" / f"journals-{workload}-seed{seed}.pickle"


def mode_run(workload, seed):
    scenarios, setup_s, _ = setup(workload, seed)
    with Probe() as probe:
        per_ms, records, journals, peak_rss_mb, speeds = run_all(scenarios, probe=probe)
    path = journals_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(pickle.dumps(journals))
    scenario_ms = [ms * f for ms, f in zip(per_ms, speeds)]
    return {
        "setup_s": setup_s * statistics.median(probe.speeds[:10]),
        "wall_s": sum(scenario_ms) / 1e3,
        "scenario_ms": scenario_ms,
        "host_setup_s": setup_s,
        "host_wall_s": sum(per_ms) / 1e3,
        "speeds": list(dict.fromkeys(speeds)),
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs(records),
        "problems": gate(workload, records),
    }


def mode_verify(workload, seed):
    """Verify the journals the last `run` wrote, the way `datamarket verify`
    does, in a process that holds nothing else: passes over every journal
    for at least `VERIFY_SECONDS`, in segments of at least
    `VERIFY_SEGMENT_S`. Returns the mean seconds of a pass in each segment,
    in reference and in host seconds."""
    journals = pickle.loads(journals_path(workload, seed).read_bytes())
    pass_s, host_pass_s, verified, total = [], [], True, 0.0
    with Probe() as probe:
        while total < VERIFY_SECONDS or len(pass_s) < 2:
            mark, passes, spent = len(probe.speeds), 0, 0.0
            while spent < VERIFY_SEGMENT_S:
                elapsed, _, match = verify_pass(journals, probe.clock)
                passes, spent = passes + 1, spent + elapsed
                verified = verified and match
            pass_s.append(spent * probe.speed_since(mark) / passes)
            host_pass_s.append(spent / passes)
            total += spent
    problems = [] if verified else ["verify_journal state digest differs from the live ledger"]
    return {
        "events_per_pass": sum(count for _, _, count in journals),
        "pass_s": pass_s,
        "host_pass_s": host_pass_s,
        "problems": problems,
    }


def mode_traced(workload, seed):
    import tracing

    tracer = tracing.Tracer()
    scenarios, _, generate_s = setup(workload, seed, tracer)
    before_run = tracer.stats()
    per_ms, records, journals, _, _ = run_all(scenarios)
    before_verify = tracer.stats()
    # Verified after the whole run, so that the run's span totals exclude
    # verification and the two phases can be reported apart.
    verify_s, verify_events, verified = verify_pass(journals)
    after_verify = tracer.stats()
    tick_loop_s = 0.0
    for children in tracer.child_spans("runner.run_scenario"):
        loop = [s for n, s, _ in children if n in ("actors.Buyer.start_order", "transport.Network.tick")]
        report = [s for n, s, _ in children if n == "runner.build_report"]
        if loop and report:
            tick_loop_s += (report[0] - min(loop)) / 1e9
    spans_path = HERE / "out" / f"spans-{workload}.csv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    return {
        "wall_s": sum(per_ms) / 1e3,
        "generate_s": generate_s,
        "verify_s": verify_s,
        "verify_events": verify_events,
        "tick_loop_s": tick_loop_s,
        "spans": tracer.write(spans_path),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "run_stats": tracing.difference(before_verify, before_run),
        "verify_stats": tracing.difference(after_verify, before_verify),
        "outputs": outputs(records),
        "problems": gate(workload, records, verified),
    }


def _profile_module(filename: str, funcname: str):
    """The layer a profiled function belongs to, or None when it is C code
    or library Python whose time belongs to its caller."""
    path = filename.replace("\\", "/")
    if "/datamarket/" in path:
        return path.rsplit("/", 1)[-1].removesuffix(".py")
    if "/cryptography/" in path or path.endswith("/hashlib.py"):
        return "crypto"
    if any(tag in funcname for tag in ("cryptography", "_hashlib", "openssl")):
        return "crypto"
    return None


def profile_shares(profiler) -> dict:
    """Bucket profiled self time by datamarket module. C calls and library
    Python inherit the module of their callers, weighted by call count and
    followed up to a few frames; what stays unresolved is `other`."""
    stats = pstats.Stats(profiler).stats
    memo = {}

    def owner(func, depth=0) -> dict:
        if func in memo:
            return memo[func]
        module = _profile_module(func[0], func[2])
        if module is not None:
            result = {module: 1.0}
        elif depth >= 6 or func not in stats or not stats[func][4]:
            result = {"other": 1.0}
        else:
            callers = stats[func][4]
            total = sum(v[0] for v in callers.values()) or 1
            result = {}
            for caller, v in callers.items():
                for m, w in owner(caller, depth + 1).items():
                    result[m] = result.get(m, 0.0) + w * v[0] / total
        memo[func] = result
        return result

    buckets, total = {}, 0.0
    for func, (_, _, tt, _, _) in stats.items():
        total += tt
        for m, w in owner(func).items():
            buckets[m] = buckets.get(m, 0.0) + tt * w
    return {m: v / total for m, v in sorted(buckets.items())} if total else {}


def mode_profile(workload, seed):
    scenarios, _, _ = setup(workload, seed)
    profiler = cProfile.Profile()
    per_ms, records, journals, _, _ = run_all(scenarios, profiler)
    _, _, verified = verify_pass(journals)
    return {
        "wall_s": sum(per_ms) / 1e3,
        "shares": profile_shares(profiler),
        "outputs": outputs(records),
        "problems": gate(workload, records, verified),
    }


def _us_per_op(fn, per_op_divisor: int = 1) -> float:
    """Median of five timed batches, each about 40 ms long."""
    start = perf_counter()
    fn()
    once = perf_counter() - start
    number = max(1, int(0.04 / max(once, 1e-7)))
    batches = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(number):
            fn()
        batches.append((perf_counter() - start) / number)
    return statistics.median(batches) * 1e6 / per_op_divisor


def _span_cost_us() -> float:
    """What one span adds to a call: a traced no-op minus a bare one."""
    import tracing

    def noop():
        return None

    traced = tracing.Tracer().wrap("noop", noop)
    return _us_per_op(traced) - _us_per_op(noop)


def mode_micro(workload, seed):
    from datamarket import crypto, ledger, messages, runner
    from workloads import WORKLOADS

    keys = crypto.generate_keypair(bytes(range(32)))
    message = bytes(range(200))
    signature = crypto.sign(keys.secret_key, message)
    plaintext = messages.encode_payload_plaintext(bytes(32), b"payload-0123456789abcdef")
    entropy = bytes(range(1, 33))
    envelope = crypto.encrypt_for(keys.public_key, plaintext, entropy)
    # Realistic messages and a journal come from one run of the smallest
    # ladder rung; they do not depend on the workload.
    result = runner.run_scenario(WORKLOADS["ladder-10x10"].scenarios(0)[0])
    contract = next(iter(result.ledger.contracts.values()))
    response = next(iter(contract.responses.values())).response
    response_bytes = response.encode()
    journal = ledger.journal_bytes(result.ledger)
    seed_bytes = bytes(range(32, 64))
    return {
        "micro_us": {
            "crypto.sign.micro_us_per_op": _us_per_op(lambda: crypto.sign(keys.secret_key, message)),
            "crypto.verify.micro_us_per_op": _us_per_op(
                lambda: crypto.verify(keys.public_key, message, signature)
            ),
            "crypto.encrypt_for.micro_us_per_op": _us_per_op(
                lambda: crypto.encrypt_for(keys.public_key, plaintext, entropy)
            ),
            "crypto.decrypt.micro_us_per_op": _us_per_op(
                lambda: crypto.decrypt(keys.secret_key, envelope)
            ),
            "crypto.generate_keypair.micro_us_per_op": _us_per_op(
                lambda: crypto.generate_keypair(seed_bytes)
            ),
            "messages.DataResponse.digest.micro_us_per_op": _us_per_op(response.digest),
            "messages.decode.micro_us_per_op": _us_per_op(lambda: messages.decode(response_bytes)),
            "ledger.verify_journal.micro_us_per_event": _us_per_op(
                lambda: ledger.verify_journal(journal), len(result.ledger.journal)
            ),
        },
        "micro_journal_events": len(result.ledger.journal),
        "span_cost_us": _span_cost_us(),
    }


MODES = {
    "setup": mode_setup,
    "run": mode_run,
    "verify": mode_verify,
    "traced": mode_traced,
    "profile": mode_profile,
    "micro": mode_micro,
}


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    print(json.dumps(MODES[mode](workload, seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
