"""Command-line entry point.

    datamarket run <scenario.yaml> [--seed N] [--ticks N]
                   [--journal-out PATH] [--report-out PATH]
    datamarket verify <journal>

Exit codes: 0 all invariants (and the oracle table, if present) pass,
1 invariant failure or tampered journal, 2 input error (a bad scenario, a
`--ticks` below 1, or an output file that cannot be written).
"""

from __future__ import annotations

import argparse
import sys

from . import ledger as ledger_mod
from .errors import ReplayError, ScenarioError
from .runner import run_scenario
from .scenario import load_scenario


def _cmd_run(args) -> int:
    try:
        # Loading only builds the scenario; `run_scenario` validates it.
        result = run_scenario(load_scenario(args.scenario), seed=args.seed, tick_limit=args.ticks)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    text = result.report.render()
    try:
        if args.journal_out:
            with open(args.journal_out, "wb") as fh:
                fh.write(result.report.journal)  # the bytes the invariant suite verified
        if args.report_out:
            with open(args.report_out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return result.report.exit_code()


def _cmd_verify(args) -> int:
    try:
        with open(args.journal, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        market = ledger_mod.verify_journal(data)
    except ReplayError as exc:
        print(f"journal verification failed at sequence {exc.sequence}: {exc.reason}")
        return 1
    print(f"events: {len(market.journal)}")
    kinds = [event.kind for event in market.journal]
    print("kinds:", " ".join(f"{kind.name}={kinds.count(kind)}" for kind in sorted(set(kinds))))
    # The trailer's digest, which `verify_journal` checked against the replay.
    print(f"state_digest: {ledger_mod.journal_state_digest(data).hex()}")
    # Replay commits every event through the ledger, which refuses any that
    # breaks conservation, so a verified journal conserves tokens.
    print("conservation: ok")
    return 0


def _tick_limit(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="datamarket",
        description="Run and verify simulated data-marketplace sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario end to end")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None, help="override the network seed")
    run_p.add_argument("--ticks", type=_tick_limit, default=200, help="tick limit")
    run_p.add_argument("--journal-out", default=None, help="write the ledger journal here")
    run_p.add_argument("--report-out", default=None, help="write the settlement report here")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="replay and check a ledger journal")
    verify_p.add_argument("journal", help="journal file produced by run --journal-out")
    verify_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
