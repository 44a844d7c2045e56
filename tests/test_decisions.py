"""One digest per pinned market over what its runs decided.

`test_golden.py` pins the bytes a run writes; this file pins only its
decisions, for the same markets: the ticks used and quiescence, the invariant
and oracle failures, each settlement (its order numbered by registration,
seller, verdict, outcome and amounts), the balances, the count of journal
events of each kind, and the number of sends. A change that moves bytes on
purpose (a shorter message, a new encoding) re-pins the golden digests and
must leave these values as they are.
"""

import collections
import hashlib
import json
import re
from pathlib import Path

import pytest

from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario, random_scenario

from market_helpers import ladder_10x10

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
HEX = re.compile("[0-9a-f]{24,}")

DECISIONS = {
    "bank.yaml": "259ce76b78aed906e88d58261b0d2d93a377eca4f089cadea693eb9039700958",
    "telco.yaml": "a9c58c7a07c8d056b27fba6e0492ec71d4bfb7615e4964ce6fdecb3b31fa807e",
    "random 0..999": "9024ed3baa22b8cf6b715d0d58dfbea4658317fe45812b6fc0fa391052ae273d",
    "ladder-10x10 drop 0.0": "f2b3a9d786650b16494f663306fe1b79ebb9a32020ff13d05346317deee4a397",
    "ladder-10x10 drop 0.05": "8f9fc1fe3b35fb09bf3e70c0ed28221be1bbb06e20282f5f81ede4124800bcd0",
}


def decisions(result) -> bytes:
    """The decisions of one run, digests left out: a failure text has each
    long hex string blanked, and a settlement names its order by position."""
    report, ledger = result.report, result.ledger
    position = {digest.hex(): i for i, digest in enumerate(ledger.contracts)}
    rows = sorted(
        [position[r.order_id], r.seller_name, r.seller_address, r.verdict, r.outcome,
         r.seller_amount, r.buyer_refund, r.notary_fee]
        for r in report.rows
    )
    kinds = collections.Counter(event.kind.name for event in ledger.journal)
    decided = {
        "ticks": report.ticks_used,
        "quiescent": report.quiescent,
        "invariant_failures": [HEX.sub("<hex>", f) for f in report.invariant_failures],
        "oracle_failures": report.oracle_failures,
        "rows": rows,
        "balances": report.balances,
        "events": dict(kinds),
        "sends": len(result.network.transcript),
    }
    return json.dumps(decided, sort_keys=True).encode()


def _scenarios(market):
    if market == "random 0..999":
        return (random_scenario(seed) for seed in range(1000))
    if market.startswith("ladder-10x10"):
        return [ladder_10x10(float(market.rpartition(" ")[2]))]
    return [load_scenario(SCENARIOS / market)]


@pytest.mark.parametrize("market", sorted(DECISIONS))
def test_decisions_are_pinned(market):
    combined = hashlib.sha256()
    for scenario in _scenarios(market):
        combined.update(hashlib.sha256(decisions(run_scenario(scenario))).digest())
    assert combined.hexdigest() == DECISIONS[market]
