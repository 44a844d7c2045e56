"""What the pinned markets' runs decided, pinned apart from their bytes.

`test_golden.py` pins the bytes a run writes; this file pins only its
decisions, for the same markets: the ticks used and quiescence, the invariant
and oracle failures, each settlement (its order numbered by registration,
seller, verdict, outcome and amounts), the balances, the count of journal
events of each kind, and the number of sends. A change that moves bytes on
purpose (a shorter message, a new encoding) re-pins the golden digests and
must leave these as they are.

Each small market's decisions are a table under `pins/`, one fact a line
(`market_helpers.decision_table`), so a change that moves a decision fails
with the lines that moved. The 1,000-scenario sweep is pinned by one digest
over each scenario's decisions. `python tests/test_decisions.py` rewrites
the tables from the code as it is.
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario

from market_helpers import decision_table, ladder_10x10

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PINS = Path(__file__).resolve().parent / "pins"

TABLES = {
    "bank.yaml": "bank.txt",
    "telco.yaml": "telco.txt",
    "ladder-10x10 drop 0.0": "ladder-10x10-drop-0.0.txt",
    "ladder-10x10 drop 0.05": "ladder-10x10-drop-0.05.txt",
}
SWEEP = "random 0..999"
SWEEP_DECISIONS = "5f88717bfab042ea81535661e510920cc66e9d5e63278e43648281e3f78d032e"


def table(market) -> str:
    if market.startswith("ladder-10x10"):
        scenario = ladder_10x10(float(market.rpartition(" ")[2]))
    else:
        scenario = load_scenario(SCENARIOS / market)
    return decision_table(run_scenario(scenario))


@pytest.mark.parametrize("market", sorted([*TABLES, SWEEP]))
def test_decisions_are_pinned(market, request):
    if market == SWEEP:  # the sweep's one pass, shared with the golden pin
        digests = [digest for _, _, digest in request.getfixturevalue("random_sweep_digests")]
        assert hashlib.sha256(b"".join(digests)).hexdigest() == SWEEP_DECISIONS
        return
    pinned = (PINS / TABLES[market]).read_text().splitlines()
    diff = difflib.unified_diff(pinned, table(market).splitlines(), "pinned", "run", lineterm="", n=0)
    moved = "\n".join(diff)
    assert not moved, f"{market}: decisions moved\n{moved}"


if __name__ == "__main__":
    for market, name in TABLES.items():
        (PINS / name).write_text(table(market))
        print(f"wrote {PINS / name}")
