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
with the lines that moved. The 1,000-scenario sweep is pinned one scenario a
line in `pins/sweep.txt` (`market_helpers.sweep_line`): its seed, a digest of
its settled rows and a digest of its other decisions, so a change that moves
a decision fails with the seeds and the digests that moved.
`python tests/test_decisions.py` rewrites every file from the code as it is.
"""

import difflib
from pathlib import Path

import pytest

from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario

from market_helpers import decision_table, ladder_10x10, random_sweep

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PINS = Path(__file__).resolve().parent / "pins"

TABLES = {
    "bank.yaml": "bank.txt",
    "telco.yaml": "telco.txt",
    "ladder-10x10 drop 0.0": "ladder-10x10-drop-0.0.txt",
    "ladder-10x10 drop 0.05": "ladder-10x10-drop-0.05.txt",
}
SWEEP = "random 0..999"
SWEEP_PIN = PINS / "sweep.txt"


def table(market) -> str:
    if market.startswith("ladder-10x10"):
        scenario = ladder_10x10(float(market.rpartition(" ")[2]))
    else:
        scenario = load_scenario(SCENARIOS / market)
    return decision_table(run_scenario(scenario))


def moved_seeds(pinned, run) -> list:
    """Each seed whose line differs between the `pinned` and `run` sweep
    lines, with the digests that moved: "rows", "others", or "line" for a
    seed that only one side has."""
    def by_seed(lines):
        return {seed: digests for seed, *digests in map(str.split, lines)}

    pinned, run = by_seed(pinned), by_seed(run)
    moved = []
    for seed in sorted(pinned.keys() | run.keys(), key=int):
        if seed not in pinned or seed not in run:
            moved.append(f"seed {seed}: line")
            continue
        which = [name for name, p, r in zip(("rows", "others"), pinned[seed], run[seed]) if p != r]
        if which:
            moved.append(f"seed {seed}: {', '.join(which)}")
    return moved


@pytest.mark.parametrize("market", sorted([*TABLES, SWEEP]))
def test_decisions_are_pinned(market, request):
    if market == SWEEP:  # the sweep's one pass, shared with the golden pin
        run = [line for _, _, line in request.getfixturevalue("random_sweep_digests")]
        moved = moved_seeds(SWEEP_PIN.read_text().splitlines(), run)
        assert not moved, f"{market}: {len(moved)} seeds moved\n" + "\n".join(moved)
        return
    pinned = (PINS / TABLES[market]).read_text().splitlines()
    diff = difflib.unified_diff(pinned, table(market).splitlines(), "pinned", "run", lineterm="", n=0)
    moved = "\n".join(diff)
    assert not moved, f"{market}: decisions moved\n{moved}"


def test_moved_seeds_names_each_digest_that_moved():
    pinned = ["0 aa bb", "1 aa bb", "2 aa bb", "3 aa bb"]
    run = ["0 aa bb", "1 ax bb", "2 ax bx", "4 aa bb"]
    assert moved_seeds(pinned, run) == [
        "seed 1: rows", "seed 2: rows, others", "seed 3: line", "seed 4: line"
    ]


if __name__ == "__main__":
    for market, name in TABLES.items():
        (PINS / name).write_text(table(market))
        print(f"wrote {PINS / name}")
    SWEEP_PIN.write_text("".join(f"{line}\n" for _, _, line in random_sweep()))
    print(f"wrote {SWEEP_PIN}")
