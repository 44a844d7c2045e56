"""Golden digests of journal bytes and rendered reports.

Determinism is a fixed property of the simulator: the same scenario and
seed give byte-identical journals and reports. These digests pin that
output for the two worked scenarios, for the first 1,000 random scenarios,
and for the smallest benchmark ladder, the one pinned market with more than
one buyer and order, so that a change meant to make the simulator faster or
smaller cannot silently change what it produces. A change that alters
journal or report bytes on purpose updates these values and says so.
"""

import hashlib
from pathlib import Path

import pytest

from datamarket import ledger as ledger_mod
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario, random_scenario

from market_helpers import ladder_10x10

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "bank.yaml": (
        "e876c187e3403bd89311a1598b40906f2ce47725342dbff859b814b6a4fe38a9",
        "f487edc6d5c1eee5090c5d946ee699a78528f402fdb18ff9cf80f9fcdeade4bd",
    ),
    "telco.yaml": (
        "1aba98d4721357fd4a6f1b3bd2141e51930d6e70fec1e4de2a151da5c104adb2",
        "5701bdfe08d676995402e23025b2071fc45f3311eb240e5c2f1eb73841df6182",
    ),
}
RANDOM_SEEDS = range(1000)
RANDOM_COMBINED = "414c7309e8b1e776546f5e2bed7f95d81b6588351d260576b372239c38f7deba"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "022cd20fff35c09624897360857f6b49a9012ddda4a84ead4a8b5fb5351783bc",
        "e962c5756f0d87122050f71ce2e083420915fc545a2ec90ee17befc86c9d9d71",
        100,
        134,
    ),
    0.05: (
        "d6620464f215bad6a8d477a5c177779e0509924ad53deadac85ac636b61a5f55",
        "2884d228c45380676924d422bd7d222c22e37b0010311dd90799c850eb24b114",
        100,
        134,
    ),
}


def _outputs(scenario):
    result = run_scenario(scenario)
    return ledger_mod.journal_bytes(result.ledger), result.report.render().encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_worked_scenario_output_is_pinned(name):
    journal, report = _outputs(load_scenario(SCENARIOS / name))
    assert (hashlib.sha256(journal).hexdigest(), hashlib.sha256(report).hexdigest()) == GOLDEN[name]


def test_random_scenarios_output_is_pinned():
    combined = hashlib.sha256()
    for seed in RANDOM_SEEDS:
        journal, report = _outputs(random_scenario(seed))
        combined.update(hashlib.sha256(journal).digest())
        combined.update(hashlib.sha256(report).digest())
    assert combined.hexdigest() == RANDOM_COMBINED


@pytest.mark.parametrize("drop_rate", sorted(LADDER))
def test_multi_order_ladder_output_is_pinned(drop_rate):
    result = run_scenario(ladder_10x10(drop_rate))
    journal, report = ledger_mod.journal_bytes(result.ledger), result.report.render().encode()
    assert (
        hashlib.sha256(journal).hexdigest(),
        hashlib.sha256(report).hexdigest(),
        len(result.report.rows),
        len(result.ledger.journal),
    ) == LADDER[drop_rate]
