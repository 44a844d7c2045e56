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
        "0a4c4a57040398d94c2724dc6396105538288ea34bf8e5c2ff16c39d5e56d55a",
        "8e6d41cac0eeee397c671fb43edbc5843b894cdba831e63c61ae39bd35600596",
    ),
    "telco.yaml": (
        "c2ae7f7524592c8f58dfa7c91a7309dd055844fb4ff7564790021c6813da347e",
        "9f584906f375de01ba3c7003e0b8eaaa08d9fea2a2a4d4f491db6752de14849f",
    ),
}
RANDOM_SEEDS = range(1000)
RANDOM_COMBINED = "45998d2a6548ccdce5e367353708c0ae01ea01785e0aeece16e0d35c2bb48091"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "73879fcec0331b90dd54e7b1ae4f6f39e85888c2c3a790520be0a6734b953b7a",
        "5fdcd16bc98d6bd676421dfb46b42f49ffef8c49582fd71cb20bdbdc6ceeb80a",
        100,
        134,
    ),
    0.05: (
        "ea91792054331a659401a2344f10e134160c2c255a990f0c50f5c8d29fa23b66",
        "1870df758fc1513fd75a8627a2816008024143bfb255b6dbb06f8f1853b57cba",
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
