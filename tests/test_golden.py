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
        "c791f08f36e8dfc36907d963ec6a6453497750cda95d4a3ccef3ad59c8c9b7db",
        "8e6d41cac0eeee397c671fb43edbc5843b894cdba831e63c61ae39bd35600596",
    ),
    "telco.yaml": (
        "9a2515f4301730d95dab5355049521293dfea96126262c4745c7913a8243406f",
        "9f584906f375de01ba3c7003e0b8eaaa08d9fea2a2a4d4f491db6752de14849f",
    ),
}
RANDOM_SEEDS = range(1000)
RANDOM_COMBINED = "b1a6b92e6030ee01ca2dcaf4dd0285157f107301038d072d480bd1806d4bea45"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "d79aa9fe8173c1c04366ad016df1184090f287e2c97a39f934ecc51b3aae9bae",
        "5fdcd16bc98d6bd676421dfb46b42f49ffef8c49582fd71cb20bdbdc6ceeb80a",
        100,
        134,
    ),
    0.05: (
        "313f9d73cc236e416958f4e95b91c07c9f997b90f1bfe9a8bc744376d10542a8",
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
