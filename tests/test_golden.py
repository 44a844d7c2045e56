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
from datamarket.scenario import load_scenario

from market_helpers import ladder_10x10

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "bank.yaml": (
        "c791f08f36e8dfc36907d963ec6a6453497750cda95d4a3ccef3ad59c8c9b7db",
        "b35dcb0d0295e7390d0822579d703499b5b1fdf3954af437f3d3bdf048e07e7f",
    ),
    "telco.yaml": (
        "9a2515f4301730d95dab5355049521293dfea96126262c4745c7913a8243406f",
        "d5667000653b8d083f1c63052643891bf5ee603e8e2643cc40565033370ffa20",
    ),
}
RANDOM_COMBINED = "f17535218f23348adf20f3733d8c4063f5aaca6775e313ecac35d07c3c02b86a"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "de97e202ad175ab18252057e9d9c4a5cd89b420616857c03dfe5b8e93c713ee2",
        "52581da61e6cc51cda897d5f60460adce9993b78c34dc2a1d182081427b7e830",
        100,
        134,
    ),
    0.05: (
        "a0f24de9265845344b1d4ba097d44a621b6cea1d84d7f4817017c126613f854b",
        "1d20adc5f01794e2c547cf0b33a18e2b2390e15782a39ffd16d4bb6e69982032",
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


def test_random_scenarios_output_is_pinned(random_sweep_digests):
    combined = hashlib.sha256()
    for journal, report, _ in random_sweep_digests:  # the sweep's one pass, shared
        combined.update(journal)
        combined.update(report)
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
