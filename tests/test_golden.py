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
        "cace85ebb32ab73532f12e16812aab136e18f200e6e04cb2b01918a41f7d115b",
        "326cffeb826975be80d6325c31eff63ca62b324c66569420e3a282ccdf3f5524",
    ),
    "telco.yaml": (
        "859e37fb0459d201b81e51a11f16849ebe8047cea6ca72660516cb140f8e4406",
        "ac56df82e2d1ea09890ef4638cd854898f2173f3707e6cbfd0f4c396005ccaff",
    ),
}
RANDOM_COMBINED = "d6ecacedbd82689c9126e410e182c5c9d9a93cf2e2f1fb02c5e4d7dfc67239fb"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "d2c0f85f59d94368c8a8c10c9578efb43052b8614584169ec6eb64c94e2c913f",
        "342c614f60fe8d5abf6dd515569c2b44f80beadbcf3d344969e23aa1204ca5a0",
        100,
        134,
    ),
    0.05: (
        "48ec1d59b78aeb0c1723c383203aee85e73d7853b2b78f44d56b7ba622883955",
        "9a0b5899413fa8b6f0299a315483c01ec46196565b2f4ca238555a718459bd5f",
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
