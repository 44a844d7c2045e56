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
RANDOM_COMBINED = "7eb042e0935c4794ccc1c3fc3be802f2b792d54a22d77f131c6c9cf3089499df"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "5e943f9b0f17d65115fe0bc2c3e6c7d34fdc2d8629ef3e69592139c21a73c2e6",
        "342c614f60fe8d5abf6dd515569c2b44f80beadbcf3d344969e23aa1204ca5a0",
        100,
        134,
    ),
    0.05: (
        "288f5eff19ffb4b438357dcd14ca9aac4708a1a32bf3ee85f76ea76fbf46eaa8",
        "e82ee7ec8aad3694a102912db46a2ff688f159197839e4885b93f9e274dcbef2",
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
