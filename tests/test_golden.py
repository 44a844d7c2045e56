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
        "dcc7ebaf3d89d4359a6c0544e8feb4369cb66add35a319e01e8c7d1fc76f60fe",
        "e58c5060681a57162f79f8ed0a76568246fa8b55e9d9a269ccb82192b7395d32",
    ),
    "telco.yaml": (
        "0973f96cdd395193ea5c59706d2d2db57cccb34552a97b9f381b0a894e93e72d",
        "ac56df82e2d1ea09890ef4638cd854898f2173f3707e6cbfd0f4c396005ccaff",
    ),
}
RANDOM_COMBINED = "f12ac18f62acd4fd4f39f30526faf580cb79871b4a37ec9fa729095db52e22a4"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "1c978dde6c6d3f9eda17c7bf2bc747c4dcec1a98470b2949c3a40e5e6fd436d4",
        "342c614f60fe8d5abf6dd515569c2b44f80beadbcf3d344969e23aa1204ca5a0",
        100,
        134,
    ),
    0.05: (
        "994c4faac911a5ff1e253f1aacdad086a052701bae6cd73ae2466a3002162d65",
        "52bfce2260dc86ad73575bd8a1dd3a064697197df5e61e8f083fc94ab987db5a",
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
