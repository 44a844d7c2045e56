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
        "fa5e3127e429c07aead05c94a05c146234dea8d2ca28d4d8459e12312eea5499",
        "f487edc6d5c1eee5090c5d946ee699a78528f402fdb18ff9cf80f9fcdeade4bd",
    ),
    "telco.yaml": (
        "c5057f289ac6d596ddda4f45b0e4a506705f70df46b39d21a0dd5b3c22eefc9b",
        "5701bdfe08d676995402e23025b2071fc45f3311eb240e5c2f1eb73841df6182",
    ),
}
RANDOM_SEEDS = range(1000)
RANDOM_COMBINED = "ec6b419c30b827ac4b1238b8538181893526d8773d0aab265934209bb1d1578d"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "1ee0fc2220a8663401abd761e79a829878dca5c31762658c5a8a27698fac67c8",
        "e962c5756f0d87122050f71ce2e083420915fc545a2ec90ee17befc86c9d9d71",
        100,
        134,
    ),
    0.05: (
        "a1e85f1f1186454a213d4a30cfa5ae2062fabc53c82e55dd5bc8de59fccab2ec",
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
