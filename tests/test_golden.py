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
        "a3a076c1569913b4aa7248b514c4491455b1b278005aa0fc4fceedc6c809304c",
        "4b9096effcb58a0218a27a7614e6310ab23dd6e9b93f834523ca12b4ecb1f18b",
    ),
    "telco.yaml": (
        "c470206e7bd05606ff2fd1a7a3f1129dc819e291c1b6484aa79155a268ed45f7",
        "4b7f1b65fbefd174d0469541e749aba65dec50ee974140131fcc14d8f101245e",
    ),
}
RANDOM_SEEDS = range(1000)
RANDOM_COMBINED = "8770065793028e57d1133f15792e4c659137dc4559b190c46fcaf45648dd9e79"
# ladder-10x10 seed 0 by drop rate: (journal sha256, report sha256,
# settlements, journal events).
LADDER = {
    0.0: (
        "25f9594cab7d93bb9c6aa9854135c764108adbccbff59cfa385306dc1f170e29",
        "2caf6744a468af65150a972a551ac1124dc1fcbe4eed228039ec87b0ab192b3d",
        100,
        134,
    ),
    0.05: (
        "124176fd655b759c345a95f91e5af0345cba9923ecd2f4fd0db6563ac0fa6f71",
        "3bad681be8761b5cc99e2adf40ec7be9488a16670a38a5f67cadc7c500bdc325",
        99,
        133,
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
