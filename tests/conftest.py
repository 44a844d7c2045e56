"""Fixtures shared between test modules."""

import hashlib

import pytest

from datamarket import ledger as ledger_mod, messages
from datamarket.runner import run_scenario
from datamarket.scenario import random_scenario

from market_helpers import decisions

RANDOM_SEEDS = range(1000)


@pytest.fixture(autouse=True)
def fresh_signature_memo():
    """Each test starts with no signature check remembered, so a test that
    counts checks counts its own, whatever ran before it."""
    messages._verifies.cache_clear()


@pytest.fixture(scope="session")
def random_sweep_digests():
    """For each of `random_scenario(0..999)`, in seed order, the SHA-256
    digests of its journal, its rendered report and its decisions
    (`market_helpers.decisions`): one pass over the sweep, shared by the
    golden pin and the decision pin."""
    digests = []
    for seed in RANDOM_SEEDS:
        result = run_scenario(random_scenario(seed))
        journal = ledger_mod.journal_bytes(result.ledger)
        outputs = (journal, result.report.render().encode(), decisions(result))
        digests.append(tuple(hashlib.sha256(data).digest() for data in outputs))
    return digests
