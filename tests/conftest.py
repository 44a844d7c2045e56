"""Fixtures shared between test modules."""

import pytest

from datamarket import messages

from market_helpers import random_sweep


@pytest.fixture(autouse=True)
def fresh_signature_memo():
    """Each test starts with no signature check remembered, so a test that
    counts checks counts its own, whatever ran before it."""
    messages._verifies.cache_clear()


@pytest.fixture(scope="session")
def random_sweep_digests():
    """`market_helpers.random_sweep` in one pass, shared by the golden pin
    and the decision pin."""
    return list(random_sweep())
