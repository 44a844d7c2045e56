"""One digest per pinned market over what its runs decided.

`test_golden.py` pins the bytes a run writes; this file pins only its
decisions, for the same markets: the ticks used and quiescence, the invariant
and oracle failures, each settlement (its order numbered by registration,
seller, verdict, outcome and amounts), the balances, the count of journal
events of each kind, and the number of sends. A change that moves bytes on
purpose (a shorter message, a new encoding) re-pins the golden digests and
must leave these values as they are.
"""

import hashlib
from pathlib import Path

import pytest

from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario

from market_helpers import decisions, ladder_10x10

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DECISIONS = {
    "bank.yaml": "83d668d9cb4764c497637b35c30a2d2fb614eb0fd2f41bb482fd25a0a472b0e1",
    "telco.yaml": "442b392aa48cda906e6f4d17b49ac1c6e0e8ef34ff36a1d40ae55b5b65123ebc",
    "random 0..999": "8e63ed67167df8993f8dd33cc64be83c0ffe0a32c7b2395232589b14569ce02f",
    "ladder-10x10 drop 0.0": "cc9f736c2b6b7ca034f03814a582b7db4df9d4c34c04a0d5a9712c3e48ffc43a",
    "ladder-10x10 drop 0.05": "e328f9167fadc803e2e9d78f2217074f2f7a7feda3a1bcf49f222ddd39b675fc",
}


def _scenarios(market):
    if market.startswith("ladder-10x10"):
        return [ladder_10x10(float(market.rpartition(" ")[2]))]
    return [load_scenario(SCENARIOS / market)]


@pytest.mark.parametrize("market", sorted(DECISIONS))
def test_decisions_are_pinned(market, request):
    if market == "random 0..999":  # the sweep's one pass, shared with the golden pin
        digests = [digest for _, _, digest in request.getfixturevalue("random_sweep_digests")]
    else:
        digests = [hashlib.sha256(decisions(run_scenario(s))).digest() for s in _scenarios(market)]
    assert hashlib.sha256(b"".join(digests)).hexdigest() == DECISIONS[market]
