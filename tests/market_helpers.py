"""Shared builders for ledger- and protocol-level tests: a funded buyer,
one countersigned order, and signed seller responses; the benchmark's
workloads and its smallest ladder market; and the decisions a run is pinned
by."""

import collections
import functools
import importlib.util
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List

from datamarket import crypto, messages
from datamarket.actors import keys_from_seed
from datamarket.ledger import Ledger
from datamarket.messages import (
    Audience,
    Comparator,
    DataOrder,
    DataRequest,
    NotaryTerms,
    Predicate,
)

TERMS = messages.terms_link("test terms")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
HEX = re.compile("[0-9a-f]{24,}")


def make_order(buyer_keys, m_a=10, upload_url="ub:test-buyer"):
    audience = Audience(frozenset({Predicate("country", Comparator.EQ, "AR")}))
    request = DataRequest("records", ("value",))
    return messages.build_data_order(buyer_keys, audience, request, upload_url, m_a, TERMS)


@dataclass
class Market:
    ledger: Ledger
    buyer_keys: crypto.KeyPair
    buyer: crypto.Address
    notary_keys: crypto.KeyPair
    notary: crypto.Address
    order: DataOrder
    order_id: bytes
    terms: List[NotaryTerms]
    price: int


def make_market(balance=100, m_a=10, price=5, fee=2, buyer_seed=1, notary_seed=2) -> Market:
    ledger = Ledger()
    buyer_keys = keys_from_seed(buyer_seed)
    notary_keys = keys_from_seed(notary_seed)
    buyer = crypto.derive_address(buyer_keys.public_key)
    ledger.mint(buyer, balance)
    order = make_order(buyer_keys, m_a=m_a)
    terms = [messages.countersign_order(notary_keys, order, fee, TERMS)]
    order_id = ledger.register_order(order, terms, price)
    return Market(
        ledger=ledger,
        buyer_keys=buyer_keys,
        buyer=buyer,
        notary_keys=notary_keys,
        notary=crypto.derive_address(notary_keys.public_key),
        order=order,
        order_id=order_id,
        terms=terms,
        price=price,
    )


def make_response(market: Market, seller_seed=10, data=b"seller-data-0123", salt=None):
    seller_keys = keys_from_seed(seller_seed)
    if salt is None:
        # Deterministic per-seller salt keeps test journals byte-stable.
        salt = crypto.sha256(f"salt-{seller_seed}".encode())
    response = messages.build_data_response(
        seller_keys,
        market.order,
        market.price,
        data,
        market.notary,
        salt=salt,
    )
    return response, salt, seller_keys


@functools.cache
def workloads():
    """The benchmark's workloads module. It imports only `datamarket` and
    the standard library, so it is loaded here by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up while built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def ladder_10x10(drop_rate=0.0):
    """The benchmark's smallest ladder market at seed 0, at `drop_rate`."""
    (scenario,) = workloads().WORKLOADS["ladder-10x10"].scenarios(0)
    return replace(scenario, network=replace(scenario.network, drop_rate=drop_rate))


def decisions(result) -> bytes:
    """The decisions of one run, digests left out: a failure text has each
    long hex string blanked, and a settlement names its order by position."""
    report, ledger = result.report, result.ledger
    position = {digest.hex(): i for i, digest in enumerate(ledger.contracts)}
    rows = sorted(
        [position[r.order_id], r.seller_name, r.seller_address, r.verdict, r.outcome,
         r.seller_amount, r.buyer_refund, r.notary_fee]
        for r in report.rows
    )
    kinds = collections.Counter(event.kind.name for event in ledger.journal)
    decided = {
        "ticks": report.ticks_used,
        "quiescent": report.quiescent,
        "invariant_failures": [HEX.sub("<hex>", f) for f in report.invariant_failures],
        "oracle_failures": report.oracle_failures,
        "rows": rows,
        "balances": report.balances,
        "events": dict(kinds),
        "sends": len(result.network.transcript),
    }
    return json.dumps(decided, sort_keys=True).encode()
