"""Shared builders for ledger- and protocol-level tests: a funded buyer,
one countersigned order, signed seller responses, and the sealer from one
identity to another; the benchmark's workloads and its smallest ladder
market; the decisions a run is pinned by; and runs of a worked scenario on a
network that drops, adds or submits messages as a third party would."""

import collections
import functools
import importlib.util
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List

from datamarket import crypto, messages, runner, transport
from datamarket.actors import keys_from_seed
from datamarket.errors import LedgerError
from datamarket.ledger import Ledger
from datamarket.messages import (
    Audience,
    Comparator,
    DataOrder,
    DataRequest,
    NotaryTerms,
    Predicate,
)
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario
from datamarket.transport import Envelope

TERMS = messages.terms_link("test terms")
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BANK = ROOT / "scenarios" / "bank.yaml"
HEX = re.compile("[0-9a-f]{24,}")


def sealer(sender_keys: crypto.KeyPair, public_key: bytes) -> crypto.Sealer:
    """The agreement the holder of `sender_keys` seals to `public_key` under."""
    secret = sender_keys.secret_key
    return crypto.Sealer(secret.decryption, secret.encryption_public, public_key)


def make_order(buyer_keys, m_a=10, upload_url="ub:test-buyer"):
    audience = Audience(frozenset({Predicate("country", Comparator.EQ, "AR")}))
    request = DataRequest("records", ("value",))
    return messages.build_data_order(buyer_keys, audience, request, upload_url, m_a, TERMS)


@dataclass
class Market:
    ledger: Ledger
    buyer_keys: crypto.KeyPair
    buyer: bytes  # an address
    notary_keys: crypto.KeyPair
    notary: bytes  # an address
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


def drop_first(monkeypatch, kind):
    """Make the network drop the first message of type `kind` sent: it
    enters the transcript undelivered, as a lost envelope does."""
    send, dropped = transport.Network.send, []

    def send_or_drop(network, sender, endpoint, message):
        if dropped or not isinstance(messages.decode(message), kind):
            return send(network, sender, endpoint, message)
        dropped.append(message)
        network.transcript.append(Envelope(sender, endpoint, message, network.tick_now))

    monkeypatch.setattr(transport.Network, "send", send_or_drop)
    return dropped


def run_bank_with(monkeypatch, extra, path=BANK):
    """A `bank.yaml` run (or one of the scenario at `path`) in which
    `extra(network, delivered)` adds envelopes to each tick's deliveries."""
    tick = transport.Network.tick

    def tick_with_extra(network):
        delivered = tick(network)
        extra(network, delivered)
        return delivered

    monkeypatch.setattr(transport.Network, "tick", tick_with_extra)
    return run_scenario(load_scenario(path))


def add_at_tick(at, sender, endpoint, message):
    """An `extra` for `run_bank_with` that delivers `message` from `sender`
    to `endpoint` at tick `at`."""

    def extra(network, delivered):
        if network.tick_now == at:
            delivered.setdefault(endpoint, []).append(Envelope(sender, endpoint, message, at, at))

    return extra


def submit_at_tick(monkeypatch, at, certificate):
    """An `extra` for `run_bank_with` that submits `certificate` to the run's
    ledger at tick `at`, as a third party would, and the list that the
    ledger's refusals of it are appended to."""
    ledgers, refusals = [], []
    monkeypatch.setattr(runner, "Ledger", lambda: ledgers.append(Ledger()) or ledgers[-1])

    def extra(network, delivered):
        if network.tick_now == at:
            try:
                ledgers[-1].close_response(messages.decode(certificate))
            except LedgerError as exc:
                refusals.append(str(exc))

    return extra, refusals
