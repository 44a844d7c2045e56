import dataclasses
import functools
import hmac
import math
import random
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datamarket import actors, crypto, ledger as ledger_mod, messages
from datamarket.actors import Buyer, Notary, Seller, keys_from_seed, seller_evaluate_order
from datamarket.errors import InvalidSignature
from datamarket.ledger import EventKind, Ledger
from datamarket.messages import NotarizationRequest, NotaryCertificate, NotaryTerms, Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import (
    BuyerSpec,
    NotarySpec,
    OrderSpec,
    SelectionPolicy,
    SellerSpec,
    load_scenario,
    random_scenario,
)
from datamarket.transport import Envelope, Network, NetworkConfig

from market_helpers import (
    BANK,
    TERMS,
    add_at_tick,
    drop_first,
    ladder_10x10,
    make_market,
    make_order,
    make_response,
    run_bank_with,
    sealer,
    submit_at_tick,
    workloads,
)

TELCO = BANK.parent / "telco.yaml"

DATA = b"seller-data-0123"
SCHEMA = "records"


def make_notary(market, ground_truth=None, enrollment=None, mode="ALWAYS", rate=0.0):
    return Notary(
        NotarySpec(name="n", seed=2, fee=2, mode=mode, rate=rate),
        keys_from_seed(2),  # seed 2: the market's notary keys
        market.ledger,
        Network(NetworkConfig()),
        records=ground_truth or {},
        enrollment=enrollment or {},
    )


def audit_request(market, response, salt, data, forced=True):
    plaintext = messages.encode_payload_plaintext(salt, data)
    ciphertext = crypto.encrypt_for(market.notary_keys.public_key, plaintext, b"\x01" * 32)
    return NotarizationRequest(
        order_ref=market.order.digest(),
        response_digest=response.digest(),
        forced=forced,
        audit_ciphertext=ciphertext,
    )


def selected_market():
    market = make_market()
    response, salt, seller_keys = make_response(market, data=DATA)
    market.ledger.select_sellers(market.order_id, [response])
    enrollment = {response.payment_address: "s10"}
    return market, response, salt, enrollment


# -- seller order evaluation ---------------------------------------------


def test_evaluate_matching_profile():
    market = make_market()
    decision = seller_evaluate_order(
        {"country": "AR", "age": 30}, {SCHEMA: DATA}, market.order, market.terms, market.price
    )
    assert decision.participate
    assert decision.chosen_notary == market.notary


def test_evaluate_non_matching_profile():
    market = make_market()
    decision = seller_evaluate_order(
        {"country": "BR"}, {SCHEMA: DATA}, market.order, market.terms, market.price
    )
    assert not decision.participate and decision.reason == "audience"


def test_evaluate_missing_schema():
    market = make_market()
    decision = seller_evaluate_order(
        {"country": "AR"}, {"other": b"x"}, market.order, market.terms, market.price
    )
    assert not decision.participate and decision.reason == "no-data"


def test_evaluate_price_floor():
    market = make_market()
    decision = seller_evaluate_order(
        {"country": "AR"}, {SCHEMA: DATA}, market.order, market.terms, market.price,
        min_price=market.price + 1,
    )
    assert not decision.participate and decision.reason == "price"


def test_evaluate_picks_cheapest_notary():
    market = make_market()
    pricier = messages.countersign_order(keys_from_seed(30), market.order, 5, market.terms[0].service_terms)
    cheaper = messages.countersign_order(keys_from_seed(31), market.order, 0, market.terms[0].service_terms)
    decision = seller_evaluate_order(
        {"country": "AR"}, {SCHEMA: DATA}, market.order,
        [pricier, market.terms[0], cheaper], market.price,
    )
    assert decision.chosen_notary == crypto.derive_address(keys_from_seed(31).public_key)


# -- notary verdicts ------------------------------------------------------


def test_honest_audit_is_valid():
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    request = audit_request(market, response, salt, DATA)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_VALID


def test_skip_when_policy_never_and_not_forced():
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment, mode="NEVER")
    request = audit_request(market, response, salt, DATA, forced=False)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOT_NOTARIZED


def test_forced_audit_overrides_never_policy():
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment, mode="NEVER")
    request = audit_request(market, response, salt, DATA, forced=True)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_VALID


def test_data_swapped_after_response_is_invalid():
    # Commitment binding: delivered bytes differ from what was committed.
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    request = audit_request(market, response, salt, b"other-data-9999x")
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


def test_data_differs_from_ground_truth_is_invalid():
    # The commitment opens, but the notary's own records disagree.
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): b"authoritative-record"}, enrollment)
    request = audit_request(market, response, salt, DATA)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


def test_wrong_salt_fails_even_with_true_data():
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    request = audit_request(market, response, b"\x00" * 32, DATA)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


def test_unenrolled_seller_is_invalid():
    market, response, salt, _ = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment={})
    request = audit_request(market, response, salt, DATA)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


def test_garbled_audit_payload_is_invalid():
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    request = NotarizationRequest(market.order.digest(), response.digest(), True, b"")
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


@pytest.mark.parametrize("case", ["too short", "another agreement", "flipped tag"])
def test_an_audit_envelope_that_does_not_open_is_invalid_and_not_kept(case):
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    sealed = audit_request(market, response, salt, DATA).audit_ciphertext
    plaintext = messages.encode_payload_plaintext(salt, DATA)
    audit_ciphertext = {
        "too short": sealed[:39],
        "another agreement": sealed[:32]
        + crypto.encrypt_for(market.notary_keys.public_key, plaintext, b"\x02" * 32)[32:],
        "flipped tag": sealed[:-1] + bytes([sealed[-1] ^ 1]),
    }[case]
    request = NotarizationRequest(market.order.digest(), response.digest(), True, audit_ciphertext)
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID
    assert notary._openers == {}


def test_a_notary_keeps_one_opener_per_agreement():
    """Three audit copies sealed by the buyer open under one opener, kept
    by the buyer's X25519 key."""
    market, response, salt, enrollment = selected_market()
    notary = make_notary(market, {("s10", SCHEMA): DATA}, enrollment)
    to_notary = sealer(market.buyer_keys, market.notary_keys.public_key)
    plaintext = messages.encode_payload_plaintext(salt, DATA)
    for _ in range(3):
        request = NotarizationRequest(
            market.order.digest(), response.digest(), True, to_notary.seal(plaintext)
        )
        assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_VALID
    assert list(notary._openers) == [market.buyer_keys.public_key[32:]]


# -- policies -------------------------------------------------------------


def test_selection_policies():
    market = make_market()
    responses = [make_response(market, seller_seed=100 + i)[0] for i in range(5)]
    assert SelectionPolicy().select(responses, 5) == responses
    assert SelectionPolicy(rule="FIRST_K", k=2).select(responses, 5) == responses[:2]
    assert SelectionPolicy(rule="BUDGET_CAP", max_tokens=12).select(responses, 5) == responses[:2]
    assert SelectionPolicy().limit(5) is None
    assert SelectionPolicy(rule="FIRST_K", k=2).limit(5) == 2
    assert SelectionPolicy(rule="BUDGET_CAP", max_tokens=14).limit(5) == 2


def test_a_first_k_buyer_checks_signatures_only_until_its_selection_is_full(monkeypatch):
    """A FIRST_K(1) buyer holding three valid offers, as decoded from the
    network, verifies one signature and selects the first offer."""
    market = make_market()
    offers = [make_response(market, seller_seed=100 + i)[0] for i in range(3)]
    spec = BuyerSpec(name="b", seed=1, selection=SelectionPolicy(rule="FIRST_K", k=1))
    buyer = Buyer(spec, keys_from_seed(spec.seed), market.ledger, Network(NetworkConfig()), {})
    buyer._offers_by_order[market.order_id] = [messages.decode(r.encode()) for r in offers]
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    buyer._select(market.ledger.contract(market.order_id))
    assert len(calls) == 1
    selected = market.ledger.contract(market.order_id).responses
    assert [state.response for state in selected.values()] == offers[:1]


# Offers from 60 sellers on `make_market`'s order, as sent: each honest, with
# a flipped signature byte, or honestly signed at a price the order does not
# take. An offer's signature is its last field.
SCREEN_SELLERS = 60


@functools.cache
def screen_offers() -> dict:
    market, offers = make_market(), {"good": [], "bad-signature": [], "wrong-price": []}
    wrong = dataclasses.replace(market, price=market.price + 1)
    for i in range(SCREEN_SELLERS):
        good = make_response(market, seller_seed=100 + i)[0].encode()
        offers["good"].append(good)
        offers["bad-signature"].append(good[:-1] + bytes([good[-1] ^ 1]))
        offers["wrong-price"].append(make_response(wrong, seller_seed=100 + i)[0].encode())
    return offers


def screen(kinds, policy):
    """Run one buyer's selection over fresh decoded offers of `kinds`: the
    offers selected and the number of signature checks."""
    market = make_market(balance=100_000)
    offers = [messages.decode(screen_offers()[kind][i]) for i, kind in enumerate(kinds)]
    spec = BuyerSpec(name="b", seed=1, selection=policy)
    buyer = Buyer(spec, keys_from_seed(spec.seed), market.ledger, Network(NetworkConfig()), {})
    buyer._offers_by_order[market.order_id] = offers
    messages._verifies.cache_clear()  # the last screen checked the same offers
    checks, verify = [], crypto.verify
    with mock.patch.object(crypto, "verify", lambda *a: checks.append(a) or verify(*a)):
        buyer._select(market.ledger.contract(market.order_id))
    selected = market.ledger.contract(market.order_id).responses.values()
    return [offers.index(state.response) for state in selected], len(checks)


@given(
    kinds=st.lists(
        st.sampled_from(["good"] * 4 + ["bad-signature", "wrong-price"]),
        max_size=SCREEN_SELLERS,
    ),
    rule=st.sampled_from(["ALL_VALID", "FIRST_K", "BUDGET_CAP"]),
    k=st.integers(0, SCREEN_SELLERS),
    budget=st.integers(0, SCREEN_SELLERS + 1),
)
@example(kinds=["bad-signature", "good", "wrong-price", "good"], rule="FIRST_K", k=1, budget=0)
@example(kinds=["good", "good", "bad-signature", "good"], rule="BUDGET_CAP", k=0, budget=2)
@settings(max_examples=40, deadline=None)
def test_the_screen_selects_the_first_valid_offers_and_checks_only_what_it_needs(
    kinds, rule, k, budget
):
    """Whatever the offers and the rule, the buyer selects the first `limit`
    offers, in arrival order, at the contract's price and validly signed. It
    checks the signature of each offer at that price up to the last one the
    rule took, or of every one when the rule never fills."""
    price = make_market().price
    policy = SelectionPolicy(rule=rule, k=k, max_tokens=budget * price)
    limit = policy.limit(price)
    taken = [i for i, kind in enumerate(kinds) if kind == "good"][:limit]
    priced = [i for i, kind in enumerate(kinds) if kind != "wrong-price"]
    if limit is not None and len(taken) == limit:  # the rule is full
        priced = [i for i in priced if taken and i <= taken[-1]]
    assert screen(kinds, policy) == (taken, len(priced))


@pytest.mark.parametrize("failing", [3, 15], ids=["earlier-half", "later-half"])
def test_a_failing_check_in_either_half_reaches_the_caller_and_leaves_no_thread(
    monkeypatch, failing
):
    """A check that raises on an offer in the first or the second half of
    twenty reaches the caller, selects nothing and starts no thread. It
    raises once only, so the exception comes from the check that failed,
    not from a later check of the same offer."""
    market = make_market(balance=100_000)
    offers = [messages.decode(good) for good in screen_offers()["good"][:20]]
    spec = BuyerSpec(name="b", seed=1)
    buyer = Buyer(spec, keys_from_seed(spec.seed), market.ledger, Network(NetworkConfig()), {})
    buyer._offers_by_order[market.order_id] = offers
    verify, threads, failed = crypto.verify, threading.active_count(), []

    def verify_or_fail(public_key, message, signature):
        if message == offers[failing].signing_bytes() and not failed:
            failed.append(message)
            raise RuntimeError("check failed")
        return verify(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", verify_or_fail)
    with pytest.raises(RuntimeError, match="check failed"):
        buyer._select(market.ledger.contract(market.order_id))
    assert threading.active_count() == threads
    assert not market.ledger.contract(market.order_id).responses


@pytest.mark.parametrize(
    "scenario, checks",
    [
        (lambda: workloads().ladder_market(40, 20, 0), 940),
        (lambda: load_scenario(BANK), 6),
    ],
    ids=["ladder-40x20", "bank"],
)
def test_a_run_checks_each_distinct_signature_once(monkeypatch, scenario, checks):
    """Each ladder order gets 40 offers; copies of one message, decoded or
    not, share one check through the memo."""
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(a) or verify(*a))
    assert run_scenario(scenario(), tick_limit=3000).report.ok
    assert len(calls) == len(set(calls)) == checks


def sample_market(n):
    """A market with `n` selected genuine responses of `DATA`, from sellers
    s10, s11, ..., the records and enrollment a notary checks them against,
    and an unforced request carrying a true audit copy for each."""
    market = make_market(balance=1000)
    made = [make_response(market, seller_seed=10 + i, data=DATA) for i in range(n)]
    market.ledger.select_sellers(market.order_id, [response for response, _, _ in made])
    truth = {(f"s{10 + i}", SCHEMA): DATA for i in range(n)}
    enrollment = {response.payment_address: f"s{10 + i}" for i, (response, _, _) in enumerate(made)}
    requests = [audit_request(market, r, salt, DATA, forced=False) for r, salt, _ in made]
    return market, truth, enrollment, requests


def sample_verdicts(notary, market, requests):
    """`notary`'s verdict on each request, by response digest."""
    contract = market.ledger.contract(market.order_id)
    return {
        r.response_digest: notary.decide_verdict(
            r, contract.responses[r.response_digest].response, SCHEMA
        )
        for r in requests
    }


def test_sample_policy_reproducible():
    """Two notaries built from one SAMPLE spec agree on each of 50 distinct
    honest unforced requests: some are not audited, and the rest are audited
    and found valid. Asking again, in the opposite order, gives each request
    the same verdict."""
    market, truth, enrollment, requests = sample_market(50)
    verdicts = []
    for _ in range(2):
        notary = make_notary(market, truth, enrollment, mode="SAMPLE", rate=0.5)
        verdicts.append(sample_verdicts(notary, market, requests))
        verdicts.append(sample_verdicts(notary, market, requests[::-1]))
    assert verdicts[0] == verdicts[1] == verdicts[2] == verdicts[3]
    assert set(verdicts[0].values()) == {Verdict.NOT_NOTARIZED, Verdict.NOTARIZED_VALID}


@pytest.mark.parametrize("rate, audited", [(0.0, 0), (0.5, 30), (1.0, 50)])
def test_sample_policy_bounds_are_exact(rate, audited):
    """Over 50 distinct honest unforced requests, SAMPLE at rate 0 audits
    none and at rate 1 audits all. At rate 0.5 it audits exactly the
    responses whose HMAC-SHA256 under the notary's seed over `audit` ||
    digest starts with 8 big-endian bytes below 2**63, a count fixed by the
    keys. Each audited response is found valid; the rest are not notarized."""
    market, truth, enrollment, requests = sample_market(50)
    notary = make_notary(market, truth, enrollment, mode="SAMPLE", rate=rate)
    verdicts = sample_verdicts(notary, market, requests)
    seed = notary.keys.secret_key.seed
    expected = {
        digest
        for digest in verdicts
        if int.from_bytes(hmac.digest(seed, b"audit" + digest, "sha256")[:8], "big") < rate * 2**64
    }
    assert {d for d, v in verdicts.items() if v is Verdict.NOTARIZED_VALID} == expected
    assert {d for d, v in verdicts.items() if v is Verdict.NOT_NOTARIZED} == verdicts.keys() - expected
    assert len(expected) == audited


@pytest.mark.parametrize("size", [1, 16, 32, 70])
def test_a_tampering_seller_delivers_keyed_bytes_as_long_as_its_data(size):
    """A substitute_data seller delivers `forged:` and its `tamper` draw
    over the response digest, repeated to the data's length or to 8 bytes,
    whichever is more. A bit_flip seller flips the one bit of its data that
    the first 8 bytes of that draw, big-endian, pick modulo its bit count."""
    market = make_market()
    data = bytes(range(size))
    response, salt, keys = make_response(market, data=data)
    offer = actors._SellerOffer(market.ledger.contract(market.order_id), response, salt, data, 0)
    draw = hmac.digest(keys.secret_key.seed, b"tamper" + response.digest(), "sha256")
    delivered = {}
    for mutation in (actors.Mutation.SUBSTITUTE_DATA, actors.Mutation.BIT_FLIP):
        spec = SellerSpec(name="s", seed=10, dataset={SCHEMA: data}, mutation=mutation)
        seller = Seller(spec, keys, market.ledger, Network(NetworkConfig()))
        delivered[mutation] = seller._delivery_data(offer)
    assert delivered[actors.Mutation.SUBSTITUTE_DATA] == b"forged:" + (draw * 3)[: max(8, size)]
    flipped = delivered[actors.Mutation.BIT_FLIP]
    bit = int.from_bytes(draw[:8], "big") % (8 * size)
    assert len(flipped) == size
    assert int.from_bytes(flipped, "little") ^ int.from_bytes(data, "little") == 1 << bit


def test_seller_offers_on_the_open_orders_registered_since_its_last_step():
    """Three orders registered between two seller steps, in descending
    order-digest order, and one of them closed before the second step: the
    seller offers on the two open ones, in ascending order-digest order."""
    ledger, network = Ledger(), Network(NetworkConfig())
    network.register("ub:test-buyer")
    buyer_keys, notary_keys = keys_from_seed(1), keys_from_seed(2)
    ledger.mint(crypto.derive_address(buyer_keys.public_key), 100)
    spec = SellerSpec(name="s", seed=5, attributes={"country": "AR"}, dataset={SCHEMA: DATA})
    seller = Seller(spec, keys_from_seed(spec.seed), ledger, network)
    seller.step(1)
    orders = [make_order(buyer_keys, m_a=m_a) for m_a in (1, 2, 3)]
    orders.sort(key=lambda order: order.digest(), reverse=True)
    for order in orders:
        ledger.register_order(order, [messages.countersign_order(notary_keys, order, 2, TERMS)], 5)
    ledger.close_order(orders[1].digest())
    seller.step(2)
    offered = [messages.decode(envelope.message).order_ref for envelope in network.transcript]
    assert offered == [orders[2].digest(), orders[0].digest()]


def test_no_top_up_follows_a_selection():
    """The buyer makes one selection per order; the ledger tops the audit
    escrow up to every selected response's fee then, so no later top-up is
    needed. Some selections top up: their fees exceed the audit budget."""
    scenarios = [random_scenario(seed) for seed in range(200)]
    scenarios += [ladder_10x10(drop_rate) for drop_rate in (0.0, 0.05)]
    layout = ledger_mod._RULES[EventKind.SELLERS_SELECTED].layout
    top_ups = 0
    for scenario in scenarios:
        ledger = run_scenario(scenario).ledger
        selected = [
            layout.read(event.payload)[0]
            for event in ledger.journal
            if event.kind is EventKind.SELLERS_SELECTED
        ]
        assert len(selected) == len(set(selected)), scenario.name
        for contract in map(ledger.contract, selected):
            states = contract.responses.values()
            fees = sum(contract.notary_terms[s.response.chosen_notary].fee for s in states)
            top_ups += fees > contract.min_audit_budget
    assert top_ups > 0


def test_each_offer_and_delivery_is_sent_once(monkeypatch):
    """Lossless bank.yaml with its first delivery dropped: no offer is posted
    twice in one tick, and every re-sent delivery repeats the bytes of the
    first one for its response."""
    dropped = drop_first(monkeypatch, messages.PayloadDelivery)
    transcript = run_scenario(load_scenario(BANK)).network.transcript
    assert len(dropped) == 1
    offers, deliveries = set(), {}
    for envelope in transcript:
        message = messages.decode(envelope.message)
        if isinstance(message, messages.DataResponse):
            assert (envelope.send_tick, envelope.message) not in offers
            offers.add((envelope.send_tick, envelope.message))
        elif isinstance(message, messages.PayloadDelivery):
            deliveries.setdefault(message.response_digest, []).append(envelope.message)
    assert offers and any(len(sent) > 1 for sent in deliveries.values())
    assert all(len(set(sent)) == 1 for sent in deliveries.values())


def test_lossless_ladder_encrypts_once_per_delivery_and_request(monkeypatch):
    """100 settlements: 100 deliveries, each sealed once under the one
    `Sealer` of its (seller, buyer) pair, and 100 notarization requests,
    each sealed once under the one `Sealer` of its (buyer, notary) pair,
    which serves all of that buyer's orders; the ladder has 40 and 4 such
    pairs. No envelope has an agreement of its own."""
    one_shots, encrypt_for = [], crypto.encrypt_for
    monkeypatch.setattr(crypto, "encrypt_for", lambda *a: one_shots.append(a) or encrypt_for(*a))
    sealers, init = [], crypto.Sealer.__init__
    monkeypatch.setattr(crypto.Sealer, "__init__", lambda *a: sealers.append(a) or init(*a))
    seals, seal = [], crypto.Sealer.seal
    monkeypatch.setattr(crypto.Sealer, "seal", lambda *a: seals.append(a) or seal(*a))
    result = run_scenario(ladder_10x10(0.0))
    sent = [(messages.decode(e.message), e) for e in result.network.transcript]
    requests = [(m, e) for m, e in sent if isinstance(m, NotarizationRequest)]
    pairs = {(e.sender, e.endpoint) for _, e in requests}
    order_pairs = {(request.order_ref, e.endpoint) for request, e in requests}
    deliveries = [(m, e) for m, e in sent if isinstance(m, messages.PayloadDelivery)]
    delivery_pairs = {(e.sender, e.endpoint) for _, e in deliveries}
    assert len(result.report.rows) == 100
    assert one_shots == []
    assert len({delivery.response_digest for delivery, _ in deliveries}) == 100
    assert len({request.response_digest for request, _ in requests}) == 100
    assert len(seals) == 100 + 100
    assert len(delivery_pairs) == 40 and len(pairs) == 4 and len(order_pairs) == 10
    assert len(sealers) == len({(sender, public_key) for _, _, sender, public_key in sealers})
    assert len(sealers) == 40 + 4


def sealed_groups(transcript, kind, sealed_of, keys):
    """The envelopes of each `kind` message in `transcript`, grouped by
    (envelope header, endpoint) and then by sequence number. Every header is
    the X25519 key that `keys` gives the network sender, and every group
    holds one envelope for each sequence number from 0 up."""
    groups = {}  # (header, endpoint) -> {sequence: {envelope}}
    for envelope in transcript:
        message = messages.decode(envelope.message)
        if isinstance(message, kind):
            sealed = sealed_of(message)
            assert sealed[:32] == keys[envelope.sender].public_key[32:]
            by_sequence = groups.setdefault((sealed[:32], envelope.endpoint), {})
            by_sequence.setdefault(sealed[32:40], set()).add(sealed)
    for by_sequence in groups.values():
        assert sorted(by_sequence) == [i.to_bytes(8, "big") for i in range(len(by_sequence))]
        assert all(len(sent) == 1 for sent in by_sequence.values())
    return groups


@pytest.mark.parametrize("drop_rate", [0.0, 0.05])
def test_no_key_and_nonce_seal_two_audit_plaintexts(monkeypatch, drop_rate):
    """Audit envelopes name their buyer's key and are grouped by (that key,
    notary endpoint): one group per (buyer, notary) pair, across all of the
    buyer's orders, and within a group one envelope per sequence number, so
    a re-sent request repeats the bytes it was first sent with. The lossy run
    also loses its first request, so that one is re-sent."""
    if drop_rate:
        drop_first(monkeypatch, NotarizationRequest)
    result = run_scenario(ladder_10x10(drop_rate))
    transcript = result.network.transcript
    requests = [(messages.decode(e.message), e) for e in transcript]
    requests = [(r, e) for r, e in requests if isinstance(r, NotarizationRequest)]
    pairs = {(e.sender, e.endpoint) for _, e in requests}
    order_pairs = {(r.order_ref, e.endpoint) for r, e in requests}
    keys = {buyer.address: buyer.keys for buyer in result.buyers}
    groups = sealed_groups(transcript, NotarizationRequest, lambda r: r.audit_ciphertext, keys)
    assert len(groups) == len(pairs) < len(order_pairs) == 10
    assert sum(len(by_sequence) for by_sequence in groups.values()) == 100
    assert (len(requests) > 100) == (drop_rate > 0)  # the lossy run re-sends some requests


@pytest.mark.parametrize("drop_rate", [0.0, 0.05])
def test_no_key_and_nonce_seal_two_deliveries(drop_rate):
    """Delivery envelopes name their seller's key and are grouped by (that
    key, upload URL): one group per (seller, buyer) pair, and within a group
    one envelope per sequence number, so a re-sent delivery repeats the bytes
    it was first sent with."""
    result = run_scenario(ladder_10x10(drop_rate))
    sent = {}  # response digest -> {delivery bytes}
    for envelope in result.network.transcript:
        delivery = messages.decode(envelope.message)
        if isinstance(delivery, messages.PayloadDelivery):
            sent.setdefault(delivery.response_digest, set()).add(envelope.message)
    keys = {seller.address: seller.keys for seller in result.sellers}
    groups = sealed_groups(
        result.network.transcript, messages.PayloadDelivery, lambda d: d.ciphertext, keys
    )
    assert len(groups) == 40
    assert sum(len(by_sequence) for by_sequence in groups.values()) == len(sent)
    assert all(len(resent) == 1 for resent in sent.values())


@pytest.mark.parametrize(
    "case",
    [
        "too short",
        "another agreement",
        "flipped tag",
        "third identity",
        "small-order header",
        "other offer's seller",
    ],
)
def test_a_delivery_that_does_not_open_forces_an_invalid_audit_and_is_not_kept(case):
    """Two selected responses. The first one's delivery does not open: the
    buyer forces an audit with an empty payload, which the notary judges
    invalid, and keeps no opener. The second one's delivery, sealed under its
    own seller's key, opens, and its audit is valid. A header may name a third
    identity's key, or a small-order point that no agreement can use. A
    delivery that the other offer's seller sealed, validly, to the buyer is
    not opened either: it must be sealed under the key of the seller whose
    offer it answers."""
    ledger, network = Ledger(), Network(NetworkConfig())
    market = make_market()  # only for the notary's keys and address
    notary_keys = market.notary_keys
    spec = BuyerSpec(name="b", seed=1)
    buyer = Buyer(spec, keys_from_seed(spec.seed), ledger, network, {market.notary: "n"})
    for endpoint in (buyer.upload_url, "notary:n"):
        network.register(endpoint)
    ledger.mint(buyer.address, 100)
    order = buyer.start_order(OrderSpec(buyer="b", schema_id=SCHEMA, price=5, notaries=("n",)), 0)
    terms = messages.countersign_order(notary_keys, order, 2, TERMS)
    buyer.handle([Envelope(market.notary, buyer.upload_url, terms.encode(), 1)])
    buyer.step(4)  # the countersign window closes: the order is registered
    offers = []
    for seed in (10, 11):
        salt = bytes([seed]) * 32
        response = messages.build_data_response(
            keys_from_seed(seed), order, 5, DATA, market.notary, salt
        )
        offers.append((response, messages.encode_payload_plaintext(salt, DATA)))
        buyer.handle([Envelope(response.payment_address, buyer.upload_url, response.encode(), 5)])
    buyer.step(10)  # the response window closes: both responses are selected
    notary = make_notary(
        market,
        {("s10", SCHEMA): DATA, ("s11", SCHEMA): DATA},
        {r.payment_address: f"s{seed}" for (r, _), seed in zip(offers, (10, 11))},
    )
    to_buyer = sealer(keys_from_seed(10), order.buyer_pk)
    from_other = sealer(keys_from_seed(11), order.buyer_pk)  # the second offer's seller
    sealed = to_buyer.seal(offers[0][1])
    bad = {
        "too short": sealed[:39],
        "another agreement": sealed[:32]
        + crypto.encrypt_for(order.buyer_pk, offers[0][1], b"\x02" * 32)[32:],
        "flipped tag": sealed[:-1] + bytes([sealed[-1] ^ 1]),
        "third identity": keys_from_seed(12).public_key[32:] + sealed[32:],
        "small-order header": bytes(32) + sealed[32:],
        "other offer's seller": from_other.seal(offers[0][1]),
    }[case]
    verdicts = []
    for tick, ((response, _), ciphertext) in enumerate(
        zip(offers, [bad, from_other.seal(offers[1][1])]), start=11
    ):
        delivery = messages.PayloadDelivery(response.digest(), ciphertext)
        sent = Envelope(response.payment_address, buyer.upload_url, delivery.encode(), tick)
        buyer.handle([sent])
        buyer.step(tick)
        request = messages.decode(network.transcript[-1].message)
        assert isinstance(request, NotarizationRequest)
        assert request.response_digest == response.digest()
        verdicts.append((request.forced, request.audit_ciphertext == b""))
        verdicts.append(notary.decide_verdict(request, response, SCHEMA))
        if tick == 11:
            assert buyer._openers == {}
    assert verdicts == [
        (True, True),
        Verdict.NOTARIZED_INVALID,
        (False, False),
        Verdict.NOTARIZED_VALID,
    ]
    assert list(buyer._openers) == [keys_from_seed(11).public_key[32:]]


# -- inputs an actor must drop ---------------------------------------------


def test_notary_drops_orders_it_cannot_answer():
    """Two correctly signed orders the notary cannot answer: an upload URL
    with no colon, and one naming a buyer the network does not know; the
    network refuses both. The order to a registered buyer is the control."""
    notary = make_notary(make_market())
    notary.network.register("ub:known")
    keys = keys_from_seed(77)

    def send_order(upload_url):
        order = make_order(keys, upload_url=upload_url)
        notary.handle([Envelope(None, notary.endpoint, order.encode(), 0)])

    send_order("no-colon")
    send_order("ub:nobody")
    assert notary.network.transcript == []
    send_order("ub:known")
    assert [e.endpoint for e in notary.network.transcript] == ["ub:known"]


def test_buyer_drops_a_certificate_and_a_delivery_for_an_order_with_no_contract():
    """While the buyer gathers notary terms, its order has no contract: a
    certificate naming that order is refused as an upload of an unsupported
    type (notaries submit certificates to the ledger, not to the buyer), and
    a payload delivery for it is refused as one whose response is not
    selected."""
    ledger, network = Ledger(), Network(NetworkConfig())
    spec = BuyerSpec(name="b", seed=1)
    buyer = Buyer(spec, keys_from_seed(spec.seed), ledger, network, {})
    order = buyer.start_order(OrderSpec(buyer="b", schema_id=SCHEMA, price=5, notaries=()), 0)
    notary_keys = keys_from_seed(2)
    notary = crypto.derive_address(notary_keys.public_key)
    response = messages.build_data_response(keys_from_seed(10), order, 5, DATA, notary, b"s" * 32)
    cert = messages.issue_certificate(notary_keys, order.digest(), response, Verdict.NOT_NOTARIZED)
    delivery = messages.PayloadDelivery(response.digest(), b"ciphertext")
    buyer.handle(
        [
            Envelope(sender, buyer.upload_url, message.encode(), 0)
            for sender, message in [
                (response.payment_address, response),
                (response.payment_address, delivery),
                (notary, cert),
            ]
        ]
    )
    assert buyer._deliveries == [delivery]  # accepted: the buyer holds its offer
    buyer.step(1)
    assert buyer._deliveries == []
    assert buyer.rejected_submissions == [
        "upload: unsupported message type NotaryCertificate",
        "upload: unselected-response",
    ]
    assert not ledger.contracts and not network.transcript
    assert not buyer.done


def address_of(seed):
    return crypto.derive_address(keys_from_seed(seed).public_key)


def test_bad_certificate_does_not_end_the_run(monkeypatch):
    """A zero-signature certificate for a selected, still unsettled response
    of `bank.yaml`, submitted to the ledger at tick 12: the ledger refuses
    it, and the run ends as it would without it."""
    scenario = load_scenario(BANK)
    undisturbed = run_scenario(scenario)
    (contract,) = undisturbed.ledger.contracts.values()
    bad = NotaryCertificate(
        notary_pk=keys_from_seed(scenario.notaries[0].seed).public_key,
        order_ref=contract.order_digest,
        response_digest=min(contract.responses),
        verdict=Verdict.NOTARIZED_VALID,
        notary_signature=bytes(64),
    ).encode()
    extra, refusals = submit_at_tick(monkeypatch, 12, bad)
    result = run_bank_with(monkeypatch, extra)
    assert refusals == ["certificate signature does not verify"]
    assert not result.buyers[0].rejected_submissions
    assert result.report.render() == undisturbed.report.render()


@pytest.mark.parametrize("tick", range(5, 10))
def test_a_delivery_before_its_selection_is_judged_again(monkeypatch, tick):
    """`bank.yaml`'s first offer arrives at tick 5, and the first delivery
    is sent at tick 10, once its response is selected. That delivery,
    replayed to the buyer at any tick between, is refused as unselected and
    not kept as accepted, so the seller's send is taken when it comes, and
    the run ends as it would without the replay."""
    undisturbed = run_scenario(load_scenario(BANK))
    (first,) = [
        e
        for e in undisturbed.network.transcript
        if e.endpoint == "ub:modelcorp"
        and isinstance(messages.decode(e.message), messages.PayloadDelivery)
    ][:1]
    replay = add_at_tick(tick, first.sender, "ub:modelcorp", first.message)
    result = run_bank_with(monkeypatch, replay)
    assert result.buyers[0].rejected_submissions == ["upload: unselected-response"]
    assert result.report.render() == undisturbed.report.render()


def test_buyer_takes_notary_terms_only_from_a_notary_the_order_lists(monkeypatch):
    """Terms for `bank.yaml`'s pending order, countersigned with fee 0 by a
    notary the order never asked, reach the buyer at tick 1: the buyer
    ignores them, and the run ends as it would without them."""
    undisturbed = run_scenario(load_scenario(BANK))
    (contract,) = undisturbed.ledger.contracts.values()
    stranger = messages.countersign_order(keys_from_seed(999), contract.order, 0, TERMS)
    terms = add_at_tick(1, address_of(999), "ub:modelcorp", stranger.encode())
    result = run_bank_with(monkeypatch, terms)
    assert not result.buyers[0].rejected_submissions
    assert result.report.render() == undisturbed.report.render()


def test_buyer_keeps_one_terms_message_per_notary(monkeypatch):
    """Every notary terms envelope of a `bank.yaml` run reaches the buyer
    twice: the buyer keeps one per notary, and the run ends as it would
    without the repeats."""
    undisturbed = run_scenario(load_scenario(BANK))
    repeated = []

    def repeat_terms(network, delivered):
        envelopes = delivered.get("ub:modelcorp", [])
        for envelope in list(envelopes):
            if isinstance(messages.decode(envelope.message), NotaryTerms):
                envelopes.append(envelope)
                repeated.append(envelope)

    result = run_bank_with(monkeypatch, repeat_terms)
    assert repeated
    assert not result.buyers[0].rejected_submissions
    assert result.report.render() == undisturbed.report.render()


def alices_response(undisturbed):
    """The digest of alice's selected response in a `bank.yaml` run."""
    (contract,) = undisturbed.ledger.contracts.values()
    alice = address_of(201)
    (digest,) = [d for d, s in contract.responses.items() if s.response.payment_address == alice]
    return contract, digest


def test_notary_takes_a_notarization_request_only_from_the_orders_buyer(monkeypatch):
    """carla asks `bank.yaml`'s notary, at tick 11, for a forced audit of
    alice's selected response with no audit payload. The notary drops the
    request, as it is not from the order's buyer, so alice's genuine
    delivery is audited and paid, and the run ends as it would without it."""
    undisturbed = run_scenario(load_scenario(BANK))
    contract, digest = alices_response(undisturbed)
    request = NotarizationRequest(contract.order_digest, digest, True, b"").encode()
    result = run_bank_with(monkeypatch, add_at_tick(11, address_of(203), "notary:bank", request))
    assert result.report.render() == undisturbed.report.render()


def test_buyer_takes_a_delivery_only_from_the_responses_seller(monkeypatch):
    """carla uploads, at tick 11, a garbled delivery for alice's selected
    response. The buyer refuses it, as it is not from alice, and does not
    keep its bytes, so alice's genuine delivery is audited and paid, and
    the run ends as it would without it."""
    undisturbed = run_scenario(load_scenario(BANK))
    _, digest = alices_response(undisturbed)
    delivery = messages.PayloadDelivery(digest, b"\x01" * 80).encode()
    result = run_bank_with(monkeypatch, add_at_tick(11, address_of(203), "ub:modelcorp", delivery))
    buyer = result.buyers[0]
    assert buyer.rejected_submissions == ["upload: not-from-seller"]
    assert delivery not in buyer._accepted_uploads
    assert result.report.render() == undisturbed.report.render()


# -- certificates signed in batches ------------------------------------------


def requests_to_certify(n, mode="NEVER"):
    """A notary in `mode` (by default, one that never audits), its market
    with `n` selected responses naming it, and the buyer's request for each
    response's certificate."""
    market = make_market(balance=1000)
    responses = [make_response(market, seller_seed=10 + i)[0] for i in range(n)]
    market.ledger.select_sellers(market.order_id, responses)
    notary = make_notary(market, mode=mode)
    notary.network.register("ub:test-buyer")  # where terms for `make_order`'s orders go
    requests = [
        NotarizationRequest(market.order.digest(), r.digest(), False, b"").encode()
        for r in responses
    ]
    requests = [Envelope(market.buyer, notary.endpoint, request, 0) for request in requests]
    return notary, market, requests


def count_signatures(monkeypatch):
    signed, sign = [], crypto.sign
    monkeypatch.setattr(crypto, "sign", lambda key, msg: signed.append(msg) or sign(key, msg))
    return signed


def closes(ledger):
    return [event for event in ledger.journal if event.kind is EventKind.RESPONSE_CLOSED]


@pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
def test_a_notary_signs_one_root_per_sixteen_certificates(monkeypatch, n):
    """The notary settles each response on the ledger in request order,
    sends no certificate, and signs one root per sixteen certificates."""
    notary, market, requests = requests_to_certify(n)
    signed = count_signatures(monkeypatch)
    notary.handle(requests)
    assert len(signed) == math.ceil(n / messages.CERTIFICATE_BATCH)
    certs = market.ledger.certificates(market.order_id)
    assert [c.response_digest for c in certs] == [
        messages.decode(e.message).response_digest for e in requests
    ]
    assert all(c.verify_signature() for c in certs)
    assert notary.network.transcript == []
    assert market.ledger.contract(market.order_id).payment_escrow == 0


def test_a_notary_answers_a_mixed_tick_in_arrival_order():
    """Orders and notarization requests interleaved in one tick: each order's
    terms are sent, and each request's certificate is settled, in the order
    they came."""
    notary, market, requests = requests_to_certify(3)
    orders = [
        Envelope(None, notary.endpoint, make_order(keys_from_seed(70 + i)).encode(), 0)
        for i in range(3)
    ]
    envelopes = [orders[0], requests[0], requests[1], orders[1], orders[2], requests[2]]
    notary.handle(envelopes)
    sent = [messages.decode(e.message) for e in notary.network.transcript]
    assert [terms.order_digest for terms in sent] == [
        messages.decode(e.message).digest() for e in orders
    ]
    certs = market.ledger.certificates(market.order_id)
    assert [c.response_digest for c in certs] == [
        messages.decode(e.message).response_digest for e in requests
    ]
    assert [(c.leaf_index, c.batch_size) for c in certs] == [(0, 3), (1, 3), (2, 3)]


def count_draws(monkeypatch):
    drawn, draw = [], crypto.keyed_draw
    monkeypatch.setattr(
        crypto,
        "keyed_draw",
        lambda key, label, digest: drawn.append((label, digest)) or draw(key, label, digest),
    )
    return drawn


def test_two_requests_for_one_response_in_one_tick_give_one_certificate(monkeypatch):
    """A request and its re-send reach a SAMPLE notary in the same tick:
    one audit draw, one leaf, one signature and one settlement."""
    notary, market, (request,) = requests_to_certify(1, mode="SAMPLE")
    drawn = count_draws(monkeypatch)
    signed = count_signatures(monkeypatch)
    notary.handle([request, request])
    assert drawn == [(b"audit", messages.decode(request.message).response_digest)]
    (cert,) = market.ledger.certificates(market.order_id)
    assert (cert.leaf_index, cert.batch_size) == (0, 1)
    assert len(signed) == 1
    assert len(closes(market.ledger)) == 1


def test_a_request_after_settlement_makes_no_audit_draw_and_no_certificate(monkeypatch):
    """A SAMPLE notary settles a response; the same request, reaching it
    again in a later tick, makes no audit draw and is not certified."""
    notary, market, (request,) = requests_to_certify(1, mode="SAMPLE")
    notary.handle([request])
    assert len(closes(market.ledger)) == 1
    drawn = count_draws(monkeypatch)
    signed = count_signatures(monkeypatch)
    notary.handle([request])
    assert drawn == []
    assert signed == [] and len(closes(market.ledger)) == 1


@pytest.mark.parametrize(
    "market", ["bank.yaml", "telco.yaml", "ladder-10x10 drop 0.0", "ladder-10x10 drop 0.05"]
)
def test_no_certificate_is_sent(market):
    """Notaries settle what they certify on the ledger: no certificate is
    sent on the network, and every selected response settles."""
    if market.startswith("ladder"):
        scenario = ladder_10x10(float(market.rpartition(" ")[2]))
    else:
        scenario = load_scenario(BANK.parent / market)
    result = run_scenario(scenario)
    sent = {type(messages.decode(e.message)) for e in result.network.transcript}
    assert NotarizationRequest in sent and NotaryCertificate not in sent
    assert result.report.ok and result.report.rows and not result.report.unsettled


def settled_rows(result):
    """Each settlement's verdict and response digest, by order position and seller name."""
    position = {digest.hex(): i for i, digest in enumerate(result.ledger.contracts)}
    return {
        (position[r.order_id], r.seller_name): (r.verdict, r.response_digest)
        for r in result.report.rows
    }


@pytest.mark.parametrize(
    "market", ["ladder-10x10 drop 0.0", "ladder-10x10 drop 0.05", "random 0..99"]
)
def test_a_change_that_only_moves_timing_moves_no_verdict(monkeypatch, market):
    """Sellers that re-send every 4 ticks instead of 3 change when messages
    arrive: each row that both runs settle keeps its verdict and its
    response digest."""
    if market.startswith("ladder"):
        scenarios = [ladder_10x10(float(market.rpartition(" ")[2]))]
    else:
        scenarios = [random_scenario(seed) for seed in range(100)]
    before = [settled_rows(run_scenario(s)) for s in scenarios]
    monkeypatch.setattr(actors, "SELLER_RETRY_INTERVAL", 4)
    after = [settled_rows(run_scenario(s)) for s in scenarios]
    both = {
        (i, key): (b[key], a[key])
        for i, (b, a) in enumerate(zip(before, after))
        for key in b.keys() & a.keys()
    }
    assert len(both) >= 0.95 * sum(map(len, before))
    assert {key: pair for key, pair in both.items() if pair[0] != pair[1]} == {}


def test_no_actor_holds_a_random_stream():
    """Every draw an actor makes is keyed by what it decides: no buyer,
    seller or notary keeps a `random.Random` after a run."""
    for scenario in (load_scenario(BANK), ladder_10x10()):
        result = run_scenario(scenario)
        for actor in result.buyers + result.sellers + result.notaries:
            streams = [k for k, v in vars(actor).items() if isinstance(v, random.Random)]
            assert streams == [], (actor.name, streams)


def test_a_batched_certificate_with_another_verdict_is_refused_by_the_live_ledger(monkeypatch):
    """`telco.yaml`'s notary certifies three responses under one root at
    tick 13. The second certificate, read from the journal with its verdict
    changed, reaches the ledger at tick 13 before the genuine one: the ledger
    refuses it, and the run ends as it would without it."""
    undisturbed = run_scenario(load_scenario(TELCO))
    (contract,) = undisturbed.ledger.contracts.values()
    cert = next(
        c
        for c in undisturbed.ledger.certificates(contract.order_digest)
        if (c.leaf_index, c.batch_size) == (1, 3)
    )
    (request,) = [
        e
        for e in undisturbed.network.transcript
        if e.message[0] == messages.TAG_NOTARIZATION_REQUEST
        and messages.decode(e.message).response_digest == cert.response_digest
    ]
    assert request.delivery_tick == 13
    forged = dataclasses.replace(cert, verdict=Verdict.NOT_NOTARIZED).encode()
    with pytest.raises(InvalidSignature):
        ledger_mod.Ledger().close_response(messages.decode(forged))

    extra, refusals = submit_at_tick(monkeypatch, 13, forged)
    result = run_bank_with(monkeypatch, extra, TELCO)
    assert refusals == ["certificate signature does not verify"]
    assert result.buyers[0].rejected_submissions == undisturbed.buyers[0].rejected_submissions
    assert result.report.render() == undisturbed.report.render()
