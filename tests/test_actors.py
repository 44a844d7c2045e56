from pathlib import Path

import pytest

from datamarket import crypto, messages, transport
from datamarket.actors import (
    Mutation,
    NotarizationPolicy,
    Notary,
    SelectionPolicy,
    Seller,
    keys_from_seed,
    seller_evaluate_order,
)
from datamarket.errors import MarketError
from datamarket.messages import NotarizationRequest, NotaryCertificate, Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario
from datamarket.transport import Envelope, Network, NetworkConfig

from market_helpers import make_market, make_order, make_response

BANK = Path(__file__).resolve().parent.parent / "scenarios" / "bank.yaml"

DATA = b"seller-data-0123"
SCHEMA = "records"


def make_notary(market, ground_truth=None, enrollment=None, mode="ALWAYS"):
    return Notary(
        name="n",
        seed=2,  # must match the market's notary keys
        fee=2,
        policy=NotarizationPolicy(mode=mode, seed=1),
        ledger=market.ledger,
        network=Network(NetworkConfig()),
        ground_truth=ground_truth or {},
        enrollment=enrollment or {},
    )


def audit_request(market, response, salt, data, forced=True):
    plaintext = messages.encode_payload_plaintext(salt, data)
    ciphertext = crypto.encrypt_for(market.notary_keys.public_key, plaintext)
    return NotarizationRequest(
        order_ref=market.order.digest(),
        response_bytes=response.encode(),
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


def test_evaluate_price_floor_and_terms():
    market = make_market()
    decision = seller_evaluate_order(
        {"country": "AR"}, {SCHEMA: DATA}, market.order, market.terms, market.price,
        min_price=market.price + 1,
    )
    assert not decision.participate and decision.reason == "price"
    decision = seller_evaluate_order(
        {"country": "AR"}, {SCHEMA: DATA}, market.order, market.terms, market.price,
        accept_terms=False,
    )
    assert not decision.participate and decision.reason == "terms"


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
    request = NotarizationRequest(market.order.digest(), response.encode(), True, b"")
    assert notary.decide_verdict(request, response, SCHEMA) is Verdict.NOTARIZED_INVALID


# -- policies -------------------------------------------------------------


def test_selection_policies():
    market = make_market()
    responses = [make_response(market, seller_seed=100 + i)[0] for i in range(5)]
    assert SelectionPolicy().select(responses, 5) == responses
    assert SelectionPolicy(rule="FIRST_K", k=2).select(responses, 5) == responses[:2]
    assert SelectionPolicy(rule="BUDGET_CAP", max_tokens=12).select(responses, 5) == responses[:2]
    with pytest.raises(MarketError):
        SelectionPolicy(rule="NOPE").select(responses, 5)


def test_sample_policy_reproducible():
    a = NotarizationPolicy(mode="SAMPLE", rate=0.5, seed=5)
    b = NotarizationPolicy(mode="SAMPLE", rate=0.5, seed=5)
    assert [a.decide() for _ in range(50)] == [b.decide() for _ in range(50)]


def test_mutation_role_checks():
    market = make_market()
    with pytest.raises(MarketError):
        Seller(
            "s", 1, {}, {}, market.ledger, Network(NetworkConfig()),
            mutation=Mutation.CERTIFICATE_REPLAY,
        )


# -- inputs an actor must drop ---------------------------------------------


def test_notary_drops_orders_it_cannot_answer():
    """Two correctly signed orders the notary cannot answer: an upload URL
    with no colon, and one naming a buyer the network does not know. The
    order to a registered buyer is the control."""
    notary = make_notary(make_market())
    notary.network.register("buyer:known")
    keys = keys_from_seed(77)

    def send_order(upload_url):
        order = make_order(keys, upload_url=upload_url)
        notary.handle(Envelope(None, notary.endpoint, order.encode(), 0))

    send_order("no-colon")
    send_order("ub:nobody")
    assert notary.network.transcript == []
    send_order("ub:known")
    assert [e.endpoint for e in notary.network.transcript] == ["buyer:known"]


def test_bad_certificate_does_not_end_the_run(monkeypatch):
    """A zero-signature certificate for a selected, still unsettled response
    of `bank.yaml`, delivered to the buyer at tick 12: the buyer records the
    ledger's refusal, drops it, and the run ends as it would without it."""
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
    endpoint = f"buyer:{scenario.buyers[0].name}"
    tick = transport.Network.tick

    def tick_with_bad_certificate(network):
        delivered = tick(network)
        if network.tick_now == 12:
            delivered.setdefault(endpoint, []).append(Envelope(None, endpoint, bad, 12, 12))
        return delivered

    monkeypatch.setattr(transport.Network, "tick", tick_with_bad_certificate)
    result = run_scenario(scenario)
    assert result.buyers[0].rejected_submissions == [
        "certificate: certificate signature does not verify"
    ]
    assert result.report.render() == undisturbed.report.render()
