from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import crypto, ledger as ledger_mod, messages
from datamarket.actors import keys_from_seed
from datamarket.errors import (
    AlreadySettled,
    AuditEscrowDepleted,
    DuplicateResponse,
    EncodingError,
    GenesisClosed,
    InsufficientFunds,
    InvalidSignature,
    LedgerError,
    ReplayError,
)
from datamarket.ledger import EventKind, Ledger, LedgerEvent, Outcome, Phase, Status
from datamarket.messages import Verdict

from market_helpers import TERMS, make_market, make_order, make_response


def certify(market, response, verdict):
    return messages.issue_certificate(
        market.notary_keys, market.order.digest(), response, verdict
    )


def addr(seed):
    return crypto.derive_address(keys_from_seed(seed).public_key)


# -- mint ----------------------------------------------------------------


def test_mint_and_supply():
    lg = Ledger()
    lg.mint(addr(1), 100)
    lg.mint(addr(2), 50)
    assert lg.balance(addr(1)) == 100
    assert lg.total_supply == 150


def test_mint_after_first_order_rejected():
    market = make_market()
    with pytest.raises(GenesisClosed):
        market.ledger.mint(addr(9), 10)


def test_mint_nonpositive_rejected():
    lg = Ledger()
    with pytest.raises(LedgerError):
        lg.mint(addr(1), 0)


# -- register_order ------------------------------------------------------


def test_register_order_moves_audit_budget():
    market = make_market(balance=100, m_a=10)
    assert market.ledger.balance(market.buyer) == 90
    assert market.ledger.contract(market.order_id).audit_escrow == 10


def test_register_rejects_broken_countersignature():
    lg = Ledger()
    buyer_keys = keys_from_seed(1)
    lg.mint(crypto.derive_address(buyer_keys.public_key), 100)
    order = make_order(buyer_keys)
    good = messages.countersign_order(keys_from_seed(2), order, 2, TERMS)
    broken = replace(good, notary_signature=b"\x00" * 64)
    with pytest.raises(InvalidSignature):
        lg.register_order(order, [broken], 5)
    assert lg.balance(crypto.derive_address(buyer_keys.public_key)) == 100


def test_register_rejects_empty_notary_list():
    lg = Ledger()
    buyer_keys = keys_from_seed(1)
    lg.mint(crypto.derive_address(buyer_keys.public_key), 100)
    with pytest.raises(LedgerError):
        lg.register_order(make_order(buyer_keys), [], 5)


def test_rejected_registration_leaves_genesis_open():
    lg = Ledger()
    buyer_keys = keys_from_seed(1)
    lg.mint(crypto.derive_address(buyer_keys.public_key), 100)
    order = make_order(buyer_keys)
    terms = messages.countersign_order(keys_from_seed(2), order, 2, TERMS)
    with pytest.raises(LedgerError, match="duplicate notary"):
        lg.register_order(order, [terms, terms], 5)
    lg.mint(addr(9), 10)
    assert [e.kind for e in lg.journal] == [EventKind.MINT, EventKind.MINT]


def test_register_insufficient_balance():
    lg = Ledger()
    buyer_keys = keys_from_seed(1)
    lg.mint(crypto.derive_address(buyer_keys.public_key), 5)
    order = make_order(buyer_keys, m_a=10)
    terms = [messages.countersign_order(keys_from_seed(2), order, 2, TERMS)]
    with pytest.raises(InsufficientFunds):
        lg.register_order(order, terms, 5)


# -- select_sellers ------------------------------------------------------


def test_selection_arithmetic():
    market = make_market(balance=100, m_a=10, price=5)
    responses = [make_response(market, seller_seed=s)[0] for s in (10, 11, 12)]
    market.ledger.select_sellers(market.order_id, responses)
    contract = market.ledger.contract(market.order_id)
    assert contract.payment_escrow == 15
    assert market.ledger.balance(market.buyer) == 100 - 10 - 15


def test_selection_topup():
    market = make_market(balance=100, m_a=0, price=5)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response], audit_topup=4)
    assert market.ledger.contract(market.order_id).audit_escrow == 4


def test_selection_atomicity_on_invalid_response():
    market = make_market(balance=100, m_a=10, price=5)
    good = [make_response(market, seller_seed=s)[0] for s in (10, 11)]
    bad = replace(good[0], seller_signature=b"\x00" * 64)
    digest_before = market.ledger.state_digest()
    with pytest.raises(LedgerError):
        market.ledger.select_sellers(market.order_id, good + [bad])
    assert market.ledger.state_digest() == digest_before
    assert market.ledger.balance(market.buyer) == 90


def test_selection_rejects_duplicates():
    market = make_market()
    response, _, _ = make_response(market)
    with pytest.raises(DuplicateResponse):
        market.ledger.select_sellers(market.order_id, [response, response])


def test_selection_insufficient_funds_aborts():
    market = make_market(balance=12, m_a=10, price=5)
    response, _, _ = make_response(market)
    with pytest.raises(InsufficientFunds):
        market.ledger.select_sellers(market.order_id, [response])
    assert market.ledger.balance(market.buyer) == 2


def overpriced_response(market):
    response, _ = messages.build_data_response(
        keys_from_seed(10), market.order, 6, b"data", market.notary, market.terms, posted_price=6
    )
    return response


@pytest.mark.parametrize(
    "balance, make, error",
    [
        (100, overpriced_response, LedgerError),
        (12, lambda market: make_response(market)[0], InsufficientFunds),
    ],
    ids=["invalid-response", "top-up-affordable-selection-not"],
)
def test_rejected_selection_with_topup_changes_nothing(balance, make, error):
    market = make_market(balance=balance, m_a=0, price=5)
    response = make(market)
    journal_before, digest_before = list(market.ledger.journal), market.ledger.state_digest()
    with pytest.raises(error):
        market.ledger.select_sellers(market.order_id, [response], audit_topup=8)
    assert market.ledger.journal == journal_before
    assert market.ledger.state_digest() == digest_before


# -- close_response ------------------------------------------------------


def settle_one(verdict, fee=2, m_a=10, price=5):
    market = make_market(balance=100, m_a=m_a, price=price, fee=fee)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    settlement = market.ledger.close_response(
        market.order_id, response.digest(), certify(market, response, verdict)
    )
    return market, response, settlement


def test_verdict_a_pays_seller_no_fee():
    market, response, s = settle_one(Verdict.NOT_NOTARIZED)
    assert market.ledger.balance(response.payment_address) == 5
    assert market.ledger.contract(market.order_id).audit_escrow == 10
    assert s.outcome is Outcome.SELLER_PAID and s.notary_fee == 0


def test_verdict_b_pays_seller_and_notary():
    market, response, s = settle_one(Verdict.NOTARIZED_VALID)
    assert market.ledger.balance(response.payment_address) == 5
    assert market.ledger.balance(market.notary) == 2
    assert market.ledger.contract(market.order_id).audit_escrow == 8
    assert s.outcome is Outcome.SELLER_PAID and s.notary_fee == 2


def test_verdict_c_refunds_buyer_pays_notary():
    market, response, s = settle_one(Verdict.NOTARIZED_INVALID)
    # 100 - 10 (m_a) - 5 (selection) + 5 (refund)
    assert market.ledger.balance(market.buyer) == 90
    assert market.ledger.balance(response.payment_address) == 0
    assert market.ledger.balance(market.notary) == 2
    assert s.outcome is Outcome.BUYER_REFUNDED


def test_certificate_from_wrong_notary_rejected():
    market = make_market()
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    impostor = keys_from_seed(55)
    cert = messages.issue_certificate(
        impostor, market.order.digest(), response, Verdict.NOTARIZED_VALID
    )
    with pytest.raises(InvalidSignature):
        market.ledger.close_response(market.order_id, response.digest(), cert)


def test_certificate_replay_rejected_and_neutral():
    market, response, _ = settle_one(Verdict.NOTARIZED_VALID)
    cert = certify(market, response, Verdict.NOTARIZED_VALID)
    digest_before = market.ledger.state_digest()
    with pytest.raises(AlreadySettled):
        market.ledger.close_response(market.order_id, response.digest(), cert)
    assert market.ledger.state_digest() == digest_before


def test_fee_exceeding_audit_escrow_rejected():
    market = make_market(balance=100, m_a=1, price=5, fee=3)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    cert = certify(market, response, Verdict.NOTARIZED_VALID)
    with pytest.raises(AuditEscrowDepleted):
        market.ledger.close_response(market.order_id, response.digest(), cert)
    # Top up through the selection path, then the close succeeds.
    market.ledger.select_sellers(market.order_id, [], audit_topup=2)
    settlement = market.ledger.close_response(market.order_id, response.digest(), cert)
    assert settlement.notary_fee == 3


def test_certificate_for_other_response_rejected():
    market = make_market(balance=100)
    r1, _, _ = make_response(market, seller_seed=10)
    r2, _, _ = make_response(market, seller_seed=11)
    market.ledger.select_sellers(market.order_id, [r1, r2])
    cert1 = certify(market, r1, Verdict.NOTARIZED_VALID)
    with pytest.raises(LedgerError):
        market.ledger.close_response(market.order_id, r2.digest(), cert1)


# -- close_order ---------------------------------------------------------


def test_close_order_refunds_residual():
    market, response, _ = settle_one(Verdict.NOTARIZED_VALID, fee=2, m_a=10)
    market.ledger.close_order(market.order_id)
    contract = market.ledger.contract(market.order_id)
    assert contract.status is Status.CLOSED
    assert contract.audit_escrow == 0
    # 100 - 10 - 5 + 8 residual
    assert market.ledger.balance(market.buyer) == 93


def test_close_order_with_unsettled_rejected():
    market = make_market()
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    with pytest.raises(LedgerError):
        market.ledger.close_order(market.order_id)


def test_double_close_rejected():
    market, _, _ = settle_one(Verdict.NOT_NOTARIZED)
    market.ledger.close_order(market.order_id)
    with pytest.raises(LedgerError):
        market.ledger.close_order(market.order_id)


# -- conservation and exclusivity ----------------------------------------


@given(st.sampled_from(list(Verdict)), st.integers(1, 4), st.integers(0, 3), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_conservation_property(verdict, n_sellers, fee, price):
    market = make_market(balance=1000, m_a=20, price=price, fee=fee)
    responses = [make_response(market, seller_seed=100 + i)[0] for i in range(n_sellers)]
    market.ledger.select_sellers(market.order_id, responses)
    for response in responses:
        market.ledger.close_response(
            market.order_id, response.digest(), certify(market, response, verdict)
        )
        assert market.ledger.conservation_holds()
    market.ledger.close_order(market.order_id)
    assert market.ledger.conservation_holds()
    for state in market.ledger.contract(market.order_id).responses.values():
        assert state.phase is Phase.SETTLED
        paid = market.ledger.balance(state.response.payment_address) > 0
        refunded = state.settlement.outcome is Outcome.BUYER_REFUNDED
        assert paid != refunded  # exactly one of the two


def test_invalid_certificates_never_move_funds():
    market = make_market(balance=100)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    digest_before = market.ledger.state_digest()
    impostor_cert = messages.issue_certificate(
        keys_from_seed(77), market.order.digest(), response, Verdict.NOTARIZED_VALID
    )
    garbage_cert = replace(
        certify(market, response, Verdict.NOTARIZED_VALID), notary_signature=b"\xab" * 64
    )
    for cert in (impostor_cert, garbage_cert):
        with pytest.raises(InvalidSignature):
            market.ledger.close_response(market.order_id, response.digest(), cert)
    assert market.ledger.state_digest() == digest_before


# -- replay and journal --------------------------------------------------


def full_session() -> Ledger:
    market, response, _ = settle_one(Verdict.NOTARIZED_VALID)
    market.ledger.close_order(market.order_id)
    return market.ledger


def test_replay_reproduces_state_digest():
    live = full_session()
    replayed = ledger_mod.replay(live.journal)
    assert replayed.state_digest() == live.state_digest()


def test_replay_detects_gap():
    live = full_session()
    events = [e for e in live.journal if e.sequence != 2]
    with pytest.raises(ReplayError) as exc:
        ledger_mod.replay(events)
    assert exc.value.sequence == 2


def test_replay_detects_permutation():
    live = full_session()
    events = list(live.journal)
    events[1], events[2] = (
        LedgerEvent(1, events[2].kind, events[2].payload),
        LedgerEvent(2, events[1].kind, events[1].payload),
    )
    try:
        replayed = ledger_mod.replay(events)
    except ReplayError:
        return
    assert replayed.state_digest() != live.state_digest()


FRAMES = st.builds(
    lambda seq, kind, payload: LedgerEvent(seq, kind, payload).encode(),
    st.integers(0, 2**64 - 1),
    st.sampled_from(list(EventKind)),
    st.binary(max_size=64),
)


@given(st.one_of(FRAMES, st.binary(max_size=80)))
@settings(max_examples=300, deadline=None)
def test_event_frame_decode_is_exact(frame):
    # verify_journal hashes the event frames as read, which is exact only
    # if every frame that decodes re-encodes to the same bytes.
    try:
        event = LedgerEvent.decode(frame)
    except EncodingError:
        return
    assert event.encode() == frame


def test_journal_file_roundtrip(tmp_path):
    live = full_session()
    path = tmp_path / "journal.bin"
    ledger_mod.write_journal(path, live)
    verified = ledger_mod.verify_journal(path.read_bytes())
    assert verified.state_digest() == live.state_digest()


def test_truncated_journal_detected(tmp_path):
    live = full_session()
    data = ledger_mod.journal_bytes(live)
    with pytest.raises(ReplayError):
        ledger_mod.verify_journal(data[: len(data) // 2])


def test_tampered_event_detected():
    live = full_session()
    data = bytearray(ledger_mod.journal_bytes(live))
    # Flip one byte inside the first MINT amount.
    data[40] ^= 0xFF
    with pytest.raises(ReplayError):
        ledger_mod.verify_journal(bytes(data))


def test_anonymity_of_journal_bytes():
    # The journal carries addresses, digests, amounts, and signatures only.
    live = full_session()
    data = ledger_mod.journal_bytes(live)
    for profile_value in (b"country", b"AR", b"seller-data-0123"):
        assert profile_value not in data
