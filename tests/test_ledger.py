from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import crypto, ledger as ledger_mod, messages
from datamarket.actors import keys_from_seed
from datamarket.encoding import write_field
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
from datamarket.ledger import EventKind, Ledger, LedgerEvent, Outcome, Status
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


def test_an_address_of_the_wrong_size_is_not_journaled():
    lg = Ledger()
    with pytest.raises(EncodingError, match="address must be 20 bytes, got 19"):
        lg.mint(b"\x01" * 19, 5)
    assert lg.journal == [] and lg.accounts == {} and lg.total_supply == 0 == lg.balance_sum


# -- register_order ------------------------------------------------------


def test_register_order_moves_audit_budget():
    market = make_market(balance=100, m_a=10)
    assert market.ledger.balance(market.buyer) == 90
    assert market.ledger.contract(market.order_id).audit_escrow == 10


def test_an_order_is_named_by_its_digest():
    """`register_order` returns the order's digest, and `contract`,
    `select_sellers` and `close_order` take it."""
    market = make_market()
    digest = market.order.digest()
    assert market.order_id == digest and list(market.ledger.contracts) == [digest]
    response, _, _ = make_response(market)
    market.ledger.select_sellers(digest, [response])
    market.ledger.close_response(certify(market, response, Verdict.NOT_NOTARIZED))
    market.ledger.close_order(digest)
    contract = market.ledger.contract(digest)
    assert market.ledger.contracts == {digest: contract} and contract.status is Status.CLOSED


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
    """Each selection tops the audit escrow up to the fees of the unsettled
    selected responses, its own included; a settled response's fee no
    longer counts."""
    market = make_market(balance=100, m_a=3, price=5, fee=2)
    r1, r2, r3 = [make_response(market, seller_seed=s)[0] for s in (10, 11, 12)]
    contract = market.ledger.contract(market.order_id)
    market.ledger.select_sellers(market.order_id, [r1])
    assert contract.audit_escrow == 3  # the budget covers one fee of 2
    market.ledger.select_sellers(market.order_id, [r2])
    assert contract.audit_escrow == 4  # topped up by 1 to cover 2 + 2
    market.ledger.close_response(certify(market, r1, Verdict.NOTARIZED_VALID))
    market.ledger.select_sellers(market.order_id, [r3])
    assert contract.audit_escrow == 4  # r1's fee paid leaves 2, topped up by 2
    assert market.ledger.audit_topup(contract, []) == 0
    assert market.ledger.audit_topup(contract, [make_response(market, seller_seed=13)[0]]) == 2
    assert market.ledger.balance(market.buyer) == 100 - 3 - 15 - 1 - 2


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


def test_selection_takes_each_seller_once():
    """A seller's second offer, under another salt, is refused in the same
    selection as its first and in a later one, and the refusal moves
    nothing."""
    market = make_market()
    first, again = (make_response(market, salt=crypto.sha256(s))[0] for s in (b"a", b"b"))
    with pytest.raises(DuplicateResponse):
        market.ledger.select_sellers(market.order_id, [first, again])
    market.ledger.select_sellers(market.order_id, [first])
    journal = list(market.ledger.journal)
    with pytest.raises(DuplicateResponse):
        market.ledger.select_sellers(market.order_id, [again])
    assert market.ledger.journal == journal


def test_selection_insufficient_funds_aborts():
    market = make_market(balance=12, m_a=10, price=5)
    response, _, _ = make_response(market)
    with pytest.raises(InsufficientFunds):
        market.ledger.select_sellers(market.order_id, [response])
    assert market.ledger.balance(market.buyer) == 2


def overpriced_response(market):
    return messages.build_data_response(
        keys_from_seed(10), market.order, 6, b"data", market.notary, crypto.sha256(b"salt")
    )


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda market: [overpriced_response(market)], LedgerError),
        # Payment 10 and top-up 4 are each affordable from 12; together not.
        (
            lambda market: [make_response(market, seller_seed=s)[0] for s in (11, 12)],
            InsufficientFunds,
        ),
    ],
    ids=["invalid-response", "top-up-affordable-selection-not"],
)
def test_rejected_selection_with_topup_changes_nothing(make, error):
    market = make_market(balance=12, m_a=0, price=5, fee=2)
    responses = make(market)
    journal_before, digest_before = list(market.ledger.journal), market.ledger.state_digest()
    with pytest.raises(error):
        market.ledger.select_sellers(market.order_id, responses)
    assert market.ledger.journal == journal_before
    assert market.ledger.state_digest() == digest_before
    # A valid selection with a top-up still commits, on running totals
    # that a full recount agrees with.
    valid, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [valid])
    assert len(market.ledger.journal) == len(journal_before) + 1
    assert market.ledger.balance_sum == sum(market.ledger.accounts.values())
    assert market.ledger.escrow_sum == market.ledger.escrow_total() == 7


@pytest.mark.parametrize("replayed", [False, True], ids=["live", "replayed"])
def test_select_sellers_refuses_a_forged_signature(replayed):
    """A response whose signature does not verify is refused where it enters
    the ledger, and nothing changes; the genuine response is then selected,
    on a replayed ledger as on the live one."""
    market = make_market()
    response, _, _ = make_response(market)
    ledger = ledger_mod.replay(market.ledger.journal) if replayed else market.ledger
    journal_before, digest_before = list(ledger.journal), ledger.state_digest()
    forged = replace(response, seller_signature=bytes(64))
    assert not messages.validate_response(forged, ledger.contract(market.order_id))
    with pytest.raises(InvalidSignature, match="response seller signature does not verify"):
        ledger.select_sellers(market.order_id, [response, forged])
    assert ledger.journal == journal_before
    assert ledger.state_digest() == digest_before
    ledger.select_sellers(market.order_id, [response])
    assert ledger_mod.replay(ledger.journal).state_digest() == ledger.state_digest()


# (field, value) edits that each break one selection rule of a valid
# response: make_market's price is 5.
RESPONSE_EDITS = [
    ("price", 4),
    ("price", 6),
    ("order_ref", make_order(keys_from_seed(77)).digest()),
    ("chosen_notary", addr(99)),
]


@given(
    st.integers(10, 2**16),
    st.one_of(st.just([]), st.lists(st.sampled_from(RESPONSE_EDITS), min_size=1, max_size=3)),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 63)),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_buyer_screen_passes_exactly_what_the_selection_accepts(
    seller_seed, edits, resign, corrupt_at, replayed
):
    """`Buyer._select`'s screen passes a response exactly when the ledger's
    selection accepts it, on the live ledger and on a replay of it."""
    market = make_market()
    if replayed:
        market.ledger = ledger_mod.replay(market.ledger.journal)
    response, _, seller_keys = make_response(market, seller_seed=seller_seed)
    candidate = replace(response, **dict(edits))
    if resign:
        candidate = messages.signed(seller_keys, candidate)
    if corrupt_at is not None:
        signature = bytearray(candidate.seller_signature)
        signature[corrupt_at] ^= 0x01
        candidate = replace(candidate, seller_signature=bytes(signature))
    contract = market.ledger.contract(market.order_id)
    screened = not messages.validate_response(candidate, contract) and candidate.verify_signature()
    try:
        market.ledger.select_sellers(market.order_id, [candidate])
        accepted = True
    except LedgerError:
        accepted = False
    assert screened == accepted
    if accepted:
        replayed = ledger_mod.replay(market.ledger.journal)
        assert replayed.state_digest() == market.ledger.state_digest()


# -- close_response ------------------------------------------------------


def settle_one(verdict, fee=2, m_a=10, price=5):
    market = make_market(balance=100, m_a=m_a, price=price, fee=fee)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    settlement = market.ledger.close_response(certify(market, response, verdict))
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
        market.ledger.close_response(cert)


def test_certificate_replay_rejected_and_neutral():
    market, response, _ = settle_one(Verdict.NOTARIZED_VALID)
    cert = certify(market, response, Verdict.NOTARIZED_VALID)
    digest_before = market.ledger.state_digest()
    with pytest.raises(AlreadySettled):
        market.ledger.close_response(cert)
    assert market.ledger.state_digest() == digest_before


def test_fee_exceeding_audit_escrow_rejected():
    """The selection's top-up covers every fee, so only an escrow lowered
    behind the ledger's back reaches the close's own fee check."""
    market = make_market(balance=100, m_a=1, price=5, fee=3)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    contract = market.ledger.contract(market.order_id)
    assert contract.audit_escrow == 3
    cert = certify(market, response, Verdict.NOTARIZED_VALID)
    contract.audit_escrow = 2
    with pytest.raises(AuditEscrowDepleted):
        market.ledger.close_response(cert)
    contract.audit_escrow = 3
    assert market.ledger.close_response(cert).notary_fee == 3


def test_certificate_settles_only_the_response_it_binds():
    market = make_market(balance=100)
    r1, _, _ = make_response(market, seller_seed=10)
    r2, _, _ = make_response(market, seller_seed=11)
    market.ledger.select_sellers(market.order_id, [r1, r2])
    market.ledger.close_response(certify(market, r1, Verdict.NOTARIZED_VALID))
    contract = market.ledger.contract(market.order_id)
    assert contract.responses[r1.digest()].settlement is not None
    assert contract.responses[r2.digest()].settlement is None
    assert contract.payment_escrow == market.price  # r2's payment stays held


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
        market.ledger.close_response(certify(market, response, verdict))
        assert market.ledger.conservation_holds()
    market.ledger.close_order(market.order_id)
    assert market.ledger.conservation_holds()
    for state in market.ledger.contract(market.order_id).responses.values():
        assert state.settlement is not None
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
            market.ledger.close_response(cert)
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
    """An event's sequence is its index: without the selection (event 2),
    the close that follows names an unselected response."""
    live = full_session()
    events = live.journal[:2] + live.journal[3:]
    with pytest.raises(ReplayError) as exc:
        ledger_mod.replay(events)
    assert exc.value.sequence == 2


def test_replay_detects_permutation():
    """Two mints in swapped order replay to the same state; the trailer's
    hash over the event frames catches the swap."""
    live = Ledger()
    live.mint(addr(1), 100)
    live.mint(addr(2), 50)
    data = ledger_mod.journal_bytes(live)
    events, trailer, _ = ledger_mod.parse_journal(data)
    swapped = bytearray()
    for event in reversed(events):
        write_field(swapped, event.encode())
    write_field(swapped, bytes([ledger_mod.TRAILER_KIND]) + trailer)
    assert ledger_mod.replay(events[::-1]).state_digest() == live.state_digest()
    with pytest.raises(ReplayError, match="event bytes do not match the journal hash") as exc:
        ledger_mod.verify_journal(bytes(swapped))
    assert exc.value.sequence == 2


FRAMES = st.builds(
    lambda kind, payload: LedgerEvent(kind, payload).encode(),
    st.sampled_from(list(EventKind)),
    st.binary(max_size=64),
)


@given(st.one_of(FRAMES, st.binary(max_size=80)))
@settings(max_examples=300, deadline=None)
def test_event_frame_decode_is_exact(frame):
    # verify_journal hashes the event frames as read, which is exact only
    # if every frame that decodes re-encodes to the same bytes.
    def decoded(*args):
        try:
            return LedgerEvent.decode(*args)
        except EncodingError:
            return None

    event = decoded(frame)
    # parse_journal reads each frame in place, between bytes that are not its own.
    assert decoded(b"\x04" + frame + b"\x01", 1, 1 + len(frame)) == event
    if event is not None:
        assert event.encode() == frame


def test_journal_file_roundtrip(tmp_path):
    live = full_session()
    path = tmp_path / "journal.bin"
    path.write_bytes(ledger_mod.journal_bytes(live))
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
