import functools
import random
from dataclasses import fields as dataclass_fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import crypto, ledger as ledger_mod, messages
from datamarket.actors import keys_from_seed
from datamarket.errors import EncodingError, MessageError
from datamarket.messages import (
    Audience,
    Comparator,
    DataRequest,
    DataResponse,
    Predicate,
    Verdict,
)

from market_helpers import TERMS, make_market, make_order, make_response


def random_predicate(rng, i):
    op = rng.choice(list(Comparator))
    if op is Comparator.IN:
        value = frozenset(rng.sample(["AR", "BR", "UY", "CL"], rng.randint(1, 3)))
    elif op in (Comparator.GE, Comparator.LE):
        value = rng.randint(0, 120)
    else:
        value = rng.choice(["AR", "BR", "premium"])
    return Predicate(f"attr{i}", op, value)


def random_order(rng):
    preds = frozenset(random_predicate(rng, i) for i in range(rng.randint(0, 3)))
    keys = keys_from_seed(rng.randint(1, 2**31))
    return messages.build_data_order(
        keys,
        Audience(preds),
        DataRequest(f"schema{rng.randint(0, 5)}", tuple(f"f{i}" for i in range(rng.randint(0, 3)))),
        f"ub:buyer{rng.randint(0, 9)}",
        rng.randint(0, 1000),
        TERMS,
    )


def test_encode_deterministic():
    order = random_order(random.Random(1))
    assert order.encode() == order.encode()


def test_roundtrip_100_random_messages():
    rng = random.Random(42)
    for _ in range(100):
        order = random_order(rng)
        assert messages.decode(order.encode()) == order


def test_roundtrip_all_message_types():
    market = make_market()
    response, salt, _ = make_response(market)
    cert = messages.issue_certificate(
        market.notary_keys, market.order.digest(), response, Verdict.NOTARIZED_VALID
    )
    delivery = messages.PayloadDelivery(response.digest(), b"\x01" * 60)
    request = messages.NotarizationRequest(market.order.digest(), response.digest(), True, b"")
    for msg in (
        market.order.audience,
        market.order.request,
        market.order,
        market.terms[0],
        response,
        cert,
        delivery,
        request,
    ):
        assert messages.decode(msg.encode()) == msg


def test_budget_injectivity():
    keys = keys_from_seed(5)
    a = Audience(frozenset())
    r = DataRequest("s")
    o1 = messages.build_data_order(keys, a, r, "ub:b", 10, TERMS)
    o2 = messages.build_data_order(keys, a, r, "ub:b", 11, TERMS)
    assert o1.signing_bytes() != o2.signing_bytes()


def test_signature_survives_roundtrip():
    market = make_market()
    response, _, _ = make_response(market)
    decoded = messages.decode(response.encode())
    assert decoded.verify_signature()
    decoded_order = messages.decode(market.order.encode())
    assert decoded_order.verify_signature()


def test_build_order_signature_verifies():
    assert make_order(keys_from_seed(3)).verify_signature()


def test_build_order_zero_budget_ok():
    assert make_order(keys_from_seed(3), m_a=0).min_audit_budget == 0


def test_build_order_negative_budget():
    with pytest.raises(MessageError):
        make_order(keys_from_seed(3), m_a=-1)


def test_countersign_valid_order():
    market = make_market()
    assert market.terms[0].verify_signature()
    assert market.terms[0].order_digest == market.order.digest()


def test_countersign_refuses_bad_order():
    keys = keys_from_seed(3)
    order = make_order(keys)
    forged = replace(order, buyer_signature=b"\x00" * 64)
    with pytest.raises(MessageError):
        messages.countersign_order(keys_from_seed(4), forged, 2, TERMS)


def test_countersign_zero_fee_ok():
    order = make_order(keys_from_seed(3))
    terms = messages.countersign_order(keys_from_seed(4), order, 0, TERMS)
    assert terms.fee == 0 and terms.verify_signature()


def test_build_response_valid():
    market = make_market()
    response, salt, _ = make_response(market)
    assert response.verify_signature()
    assert crypto.verify_commitment(salt, b"seller-data-0123", response.commitment)


def test_build_response_unknown_notary():
    # The builder signs what it is given; screening names the one fault.
    market = make_market()
    stranger = crypto.derive_address(keys_from_seed(99).public_key)
    response = messages.build_data_response(
        keys_from_seed(10), market.order, market.price, b"data", stranger, crypto.sha256(b"salt")
    )
    failures = messages.validate_response(response, market.ledger.contract(market.order_id))
    assert failures == ("notary-not-listed",)


def test_build_response_price_mismatch():
    market = make_market()
    response = messages.build_data_response(
        keys_from_seed(10), market.order, market.price + 1, b"data", market.notary,
        crypto.sha256(b"salt"),
    )
    failures = messages.validate_response(response, market.ledger.contract(market.order_id))
    assert failures == ("price",)


@pytest.mark.parametrize("name, size", [("commitment", 31), ("chosen_notary", 19), ("seller_pk", 63)])
def test_nothing_of_the_wrong_size_is_signed(name, size):
    """A commitment, an address or a public key is plain bytes, and its
    codec's writer refuses any of the wrong size: no such response is signed."""
    market = make_market()
    seller_keys = keys_from_seed(10)
    values = dict(
        seller_pk=seller_keys.public_key,
        order_ref=market.order.digest(),
        price=market.price,
        commitment=crypto.commit(crypto.sha256(b"salt"), b"data"),
        chosen_notary=market.notary,
    )
    assert messages.signed(seller_keys, DataResponse(**values)).verify_signature()
    wrong = DataResponse(**{**values, name: bytes(size)})
    with pytest.raises(EncodingError, match=f"must be {size + 1} bytes, got {size}$"):
        messages.signed(seller_keys, wrong)


def test_response_has_no_plaintext_field():
    # Structural field census: the offer cannot carry the data or the salt.
    names = {f.name for f in dataclass_fields(DataResponse)}
    assert names == {
        "seller_pk",
        "order_ref",
        "price",
        "commitment",
        "chosen_notary",
        "seller_signature",
    }


def test_a_signers_address_is_derived_from_its_key():
    # No signed message carries its signer's address: it is the key's.
    market = make_market()
    response, _, seller_keys = make_response(market)
    (terms,) = market.terms
    assert "notary_address" not in {f.name for f in dataclass_fields(messages.NotaryTerms)}
    assert response.payment_address == crypto.derive_address(seller_keys.public_key)
    assert terms.notary_address == market.notary
    assert market.order.signer_address() == market.buyer


def test_notarization_request_names_the_response_by_digest():
    # The notary audits the response the ledger recorded; no copy travels.
    names = [f.name for f in dataclass_fields(messages.NotarizationRequest)]
    assert names == ["order_ref", "response_digest", "forced", "audit_ciphertext"]


def test_validate_response_accepts_honest():
    market = make_market()
    response, _, _ = make_response(market)
    assert messages.validate_response(response, market.ledger.contract(market.order_id)) == ()


def test_validate_response_rejects_stale_order():
    market = make_market()
    response, _, _ = make_response(market)
    other_order = make_order(keys_from_seed(77))
    contract = market.ledger.contract(market.order_id)
    other_contract = replace(contract, order_digest=other_order.digest(), order=other_order)
    failures = messages.validate_response(response, other_contract)
    assert "order-mismatch" in failures


def test_validate_response_rejects_price():
    market = make_market()
    response, _, _ = make_response(market)
    contract = market.ledger.contract(market.order_id)
    failures = messages.validate_response(response, replace(contract, price=market.price + 1))
    assert "price" in failures


def test_certificate_binds_single_response():
    market = make_market()
    r1, _, _ = make_response(market, seller_seed=10)
    r2, _, _ = make_response(market, seller_seed=11)
    cert = messages.issue_certificate(
        market.notary_keys, market.order.digest(), r1, Verdict.NOTARIZED_VALID
    )
    assert cert.verify_signature()
    assert cert.response_digest == r1.digest()
    assert cert.response_digest != r2.digest()


def test_audience_matching():
    audience = Audience(
        frozenset(
            {
                Predicate("country", Comparator.EQ, "AR"),
                Predicate("age", Comparator.GE, 18),
            }
        )
    )
    assert audience.matches({"country": "AR", "age": 30})
    assert not audience.matches({"country": "BR", "age": 30})
    assert not audience.matches({"country": "AR", "age": 17})
    assert not audience.matches({"age": 30})
    assert not audience.matches({"country": "AR", "age": float("inf")})


def test_empty_audience_matches_everyone():
    assert Audience(frozenset()).matches({})
    assert Audience(frozenset()).matches({"anything": 1})


def test_in_and_le_comparators():
    audience = Audience(
        frozenset(
            {
                Predicate("country", Comparator.IN, frozenset({"AR", "UY"})),
                Predicate("age", Comparator.LE, 65),
                Predicate("plan", Comparator.NE, "banned"),
            }
        )
    )
    assert audience.matches({"country": "UY", "age": 64, "plan": "basic"})
    assert not audience.matches({"country": "CL", "age": 64, "plan": "basic"})
    assert not audience.matches({"country": "AR", "age": 66, "plan": "basic"})
    assert not audience.matches({"country": "AR", "age": 60, "plan": "banned"})


def test_payload_plaintext_roundtrip():
    salt, data = b"\x01" * 32, b"the data"
    plain = messages.encode_payload_plaintext(salt, data)
    assert messages.parse_payload_plaintext(plain) == (salt, data)


# -- memoized encodings and signature checks -----------------------------


def signed_messages():
    """One signed message of each type; the certificate is leaf 0 of 2."""
    market = make_market()
    response, _, _ = make_response(market)
    other, _, _ = make_response(market, seller_seed=11)
    claims = [(response.order_ref, r, Verdict.NOTARIZED_VALID) for r in (response, other)]
    cert, _ = messages.issue_certificates(market.notary_keys, claims)
    return [market.order, market.terms[0], response, cert]


@pytest.mark.parametrize("index", range(4))
def test_replaced_copy_gets_fresh_digest_and_fails_verification(index):
    msg = signed_messages()[index]
    assert msg.verify_signature()
    before = crypto.sha256(msg.encode())
    sig_field = next(f.name for f in dataclass_fields(msg) if f.name.endswith("signature"))
    changed_field = dataclass_fields(msg)[-2].name
    changed_value = getattr(msg, changed_field)
    if isinstance(changed_value, Verdict):
        changed_value = Verdict.NOTARIZED_INVALID
    else:
        changed_value = bytes(len(changed_value))
    signature = getattr(msg, sig_field)
    for copy in (
        replace(msg, **{changed_field: changed_value}),
        replace(msg, **{sig_field: signature[:-1] + bytes([signature[-1] ^ 1])}),
    ):
        assert crypto.sha256(copy.encode()) != before
        if hasattr(copy, "digest"):
            assert copy.digest() == crypto.sha256(copy.encode()) != msg.digest()
        assert not copy.verify_signature()
    # The original keeps its own memoized values.
    assert crypto.sha256(msg.encode()) == before and msg.verify_signature()


@pytest.mark.parametrize("index", range(4))
def test_decoded_copy_equals_original_and_shares_digest(index):
    msg = signed_messages()[index]
    msg.verify_signature()
    decoded = messages.decode(msg.encode())
    assert decoded == msg
    assert decoded.encode() == msg.encode()
    assert decoded.signing_bytes() == msg.signing_bytes()
    if hasattr(msg, "digest"):
        assert decoded.digest() == msg.digest()


def test_buyer_then_ledger_validation_verifies_once(monkeypatch):
    market = make_market()
    response, _, _ = make_response(market)
    calls = []
    real_verify = crypto.verify

    def counting_verify(public_key, message, signature):
        calls.append(message)
        return real_verify(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", counting_verify)
    contract = market.ledger.contract(market.order_id)
    assert response.verify_signature() and messages.validate_response(response, contract) == ()
    market.ledger.select_sellers(market.order_id, [response])
    ledger_mod.replay(market.ledger.journal)
    assert calls == [response.signing_bytes()]


# -- certificates under one signed Merkle root -----------------------------


@functools.lru_cache(maxsize=None)
def certified_market():
    """A market and 40 of its responses, each with a verdict."""
    market = make_market(balance=1000)
    responses = [make_response(market, seller_seed=10 + i)[0] for i in range(40)]
    return market, [(market.order_id, r, Verdict(i % 3)) for i, r in enumerate(responses)]


def field_span(data, name):
    """Where the bytes of the certificate field `name` lie in its encoding `data`."""
    pos = 1  # after the tag byte
    for field_name in messages.NotaryCertificate._NAMES:
        start = pos + 4
        pos = start + int.from_bytes(data[pos:start], "big")
        if field_name == name:
            return start, pos
    raise KeyError(name)


CERTIFIED_FIELDS = [
    "order_ref", "response_digest", "verdict", "leaf_index", "batch_size", "audit_path",
    "notary_signature",
]


def refused(data):
    """Whether the certificate `data` fails to decode or to verify."""
    try:
        return not messages.decode(data).verify_signature()
    except EncodingError:
        return True


@given(st.integers(1, 40), st.data())
@settings(max_examples=30, deadline=None)
def test_every_byte_of_a_batched_certificate_is_bound(n, data):
    """Up to 40 claims, across the batch cap: every certificate verifies;
    a change to any byte of one's certified fields is refused; and two
    certificates with their paths swapped both fail."""
    market, claims = certified_market()
    certs = messages.issue_certificates(market.notary_keys, claims[:n])
    assert [(c.leaf_index, c.batch_size) for c in certs] == [
        (i % 16, min(16, n - i // 16 * 16)) for i in range(n)
    ]
    assert all(messages.decode(c.encode()).verify_signature() for c in certs)
    encoded = certs[data.draw(st.integers(0, n - 1))].encode()
    mask = data.draw(st.integers(1, 255))
    for name in CERTIFIED_FIELDS:
        start, end = field_span(encoded, name)
        for at in range(start, end):
            changed = bytearray(encoded)
            changed[at] ^= mask
            assert refused(bytes(changed)), (name, at - start)
    if n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a, b = certs[i], certs[j]
        assert not replace(a, audit_path=b.audit_path).verify_signature()
        assert not replace(b, audit_path=a.audit_path).verify_signature()


def test_a_batch_root_is_verified_once(monkeypatch):
    """Sixteen certificates decoded apart, as the buyer gets them, cost one
    signature check; the memo of signature checks is bounded by the module constant."""
    assert messages._verifies.cache_info().maxsize == messages.VERIFY_MEMO
    market, claims = certified_market()
    certs = [c.encode() for c in messages.issue_certificates(market.notary_keys, claims[:16])]
    messages._verifies.cache_clear()  # another test may have checked this root
    checked = []
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: checked.append(args) or verify(*args))
    assert all(messages.decode(c).verify_signature() for c in certs)
    assert len(checked) == 1


def test_an_order_checked_by_two_notaries_and_the_ledger_costs_one_check(monkeypatch):
    """Each notary decodes its own copy of an order and checks it before
    countersigning, and the ledger checks the buyer's copy at registration:
    one libsodium check in all, through the shared memo."""
    buyer_keys = keys_from_seed(1)
    order = make_order(buyer_keys)
    checked, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: checked.append(args) or verify(*args))
    terms = [
        messages.countersign_order(keys_from_seed(seed), messages.decode(order.encode()), 2, TERMS)
        for seed in (2, 3)
    ]
    market = ledger_mod.Ledger()
    market.mint(crypto.derive_address(buyer_keys.public_key), 100)
    market.register_order(order, terms, 5)
    order_checks = [args for args in checked if args[1] == order.signing_bytes()]
    assert len(order_checks) == 1
    assert len(checked) == 3  # the order once, and each notary's terms


def test_a_certificate_moved_to_a_batch_of_another_size_fails():
    """Leaf 0 folds to the same root in a batch of 3 and of 4 with the same
    path, so the signature covers the batch size too."""
    market, claims = certified_market()
    cert = messages.issue_certificates(market.notary_keys, claims[:3])[0]
    assert cert.verify_signature()
    moved = messages.decode(replace(cert, batch_size=4).encode())
    leaf = moved._LEAF.encode((moved.order_ref, moved.response_digest, moved.verdict))
    assert crypto.merkle_fold(leaf, 0, 4, moved.audit_path) == crypto.merkle_fold(
        leaf, 0, 3, cert.audit_path
    )
    assert not moved.verify_signature()
