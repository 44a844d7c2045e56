"""Every decoder is total and canonical.

Total: on any input, `messages.decode`, `LedgerEvent.decode` and each event
kind's payload decoder return a value or raise `EncodingError`, nothing
else, and a decoded signed message has a signer address. Canonical:
whatever decodes re-encodes to its input. The re-encoding is taken from a
fresh copy (`dataclasses.replace`), because a decoded signed message keeps
its input as its encoding; that copy, made by the constructor, also equals
and hashes as the decoded message, which is built without it. Each
layout's generated reader also agrees with the generic loop it replaced,
kept in `reference_decoder.py`, on values and on error texts.

The inputs are mutations of the messages a `bank.yaml` run sends, of the
frames its journal holds and of one batch of certificates, plus a table of
hand-made malformed inputs.
"""

import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import crypto, ledger as ledger_mod, messages, transport
from datamarket.actors import Buyer, keys_from_seed
from datamarket.encoding import encode_uint, write_field
from datamarket.errors import EncodingError
from datamarket.ledger import EventKind, Ledger, LedgerEvent
from datamarket.messages import DataOrder, DataResponse, NotaryTerms, Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import BuyerSpec, load_scenario
from datamarket.transport import Envelope, Network, NetworkConfig

import reference_decoder
from market_helpers import make_market, make_response

BANK = Path(__file__).resolve().parent.parent / "scenarios" / "bank.yaml"


@functools.lru_cache(maxsize=None)
def bank():
    """The distinct messages a `bank.yaml` run sends, and its journal."""
    sent, journal = bank_run()
    return sorted(sent), journal


@functools.lru_cache(maxsize=None)
def bank_run():
    """Each distinct message a `bank.yaml` run sends, with its sender, and
    the run's journal."""
    result = run_scenario(load_scenario(BANK))
    senders = {envelope.message: envelope.sender for envelope in result.network.transcript}
    return senders, tuple(result.ledger.journal)


def fresh(value):
    """`value` rebuilt field by field, so that no memoized encoding is kept."""
    if dataclasses.is_dataclass(value):
        changes = {f.name: fresh(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return dataclasses.replace(value, **changes)
    if isinstance(value, (tuple, list)):
        return type(value)(fresh(item) for item in value)
    return value


def check_message(data):
    try:
        message = messages.decode(data)
    except EncodingError:
        return False
    constructed = fresh(message)
    assert constructed.encode() == data
    # A decoded message, built without its constructor, equals the constructed one.
    assert constructed == message and hash(constructed) == hash(message)
    if hasattr(message, "signer_address"):
        message.signer_address()  # every key that decodes has an address
    return True


def check_payload(kind, payload):
    layout = ledger_mod._RULES[kind].layout
    try:
        args = layout.read(payload)
    except EncodingError:
        return False
    assert layout.encode(fresh(args)) == payload
    return True


def check_frame(frame):
    try:
        event = LedgerEvent.decode(frame)
    except EncodingError:
        return False
    assert dataclasses.replace(event).encode() == frame
    return check_payload(event.kind, event.payload)


def mutate(data, edits):
    data = bytearray(data)
    for op, at, byte in edits:
        i = at % (len(data) + 1)
        if op == "insert":
            data[i:i] = bytes([byte])
        elif op == "truncate":
            del data[i:]
        elif i < len(data):
            if op == "flip":
                data[i] ^= 1 << (byte % 8)
            elif op == "set":
                data[i] = byte
            else:
                del data[i]
    return bytes(data)


EDIT = st.tuples(
    st.sampled_from(["flip", "flip", "set", "set", "insert", "delete", "truncate"]),
    st.integers(0, 2**16),
    st.integers(0, 255),
)
EDITS = st.lists(EDIT, min_size=1, max_size=4)


def test_unmutated_inputs_decode():
    sent, journal = bank()
    assert all(check_message(data) for data in sent)
    assert all(check_frame(event.encode()) for event in journal)


@given(st.integers(0, 2**16), EDITS)
@settings(max_examples=1500, deadline=None)
def test_mutated_transcript_messages(index, edits):
    sent, _ = bank()
    check_message(mutate(sent[index % len(sent)], edits))


@given(st.integers(0, 2**16), EDITS, st.booleans())
@settings(max_examples=1500, deadline=None)
def test_mutated_journal_frames(index, edits, payload_only):
    """Half the mutations keep the frame intact around a mutated payload,
    so that they reach the payload decoders."""
    _, journal = bank()
    event = journal[index % len(journal)]
    if payload_only:
        check_frame(LedgerEvent(event.kind, mutate(event.payload, edits)).encode())
    else:
        check_frame(mutate(event.encode(), edits))


@functools.lru_cache(maxsize=None)
def batched_certificates():
    """The encoded certificates of one batch of 11, whose audit paths hold
    2 to 4 hashes."""
    market = make_market(balance=1000)
    claims = [
        (market.order_id, make_response(market, seller_seed=10 + i)[0], Verdict(i % 3))
        for i in range(11)
    ]
    return [cert.encode() for cert in messages.issue_certificates(market.notary_keys, claims)]


@given(st.integers(0, 2**16), EDITS)
@settings(max_examples=1000, deadline=None)
def test_mutated_batched_certificates(index, edits):
    certs = batched_certificates()
    check_message(mutate(certs[index % len(certs)], edits))


@functools.lru_cache(maxsize=None)
def bank_offers():
    sent, _ = bank()
    return [data for data in sent if isinstance(messages.decode(data), DataResponse)]


@given(st.integers(0, 2**16), EDITS)
@settings(max_examples=1000, deadline=None)
def test_mutated_uploads_are_accepted_or_refused_with_a_reason(index, edits):
    """A buyer holding every offer of the run takes a mutated message, from
    the original's sender, on its upload URL, then steps: the message is an
    offer or a delivery it accepts, notary terms, which it never records as
    an upload, accepted or refused, or it adds exactly one `upload:`
    refusal. Nothing raises."""
    (sent, _), (senders, _) = bank(), bank_run()
    spec = BuyerSpec(name="b", seed=1)
    buyer = Buyer(spec, keys_from_seed(spec.seed), Ledger(), Network(NetworkConfig()), {})
    buyer.handle([Envelope(senders[data], buyer.upload_url, data, 0) for data in bank_offers()])
    original = sent[index % len(sent)]
    data = mutate(original, edits)
    buyer.handle([Envelope(senders[original], buyer.upload_url, data, 0)])
    buyer.step(1)
    if buyer.rejected_submissions:
        (reason,) = buyer.rejected_submissions
        assert reason.startswith("upload: ") and data not in buyer._accepted_uploads
    elif isinstance(messages.decode(data), NotaryTerms):
        assert data not in buyer._accepted_uploads
    else:
        assert data in buyer._accepted_uploads


@functools.lru_cache(maxsize=None)
def signed_inputs():
    """The encoded signed messages a `bank.yaml` run sends, and one batch of certificates."""
    sent, _ = bank()
    found = [data for data in sent if isinstance(messages.decode(data), messages._Signed)]
    found += batched_certificates()
    assert {type(messages.decode(data)) for data in found} == {
        messages.DataOrder, messages.NotaryTerms, DataResponse, messages.NotaryCertificate
    }
    return found


@given(st.integers(0, 2**16), st.lists(EDIT, max_size=4))
@settings(max_examples=800, deadline=None)
def test_decoded_signing_bytes_are_cut_from_the_input(index, edits):
    """A decoded signed message cuts its signing bytes from its input on
    first use: they equal what its signing layout writes for its fields, and
    its signature check is `crypto.verify` over them (over its batch's root,
    for a certificate). The inputs are genuine messages of the four signed
    types, and every mutation of them that still decodes."""
    inputs = signed_inputs()
    data = mutate(inputs[index % len(inputs)], edits)
    try:
        msg = messages.decode(data)
    except EncodingError:
        return
    cls = type(msg)
    assert set(vars(msg)) == {*cls._NAMES, "_memo_encode"}  # no signing bytes cut yet
    assert msg.signing_bytes() == cls._SIGNING.encode(msg, cls._PREFIX)
    if isinstance(msg, messages.NotaryCertificate):
        leaf = msg._LEAF.encode((msg.order_ref, msg.response_digest, msg.verdict))
        root = crypto.merkle_fold(leaf, msg.leaf_index, msg.batch_size, msg.audit_path)
        signed_bytes = None if root is None else msg._root_message(msg.batch_size, root)
    else:
        signed_bytes = msg.signing_bytes()
    key = getattr(msg, cls._SIGNER)
    expected = signed_bytes is not None and crypto.verify(key, signed_bytes, msg.signature)
    assert msg.verify_signature() == expected


# -- generated readers against the reference decoder -----------------------


@functools.lru_cache(maxsize=None)
def genuine_layouts():
    """(layout, where its fields start, a genuine encoding) for every message
    type, every event kind and the payload plaintext."""
    sent, journal = bank()
    found = [messages.decode(data) for data in sent + batched_certificates()]
    orders = [m for m in found if isinstance(m, DataOrder)]
    found += [o.audience for o in orders] + [o.request for o in orders]
    found += [p for o in orders for p in o.audience.predicates]
    cases = {m.encode(): (type(m)._LAYOUT, len(type(m)._PREFIX)) for m in found}
    assert {type(m) for m in found} == {*messages._BY_TAG.values(), messages.Predicate}
    cases.update({e.payload: (ledger_mod._RULES[e.kind].layout, 0) for e in journal})
    assert {e.kind for e in journal} == set(EventKind)
    plaintext = messages.encode_payload_plaintext(bytes(32), b"records")
    cases[plaintext] = (messages._PAYLOAD_PLAINTEXT, 0)
    return [(layout, pos, data) for data, (layout, pos) in cases.items()]


def resize_field(data, pos, at, size):
    """`data` with one of the fields from `pos` on, counted at their length
    prefixes (a list's count and items included), cut or padded with zeros
    to `size` modulo its length + 9, under a prefix that says so: a field of
    the wrong size in a well-framed message, or a message cut off inside."""
    spans = []
    while pos < len(data):
        spans.append((pos, pos + 4 + int.from_bytes(data[pos : pos + 4], "big")))
        pos = spans[-1][1]
    start, end = spans[at % len(spans)]
    field = data[start + 4 : end]
    field = (field + bytes(8))[: size % (len(field) + 9)]
    return data[:start] + len(field).to_bytes(4, "big") + field + data[end:]


def outcome(read, *args):
    """What `read(*args)` returns, or the text of the EncodingError it raises."""
    try:
        return read(*args)
    except EncodingError as exc:
        return f"EncodingError: {exc}"


RESIZE = st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))


@given(st.integers(0, 2**16), RESIZE, st.lists(EDIT, max_size=3), st.binary(max_size=8))
@settings(max_examples=1500, deadline=None)
def test_generated_readers_agree_with_the_reference_decoder(index, resize, edits, extension):
    """On genuine encodings, and on resized fields, byte edits, truncations
    and extensions of them, a layout's generated reader and the generic
    reference loop return equal values or raise EncodingError with the
    same text. A message layout's reader gives the same into a dict, by
    field name, as it does when it builds a signed message. The layouts hold
    every inline conversion, and every message nested in another or in an
    event payload."""
    layout, pos, genuine = genuine_layouts()[index % len(genuine_layouts())]
    data = genuine if resize is None else resize_field(genuine, pos, *resize)
    data = mutate(data, edits) + extension
    expected = outcome(reference_decoder.read, layout.codecs, data, pos)
    assert outcome(layout.read, data, pos) == expected
    if layout.names is not None:
        by_name = dict(zip(layout.names, expected)) if isinstance(expected, list) else expected
        assert outcome(layout.read, data, pos, None, {}) == by_name


def test_importing_the_package_compiles_no_layout():
    code = (
        "import gc, datamarket\n"
        "from datamarket.encoding import Layout\n"
        "layouts = [o for o in gc.get_objects() if isinstance(o, Layout)]\n"
        "print(len(layouts), sum(bool({'read', 'write'} & set(vars(o))) for o in layouts))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(messages.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    layouts, compiled = map(int, out.stdout.split())
    assert layouts >= len(messages._BY_TAG) + len(EventKind) and compiled == 0


# -- hand-made malformed inputs --------------------------------------------


def fields(*values, tag=None):
    out = bytearray() if tag is None else bytearray([tag])
    for value in values:
        write_field(out, encode_uint(value) if isinstance(value, int) else value)
    return bytes(out)


GE, IN = bytes([messages.Comparator.GE.value]), bytes([messages.Comparator.IN.value])


def predicate(op=GE, value=b"i" + bytes(8), attribute=b"age"):
    return fields(attribute, op, value)


def audience(*predicates):
    return fields(len(predicates), *predicates, tag=messages.TAG_AUDIENCE)


def string_set(*items):
    return b"S" + fields(*items)


def certificate(verdict, notary_pk=bytes(64), index=0, size=1, path=b""):
    return fields(
        notary_pk, bytes(32), bytes(32), verdict, index, size, path, bytes(64),
        tag=messages.TAG_CERTIFICATE,
    )


def notary_terms(notary_pk=bytes(64)):
    return fields(notary_pk, 2, bytes(32), bytes(32), bytes(64), tag=messages.TAG_NOTARY_TERMS)


def notarization_request(forced):
    return fields(bytes(32), b"response", forced, b"", tag=messages.TAG_NOTARIZATION_REQUEST)


def response(commitment=bytes(32), seller_pk=bytes(64), order_ref=bytes(32)):
    return fields(
        seller_pk, order_ref, 5, commitment, bytes(20), bytes(64), tag=messages.TAG_DATA_RESPONSE
    )


def order(upload_url, buyer_pk=bytes(64)):
    request = fields(b"records", 0, tag=messages.TAG_DATA_REQUEST)
    return fields(
        audience(), request, buyer_pk, upload_url, 10, 0, bytes(32), bytes(64),
        tag=messages.TAG_DATA_ORDER,
    )


LOW, HIGH = sorted([predicate(value=b"i" + bytes(7) + b"\x01"), predicate(attribute=b"zone")])

MALFORMED = {
    "predicate int body of 7 bytes": audience(predicate(value=b"i" + bytes(7))),
    "predicate int body of 9 bytes": audience(predicate(value=b"i" + bytes(9))),
    "comparator byte with a trailing byte": audience(predicate(op=GE + b"\x00")),
    "empty comparator field": audience(predicate(op=b"")),
    "unknown comparator": audience(predicate(op=b"\x09")),
    "verdict byte with a trailing byte": certificate(b"\x01\x00"),
    "empty verdict field": certificate(b""),
    "unknown verdict": certificate(b"\x07"),
    "forced flag of 2": notarization_request(2),
    "audience predicates out of order": audience(HIGH, LOW),
    "duplicate audience predicates": audience(LOW, LOW),
    "set items out of order": audience(predicate(IN, string_set(b"UY", b"AR"))),
    "duplicate set items": audience(predicate(IN, string_set(b"AR", b"AR"))),
    "IN with a string value": audience(predicate(IN, b"sAR")),
    "IN with an int value": audience(predicate(IN, b"i" + bytes(8))),
    "31-byte commitment": response(bytes(31)),
    "invalid UTF-8": order(b"ub:\xff\xfe"),
    "63-byte seller key": response(seller_pk=bytes(63)),
    "65-byte seller key": response(seller_pk=bytes(65)),
    "63-byte buyer key": order(b"ub:b", buyer_pk=bytes(63)),
    "65-byte buyer key": order(b"ub:b", buyer_pk=bytes(65)),
    "63-byte notary key in terms": notary_terms(bytes(63)),
    "65-byte notary key in terms": notary_terms(bytes(65)),
    "63-byte notary key in a certificate": certificate(b"\x01", bytes(63)),
    "empty notary key in a certificate": certificate(b"\x01", b""),
    "certificate leaf 1 of 1": certificate(b"\x01", index=1),
    "certificate leaf 0 of 0": certificate(b"\x01", size=0),
    "certificate batch of 17": certificate(b"\x01", index=16, size=17, path=bytes(32 * 5)),
    "certificate path one hash short": certificate(b"\x01", index=2, size=5, path=bytes(32 * 2)),
    "certificate path one hash long": certificate(b"\x01", index=4, size=5, path=bytes(32 * 2)),
    "certificate path of a partial hash": certificate(b"\x01", size=2, path=bytes(31)),
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_message_raises_encoding_error(data):
    with pytest.raises(EncodingError):
        messages.decode(data)


@pytest.mark.parametrize("length", [0, 63, 65])
def test_a_public_key_of_any_other_length_is_named_in_the_error(length):
    with pytest.raises(EncodingError, match=f"public key must be 64 bytes, got {length}"):
        messages.decode(response(seller_pk=bytes(length)))


def test_hand_made_inputs_are_well_formed_otherwise():
    for data in (audience(LOW, HIGH), certificate(b"\x01"), notarization_request(1)):
        assert check_message(data)
    for index, size, hashes in [(2, 5, 3), (4, 5, 1), (15, 16, 4), (0, 2, 1)]:
        assert check_message(certificate(b"\x01", index=index, size=size, path=bytes(32 * hashes)))
    assert check_message(notary_terms())
    assert check_message(audience(predicate(IN, string_set(b"AR", b"UY"))))
    assert check_message(response()) and check_message(order(b"ub:b"))


@pytest.mark.parametrize("kind", [2, 9])  # 2 is the retired audit top-up kind
def test_unknown_event_kind_raises_encoding_error(kind):
    frame = bytearray(LedgerEvent(EventKind.ORDER_CLOSED, fields(bytes(32))).encode())
    frame[0] = kind
    with pytest.raises(EncodingError):
        LedgerEvent.decode(bytes(frame))


# -- a malformed envelope mid-run -------------------------------------------


def test_malformed_envelopes_do_not_crash_a_run(monkeypatch):
    """Deliver a response with a 31-byte commitment, an order with an
    invalid UTF-8 upload URL, and a response to the running order whose key
    is 10 bytes long, to the buyer's upload endpoint and to the notary
    mid-run: none decodes, so each recipient drops or rejects them, and the
    run ends as it would without them."""
    scenario = load_scenario(BANK)
    undisturbed = run_scenario(scenario)
    (order_digest,) = [c.order_digest for c in undisturbed.ledger.contracts.values()]
    short_key = response(seller_pk=bytes(10), order_ref=order_digest)
    bad = [response(bytes(31)), order(b"ub:\xff\xfe"), short_key]
    targets = [f"ub:{scenario.buyers[0].name}", f"notary:{scenario.notaries[0].name}"]
    tick = transport.Network.tick

    def tick_with_garbage(network):
        delivered = tick(network)
        if network.tick_now == 5:
            for endpoint in targets:
                for message in bad:
                    envelope = Envelope(None, endpoint, message, 5, delivery_tick=5)
                    delivered.setdefault(endpoint, []).append(envelope)
        return delivered

    monkeypatch.setattr(transport.Network, "tick", tick_with_garbage)
    result = run_scenario(scenario)
    assert result.report.ok
    assert result.report.render() == undisturbed.report.render()
    refused = result.buyers[0].rejected_submissions
    assert len(refused) == len(bad)
    assert all(reason.startswith("upload: parse: ") for reason in refused)
