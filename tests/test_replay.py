"""Replay is exactly as strict as the live ledger.

Every rule that reads ledger state runs in one check per event kind, on the
live ledger and on replay alike. These tests craft journals that break one
rule each under a trailer that matches them, and drive random call streams
through both paths. Signature checks stay live-only, so every input here is
correctly signed, save where a forged field breaks a decoder first.
"""

import functools
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import cli, crypto, ledger as ledger_mod, messages
from datamarket.actors import keys_from_seed
from datamarket.encoding import encode_uint, field_end, write_field
from datamarket.errors import EncodingError, LedgerError, ReplayError
from datamarket.ledger import EventKind, Ledger, LedgerEvent
from datamarket.messages import Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario, random_scenario

from market_helpers import TERMS, ladder_10x10, make_market, make_order, make_response


def derived(ledger, kind, args):
    """What the apply of `kind` takes after `args`, derived as its check
    derives it: a selection's contract, responses by digest and audit
    top-up, a close's contract, response state and notary fee."""
    if kind is EventKind.SELLERS_SELECTED:
        order_digest, responses = args
        contract = ledger.contracts[order_digest]
        batch = {r.digest(): r for r in responses}
        return contract, batch, ledger.audit_topup(contract, responses)
    if kind is EventKind.RESPONSE_CLOSED:
        (cert,) = args
        contract = ledger.contracts[cert.order_ref]
        state = contract.responses[cert.response_digest]
        notary = state.response.chosen_notary
        fee = 0 if cert.verdict is Verdict.NOT_NOTARIZED else contract.notary_terms[notary].fee
        return contract, state, fee
    return ()


def forge(ledger, kind, *args, payload=None):
    """Journal bytes of `ledger` plus one event built from `args`, applied
    without its check as a writer that skips the rules would, under a
    recomputed trailer. `payload`, if given, replaces the encoding of
    `args`. Returns (journal bytes, the event's sequence)."""
    rule = ledger_mod._RULES[kind]
    sequence = len(ledger.journal)
    payload = rule.layout.encode(args) if payload is None else payload
    ledger.journal.append(LedgerEvent(kind, payload))
    frames = bytearray()
    for event in ledger.journal:
        write_field(frames, event.encode())
    try:
        rule.apply(ledger, *args, *derived(ledger, kind, args))
        state = ledger.state_digest()
    except (KeyError, EncodingError):  # no contract to apply to, or a negative escrow
        state = bytes(32)
    trailer = bytes([ledger_mod.TRAILER_KIND]) + state + crypto.sha256(frames)
    write_field(frames, trailer)
    return bytes(frames), sequence


def selected(**market_args):
    market = make_market(**market_args)
    response, _, _ = make_response(market)
    market.ledger.select_sellers(market.order_id, [response])
    return market, response


def certify(market, response, verdict=Verdict.NOTARIZED_VALID, order_ref=None):
    order_ref = market.order.digest() if order_ref is None else order_ref
    return messages.issue_certificate(market.notary_keys, order_ref, response, verdict)


def mint_after_first_order():
    market = make_market()
    address = crypto.derive_address(keys_from_seed(9).public_key)
    return forge(market.ledger, EventKind.MINT, address, 10)


def mints_past_the_u64_supply():
    """Two mints of 2**64 - 1: a total supply the journal cannot write."""
    ledger = Ledger()
    address = crypto.derive_address(keys_from_seed(9).public_key)
    ledger.mint(address, 2**64 - 1)
    return forge(ledger, EventKind.MINT, address, 2**64 - 1)


def selection_on_closed_order():
    market, response = selected()
    market.ledger.close_response(certify(market, response))
    market.ledger.close_order(market.order_id)
    late, _, _ = make_response(market, seller_seed=11)
    return forge(market.ledger, EventKind.SELLERS_SELECTED, market.order.digest(), [late])


def certificate_for_another_order():
    """A certificate for a selected response that names an order never
    registered: the certificate alone says which contract it settles."""
    market, response = selected()
    other = make_order(keys_from_seed(3)).digest()
    cert = certify(market, response, order_ref=other)
    return forge(market.ledger, EventKind.RESPONSE_CLOSED, cert)


def price_differs_from_posted():
    market = make_market(price=5)
    response = messages.build_data_response(
        keys_from_seed(10), market.order, 6, b"data", market.notary, crypto.sha256(b"salt")
    )
    return forge(market.ledger, EventKind.SELLERS_SELECTED, market.order.digest(), [response])


def empty_selection():
    """A selection that names no response."""
    market = make_market()
    return forge(market.ledger, EventKind.SELLERS_SELECTED, market.order.digest(), [])


def notary_terms_out_of_order():
    ledger = Ledger()
    buyer_keys = keys_from_seed(1)
    buyer = crypto.derive_address(buyer_keys.public_key)
    ledger.mint(buyer, 100)
    order = make_order(buyer_keys)
    terms = [messages.countersign_order(keys_from_seed(s), order, 2, TERMS) for s in (2, 3)]
    terms.sort(key=lambda nt: nt.notary_address, reverse=True)
    price, digest = 5, order.digest()
    payload = bytearray()
    for value in (digest, buyer, encode_uint(order.min_audit_budget), encode_uint(price)):
        write_field(payload, value)
    write_field(payload, encode_uint(len(terms)))
    for nt in terms:
        write_field(payload, nt.encode())
    args = (digest, buyer, order.min_audit_budget, price, terms)
    return forge(ledger, EventKind.ORDER_CREATED, *args, payload=bytes(payload))


def settled_journal():
    """Journal bytes of an order with one settled response (four events),
    and the offset of the frame of event 3."""
    market, response = selected()
    market.ledger.close_response(certify(market, response))
    data = ledger_mod.journal_bytes(market.ledger)
    return data, sum(4 + len(event.encode()) for event in market.ledger.journal[:3])


def unknown_event_kind():
    """Kind byte 9 in the frame of event 3 (the trailer is left as it was:
    the frame must fail before any digest is compared)."""
    data, frame_start = settled_journal()
    data = bytearray(data)
    data[frame_start + 4] = 9  # the frame's first byte, after its length prefix
    return bytes(data), 3


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BANK = SCENARIOS / "bank.yaml"


def bank_ledger():
    """The live ledger of a `bank.yaml` run and a decoder of its events' arguments."""
    ledger = run_scenario(load_scenario(BANK)).ledger
    return ledger, lambda event: ledger_mod._RULES[event.kind].layout.read(event.payload)


def with_key(msg, key: bytes) -> bytes:
    """The encoding of `msg` with its key field, the first after the tag
    byte, holding `key`: spliced by hand, as no writer writes a key of the
    wrong size."""
    data = msg.encode()
    out = bytearray(data[:1])
    write_field(out, key)
    return bytes(out) + data[field_end(data, 1) :]


def short_seller_key():
    """`bank.yaml`'s journal with the first selected response's key cut to
    63 bytes and its certificate pointed at the new digest, under the
    trailer the ledger would write for it. No live ledger could select that
    response: its key has no address, and no signature verifies under it."""
    ledger, args = bank_ledger()
    order_digest, responses = args(ledger.journal[2])
    encodings = [response.encode() for response in responses]
    encodings[0] = with_key(responses[0], responses[0].seller_pk[:63])
    old, new = responses[0].digest(), crypto.sha256(encodings[0])
    payload = bytearray()
    for value in (order_digest, encode_uint(len(encodings)), *encodings):
        write_field(payload, value)
    ledger.journal[2] = LedgerEvent(EventKind.SELLERS_SELECTED, bytes(payload))
    for sequence, event in enumerate(ledger.journal):
        if event.kind is EventKind.RESPONSE_CLOSED and args(event)[0].response_digest == old:
            cert = replace(args(event)[0], response_digest=new)
            payload = ledger_mod._RULES[event.kind].layout.encode((cert,))
            ledger.journal[sequence] = LedgerEvent(event.kind, payload)
    contract = ledger.contracts[order_digest]
    contract.responses = {new if d == old else d: s for d, s in contract.responses.items()}
    return ledger_mod.journal_bytes(ledger), 2


def long_notary_key():
    """`bank.yaml`'s journal with a 65-byte notary key in the order's terms,
    under the trailer the ledger would write for it."""
    ledger, args = bank_ledger()
    digest, buyer, budget, price, (terms,) = args(ledger.journal[1])
    payload = bytearray()
    for value in (digest, buyer, encode_uint(budget), encode_uint(price), encode_uint(1)):
        write_field(payload, value)
    write_field(payload, with_key(terms, terms.notary_pk + b"\x00"))
    ledger.journal[1] = LedgerEvent(EventKind.ORDER_CREATED, bytes(payload))
    return ledger_mod.journal_bytes(ledger), 1


def empty_event_frame():
    """An empty frame, with no kind byte, in place of event 3."""
    data, frame_start = settled_journal()
    frame = bytearray()
    write_field(frame, b"")
    return data[:frame_start] + frame + data[frame_start:], 3


CRAFTED = [
    mint_after_first_order,
    mints_past_the_u64_supply,
    selection_on_closed_order,
    certificate_for_another_order,
    price_differs_from_posted,
    empty_selection,
    notary_terms_out_of_order,
    unknown_event_kind,
    empty_event_frame,
    short_seller_key,
    long_notary_key,
]


@pytest.mark.parametrize("craft", CRAFTED, ids=lambda f: f.__name__)
def test_crafted_journal_rejected_at_its_event(craft, tmp_path, capsys):
    data, sequence = craft()
    with pytest.raises(ReplayError) as exc:
        ledger_mod.verify_journal(data)
    assert exc.value.sequence == sequence
    path = tmp_path / "crafted.journal"
    path.write_bytes(data)
    assert cli.main(["verify", str(path)]) == 1
    assert f"journal verification failed at sequence {sequence}:" in capsys.readouterr().out


# -- live and replay agree on random call streams --------------------------


@functools.lru_cache(maxsize=None)
def world():
    """Two orders from two buyers, two notaries with fees 2 and 4, three
    responses per order and every certificate a call can ask for, all
    correctly signed."""
    buyers = [keys_from_seed(1), keys_from_seed(4)]
    notaries = [keys_from_seed(2), keys_from_seed(3)]
    orders = [
        make_order(buyers[0], m_a=2, upload_url="ub:b0"),
        make_order(buyers[1], m_a=3, upload_url="ub:b1"),
    ]
    terms = [
        [messages.countersign_order(n, order, fee, TERMS) for n, fee in zip(notaries, (2, 4))]
        for order in orders
    ]
    # Notary lists a registration may offer: both notaries, one, a duplicate,
    # and terms countersigned for the other order.
    notary_lists = [[t, t[:1], [t[0], t[0]], terms[1 - i][:1]] for i, t in enumerate(terms)]
    responses = [
        [
            messages.build_data_response(
                keys_from_seed(10 + s), order, 5, b"data-%d-%d" % (i, s),
                terms[i][s % 2].notary_address,
                salt=crypto.sha256(b"salt-%d-%d" % (i, s)),
            )
            for s in range(3)
        ]
        for i, order in enumerate(orders)
    ]
    certs = {}
    for i, order in enumerate(orders):
        for s, response in enumerate(responses[i]):
            chosen, other = notaries[s % 2], notaries[1 - s % 2]
            for verdict in Verdict:
                for variant, keys, ref in (
                    ("good", chosen, order.digest()),
                    ("other-notary", other, order.digest()),
                    ("other-order", chosen, orders[1 - i].digest()),
                ):
                    certs[response.digest(), verdict, variant] = messages.issue_certificate(
                        keys, ref, response, verdict
                    )
    buyer_addresses = [crypto.derive_address(k.public_key) for k in buyers]
    return buyer_addresses, orders, notary_lists, responses, certs


# Repeated values and strategies weight the draw towards calls that can
# succeed, so that streams reach selections, settlements and order closes.
ORDER = st.sampled_from([0] * 5 + [1])
MINT = st.tuples(st.just("mint"), ORDER, st.sampled_from([0, 5, 100, 100, 100]))
REGISTER = st.tuples(
    st.just("register"),
    ORDER,
    st.sampled_from([0] * 5 + [1, 2, 3]),  # index into the order's notary lists
    st.sampled_from([5] * 6 + [0, 6]),  # price; the responses ask for 5
)
# A response index of 3 picks a response to the other order.
PICKS = st.lists(st.sampled_from([0, 1, 2] * 3 + [3]), min_size=1, max_size=3)
SELECT = st.tuples(st.just("select"), ORDER, st.one_of(PICKS, PICKS, PICKS, st.just([])))
# The response index of a close picks among the responses selected so far.
CLOSE = st.tuples(
    st.just("close"),
    ORDER,
    st.integers(0, 2),
    st.sampled_from(list(Verdict)),
    st.sampled_from(["good"] * 6 + ["other-notary", "other-order"]),
)
CLOSE_ORDER = st.tuples(st.just("close_order"), ORDER)


def with_closes(select):
    """`select`, then up to three closes on the same order."""
    closes = st.lists(CLOSE.map(lambda close: (close[0], select[1], *close[2:])), max_size=3)
    return closes.map(lambda closes: [select, *closes])


# Streams open with mints and a registration, which may fail like any call;
# a selection is often followed by closes on the same order.
STREAMS = st.builds(
    lambda *parts: sum(parts, []),
    st.lists(MINT, min_size=1, max_size=3),
    st.lists(REGISTER, min_size=1, max_size=2),
    st.lists(
        st.one_of(
            st.one_of(MINT, REGISTER, CLOSE, CLOSE, CLOSE_ORDER).map(lambda call: [call]),
            SELECT.flatmap(with_closes),
            SELECT.flatmap(with_closes),
        ),
        max_size=10,
    ).map(lambda steps: sum(steps, [])),
)


def plan(live, call):
    """Return the kind and args of the one event `call` asks the journal to
    take, and a function that makes the call on a live ledger. A close picks
    its response among those `live` has selected for the order, if any."""
    buyers, orders, notary_lists, responses, certs = world()
    name, *rest = call
    if name == "mint":
        args = (buyers[rest[0]], rest[1])
        return EventKind.MINT, args, lambda lg: lg.mint(*args)
    order = orders[rest[0]]
    digest = order.digest()
    if name == "register":
        notary_list, price = notary_lists[rest[0]][rest[1]], rest[2]
        buyer = crypto.derive_address(order.buyer_pk)
        args = (digest, buyer, order.min_audit_budget, price, notary_list)
        return EventKind.ORDER_CREATED, args, lambda lg: lg.register_order(
            order, notary_list, price
        )
    if name == "select":
        mine, other = responses[rest[0]], responses[1 - rest[0]]
        chosen = [mine[s] if s < 3 else other[0] for s in rest[1]]
        return EventKind.SELLERS_SELECTED, (digest, chosen), lambda lg: lg.select_sellers(
            digest, chosen
        )
    if name == "close":
        contract = live.contracts.get(digest)
        picked = list(contract.responses) if contract else []
        target = picked[rest[1] % len(picked)] if picked else responses[rest[0]][rest[1]].digest()
        cert = certs[target, rest[2], rest[3]]
        return EventKind.RESPONSE_CLOSED, (cert,), lambda lg: lg.close_response(cert)
    return EventKind.ORDER_CLOSED, (digest,), lambda lg: lg.close_order(digest)


def commit_checking_totals(commit):
    """`Ledger._commit` that, after each committed event, checks the running
    totals against a full recount of the accounts and contracts."""

    def checked(ledger, *args, **kwargs):
        result = commit(ledger, *args, **kwargs)
        assert ledger.balance_sum == sum(ledger.accounts.values())
        assert ledger.escrow_sum == ledger.escrow_total()
        return result

    return checked


@given(STREAMS)
@settings(max_examples=500, deadline=None)
def test_replay_accepts_exactly_what_the_live_ledger_accepts(calls):
    with mock.patch.object(Ledger, "_commit", commit_checking_totals(Ledger._commit)):
        check_live_against_replay(calls)


def check_live_against_replay(calls):
    live = Ledger()
    for call in calls:
        kind, args, make_call = plan(live, call)
        before, digest_before = list(live.journal), live.state_digest()
        try:
            make_call(live)
            accepted = True
        except LedgerError:
            accepted = False
        event = LedgerEvent(kind, ledger_mod._RULES[kind].layout.encode(args))
        candidate = before + [event]
        try:
            replayed = ledger_mod.replay(candidate)
        except ReplayError:
            replayed = None
        assert accepted == (replayed is not None), call
        if accepted:
            assert live.journal == candidate
            assert replayed.state_digest() == live.state_digest()
            assert_fees_covered(live)
        else:
            assert (live.journal, live.state_digest()) == (before, digest_before)


def assert_fees_covered(ledger):
    """Each contract's audit escrow covers the chosen notary's fee of every
    unsettled response, so no close can find it depleted."""
    for contract in ledger.contracts.values():
        unsettled = [s.response for s in contract.responses.values() if s.settlement is None]
        fees = sum(contract.notary_terms[r.chosen_notary].fee for r in unsettled)
        assert contract.audit_escrow >= fees


# -- replay rebuilds the live state field by field --------------------------


def ledger_view(ledger):
    """Every account, the running totals, and every contract field by
    field, in registration order: its record, escrows and status, and each
    response's digest, payment address, chosen notary and settlement."""
    contracts = [
        (
            digest,
            c.order_digest,
            c.buyer_address,
            c.min_audit_budget,
            c.price,
            {address: terms.digest() for address, terms in c.notary_terms.items()},  # a set
            c.audit_escrow,
            c.payment_escrow,
            c.status,
            [
                (d, s.response.digest(), s.response.payment_address, s.response.chosen_notary)
                + (s.settlement,)
                for d, s in c.responses.items()
            ],
        )
        for digest, c in ledger.contracts.items()
    ]
    totals = (ledger.total_supply, ledger.balance_sum, ledger.escrow_sum)
    return dict(ledger.accounts), totals, contracts


def assert_plain_addresses(ledger):
    """Every address the ledger holds, as an account, a notary terms key, a
    buyer, a payment address or a chosen notary, is `bytes` of
    `crypto.ADDRESS_LEN`, and every commitment is `bytes` of 32."""
    addresses = list(ledger.accounts)
    for contract in ledger.contracts.values():
        addresses += [contract.buyer_address, *contract.notary_terms]
        for state in contract.responses.values():
            addresses += [state.response.payment_address, state.response.chosen_notary]
            commitment = state.response.commitment
            assert type(commitment) is bytes and len(commitment) == crypto.DIGEST_LEN == 32
    assert all(type(a) is bytes and len(a) == crypto.ADDRESS_LEN for a in addresses)


def live_runs(name):
    if name.endswith(".yaml"):
        return [run_scenario(load_scenario(SCENARIOS / name))]
    if name.startswith("ladder"):
        return [run_scenario(ladder_10x10(float(name.split()[-1])))]
    return [run_scenario(random_scenario(seed)) for seed in range(50)]


@pytest.mark.parametrize(
    "name", ["bank.yaml", "telco.yaml", "ladder 0.0", "ladder 0.05", "random 0..49"]
)
def test_replay_rebuilds_the_live_ledger_field_by_field(name):
    """`verify_journal` rebuilds, from the journal bytes alone, every
    account and every contract field the live ledger holds, not only a
    state with the same digest, and holds each address as the live ledger
    does: as plain bytes. The replayed contracts hold no full order."""
    for result in live_runs(name):
        live = result.ledger
        replayed = ledger_mod.verify_journal(ledger_mod.journal_bytes(live))
        assert ledger_view(replayed) == ledger_view(live)
        assert_plain_addresses(live)
        assert_plain_addresses(replayed)
        assert replayed.journal == live.journal
        assert all(c.order is None for c in replayed.contracts.values())
