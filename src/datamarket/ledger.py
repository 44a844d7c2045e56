"""Deterministic single-writer token ledger hosting order contracts.

Escrow rules: registering an order moves the buyer's audit budget into the
contract; selecting n sellers escrows price × n and tops audit escrow up to
the fees of all unsettled responses (`audit_topup`); a verifying notary
certificate releases each response's escrow to the seller (verdicts a/b) or
back to the buyer (verdict c), with the notary's fee drawn from audit escrow
for audited verdicts. Money moves only through `_credit` and `_escrow`, which
keep the running totals that each event checks; `replay` also recounts
everything at the end. Each ledger call commits exactly one journal event,
and replaying the journal reproduces the exact state digest. A settlement
event is its certificate alone: the certificate names its order. `contracts`
is in registration order, the feed sellers read.

Each event kind has one check, which reads the ledger and raises before
anything changes, and one apply (`_RULES`), which takes what the check
derived (a selection's top-up, a close's notary fee). Live operations and
`replay` both run them through `Ledger._commit`, so replay accepts exactly
the events the live ledger would accept in the same state. Only the
signature checks of orders, notary terms, responses and certificates stay
live-only, each made by the operation where its message enters the ledger:
their re-verification would cost several times the rest of a replay. So
does the check that an order's buyer and notaries have keys something can
be sealed to (`crypto.sealable`); the journal's blinded order record holds
no buyer key. A
selected response is judged by `messages.validate_response`, the rule list
that the buyer's screen applies too, live and on replay alike.

The journal deliberately stores a blinded order record (digest, buyer
address, amounts, notary terms) instead of the full order: audience
attribute values never reach the journal bytes.
"""

from __future__ import annotations

import collections
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from . import crypto, messages
from .crypto import Address
from .encoding import (
    ADDRESS,
    LENGTH,
    RAW,
    U64,
    UINT_MAX,
    Layout,
    ListOf,
    SetOf,
    encode_uint,
    enum_byte,
    nested,
    read_field,
    write_field,
    write_uint_field,
)
from .errors import (
    AlreadySettled,
    AuditEscrowDepleted,
    DuplicateResponse,
    EncodingError,
    GenesisClosed,
    InsufficientFunds,
    InvalidSignature,
    LedgerError,
    OrderClosed,
    ReplayError,
    UnknownOrder,
    UnknownResponse,
)
from .messages import DataOrder, DataResponse, NotaryCertificate, NotaryTerms, Verdict


class EventKind(enum.IntEnum):
    MINT = 0
    ORDER_CREATED = 1
    # 2 is not reused: a frame of the retired audit top-up kind must not decode.
    SELLERS_SELECTED = 3
    RESPONSE_CLOSED = 4
    ORDER_CLOSED = 5


# An event frame is its kind byte and its payload; the trailer is the frame
# of kind 255. An event's sequence is its index in the journal.
TRAILER_KIND = 255
_EVENT_KIND = enum_byte(EventKind)


@dataclass(frozen=True)
class LedgerEvent:
    kind: EventKind
    payload: bytes

    def encode(self) -> bytes:
        return bytes([self.kind]) + self.payload

    @classmethod
    def decode(cls, frame: bytes) -> "LedgerEvent":
        return cls(_EVENT_KIND.from_bytes(frame[:1]), frame[1:])


class Outcome(enum.IntEnum):
    SELLER_PAID = 0
    BUYER_REFUNDED = 1


class Status(enum.IntEnum):
    OPEN = 0
    CLOSED = 1


@dataclass(frozen=True)
class Settlement:
    outcome: Outcome
    verdict: Verdict
    seller_amount: int
    buyer_refund: int
    notary_fee: int


@dataclass
class ResponseState:
    response: DataResponse
    # What the response's close paid out; None while it is only selected.
    settlement: Optional[Settlement] = None


@dataclass
class OrderContract:
    order_digest: bytes
    buyer_address: Address
    min_audit_budget: int
    price: int
    notary_terms: Dict[Address, NotaryTerms]
    audit_escrow: int = 0
    payment_escrow: int = 0
    responses: Dict[bytes, ResponseState] = field(default_factory=dict)
    status: Status = Status.OPEN
    # Full order is available on live ledgers only; a replayed contract
    # carries just the blinded record.
    order: Optional[DataOrder] = None


class Ledger:
    """Single-writer escrow ledger with an append-only event journal."""

    def __init__(self):
        self.accounts: Dict[Address, int] = {}
        self.contracts: Dict[bytes, OrderContract] = {}  # by order digest, in registration order
        self.journal: List[LedgerEvent] = []
        self.total_supply = 0
        self.balance_sum = self.escrow_sum = 0  # running sums of balances and of escrows

    # -- queries ---------------------------------------------------------

    def balance(self, address: Address) -> int:
        return self.accounts.get(address, 0)

    def open_orders(self) -> Dict[bytes, OrderContract]:
        return {d: c for d, c in self.contracts.items() if c.status is Status.OPEN}

    def contract(self, order_digest: bytes) -> OrderContract:
        try:
            return self.contracts[order_digest]
        except KeyError:
            raise UnknownOrder(f"no contract for order {order_digest.hex()}") from None

    def escrow_total(self) -> int:
        return sum(c.audit_escrow + c.payment_escrow for c in self.contracts.values())

    def conservation_holds(self) -> bool:
        return sum(self.accounts.values()) + self.escrow_total() == self.total_supply

    def certificates(self, order_digest: bytes) -> List[NotaryCertificate]:
        """The certificates that settled the order's responses, read from the
        public journal in journal order."""
        layout = _RULES[EventKind.RESPONSE_CLOSED].layout
        closes = (e for e in self.journal if e.kind is EventKind.RESPONSE_CLOSED)
        certs = (cert for e in closes for cert in layout.read(e.payload))
        return [cert for cert in certs if cert.order_ref == order_digest]

    def audit_topup(self, contract: OrderContract, responses: Sequence[DataResponse]) -> int:
        """What selecting `responses` moves into audit escrow: enough to pay the
        chosen notary's fee of every unsettled response, `responses` included."""
        unsettled = [s.response for s in contract.responses.values() if s.settlement is None]
        fees = sum(contract.notary_terms[r.chosen_notary].fee for r in unsettled + list(responses))
        return max(0, fees - contract.audit_escrow)

    # -- operations ------------------------------------------------------
    # Each makes only the checks that need no ledger state, then commits
    # its one event; every rule that reads the ledger lives in a `_check_*`.

    def mint(self, address: Address, amount: int) -> None:
        self._commit(EventKind.MINT, (address, amount))

    def register_order(
        self, order: DataOrder, notary_list: Sequence[NotaryTerms], price: int
    ) -> bytes:
        if not order.verify_signature():
            raise InvalidSignature("order buyer signature does not verify")
        if not all(nt.verify_signature() for nt in notary_list):
            raise InvalidSignature("notary countersignature does not verify")
        # Sellers seal deliveries to the buyer, and the buyer seals audit copies to notaries.
        if not all(map(crypto.sealable, [order.buyer_pk] + [nt.notary_pk for nt in notary_list])):
            raise LedgerError("a buyer or notary key has a small-order X25519 half")
        digest = order.digest()
        args = (digest, order.signer_address(), order.min_audit_budget, price, notary_list)
        self._commit(EventKind.ORDER_CREATED, args)
        self.contracts[digest].order = order
        return digest

    def select_sellers(self, order_digest: bytes, responses: Sequence[DataResponse]) -> None:
        if not all(r.verify_signature() for r in responses):
            raise InvalidSignature("response seller signature does not verify")
        self._commit(EventKind.SELLERS_SELECTED, (order_digest, responses))

    def close_response(self, certificate: NotaryCertificate) -> Settlement:
        """Settle the response `certificate` binds, on the order it names."""
        if not certificate.verify_signature():
            raise InvalidSignature("certificate signature does not verify")
        return self._commit(EventKind.RESPONSE_CLOSED, (certificate,))

    def close_order(self, order_digest: bytes) -> None:
        self._commit(EventKind.ORDER_CLOSED, (order_digest,))

    def _commit(self, kind: EventKind, args: tuple, event: Optional[LedgerEvent] = None):
        """Check, apply and journal one event: built from `args` on a live
        ledger, or `event` read from a journal, whose payload decoded to `args`.
        What a check derives on the way, its apply takes after `args`."""
        rule = _RULES[kind]
        derived = rule.check(self, *args) or ()
        if event is None:
            event = LedgerEvent(kind, rule.layout.encode(args))
        result = rule.apply(self, *args, *derived)
        self.journal.append(event)
        if self.balance_sum + self.escrow_sum != self.total_supply:
            raise LedgerError("internal error: token conservation violated")
        return result

    # -- event checks and applies (shared with replay) -------------------

    def _check_mint(self, address: Address, amount: int) -> None:
        if self.contracts:
            raise GenesisClosed("mint is only allowed before the first order")
        if amount <= 0:
            raise LedgerError("mint amount must be positive")
        if self.total_supply + amount > UINT_MAX:
            raise LedgerError("mint takes total supply past 2**64 - 1")

    def _apply_mint(self, address: Address, amount: int) -> None:
        self._credit(address, amount)
        self.total_supply += amount

    def _check_order_created(self, digest, buyer, min_audit_budget, price, notary_list):
        if price <= 0:
            raise LedgerError("price must be positive")
        if not notary_list:
            raise LedgerError("notary list must be non-empty")
        if digest in self.contracts:
            raise LedgerError(f"order {digest.hex()} already registered")
        if any(nt.order_digest != digest for nt in notary_list):
            raise InvalidSignature("notary terms bind a different order")
        if len({nt.notary_address for nt in notary_list}) != len(notary_list):
            raise LedgerError("duplicate notary in list")
        self._check_funds(buyer, min_audit_budget, "the minimum audit budget")

    def _apply_order_created(self, digest, buyer, min_audit_budget, price, notary_list):
        self._credit(buyer, -min_audit_budget)
        terms = {nt.notary_address: nt for nt in notary_list}
        self.contracts[digest] = OrderContract(digest, buyer, min_audit_budget, price, terms)
        self._escrow(self.contracts[digest], audit=min_audit_budget)

    def _check_selection(self, order_digest: bytes, responses) -> tuple:
        contract = self._open_contract(order_digest)
        if not responses:
            raise LedgerError("selection names no response")
        batch = set()
        for response in responses:
            digest = response.digest()
            if digest in contract.responses or digest in batch:
                raise DuplicateResponse(f"response {digest.hex()} already selected")
            batch.add(digest)
            failed = messages.validate_response(response, contract)
            if failed:
                raise LedgerError(f"invalid response {digest.hex()}: {', '.join(failed)}")
        # Derived only now: every response names a listed notary.
        topup = self.audit_topup(contract, responses)
        total = contract.price * len(responses) + topup
        self._check_funds(contract.buyer_address, total, "selection payment and audit top-up")
        return (topup,)

    def _apply_selection(self, order_digest: bytes, responses, topup: int) -> None:
        contract = self.contracts[order_digest]
        payment = contract.price * len(responses)
        self._credit(contract.buyer_address, -(payment + topup))
        self._escrow(contract, audit=topup, payment=payment)
        for response in responses:
            contract.responses[response.digest()] = ResponseState(response)

    def _check_close(self, cert: NotaryCertificate) -> tuple:
        contract = self._open_contract(cert.order_ref)
        state = contract.responses.get(cert.response_digest)
        if state is None:
            raise UnknownResponse(f"response {cert.response_digest.hex()} is not selected")
        if state.settlement is not None:
            raise AlreadySettled(f"response {cert.response_digest.hex()} is already settled")
        notary = state.response.chosen_notary
        if cert.signer_address() != notary:
            raise InvalidSignature("certificate is not from the response's chosen notary")
        # Audited verdicts (b and c) pay the chosen notary's fee from audit escrow.
        fee = 0 if cert.verdict is Verdict.NOT_NOTARIZED else contract.notary_terms[notary].fee
        if fee > contract.audit_escrow:
            raise AuditEscrowDepleted(
                f"notary fee {fee} exceeds audit escrow {contract.audit_escrow}"
            )
        return (fee,)

    def _apply_close(self, cert: NotaryCertificate, fee: int) -> Settlement:
        contract = self.contracts[cert.order_ref]
        state = contract.responses[cert.response_digest]
        response, price = state.response, contract.price
        if cert.verdict is Verdict.NOTARIZED_INVALID:
            settlement = Settlement(Outcome.BUYER_REFUNDED, cert.verdict, 0, price, fee)
        else:
            settlement = Settlement(Outcome.SELLER_PAID, cert.verdict, price, 0, fee)
        state.settlement = settlement
        self._escrow(contract, audit=-settlement.notary_fee, payment=-price)
        if settlement.seller_amount:
            self._credit(response.payment_address, settlement.seller_amount)
        if settlement.buyer_refund:
            self._credit(contract.buyer_address, settlement.buyer_refund)
        if settlement.notary_fee:
            self._credit(response.chosen_notary, settlement.notary_fee)
        return settlement

    def _check_order_closed(self, order_digest: bytes) -> None:
        contract = self._open_contract(order_digest, "is already closed")
        unsettled = [d.hex() for d, s in contract.responses.items() if s.settlement is None]
        if unsettled:
            raise LedgerError(f"unsettled responses remain: {unsettled}")

    def _apply_order_closed(self, order_digest: bytes) -> None:
        contract = self.contracts[order_digest]
        self._credit(contract.buyer_address, contract.audit_escrow)
        self._escrow(contract, audit=-contract.audit_escrow)
        contract.status = Status.CLOSED

    def _open_contract(self, order_digest: bytes, closed: str = "is closed") -> OrderContract:
        contract = self.contract(order_digest)
        if contract.status is not Status.OPEN:
            raise OrderClosed(f"order {order_digest.hex()} {closed}")
        return contract

    def _check_funds(self, address: Address, amount: int, purpose: str) -> None:
        if self.balance(address) < amount:
            raise InsufficientFunds(f"buyer cannot cover {purpose}")

    def _credit(self, address: Address, amount: int) -> None:
        self.accounts[address] = self.balance(address) + amount
        self.balance_sum += amount

    def _escrow(self, contract: OrderContract, audit: int = 0, payment: int = 0) -> None:
        contract.audit_escrow += audit
        contract.payment_escrow += payment
        self.escrow_sum += audit + payment

    # -- state digest ----------------------------------------------------

    def state_digest(self) -> bytes:
        out = bytearray(encode_uint(self.total_supply))
        for address in sorted(self.accounts):
            write_field(out, address.bytes + encode_uint(self.accounts[address]))
        for order_digest in sorted(self.contracts):
            write_field(out, _contract_state_bytes(self.contracts[order_digest]))
        return crypto.sha256(bytes(out))


def _contract_state_bytes(c: OrderContract) -> bytes:
    out = bytearray()
    write_field(out, c.order_digest)
    write_field(out, c.buyer_address.bytes)
    write_uint_field(out, c.min_audit_budget)
    write_uint_field(out, c.price)
    write_uint_field(out, c.audit_escrow)
    write_uint_field(out, c.payment_escrow)
    out.append(c.status)
    for addr in sorted(c.notary_terms):
        write_field(out, addr.bytes + encode_uint(c.notary_terms[addr].fee))
    for digest in sorted(c.responses):
        s = c.responses[digest]
        # Format constants: 01 ff for a selected response, 02 <outcome> for a settled one.
        stage = b"\x01\xff" if s.settlement is None else bytes([2, s.settlement.outcome])
        write_field(
            out,
            digest
            + stage
            + s.response.payment_address.bytes
            + s.response.chosen_notary.bytes,
        )
    return bytes(out)


# -- event rules -----------------------------------------------------------


_Rule = collections.namedtuple("_Rule", "check apply layout")


def _rule(check, apply, *payload) -> _Rule:
    """An event kind's check and apply, and its payload layout: one codec
    per argument they take, in order."""
    return _Rule(check, apply, Layout(payload))


_NOTARY_TERMS = SetOf(nested(NotaryTerms), key=lambda nt: nt.notary_address.bytes)
_RULES = {
    EventKind.MINT: _rule(Ledger._check_mint, Ledger._apply_mint, ADDRESS, U64),
    EventKind.ORDER_CREATED: _rule(
        Ledger._check_order_created,
        Ledger._apply_order_created,
        RAW,
        ADDRESS,
        U64,
        U64,
        _NOTARY_TERMS,
    ),
    EventKind.SELLERS_SELECTED: _rule(
        Ledger._check_selection, Ledger._apply_selection, RAW, ListOf(nested(DataResponse))
    ),
    EventKind.RESPONSE_CLOSED: _rule(
        Ledger._check_close, Ledger._apply_close, nested(NotaryCertificate)
    ),
    EventKind.ORDER_CLOSED: _rule(Ledger._check_order_closed, Ledger._apply_order_closed, RAW),
}


# -- replay ---------------------------------------------------------------


def replay(events: Iterable[LedgerEvent]) -> Ledger:
    """Rebuild a ledger from its journal, committing each event through the
    live ledger's checks (signatures aside); aborts with the offending
    sequence number on any rejected event or failed final recount."""
    ledger = Ledger()
    for sequence, event in enumerate(events):
        try:
            args = _RULES[event.kind].layout.read(event.payload)
            ledger._commit(event.kind, args, event)
        except Exception as exc:
            raise ReplayError(sequence, str(exc)) from exc
    if not ledger.conservation_holds():
        raise ReplayError(len(ledger.journal), "token conservation violated in final state")
    return ledger


# -- journal file I/O -----------------------------------------------------


def journal_bytes(ledger: Ledger) -> bytes:
    """Serialize the journal with a trailer frame holding the state digest
    and a hash over the event frames before it; together they make any
    single-byte tamper detectable (state-neutral bytes such as signatures
    included)."""
    out = bytearray()
    for event in ledger.journal:
        out += LENGTH.pack(1 + len(event.payload))
        out.append(event.kind)
        out += event.payload
    write_field(out, bytes([TRAILER_KIND]) + ledger.state_digest() + crypto.sha256(out))
    return bytes(out)


def journal_state_digest(data: bytes) -> bytes:
    """The state digest in the trailer of bytes that `journal_bytes` wrote."""
    return data[-64:-32]


def parse_journal(data: bytes):
    """Split journal bytes into (events, trailer, frames_hash): the trailer
    is None when absent, and `frames_hash` is taken over the event frames as
    read, which is exact because every frame re-encodes to itself. A frame
    that does not decode fails at its own sequence."""
    events: List[LedgerEvent] = []
    pos = 0
    while pos < len(data):
        start = pos
        try:
            frame, pos = read_field(data, pos)
            if frame[:1] == bytes([TRAILER_KIND]):
                if pos < len(data):
                    raise ReplayError(len(events), "frames after the digest trailer")
                return events, frame[1:], crypto.sha256(memoryview(data)[:start])
            events.append(LedgerEvent.decode(frame))
        except EncodingError as exc:
            raise ReplayError(len(events), f"journal framing error: {exc}") from exc
    return events, None, crypto.sha256(data)


def verify_journal(data: bytes) -> Ledger:
    """Replay journal bytes and check the trailer digest; raises ReplayError."""
    events, trailer, frames_hash = parse_journal(data)
    ledger = replay(events)
    if trailer is None:
        raise ReplayError(len(events), "journal has no digest trailer (truncated)")
    if len(trailer) != 64:
        raise ReplayError(len(events), "malformed digest trailer")
    if ledger.state_digest() != trailer[:32]:
        raise ReplayError(len(events), "state digest mismatch")
    if frames_hash != trailer[32:]:
        raise ReplayError(len(events), "event bytes do not match the journal hash")
    return ledger
