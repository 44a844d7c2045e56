"""Deterministic single-writer token ledger hosting order contracts.

Escrow rules: registering an order moves the buyer's audit budget into the
contract; selecting sellers moves the per-response price into payment
escrow; a verifying notary certificate releases each response's escrow to
the seller (verdicts a/b) or back to the buyer (verdict c), with the
notary's fee drawn from audit escrow for audited verdicts. Every mutation
is journaled, and replaying the journal reproduces the exact state digest.

Each event kind has one check, which reads the ledger and raises before
anything changes, and one apply (`_RULES`). Live operations and `replay`
both run them through `Ledger._commit`, so replay accepts exactly the
events the live ledger would accept in the same state. Only the checks that
need no ledger state stay live-only: signatures, whose re-verification
would cost several times the rest of a replay, and a response's terms,
since the full order is not in the journal.

The journal deliberately stores a blinded order record (digest, buyer
address, amounts, notary terms) instead of the full order: audience
attribute values never reach the journal bytes.
"""

from __future__ import annotations

import collections
import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from . import crypto
from .crypto import Address
from .encoding import (
    ADDRESS,
    RAW,
    U64,
    Fields,
    ListOf,
    Reader,
    SetOf,
    encode_uint,
    nested,
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
    AUDIT_TOPUP = 2
    SELLERS_SELECTED = 3
    RESPONSE_CLOSED = 4
    ORDER_CLOSED = 5


TRAILER_KIND = 255

# An event frame: 8-byte sequence, kind byte, 4-byte payload length, payload.
_FRAME_HEAD = struct.Struct(">QBI")


@dataclass(frozen=True)
class LedgerEvent:
    sequence: int
    kind: EventKind
    payload: bytes

    def encode(self) -> bytes:
        return _FRAME_HEAD.pack(self.sequence, self.kind, len(self.payload)) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "LedgerEvent":
        if len(data) < _FRAME_HEAD.size:
            raise EncodingError("truncated event frame")
        seq, kind, length = _FRAME_HEAD.unpack_from(data)
        if _FRAME_HEAD.size + length != len(data):
            raise EncodingError("event payload length does not match its frame")
        try:
            kind = EventKind(kind)
        except ValueError:
            raise EncodingError(f"unknown event kind {kind}") from None
        return cls(seq, kind, data[_FRAME_HEAD.size :])


class Phase(enum.IntEnum):
    # The values are written into the state digest.
    SELECTED = 1
    SETTLED = 2


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
    notary: Address


@dataclass
class ResponseState:
    response: DataResponse
    # What the response's close paid out; None while it is only selected.
    settlement: Optional[Settlement] = None

    @property
    def phase(self) -> Phase:
        return Phase.SELECTED if self.settlement is None else Phase.SETTLED


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
        self.contracts: Dict[str, OrderContract] = {}
        self.journal: List[LedgerEvent] = []
        self.total_supply = 0
        self._genesis_open = True

    # -- queries ---------------------------------------------------------

    def balance(self, address: Address) -> int:
        return self.accounts.get(address, 0)

    def open_orders(self) -> Dict[str, OrderContract]:
        return {oid: c for oid, c in self.contracts.items() if c.status is Status.OPEN}

    def contract(self, order_id: str) -> OrderContract:
        try:
            return self.contracts[order_id]
        except KeyError:
            raise UnknownOrder(f"no contract for order {order_id}") from None

    def escrow_total(self) -> int:
        return sum(c.audit_escrow + c.payment_escrow for c in self.contracts.values())

    def conservation_holds(self) -> bool:
        return sum(self.accounts.values()) + self.escrow_total() == self.total_supply

    # -- operations ------------------------------------------------------
    # Each makes only the checks that need no ledger state, then commits
    # its events; every rule that reads the ledger lives in a `_check_*`.

    def mint(self, address: Address, amount: int) -> None:
        self._commit(EventKind.MINT, (address, amount))

    def register_order(
        self, order: DataOrder, notary_list: Sequence[NotaryTerms], price: int
    ) -> str:
        if not order.verify_signature():
            raise InvalidSignature("order buyer signature does not verify")
        if not all(nt.verify_signature() for nt in notary_list):
            raise InvalidSignature("notary countersignature does not verify")
        digest = order.digest()
        buyer = crypto.derive_address(order.buyer_pk)
        args = (digest, buyer, order.min_audit_budget, price, notary_list)
        self._commit(EventKind.ORDER_CREATED, args)
        order_id = digest.hex()
        self.contracts[order_id].order = order
        return order_id

    def select_sellers(
        self, order_id: str, responses: Sequence[DataResponse], audit_topup: int = 0
    ) -> None:
        contract = self.contract(order_id)
        if audit_topup < 0:
            raise LedgerError("audit top-up must be >= 0")
        if not responses and audit_topup == 0:
            raise LedgerError("empty selection with no top-up")
        if contract.order is None:
            raise LedgerError("contract has no full order; ledger is a replay snapshot")
        for response in responses:
            terms_match = response.terms == contract.order.terms
            _require(response, ("signature", response.verify_signature()), ("terms", terms_match))
        if audit_topup > 0:
            self._commit(EventKind.AUDIT_TOPUP, (contract.order_digest, audit_topup))
        if responses:
            try:
                self._commit(EventKind.SELLERS_SELECTED, (contract.order_digest, responses))
            except LedgerError:
                if audit_topup > 0:
                    # The whole selection applies or none of it: undo the top-up.
                    self.journal.pop()
                    self._credit(contract.buyer_address, audit_topup)
                    contract.audit_escrow -= audit_topup
                raise

    def close_response(
        self, order_id: str, response_digest: bytes, certificate: NotaryCertificate
    ) -> Settlement:
        contract = self.contract(order_id)
        if certificate.response_digest != response_digest:
            raise LedgerError("certificate binds a different response")
        if not certificate.verify_signature():
            raise InvalidSignature("certificate signature does not verify")
        return self._commit(EventKind.RESPONSE_CLOSED, (contract.order_digest, certificate))

    def close_order(self, order_id: str) -> None:
        self._commit(EventKind.ORDER_CLOSED, (self.contract(order_id).order_digest,))

    def _commit(self, kind: EventKind, args: tuple, event: Optional[LedgerEvent] = None):
        """Check, apply and journal one event: built from `args` on a live
        ledger, or `event` read from a journal, whose payload decoded to `args`."""
        rule = _RULES[kind]
        rule.check(self, *args)
        if event is None:
            event = LedgerEvent(len(self.journal), kind, rule.encode(*args))
        result = rule.apply(self, *args)
        self.journal.append(event)
        if not self.conservation_holds():
            raise LedgerError("internal error: token conservation violated")
        return result

    # -- event checks and applies (shared with replay) -------------------

    def _check_mint(self, address: Address, amount: int) -> None:
        if not self._genesis_open:
            raise GenesisClosed("mint is only allowed before the first order")
        if amount <= 0:
            raise LedgerError("mint amount must be positive")

    def _apply_mint(self, address: Address, amount: int) -> None:
        self._credit(address, amount)
        self.total_supply += amount

    def _check_order_created(self, digest, buyer, min_audit_budget, price, notary_list):
        if price <= 0:
            raise LedgerError("price must be positive")
        if not notary_list:
            raise LedgerError("notary list must be non-empty")
        if digest.hex() in self.contracts:
            raise LedgerError(f"order {digest.hex()} already registered")
        if any(nt.order_digest != digest for nt in notary_list):
            raise InvalidSignature("notary terms bind a different order")
        if len({nt.notary_address for nt in notary_list}) != len(notary_list):
            raise LedgerError("duplicate notary in list")
        self._check_funds(buyer, min_audit_budget, "the minimum audit budget")

    def _apply_order_created(self, digest, buyer, min_audit_budget, price, notary_list):
        self._genesis_open = False
        self._credit(buyer, -min_audit_budget)
        terms = {nt.notary_address: nt for nt in notary_list}
        self.contracts[digest.hex()] = OrderContract(
            digest, buyer, min_audit_budget, price, terms, audit_escrow=min_audit_budget
        )

    def _check_topup(self, order_digest: bytes, amount: int) -> None:
        contract = self._open_contract(order_digest)
        if amount <= 0:
            raise LedgerError("audit top-up must be positive")
        self._check_funds(contract.buyer_address, amount, "selection payment and top-up")

    def _apply_topup(self, order_digest: bytes, amount: int) -> None:
        contract = self.contracts[order_digest.hex()]
        self.accounts[contract.buyer_address] -= amount
        contract.audit_escrow += amount

    def _check_selection(self, order_digest: bytes, responses) -> None:
        contract = self._open_contract(order_digest)
        if not responses:
            raise LedgerError("selection names no response")
        batch = set()
        for response in responses:
            digest = response.digest()
            if digest in contract.responses or digest in batch:
                raise DuplicateResponse(f"response {digest.hex()} already selected")
            batch.add(digest)
            _require(
                response,
                ("order-mismatch", response.order_ref == order_digest),
                ("price", response.price == contract.price),
                ("notary-not-listed", response.chosen_notary in contract.notary_terms),
            )
        total = contract.price * len(responses)
        self._check_funds(contract.buyer_address, total, "selection payment and top-up")

    def _apply_selection(self, order_digest: bytes, responses) -> None:
        contract = self.contracts[order_digest.hex()]
        total = contract.price * len(responses)
        self.accounts[contract.buyer_address] -= total
        contract.payment_escrow += total
        for response in responses:
            contract.responses[response.digest()] = ResponseState(response)

    def _check_close(self, order_digest: bytes, cert: NotaryCertificate) -> None:
        contract = self._open_contract(order_digest)
        state = contract.responses.get(cert.response_digest)
        if state is None:
            raise UnknownResponse(f"response {cert.response_digest.hex()} is not selected")
        if state.phase is Phase.SETTLED:
            raise AlreadySettled(f"response {cert.response_digest.hex()} is already settled")
        if cert.order_ref != order_digest:
            raise LedgerError("certificate binds a different order")
        notary = state.response.chosen_notary
        if crypto.derive_address(cert.notary_pk) != notary:
            raise InvalidSignature("certificate is not from the response's chosen notary")
        fee = _notary_fee(contract, state.response, cert.verdict)
        if fee > contract.audit_escrow:
            raise AuditEscrowDepleted(
                f"notary fee {fee} exceeds audit escrow {contract.audit_escrow}"
            )

    def _apply_close(self, order_digest: bytes, cert: NotaryCertificate) -> Settlement:
        contract = self.contracts[order_digest.hex()]
        state = contract.responses[cert.response_digest]
        price = contract.price
        notary = state.response.chosen_notary
        notary_fee = _notary_fee(contract, state.response, cert.verdict)
        if cert.verdict is Verdict.NOTARIZED_INVALID:
            outcome, seller_amount, buyer_refund = Outcome.BUYER_REFUNDED, 0, price
        else:
            outcome, seller_amount, buyer_refund = Outcome.SELLER_PAID, price, 0
        contract.payment_escrow -= price
        if seller_amount:
            self._credit(state.response.payment_address, seller_amount)
        if buyer_refund:
            self._credit(contract.buyer_address, buyer_refund)
        if notary_fee:
            contract.audit_escrow -= notary_fee
            self._credit(notary, notary_fee)
        state.settlement = Settlement(
            outcome, cert.verdict, seller_amount, buyer_refund, notary_fee, notary
        )
        return state.settlement

    def _check_order_closed(self, order_digest: bytes) -> None:
        contract = self._open_contract(order_digest, "is already closed")
        unsettled = [d.hex() for d, s in contract.responses.items() if s.phase is not Phase.SETTLED]
        if unsettled:
            raise LedgerError(f"unsettled responses remain: {unsettled}")

    def _apply_order_closed(self, order_digest: bytes) -> None:
        contract = self.contracts[order_digest.hex()]
        self._credit(contract.buyer_address, contract.audit_escrow)
        contract.audit_escrow = 0
        contract.status = Status.CLOSED

    def _open_contract(self, order_digest: bytes, closed: str = "is closed") -> OrderContract:
        order_id = order_digest.hex()
        contract = self.contract(order_id)
        if contract.status is not Status.OPEN:
            raise OrderClosed(f"order {order_id} {closed}")
        return contract

    def _check_funds(self, address: Address, amount: int, purpose: str) -> None:
        if self.balance(address) < amount:
            raise InsufficientFunds(f"buyer cannot cover {purpose}")

    def _credit(self, address: Address, amount: int) -> None:
        self.accounts[address] = self.balance(address) + amount

    # -- state digest ----------------------------------------------------

    def state_digest(self) -> bytes:
        out = bytearray(encode_uint(self.total_supply))
        for address in sorted(self.accounts):
            write_field(out, address.bytes + encode_uint(self.accounts[address]))
        for order_id in sorted(self.contracts):
            write_field(out, _contract_state_bytes(self.contracts[order_id]))
        return crypto.sha256(bytes(out))


def _notary_fee(contract: OrderContract, response: DataResponse, verdict: Verdict) -> int:
    """Audited verdicts (b and c) pay the chosen notary's fee from audit escrow."""
    if verdict is Verdict.NOT_NOTARIZED:
        return 0
    return contract.notary_terms[response.chosen_notary].fee


def _require(response: DataResponse, *checks) -> None:
    """Reject `response`, naming every (name, passed) check it failed."""
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise LedgerError(f"invalid response {response.digest().hex()}: {', '.join(failed)}")


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
        outcome = 0xFF if s.settlement is None else s.settlement.outcome
        write_field(
            out,
            digest
            + bytes([s.phase, outcome])
            + s.response.payment_address.bytes
            + s.response.chosen_notary.bytes,
        )
    return bytes(out)


# -- event rules -----------------------------------------------------------


_Rule = collections.namedtuple("_Rule", "check apply encode decode")


def _rule(check, apply, *payload) -> _Rule:
    """An event kind's check and apply, and its payload layout: one codec
    per argument they take. `decode` reads the arguments back from a Reader
    that the caller then checks is exhausted."""
    layout = Fields(*payload)
    return _Rule(check, apply, layout.encode, layout.decode)


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
    EventKind.AUDIT_TOPUP: _rule(Ledger._check_topup, Ledger._apply_topup, RAW, U64),
    EventKind.SELLERS_SELECTED: _rule(
        Ledger._check_selection, Ledger._apply_selection, RAW, ListOf(nested(DataResponse))
    ),
    EventKind.RESPONSE_CLOSED: _rule(
        Ledger._check_close, Ledger._apply_close, RAW, nested(NotaryCertificate)
    ),
    EventKind.ORDER_CLOSED: _rule(Ledger._check_order_closed, Ledger._apply_order_closed, RAW),
}


# -- replay ---------------------------------------------------------------


def replay(events: Iterable[LedgerEvent]) -> Ledger:
    """Rebuild a ledger from its journal, committing each event through the
    live ledger's checks (signatures aside); aborts with the offending
    sequence number on any gap or rejected event."""
    ledger = Ledger()
    for expected, event in enumerate(events):
        if event.sequence != expected:
            raise ReplayError(expected, f"sequence gap (found {event.sequence})")
        try:
            r = Reader(event.payload)
            args = _RULES[event.kind].decode(r)
            r.expect_end()
            ledger._commit(event.kind, args, event)
        except Exception as exc:
            raise ReplayError(event.sequence, str(exc)) from exc
    return ledger


# -- journal file I/O -----------------------------------------------------


def journal_bytes(ledger: Ledger) -> bytes:
    """Serialize the journal with a trailer frame holding the state digest
    and a hash over the event frames before it; together they make any
    single-byte tamper detectable (state-neutral bytes such as signatures
    included)."""
    out = bytearray()
    for event in ledger.journal:
        write_field(out, event.encode())
    write_field(out, bytes([TRAILER_KIND]) + ledger.state_digest() + crypto.sha256(out))
    return bytes(out)


def write_journal(path, ledger: Ledger) -> None:
    with open(path, "wb") as fh:
        fh.write(journal_bytes(ledger))


def parse_journal(data: bytes):
    """Split journal bytes into (events, trailer, frames_hash): the trailer
    is None when absent, and `frames_hash` is taken over the event frames as
    read, which is exact because every frame re-encodes to itself. A frame
    that does not decode fails at its own sequence."""
    r = Reader(data)
    events: List[LedgerEvent] = []
    while r.remaining():
        start = len(data) - r.remaining()
        try:
            frame = r.read_field()
            if frame[:1] == bytes([TRAILER_KIND]):
                if r.remaining():
                    raise ReplayError(len(events), "frames after the digest trailer")
                return events, frame[1:], crypto.sha256(data[:start])
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
