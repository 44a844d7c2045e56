"""Buyer, seller, and notary agents.

Each actor is a sequential process: the runner hands it the envelopes
delivered this tick and then calls `step`. Actors share no mutable state;
they interact only through the network and the ledger. Endpoint naming
convention: the buyer's control endpoint is ``buyer:<name>``, its public
upload endpoint is ``ub:<name>`` (this string is the order's upload URL),
and a notary listens on ``notary:<name>``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import crypto, messages
from .crypto import Address, KeyPair
from .errors import (
    AlreadySettled,
    AuditEscrowDepleted,
    DecryptionError,
    EncodingError,
    InvalidSignature,
    LedgerError,
    MarketError,
    TransportError,
)
from .ledger import Ledger, OrderContract, Phase, Status
from .messages import (
    Audience,
    DataOrder,
    DataRequest,
    DataResponse,
    NotarizationRequest,
    NotaryCertificate,
    NotaryTerms,
    PayloadDelivery,
    Verdict,
)
from .transport import BuyerEndpoint, Envelope, Network

if TYPE_CHECKING:
    from .scenario import OrderSpec


class Mutation(enum.Enum):
    """Closed set of adversarial behaviours a scenario can switch on."""

    NONE = "none"
    SUBSTITUTE_DATA = "substitute_data"
    BIT_FLIP = "bit_flip"
    WRONG_NOTARY = "wrong_notary"
    PRICE_MISMATCH = "price_mismatch"
    CERTIFICATE_REPLAY = "certificate_replay"
    FORGED_CERTIFICATE = "forged_certificate"


SELLER_MUTATIONS = {
    Mutation.SUBSTITUTE_DATA,
    Mutation.BIT_FLIP,
    Mutation.WRONG_NOTARY,
    Mutation.PRICE_MISMATCH,
}
BUYER_MUTATIONS = {Mutation.CERTIFICATE_REPLAY, Mutation.FORGED_CERTIFICATE}

# Ticks between re-sends of an unanswered offer or delivery (seller) and of
# an unanswered notarization request (buyer).
SELLER_RETRY_INTERVAL = 3
BUYER_RETRY_INTERVAL = 4


def check_mutation(mutation: Mutation, role: str) -> None:
    """Raise unless a `role` ("seller" or "buyer") can take `mutation`."""
    allowed = SELLER_MUTATIONS if role == "seller" else BUYER_MUTATIONS
    if mutation is not Mutation.NONE and mutation not in allowed:
        raise MarketError(f"{mutation} is not a {role} mutation")


def keys_from_seed(seed: int) -> KeyPair:
    return crypto.generate_keypair(seed.to_bytes(32, "big"))


@dataclass(frozen=True)
class SelectionPolicy:
    rule: str = "ALL_VALID"  # ALL_VALID | FIRST_K | BUDGET_CAP
    k: int = 0
    max_tokens: int = 0

    def __post_init__(self):
        if self.rule not in ("ALL_VALID", "FIRST_K", "BUDGET_CAP"):
            raise MarketError(f"unknown selection rule {self.rule!r}")

    def select(self, responses: Sequence[DataResponse], price: int) -> List[DataResponse]:
        responses = list(responses)
        if self.rule == "ALL_VALID":
            return responses
        if self.rule == "FIRST_K":
            return responses[: self.k]
        # BUDGET_CAP
        if price <= 0:
            return []
        return responses[: self.max_tokens // price]


@dataclass
class NotarizationPolicy:
    mode: str = "ALWAYS"  # ALWAYS | NEVER | SAMPLE
    rate: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("ALWAYS", "NEVER", "SAMPLE"):
            raise MarketError(f"unknown notarization mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise MarketError("notarization rate must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def decide(self) -> bool:
        if self.mode == "ALWAYS":
            return True
        if self.mode == "NEVER":
            return False
        return self._rng.random() < self.rate


@dataclass(frozen=True)
class EvaluationDecision:
    participate: bool
    chosen_notary: Optional[Address] = None
    reason: str = ""


def seller_evaluate_order(
    attributes: Dict[str, object],
    dataset: Dict[str, bytes],
    order: DataOrder,
    notary_list: Sequence[NotaryTerms],
    price: int,
    min_price: int = 0,
    accept_terms: bool = True,
) -> EvaluationDecision:
    """The seller's five screening checks: audience match, data availability,
    an acceptable notary (the cheapest is taken), price, and terms."""
    if not order.audience.matches(attributes):
        return EvaluationDecision(False, reason="audience")
    if order.request.schema_id not in dataset:
        return EvaluationDecision(False, reason="no-data")
    if not notary_list:
        return EvaluationDecision(False, reason="no-notary")
    if price < min_price:
        return EvaluationDecision(False, reason="price")
    if not accept_terms:
        return EvaluationDecision(False, reason="terms")
    cheapest = min(notary_list, key=lambda nt: (nt.fee, nt.notary_address))
    return EvaluationDecision(True, chosen_notary=cheapest.notary_address)


@dataclass
class _SellerOffer:
    contract: OrderContract
    response: DataResponse
    salt: bytes
    data: bytes
    delivered_tick: Optional[int] = None
    resends_left: int = 2
    next_send_tick: int = 0


class Seller:
    def __init__(
        self,
        name: str,
        seed: int,
        attributes: Dict[str, object],
        dataset: Dict[str, bytes],
        ledger: Ledger,
        network: Network,
        mutation: Mutation = Mutation.NONE,
        min_price: int = 0,
    ):
        check_mutation(mutation, "seller")
        self.name = name
        self.keys = keys_from_seed(seed)
        self.address = crypto.derive_address(self.keys.public_key)
        self.attributes = dict(attributes)
        self.dataset = dict(dataset)
        self.ledger = ledger
        self.network = network
        self.mutation = mutation
        self.min_price = min_price
        self._rng = random.Random(seed)
        self._seen_orders: set = set()
        self._offers: Dict[bytes, _SellerOffer] = {}

    def step(self, tick: int) -> None:
        for order_id in sorted(self.ledger.open_orders()):
            if order_id in self._seen_orders:
                continue
            self._seen_orders.add(order_id)
            self._consider(order_id)
        for digest, offer in list(self._offers.items()):
            if not self._progress_offer(offer, tick):
                del self._offers[digest]

    def _consider(self, order_id: str) -> None:
        contract = self.ledger.contract(order_id)
        order = contract.order
        decision = seller_evaluate_order(
            self.attributes,
            self.dataset,
            order,
            list(contract.notary_terms.values()),
            contract.price,
            min_price=self.min_price,
        )
        if not decision.participate:
            return
        data = self.dataset[order.request.schema_id]
        salt = self._rng.randbytes(crypto.SALT_LEN)
        response = self._build_response(order, contract, decision.chosen_notary, data, salt)
        self._offers[response.digest()] = _SellerOffer(contract, response, salt, data)
        self._post(response.encode(), order.upload_url)

    def _build_response(self, order, contract, chosen_notary, data, salt) -> DataResponse:
        price = contract.price
        if self.mutation is Mutation.PRICE_MISMATCH:
            price = contract.price + 1
        if self.mutation is Mutation.WRONG_NOTARY:
            chosen_notary = Address(b"\xee" * crypto.ADDRESS_LEN)
        # Constructed directly so adversarial offers can bypass the honest
        # builder's preconditions.
        response = DataResponse(
            seller_pk=self.keys.public_key,
            payment_address=self.address,
            order_ref=order.digest(),
            price=price,
            commitment=crypto.commit(salt, data),
            chosen_notary=chosen_notary,
            terms=order.terms,
        )
        return messages.signed(self.keys, response)

    def _post(self, message_bytes: bytes, endpoint: str) -> None:
        self.network.send(self.address, endpoint, message_bytes)

    def _progress_offer(self, offer: _SellerOffer, tick: int) -> bool:
        """Advance one offer; False once it can never act again: it is
        settled, or its order closed without selecting it."""
        contract = offer.contract
        state = contract.responses.get(offer.response.digest())
        if state is None:
            if contract.status is not Status.OPEN:
                return False
            # Not selected (yet); bounded re-send of the offer while the
            # order stays open, in case the network dropped it.
            if offer.resends_left > 0 and tick >= offer.next_send_tick:
                offer.resends_left -= 1
                offer.next_send_tick = tick + SELLER_RETRY_INTERVAL
                self._post(offer.response.encode(), contract.order.upload_url)
            return True
        if state.phase is Phase.SETTLED:
            return False
        # Selected and unsettled: deliver (and re-deliver on a timer until
        # the ledger shows settlement). Payloads are only ever uploaded for
        # selected offers, and only inside an encryption envelope.
        if offer.delivered_tick is not None and tick < offer.next_send_tick:
            return True
        offer.delivered_tick = tick
        offer.next_send_tick = tick + SELLER_RETRY_INTERVAL
        data = self._delivery_data(offer)
        plaintext = messages.encode_payload_plaintext(offer.salt, data)
        order = contract.order
        ciphertext = crypto.encrypt_for(order.buyer_pk, plaintext, self._rng.randbytes(32))
        delivery = PayloadDelivery(offer.response.digest(), ciphertext)
        self._post(delivery.encode(), order.upload_url)
        return True

    def _delivery_data(self, offer: _SellerOffer) -> bytes:
        if self.mutation is Mutation.SUBSTITUTE_DATA:
            return b"forged:" + self._rng.randbytes(max(8, len(offer.data)))
        if self.mutation is Mutation.BIT_FLIP:
            data = bytearray(offer.data)
            pos = self._rng.randrange(len(data))
            data[pos] ^= 1 << self._rng.randrange(8)
            return bytes(data)
        return offer.data


class Notary:
    def __init__(
        self,
        name: str,
        seed: int,
        fee: int,
        policy: NotarizationPolicy,
        ledger: Ledger,
        network: Network,
        ground_truth: Dict[Tuple[str, str], bytes],
        enrollment: Dict[Address, str],
        declines: bool = False,
        service_terms: bytes = b"\x00" * 32,
    ):
        self.name = name
        self.keys = keys_from_seed(seed)
        self.address = crypto.derive_address(self.keys.public_key)
        self.fee = fee
        self.policy = policy
        self.ledger = ledger
        self.network = network
        self.ground_truth = dict(ground_truth)
        self.enrollment = dict(enrollment)
        self.declines = declines
        self.service_terms = service_terms
        self.endpoint = f"notary:{name}"

    def handle(self, envelope: Envelope) -> None:
        try:
            msg = messages.decode(envelope.message)
        except EncodingError:
            return
        if isinstance(msg, DataOrder):
            self._handle_countersign_request(msg)
        elif isinstance(msg, NotarizationRequest):
            self._handle_notarization_request(msg)

    def _handle_countersign_request(self, order: DataOrder) -> None:
        """Countersign and answer a well-formed order; one whose upload URL
        names no buyer, or no registered one, is dropped."""
        endpoint = _control_endpoint(order.upload_url)
        if self.declines or endpoint is None:
            return
        try:
            terms = messages.countersign_order(self.keys, order, self.fee, self.service_terms)
        except MarketError:
            return
        try:
            self.network.send(self.address, endpoint, terms.encode())
        except TransportError:
            pass

    def _handle_notarization_request(self, request: NotarizationRequest) -> None:
        try:
            response = DataResponse.decode(request.response_bytes)
        except EncodingError:
            return
        contract = self.ledger.contracts.get(request.order_ref.hex())
        if contract is None:
            return
        state = contract.responses.get(response.digest())
        if state is None or state.phase is not Phase.SELECTED:
            return
        if response.chosen_notary != self.address:
            return
        verdict = self.decide_verdict(request, response, contract.order.request.schema_id)
        cert = messages.issue_certificate(self.keys, request.order_ref, response, verdict)
        upload_url = contract.order.upload_url
        self.network.send(self.address, _control_endpoint(upload_url), cert.encode())

    def decide_verdict(
        self, request: NotarizationRequest, response: DataResponse, schema_id: str
    ) -> Verdict:
        """Skip the audit unless forced or the policy says otherwise; an
        audited response is valid only if both the commitment opens and the
        data matches the notary's own records for the enrolled seller."""
        if not (request.forced or self.policy.decide()):
            return Verdict.NOT_NOTARIZED
        try:
            plaintext = crypto.decrypt(self.keys.secret_key, request.audit_ciphertext)
            salt, data = messages.parse_payload_plaintext(plaintext)
        except (DecryptionError, EncodingError, MarketError):
            return Verdict.NOTARIZED_INVALID
        if not crypto.verify_commitment(salt, data, response.commitment):
            return Verdict.NOTARIZED_INVALID
        identity = self.enrollment.get(response.payment_address)
        if identity is None:
            return Verdict.NOTARIZED_INVALID
        truth = self.ground_truth.get((identity, schema_id))
        if truth is None or data != truth:
            return Verdict.NOTARIZED_INVALID
        return Verdict.NOTARIZED_VALID


def _control_endpoint(upload_url: str) -> Optional[str]:
    # ub:<name> -> buyer:<name>; None for a URL with no name.
    _, colon, name = upload_url.partition(":")
    return "buyer:" + name if colon else None


@dataclass
class _PendingOrder:
    """The buyer's own progress through one order. What the ledger records
    (selections, settlements) is read from the order's contract."""

    spec: "OrderSpec"
    order: DataOrder
    phase: str  # GATHERING | COLLECTING | AWAITING | DONE | ABORTED
    gather_deadline: int
    terms: List[NotaryTerms] = field(default_factory=list)
    select_deadline: int = 0
    # response digest -> (notary endpoint, request bytes, last send tick);
    # re-sent on a timer while the response stays unsettled.
    audit_requests: Dict[bytes, List] = field(default_factory=dict)


class Buyer:
    def __init__(
        self,
        name: str,
        seed: int,
        ledger: Ledger,
        network: Network,
        selection: SelectionPolicy = SelectionPolicy(),
        force_audit: bool = False,
        mutation: Mutation = Mutation.NONE,
    ):
        check_mutation(mutation, "buyer")
        self.name = name
        self.keys = keys_from_seed(seed)
        self.address = crypto.derive_address(self.keys.public_key)
        self.ledger = ledger
        self.network = network
        self.selection = selection
        self.force_audit = force_audit
        self.mutation = mutation
        self.control_endpoint = f"buyer:{name}"
        self.upload_url = f"ub:{name}"
        self.inbox = BuyerEndpoint()
        self.rejected_submissions: List[str] = []
        self.aborted_orders: List[str] = []
        self._rng = random.Random(seed)
        # Order id (the order digest in hex) -> the buyer's progress on it.
        self._pending: Dict[str, _PendingOrder] = {}
        self._delivery_cursor = 0
        self._notary_names: Dict[Address, str] = {}

    # -- protocol steps --------------------------------------------------

    def start_order(self, spec: "OrderSpec", tick: int) -> DataOrder:
        order = messages.build_data_order(
            self.keys,
            Audience(frozenset(spec.audience)),
            DataRequest(spec.schema_id, spec.fields),
            self.upload_url,
            spec.audit_budget,
            messages.terms_link(spec.terms),
        )
        self._pending[order.digest().hex()] = _PendingOrder(
            spec=spec,
            order=order,
            phase="GATHERING",
            gather_deadline=tick + spec.countersign_window,
        )
        for name in spec.notaries:
            self.network.send(self.address, f"notary:{name}", order.encode())
        return order

    def handle(self, envelope: Envelope) -> None:
        if envelope.endpoint == self.upload_url:
            self.inbox.post(envelope.message)
            return
        try:
            msg = messages.decode(envelope.message)
        except EncodingError:
            return
        if isinstance(msg, NotaryTerms):
            pending = self._pending.get(msg.order_digest.hex())
            if pending is not None and pending.phase == "GATHERING":
                if msg.verify_signature():
                    pending.terms.append(msg)
        elif isinstance(msg, NotaryCertificate):
            self._settle(msg)

    def step(self, tick: int) -> None:
        for order_id, pending in self._pending.items():
            if pending.phase == "GATHERING" and tick >= pending.gather_deadline:
                self._register(pending, tick)
            elif pending.phase == "COLLECTING" and tick >= pending.select_deadline:
                self._select(order_id, pending)
            elif pending.phase == "AWAITING":
                self._retry_audit_requests(order_id, pending, tick)
        self._process_deliveries()

    def _retry_audit_requests(self, order_id: str, pending: _PendingOrder, tick: int) -> None:
        # A dropped request or certificate would stall settlement forever;
        # re-ask the notary until the ledger shows the response settled.
        responses = self.ledger.contract(order_id).responses
        for digest, entry in pending.audit_requests.items():
            if responses[digest].phase is Phase.SETTLED:
                continue
            endpoint, payload, last_sent = entry
            if tick - last_sent >= BUYER_RETRY_INTERVAL:
                entry[2] = tick
                self.network.send(self.address, endpoint, payload)

    @property
    def done(self) -> bool:
        return all(p.phase in ("DONE", "ABORTED") for p in self._pending.values())

    # -- internals -------------------------------------------------------

    def _register(self, pending: _PendingOrder, tick: int) -> None:
        if not pending.terms:
            pending.phase = "ABORTED"
            self.aborted_orders.append(pending.order.digest().hex())
            return
        self.ledger.register_order(pending.order, pending.terms, pending.spec.price)
        pending.phase = "COLLECTING"
        pending.select_deadline = tick + pending.spec.response_window

    def _select(self, order_id: str, pending: _PendingOrder) -> None:
        contract = self.ledger.contract(order_id)
        valid = []
        for response in self.inbox.responses.values():
            if response.order_ref != contract.order_digest:
                continue
            result = messages.validate_response(
                response, pending.order, pending.terms, contract.price
            )
            if result.ok:
                valid.append(response)
        chosen = self.selection.select(valid, contract.price)
        # Pre-fund the worst case: every selected response audited.
        worst_fees = sum(
            contract.notary_terms[r.chosen_notary].fee for r in chosen
        )
        topup = max(0, worst_fees - contract.audit_escrow)
        affordable = self.ledger.balance(self.address)
        while chosen and contract.price * len(chosen) + topup > affordable:
            chosen = chosen[:-1]
            worst_fees = sum(contract.notary_terms[r.chosen_notary].fee for r in chosen)
            topup = max(0, worst_fees - contract.audit_escrow)
        if not chosen:
            self.ledger.close_order(order_id)
            pending.phase = "DONE"
            return
        self.ledger.select_sellers(order_id, chosen, audit_topup=topup)
        pending.phase = "AWAITING"

    def _process_deliveries(self) -> None:
        while self._delivery_cursor < len(self.inbox.deliveries):
            delivery = self.inbox.deliveries[self._delivery_cursor]
            self._delivery_cursor += 1
            self._request_notarization(delivery)

    def _request_notarization(self, delivery: PayloadDelivery) -> None:
        digest = delivery.response_digest
        # The inbox accepts a delivery only for a response it holds.
        order_id = self.inbox.responses[digest].order_ref.hex()
        pending = self._pending.get(order_id)
        if pending is None or pending.phase != "AWAITING" or digest in pending.audit_requests:
            return
        contract = self.ledger.contract(order_id)
        state = contract.responses.get(digest)
        if state is None:
            return
        response = state.response
        notary_terms = contract.notary_terms[response.chosen_notary]
        forced = self.force_audit
        audit_ciphertext = b""
        try:
            plaintext = crypto.decrypt(self.keys.secret_key, delivery.ciphertext)
            messages.parse_payload_plaintext(plaintext)
        except (DecryptionError, EncodingError):
            # Garbled delivery: force an audit with an empty audit payload,
            # which the notary can only judge invalid.
            forced = True
        else:
            audit_ciphertext = crypto.encrypt_for(
                notary_terms.notary_pk, plaintext, self._rng.randbytes(32)
            )
        request = NotarizationRequest(
            order_ref=contract.order_digest,
            response_bytes=response.encode(),
            forced=forced,
            audit_ciphertext=audit_ciphertext,
        )
        endpoint = f"notary:{self._notary_name(notary_terms)}"
        pending.audit_requests[digest] = [endpoint, request.encode(), self.network.tick_now]
        self.network.send(self.address, endpoint, request.encode())

    def _notary_name(self, terms: NotaryTerms) -> str:
        return self._notary_names.get(terms.notary_address, "")

    def set_directory(self, notary_names: Dict[Address, str]) -> None:
        """Address -> notary endpoint name, provided by the runner."""
        self._notary_names = dict(notary_names)

    def _settle(self, cert: NotaryCertificate) -> None:
        """Submit a certificate for one of this buyer's unsettled responses.
        One the ledger refuses is recorded and dropped."""
        order_id = cert.order_ref.hex()
        pending = self._pending.get(order_id)
        if pending is None or pending.phase != "AWAITING":
            return
        contract = self.ledger.contract(order_id)
        state = contract.responses.get(cert.response_digest)
        if state is None or state.phase is Phase.SETTLED:
            return
        if self.mutation is Mutation.FORGED_CERTIFICATE:
            forged = messages.issue_certificate(
                self.keys, cert.order_ref, state.response, cert.verdict
            )
            try:
                self.ledger.close_response(order_id, cert.response_digest, forged)
            except InvalidSignature as exc:
                self.rejected_submissions.append(f"forged-certificate: {exc}")
        try:
            try:
                self.ledger.close_response(order_id, cert.response_digest, cert)
            except AuditEscrowDepleted:
                fee = contract.notary_terms[state.response.chosen_notary].fee
                self.ledger.select_sellers(order_id, [], audit_topup=fee)
                self.ledger.close_response(order_id, cert.response_digest, cert)
        except LedgerError as exc:
            self.rejected_submissions.append(f"certificate: {exc}")
            return
        if self.mutation is Mutation.CERTIFICATE_REPLAY:
            try:
                self.ledger.close_response(order_id, cert.response_digest, cert)
            except AlreadySettled as exc:
                self.rejected_submissions.append(f"certificate-replay: {exc}")
        if all(s.phase is Phase.SETTLED for s in contract.responses.values()):
            self.ledger.close_order(order_id)
            pending.phase = "DONE"
