"""Buyer, seller, and notary agents.

Each actor is a sequential process. Each tick the runner hands a notary or
a buyer the envelopes at its endpoint in one `handle` call, which answers
each request or delivery at once, and then calls `step` on each buyer and
seller: a seller has no endpoint, and a notary no `step`. Actors share no
mutable state; they interact only through the network and the ledger. A
notary settles each response it certifies on the ledger itself, and the
buyer closes an order once its contract shows every selected response
settled. Endpoint naming convention: a buyer has one endpoint,
``ub:<name>``, the upload URL its orders carry, where notaries send terms and
sellers upload; a notary listens on ``notary:<name>``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import crypto, messages
from .crypto import KeyPair
from .errors import (
    AlreadySettled,
    DecryptionError,
    EncodingError,
    InvalidSignature,
    LedgerError,
    MarketError,
)
from .ledger import Ledger, OrderContract, Status
from .messages import (
    Address,
    Audience,
    DataOrder,
    DataRequest,
    DataResponse,
    NotarizationRequest,
    NotaryTerms,
    PayloadDelivery,
    Verdict,
    validate_response,
)
from .transport import Envelope, Network

if TYPE_CHECKING:
    from .scenario import BuyerSpec, NotarySpec, OrderSpec, SellerSpec


class Mutation(enum.Enum):
    """Closed set of adversarial behaviours a scenario can switch on."""

    NONE = "none"
    SUBSTITUTE_DATA = "substitute_data"
    BIT_FLIP = "bit_flip"
    WRONG_NOTARY = "wrong_notary"
    PRICE_MISMATCH = "price_mismatch"
    CERTIFICATE_REPLAY = "certificate_replay"  # re-submits its order's certificates at close
    FORGED_CERTIFICATE = "forged_certificate"  # submits a self-signed refund with each request


SELLER_MUTATIONS = {
    Mutation.SUBSTITUTE_DATA,
    Mutation.BIT_FLIP,
    Mutation.WRONG_NOTARY,
    Mutation.PRICE_MISMATCH,
}
BUYER_MUTATIONS = {Mutation.CERTIFICATE_REPLAY, Mutation.FORGED_CERTIFICATE}

# Ticks between re-sends of an unanswered offer, delivery or notarization request.
RETRY_INTERVAL = 3


def keys_from_seed(seed: int) -> KeyPair:
    return keys_from_seeds([seed])[0]


def keys_from_seeds(seeds: Sequence[int]) -> List[KeyPair]:
    return crypto.generate_keypairs([seed.to_bytes(crypto.SEED_LEN, "big") for seed in seeds])


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
) -> EvaluationDecision:
    """The seller's four screening checks: audience match, data availability,
    an acceptable notary (the cheapest is taken), and price."""
    if not order.audience.matches(attributes):
        return EvaluationDecision(False, reason="audience")
    if order.request.schema_id not in dataset:
        return EvaluationDecision(False, reason="no-data")
    if price < min_price:
        return EvaluationDecision(False, reason="price")
    cheapest = min(notary_list, key=lambda nt: (nt.fee, nt.notary_address))
    return EvaluationDecision(True, chosen_notary=cheapest.notary_address)


@dataclass
class _SellerOffer:
    contract: OrderContract
    response: DataResponse
    salt: bytes
    data: bytes
    next_send_tick: int
    delivery: Optional[bytes] = None  # the encoded PayloadDelivery, sealed once on first send
    resends_left: int = 2


class Seller:
    def __init__(self, spec: "SellerSpec", keys: KeyPair, ledger: Ledger, network: Network):
        self.spec = spec
        self.name = spec.name
        self.keys = keys
        self.address = crypto.derive_address(self.keys.public_key)
        self.ledger = ledger
        self.network = network
        self._contracts_read = 0  # `ledger.contracts` is in registration order
        self._offers: List[_SellerOffer] = []
        self._sealers: Dict[bytes, crypto.Sealer] = {}  # by buyer public key

    def step(self, tick: int) -> None:
        contracts = self.ledger.contracts
        if len(contracts) > self._contracts_read:
            for order_digest in sorted(list(contracts)[self._contracts_read :]):
                self._consider(order_digest, tick)
            self._contracts_read = len(contracts)
        self._offers = [offer for offer in self._offers if self._progress_offer(offer, tick)]

    def _consider(self, order_digest: bytes, tick: int) -> None:
        contract = self.ledger.contract(order_digest)
        order = contract.order
        spec = self.spec
        decision = seller_evaluate_order(
            spec.attributes,
            spec.dataset,
            order,
            list(contract.notary_terms.values()),
            contract.price,
            min_price=spec.min_price,
        )
        if contract.status is not Status.OPEN or not decision.participate:
            return
        price, chosen_notary = contract.price, decision.chosen_notary
        if spec.mutation is Mutation.PRICE_MISMATCH:
            price += 1
        if spec.mutation is Mutation.WRONG_NOTARY:
            chosen_notary = b"\xee" * crypto.ADDRESS_LEN
        data = spec.dataset[order.request.schema_id]
        salt = crypto.keyed_draw(self.keys.secret_key, b"salt", order_digest)
        response = messages.build_data_response(
            self.keys, order, price, data, chosen_notary, salt
        )
        offer = _SellerOffer(contract, response, salt, data, tick + RETRY_INTERVAL)
        self._offers.append(offer)
        self.network.send(self.address, order.upload_url, response.encode())

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
                offer.next_send_tick = tick + RETRY_INTERVAL
                self.network.send(self.address, contract.order.upload_url, offer.response.encode())
            return True
        if state.settlement is not None:
            return False
        # Selected and unsettled: seal the payload once, under this seller's one
        # agreement with the buyer, and re-send that delivery on a timer until settled.
        if offer.delivery is not None and tick < offer.next_send_tick:
            return True
        offer.next_send_tick = tick + RETRY_INTERVAL
        order = contract.order
        if offer.delivery is None:
            payload = messages.encode_payload_plaintext(offer.salt, self._delivery_data(offer))
            sealed = crypto.seal_kept(self._sealers, self.keys.secret_key, order.buyer_pk, payload)
            offer.delivery = PayloadDelivery(offer.response.digest(), sealed).encode()
        self.network.send(self.address, order.upload_url, offer.delivery)
        return True

    def _delivery_data(self, offer: _SellerOffer) -> bytes:
        if self.spec.mutation not in (Mutation.SUBSTITUTE_DATA, Mutation.BIT_FLIP):
            return offer.data
        draw = crypto.keyed_draw(self.keys.secret_key, b"tamper", offer.response.digest())
        if self.spec.mutation is Mutation.SUBSTITUTE_DATA:  # as long as the data, 8 bytes at least
            size = max(8, len(offer.data))
            return b"forged:" + (draw * (size // len(draw) + 1))[:size]
        data = bytearray(offer.data)
        bit = int.from_bytes(draw[:8], "big") % (8 * len(data))
        data[bit // 8] ^= 1 << bit % 8
        return bytes(data)


class Notary:
    def __init__(
        self,
        spec: "NotarySpec",
        keys: KeyPair,
        ledger: Ledger,
        network: Network,
        records: Dict[Tuple[str, str], bytes],
        enrollment: Dict[Address, str],
    ):
        """`records` maps (seller name, schema) to the data the notary holds
        for it; `spec.ground_truth` is laid over them. `enrollment` maps each
        seller's payment address to its name."""
        self.spec = spec
        self.name = spec.name
        self.keys = keys
        self.address = crypto.derive_address(self.keys.public_key)
        self.ledger = ledger
        self.network = network
        self.ground_truth = dict(records)
        for seller, per_schema in spec.ground_truth.items():
            for schema, data in per_schema.items():
                self.ground_truth[(seller, schema)] = data
        self.enrollment = enrollment
        self.service_terms = messages.terms_link(f"service terms of {spec.name}")
        self.endpoint = f"notary:{spec.name}"
        self._openers: Dict[bytes, crypto.Opener] = {}  # by the sender's key

    def handle(self, envelopes: Sequence[Envelope]) -> None:
        """Answer one tick's envelopes in arrival order: send each order's
        terms to its upload URL, then settle the responses certified this tick,
        one certificate per response, signed in batches
        (`messages.issue_certificates`), on the ledger."""
        claims: Dict[bytes, tuple] = {}  # response digest -> the claim certified for it
        for envelope in envelopes:
            try:
                msg = messages.decode(envelope.message)
            except EncodingError:
                continue
            if isinstance(msg, DataOrder):
                self._countersign(msg)
            elif isinstance(msg, NotarizationRequest) and msg.response_digest not in claims:
                claim = self._notarize(msg, envelope.sender)
                if claim:
                    claims[msg.response_digest] = claim
        for cert in messages.issue_certificates(self.keys, list(claims.values())):
            self.ledger.close_response(cert)

    def _countersign(self, order: DataOrder) -> None:
        """Countersign a well-formed order and send the terms to its upload
        URL; the network refuses an unregistered one."""
        if self.spec.declines:
            return
        try:
            terms = messages.countersign_order(self.keys, order, self.spec.fee, self.service_terms)
            self.network.send(self.address, order.upload_url, terms.encode())
        except MarketError:
            pass

    def _notarize(self, request: NotarizationRequest, sender: Address) -> Optional[tuple]:
        """The claim to certify for the response that the order's contract
        records under the request's digest, audited; none unless the request
        is from the order's buyer and that response is selected, unsettled,
        and names this notary."""
        contract = self.ledger.contracts.get(request.order_ref)
        if contract is None or sender != contract.buyer_address:
            return None
        state = contract.responses.get(request.response_digest)
        if state is None or state.settlement is not None:
            return None
        response = state.response
        if response.chosen_notary != self.address:
            return None
        verdict = self.decide_verdict(request, response, contract.order.request.schema_id)
        return request.order_ref, response, verdict

    def decide_verdict(
        self, request: NotarizationRequest, response: DataResponse, schema_id: str
    ) -> Verdict:
        """Skip the audit unless forced or the mode says otherwise: SAMPLE audits when
        the keyed draw over the response digest, first 8 bytes big-endian, is below
        rate * 2**64. An audited response is valid only if the commitment opens and
        the data matches the notary's own records for the enrolled seller."""
        audits = request.forced or self.spec.mode == "ALWAYS"
        if self.spec.mode == "SAMPLE" and not request.forced:
            draw = crypto.keyed_draw(self.keys.secret_key, b"audit", request.response_digest)
            audits = int.from_bytes(draw[:8], "big") < self.spec.rate * 2**64
        if not audits:
            return Verdict.NOT_NOTARIZED
        sealed = request.audit_ciphertext
        try:
            plaintext = crypto.open_kept(self._openers, self.keys.secret_key, sealed)
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


@dataclass
class _PendingOrder:
    """The buyer's own progress through one order: its notary terms,
    deadlines and audit requests. The order's stage is read from its
    contract: none while gathering terms, no selected response while
    collecting responses, selected ones while awaiting settlement."""

    spec: "OrderSpec"
    order: DataOrder
    gather_deadline: int
    terms: Dict[Address, NotaryTerms] = field(default_factory=dict)  # one per notary
    select_deadline: int = 0
    # response digest -> (notary endpoint, request bytes, last send tick);
    # re-sent on a timer while the response stays unsettled.
    audit_requests: Dict[bytes, List] = field(default_factory=dict)


class Buyer:
    def __init__(
        self,
        spec: "BuyerSpec",
        keys: KeyPair,
        ledger: Ledger,
        network: Network,
        notary_names: Dict[Address, str],
    ):
        """`notary_names` maps each notary's address to the name its
        endpoint is registered under."""
        self.spec = spec
        self.name = spec.name
        self.keys = keys
        self.address = crypto.derive_address(self.keys.public_key)
        self.ledger = ledger
        self.network = network
        self.notary_names = notary_names
        self.upload_url = f"ub:{spec.name}"
        self.rejected_submissions: List[str] = []
        self.aborted_orders: List[bytes] = []  # order digests
        self._orders_started = 0
        # Order digest -> the buyer's progress on it, until the order closes or aborts.
        self._pending: Dict[bytes, _PendingOrder] = {}
        # Upload intake: offers by digest and by `order_ref` in arrival order,
        # and the bytes of every accepted upload.
        self._offers: Dict[bytes, DataResponse] = {}
        self._offers_by_order: Dict[bytes, List[DataResponse]] = {}
        self._accepted_uploads: set = set()
        self._openers: Dict[bytes, crypto.Opener] = {}  # by the sender's key
        self._sealers: Dict[bytes, crypto.Sealer] = {}  # by notary key, for all orders' audits

    # -- protocol steps --------------------------------------------------

    def start_order(self, spec: "OrderSpec", tick: int) -> DataOrder:
        order = messages.build_data_order(
            self.keys,
            Audience(frozenset(spec.audience)),
            DataRequest(spec.schema_id, spec.fields),
            self.upload_url,
            spec.audit_budget,
            messages.terms_link(spec.terms),
            nonce=self._orders_started,  # orders this buyer started before this one
        )
        self._orders_started += 1
        self._pending[order.digest()] = _PendingOrder(
            spec=spec, order=order, gather_deadline=tick + spec.countersign_window
        )
        for name in spec.notaries:
            self.network.send(self.address, f"notary:{name}", order.encode())
        return order

    def handle(self, envelopes: Sequence[Envelope]) -> None:
        """Take one tick's envelopes at the upload URL, in arrival order."""
        for envelope in envelopes:
            self._upload(envelope.sender, envelope.message)

    def _upload(self, sender: Address, data: bytes) -> None:
        """Keep terms from a notary the pending order lists, keep a new
        offer, and answer a delivery from a selected offer's seller with a
        notarization request. A byte-identical repeat of an accepted upload
        is skipped undecoded; any other refused upload is recorded, and
        judged again each time it comes. Terms are never recorded as refused."""
        if data in self._accepted_uploads:
            return
        try:
            msg = messages.decode(data)
        except EncodingError as exc:
            self.rejected_submissions.append(f"upload: parse: {exc}")
            return
        if isinstance(msg, NotaryTerms):
            pending = self._pending.get(msg.order_digest)
            listed = pending and self.notary_names.get(msg.notary_address) in pending.spec.notaries
            if listed and msg.order_digest not in self.ledger.contracts and msg.verify_signature():
                pending.terms.setdefault(msg.notary_address, msg)
            return
        if isinstance(msg, DataResponse):  # new: a known digest means bytes accepted before
            self._offers[msg.digest()] = msg
            self._offers_by_order.setdefault(msg.order_ref, []).append(msg)
        elif not isinstance(msg, PayloadDelivery):
            kind = type(msg).__name__
            self.rejected_submissions.append(f"upload: unsupported message type {kind}")
            return
        elif msg.response_digest not in self._offers:
            self.rejected_submissions.append("upload: unknown-response")
            return
        elif sender != self._offers[msg.response_digest].payment_address:
            self.rejected_submissions.append("upload: not-from-seller")
            return
        elif not self._request_notarization(msg):
            self.rejected_submissions.append("upload: unselected-response")
            return
        self._accepted_uploads.add(data)

    def step(self, tick: int) -> None:
        for digest, pending in list(self._pending.items()):
            contract = self.ledger.contracts.get(digest)
            if contract is None:  # gathering notary terms
                if tick >= pending.gather_deadline and not self._register(pending, tick):
                    del self._pending[digest]
                continue
            if contract.status is Status.OPEN:
                if not contract.responses:  # collecting responses
                    if tick >= pending.select_deadline:
                        self._select(contract)
                elif contract.payment_escrow == 0:  # each unsettled response escrows price >= 1
                    self._close(contract)
                else:  # awaiting settlement
                    self._retry_audit_requests(contract, pending, tick)
            if contract.status is Status.CLOSED:
                del self._pending[digest]

    def _retry_audit_requests(
        self, contract: OrderContract, pending: _PendingOrder, tick: int
    ) -> None:
        # A dropped request would stall settlement forever; re-ask the
        # notary until the ledger shows the response settled.
        for digest, entry in pending.audit_requests.items():
            if contract.responses[digest].settlement is not None:
                continue
            endpoint, payload, last_sent = entry
            if tick - last_sent >= RETRY_INTERVAL:
                entry[2] = tick
                self.network.send(self.address, endpoint, payload)

    @property
    def done(self) -> bool:
        return not self._pending

    # -- internals -------------------------------------------------------

    def _register(self, pending: _PendingOrder, tick: int) -> bool:
        """Register the order. One with no notary terms, or one the ledger
        refuses, is aborted instead, and the result is False."""
        if pending.terms:
            try:
                terms = list(pending.terms.values())
                self.ledger.register_order(pending.order, terms, pending.spec.price)
            except LedgerError as exc:
                self.rejected_submissions.append(f"register: {exc}")
            else:
                pending.select_deadline = tick + pending.spec.response_window
                return True
        self.aborted_orders.append(pending.order.digest())
        return False

    def _select(self, contract: OrderContract) -> None:
        offers = self._offers_by_order.get(contract.order_digest, ())
        # The same checks the ledger's selection makes, the cheap rules first.
        # Each signature is checked only while the rule takes offers, and
        # each seller's first offer whose signature verifies is its only one.
        offers = [r for r in offers if not validate_response(r, contract)]
        sellers = set()
        valid = (
            r
            for r in offers
            if r.seller_pk not in sellers and r.verify_signature() and not sellers.add(r.seller_pk)
        )
        chosen = self.spec.selection.select(valid, contract.price)
        balance = self.ledger.balance(self.address)
        # Drop the last chosen response until the buyer can pay, audit top-up included.
        while contract.price * len(chosen) + self.ledger.audit_topup(contract, chosen) > balance:
            chosen = chosen[:-1]
        if chosen:
            self.ledger.select_sellers(contract.order_digest, chosen)
        else:
            self.ledger.close_order(contract.order_digest)

    def _request_notarization(self, delivery: PayloadDelivery) -> bool:
        """Ask the chosen notary, once, to settle the response of a delivery
        whose offer the buyer holds; False if that response is not selected."""
        digest = delivery.response_digest
        order_digest = self._offers[digest].order_ref
        pending = self._pending.get(order_digest)
        contract = self.ledger.contracts.get(order_digest)
        state = contract and contract.responses.get(digest)
        if pending is None or digest in pending.audit_requests:
            return True
        if state is None:
            return False
        response = state.response
        notary_terms = contract.notary_terms[response.chosen_notary]
        forced = self.spec.force_audit
        audit_ciphertext = b""
        try:
            if delivery.ciphertext[:32] != response.seller_pk[32:]:
                raise DecryptionError("delivery is not sealed under its seller's key")
            plaintext = crypto.open_kept(self._openers, self.keys.secret_key, delivery.ciphertext)
            messages.parse_payload_plaintext(plaintext)
        except (DecryptionError, EncodingError):
            # Garbled delivery, or one sealed by another key: force an audit
            # with an empty audit payload, which the notary can only judge invalid.
            forced = True
        else:
            audit_ciphertext = crypto.seal_kept(
                self._sealers, self.keys.secret_key, notary_terms.notary_pk, plaintext
            )
        request = NotarizationRequest(
            order_ref=contract.order_digest,
            response_digest=digest,
            forced=forced,
            audit_ciphertext=audit_ciphertext,
        ).encode()
        # The contract holds terms only from notaries the order lists.
        endpoint = f"notary:{self.notary_names[notary_terms.notary_address]}"
        pending.audit_requests[digest] = [endpoint, request, self.network.tick_now]
        self.network.send(self.address, endpoint, request)
        if self.spec.mutation is Mutation.FORGED_CERTIFICATE:  # a refund on its own signature
            forged = messages.issue_certificate(
                self.keys, contract.order_digest, response, Verdict.NOTARIZED_INVALID
            )
            try:
                self.ledger.close_response(forged)
            except InvalidSignature as exc:
                self.rejected_submissions.append(f"forged-certificate: {exc}")
        return True

    def _close(self, contract: OrderContract) -> None:
        """Close an order whose selected responses are all settled."""
        if self.spec.mutation is Mutation.CERTIFICATE_REPLAY:
            for cert in self.ledger.certificates(contract.order_digest):
                try:
                    self.ledger.close_response(cert)
                except AlreadySettled as exc:
                    self.rejected_submissions.append(f"certificate-replay: {exc}")
        self.ledger.close_order(contract.order_digest)
