"""Protocol message types, their canonical byte encoding, and the
constructors/validators each participant uses.

Signed types expose `signing_bytes()` (the canonical encoding of every
field before the signature) and `encode()` (signing bytes plus the
signature field). `decode()` is the inverse of `encode()` for every type.
Signed types are frozen, so each instance computes its encodings, digest
and signature check once and keeps them (see `_memoized`).

The seller's offer deliberately has no plaintext-data field and no salt
field: only the salted commitment is signed and published, and the salt is
revealed off-chain at delivery time inside the encrypted payload.
"""

from __future__ import annotations

import enum
import functools
import secrets
from dataclasses import dataclass, fields as dataclass_fields
from typing import Mapping, Sequence, Union

from . import crypto
from .crypto import Address, Commitment
from .encoding import Reader, write_field, write_uint_field
from .errors import EncodingError, MessageError

TAG_AUDIENCE = 1
TAG_DATA_REQUEST = 2
TAG_DATA_ORDER = 3
TAG_NOTARY_TERMS = 4
TAG_DATA_RESPONSE = 5
TAG_CERTIFICATE = 6
TAG_PAYLOAD_DELIVERY = 7
TAG_NOTARIZATION_REQUEST = 8

PredicateValue = Union[int, str, frozenset]


class Comparator(enum.Enum):
    EQ = 0
    NE = 1
    GE = 2
    LE = 3
    IN = 4


class Verdict(enum.Enum):
    """Notary settlement verdicts: skipped audit, audited-valid, audited-invalid."""

    NOT_NOTARIZED = 0
    NOTARIZED_VALID = 1
    NOTARIZED_INVALID = 2

    @property
    def letter(self) -> str:
        return {0: "a", 1: "b", 2: "c"}[self.value]


def _memoized(method):
    """Compute a no-argument method once per instance and keep the result in
    the instance `__dict__`. Only for frozen dataclasses: their fields never
    change, so the kept value cannot go stale, and a changed copy (made with
    `dataclasses.replace` or by decoding) is a new instance with no memo."""
    key = "_memo_" + method.__name__

    @functools.wraps(method)
    def wrapper(self):
        memo = self.__dict__
        value = memo.get(key)
        if value is None:
            value = memo[key] = method(self)
        return value

    return wrapper


def _encode_value(value: PredicateValue) -> bytes:
    if isinstance(value, bool):
        raise MessageError("boolean predicate values are not supported")
    if isinstance(value, int):
        out = bytearray(b"i")
        out += value.to_bytes(8, "big")
        return bytes(out)
    if isinstance(value, str):
        return b"s" + value.encode()
    if isinstance(value, frozenset):
        out = bytearray(b"S")
        for item in sorted(value):
            write_field(out, str(item).encode())
        return bytes(out)
    raise MessageError(f"unsupported predicate value type: {type(value).__name__}")


def _decode_value(data: bytes) -> PredicateValue:
    if not data:
        raise EncodingError("empty predicate value")
    kind, body = data[:1], data[1:]
    if kind == b"i":
        return int.from_bytes(body, "big")
    if kind == b"s":
        return body.decode()
    if kind == b"S":
        r = Reader(body)
        items = []
        while r.remaining():
            items.append(r.read_field().decode())
        return frozenset(items)
    raise EncodingError(f"unknown predicate value kind {kind!r}")


@dataclass(frozen=True)
class Predicate:
    attribute: str
    op: Comparator
    value: PredicateValue

    def __post_init__(self):
        if not self.attribute:
            raise MessageError("predicate attribute name must be non-empty")
        if self.op is Comparator.IN and not isinstance(self.value, frozenset):
            object.__setattr__(self, "value", frozenset(self.value))

    def encode(self) -> bytes:
        out = bytearray()
        write_field(out, self.attribute.encode())
        write_field(out, bytes([self.op.value]))
        write_field(out, _encode_value(self.value))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Predicate":
        r = Reader(data)
        attr = r.read_field().decode()
        op = Comparator(r.read_field()[0])
        value = _decode_value(r.read_field())
        r.expect_end()
        return cls(attr, op, value)

    def matches(self, attributes: Mapping[str, object]) -> bool:
        if self.attribute not in attributes:
            return False
        actual = attributes[self.attribute]
        if self.op is Comparator.EQ:
            return str(actual) == str(self.value)
        if self.op is Comparator.NE:
            return str(actual) != str(self.value)
        if self.op is Comparator.IN:
            return str(actual) in self.value
        try:
            actual_n, bound = int(actual), int(self.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return actual_n >= bound if self.op is Comparator.GE else actual_n <= bound


@dataclass(frozen=True)
class Audience:
    """Conjunctive attribute filter over seller profiles; empty matches all."""

    predicates: frozenset

    def __post_init__(self):
        object.__setattr__(self, "predicates", frozenset(self.predicates))

    def matches(self, attributes: Mapping[str, object]) -> bool:
        return all(p.matches(attributes) for p in self.predicates)

    def encode(self) -> bytes:
        out = bytearray([TAG_AUDIENCE])
        encoded = sorted(p.encode() for p in self.predicates)
        write_uint_field(out, len(encoded))
        for e in encoded:
            write_field(out, e)
        return bytes(out)

    @classmethod
    def _decode_body(cls, r: Reader) -> "Audience":
        count = r.read_uint_field()
        preds = [Predicate.decode(r.read_field()) for _ in range(count)]
        return cls(frozenset(preds))


@dataclass(frozen=True)
class DataRequest:
    """Names the kind of data wanted and its required fields."""

    schema_id: str
    fields: tuple = ()

    def __post_init__(self):
        if not self.schema_id:
            raise MessageError("schema_id must be non-empty")
        object.__setattr__(self, "fields", tuple(self.fields))

    def encode(self) -> bytes:
        out = bytearray([TAG_DATA_REQUEST])
        write_field(out, self.schema_id.encode())
        write_uint_field(out, len(self.fields))
        for name in self.fields:
            write_field(out, name.encode())
        return bytes(out)

    @classmethod
    def _decode_body(cls, r: Reader) -> "DataRequest":
        schema_id = r.read_field().decode()
        count = r.read_uint_field()
        names = tuple(r.read_field().decode() for _ in range(count))
        return cls(schema_id, names)


@dataclass(frozen=True)
class DataOrder:
    """Buyer's signed query: audience filter, data request, buyer key,
    upload endpoint, minimum audit budget, and terms link."""

    audience: Audience
    request: DataRequest
    buyer_pk: bytes
    upload_url: str
    min_audit_budget: int
    terms: bytes
    buyer_signature: bytes = b""

    @_memoized
    def signing_bytes(self) -> bytes:
        out = bytearray([TAG_DATA_ORDER])
        write_field(out, self.audience.encode())
        write_field(out, self.request.encode())
        write_field(out, self.buyer_pk)
        write_field(out, self.upload_url.encode())
        write_uint_field(out, self.min_audit_budget)
        write_field(out, self.terms)
        return bytes(out)

    @_memoized
    def encode(self) -> bytes:
        out = bytearray(self.signing_bytes())
        write_field(out, self.buyer_signature)
        return bytes(out)

    @_memoized
    def digest(self) -> bytes:
        return crypto.sha256(self.encode())

    @_memoized
    def verify_signature(self) -> bool:
        return crypto.verify(self.buyer_pk, self.signing_bytes(), self.buyer_signature)

    @classmethod
    def _decode_body(cls, r: Reader) -> "DataOrder":
        audience = decode(r.read_field())
        request = decode(r.read_field())
        if not isinstance(audience, Audience) or not isinstance(request, DataRequest):
            raise EncodingError("order sub-messages have wrong tags")
        return cls(
            audience=audience,
            request=request,
            buyer_pk=r.read_field(),
            upload_url=r.read_field().decode(),
            min_audit_budget=r.read_uint_field(),
            terms=r.read_field(),
            buyer_signature=r.read_field(),
        )


@dataclass(frozen=True)
class NotaryTerms:
    """A notary's countersigned fee and terms of service for one order."""

    notary_pk: bytes
    notary_address: Address
    fee: int
    service_terms: bytes
    order_digest: bytes
    notary_signature: bytes = b""

    @_memoized
    def signing_bytes(self) -> bytes:
        out = bytearray([TAG_NOTARY_TERMS])
        write_field(out, self.notary_pk)
        write_field(out, self.notary_address.bytes)
        write_uint_field(out, self.fee)
        write_field(out, self.service_terms)
        write_field(out, self.order_digest)
        return bytes(out)

    @_memoized
    def encode(self) -> bytes:
        out = bytearray(self.signing_bytes())
        write_field(out, self.notary_signature)
        return bytes(out)

    @_memoized
    def verify_signature(self) -> bool:
        return (
            crypto.derive_address(self.notary_pk) == self.notary_address
            and crypto.verify(self.notary_pk, self.signing_bytes(), self.notary_signature)
        )

    @classmethod
    def _decode_body(cls, r: Reader) -> "NotaryTerms":
        return cls(
            notary_pk=r.read_field(),
            notary_address=Address(r.read_field()),
            fee=r.read_uint_field(),
            service_terms=r.read_field(),
            order_digest=r.read_field(),
            notary_signature=r.read_field(),
        )


@dataclass(frozen=True)
class DataResponse:
    """Seller's signed offer: payment address, order reference, price,
    salted commitment, and chosen notary. Carries no plaintext data and no
    salt; both stay with the seller until delivery."""

    seller_pk: bytes
    payment_address: Address
    order_ref: bytes
    price: int
    commitment: Commitment
    chosen_notary: Address
    terms: bytes
    seller_signature: bytes = b""

    @_memoized
    def signing_bytes(self) -> bytes:
        out = bytearray([TAG_DATA_RESPONSE])
        write_field(out, self.seller_pk)
        write_field(out, self.payment_address.bytes)
        write_field(out, self.order_ref)
        write_uint_field(out, self.price)
        write_field(out, self.commitment.digest)
        write_field(out, self.chosen_notary.bytes)
        write_field(out, self.terms)
        return bytes(out)

    @_memoized
    def encode(self) -> bytes:
        out = bytearray(self.signing_bytes())
        write_field(out, self.seller_signature)
        return bytes(out)

    @_memoized
    def digest(self) -> bytes:
        return crypto.sha256(self.encode())

    @_memoized
    def verify_signature(self) -> bool:
        return (
            crypto.derive_address(self.seller_pk) == self.payment_address
            and crypto.verify(self.seller_pk, self.signing_bytes(), self.seller_signature)
        )

    @classmethod
    def _decode_body(cls, r: Reader) -> "DataResponse":
        return cls(
            seller_pk=r.read_field(),
            payment_address=Address(r.read_field()),
            order_ref=r.read_field(),
            price=r.read_uint_field(),
            commitment=Commitment(r.read_field()),
            chosen_notary=Address(r.read_field()),
            terms=r.read_field(),
            seller_signature=r.read_field(),
        )


@dataclass(frozen=True)
class NotaryCertificate:
    """Notary-signed verdict binding one (order, response) pair."""

    notary_pk: bytes
    order_ref: bytes
    response_digest: bytes
    verdict: Verdict
    notary_signature: bytes = b""

    @_memoized
    def signing_bytes(self) -> bytes:
        out = bytearray([TAG_CERTIFICATE])
        write_field(out, self.notary_pk)
        write_field(out, self.order_ref)
        write_field(out, self.response_digest)
        write_field(out, bytes([self.verdict.value]))
        return bytes(out)

    @_memoized
    def encode(self) -> bytes:
        out = bytearray(self.signing_bytes())
        write_field(out, self.notary_signature)
        return bytes(out)

    @_memoized
    def verify_signature(self) -> bool:
        return crypto.verify(self.notary_pk, self.signing_bytes(), self.notary_signature)

    @classmethod
    def _decode_body(cls, r: Reader) -> "NotaryCertificate":
        return cls(
            notary_pk=r.read_field(),
            order_ref=r.read_field(),
            response_digest=r.read_field(),
            verdict=Verdict(r.read_field()[0]),
            notary_signature=r.read_field(),
        )


@dataclass(frozen=True)
class PayloadDelivery:
    """Seller's post-selection upload: the (salt, data) pair encrypted under
    the buyer's public key, tied to the response it fulfils."""

    response_digest: bytes
    ciphertext: bytes

    def encode(self) -> bytes:
        out = bytearray([TAG_PAYLOAD_DELIVERY])
        write_field(out, self.response_digest)
        write_field(out, self.ciphertext)
        return bytes(out)

    @classmethod
    def _decode_body(cls, r: Reader) -> "PayloadDelivery":
        return cls(response_digest=r.read_field(), ciphertext=r.read_field())


@dataclass(frozen=True)
class NotarizationRequest:
    """Buyer's request for a settlement certificate. The audit material
    (salt and data, as delivered) is encrypted under the notary's key; an
    empty ciphertext marks a delivery the buyer could not decrypt."""

    order_ref: bytes
    response_bytes: bytes
    forced: bool
    audit_ciphertext: bytes

    def encode(self) -> bytes:
        out = bytearray([TAG_NOTARIZATION_REQUEST])
        write_field(out, self.order_ref)
        write_field(out, self.response_bytes)
        write_uint_field(out, 1 if self.forced else 0)
        write_field(out, self.audit_ciphertext)
        return bytes(out)

    @classmethod
    def _decode_body(cls, r: Reader) -> "NotarizationRequest":
        return cls(
            order_ref=r.read_field(),
            response_bytes=r.read_field(),
            forced=bool(r.read_uint_field()),
            audit_ciphertext=r.read_field(),
        )


_DECODERS = {
    TAG_AUDIENCE: Audience,
    TAG_DATA_REQUEST: DataRequest,
    TAG_DATA_ORDER: DataOrder,
    TAG_NOTARY_TERMS: NotaryTerms,
    TAG_DATA_RESPONSE: DataResponse,
    TAG_CERTIFICATE: NotaryCertificate,
    TAG_PAYLOAD_DELIVERY: PayloadDelivery,
    TAG_NOTARIZATION_REQUEST: NotarizationRequest,
}

Message = Union[
    Audience,
    DataRequest,
    DataOrder,
    NotaryTerms,
    DataResponse,
    NotaryCertificate,
    PayloadDelivery,
    NotarizationRequest,
]


def canonical_encode(message: Message) -> bytes:
    return message.encode()


def decode(data: bytes) -> Message:
    r = Reader(data)
    tag = r.read_byte()
    cls = _DECODERS.get(tag)
    if cls is None:
        raise EncodingError(f"unknown message tag {tag}")
    msg = cls._decode_body(r)
    r.expect_end()
    return msg


def terms_link(text: Union[str, bytes]) -> bytes:
    """Content-addressed link to a terms-and-conditions document."""
    if isinstance(text, str):
        text = text.encode()
    return crypto.sha256(text)


def encode_payload_plaintext(salt: bytes, data: bytes) -> bytes:
    out = bytearray()
    write_field(out, salt)
    write_field(out, data)
    return bytes(out)


def parse_payload_plaintext(plaintext: bytes):
    r = Reader(plaintext)
    salt = r.read_field()
    data = r.read_field()
    r.expect_end()
    return salt, data


def build_data_order(
    buyer_keys: crypto.KeyPair,
    audience: Audience,
    request: DataRequest,
    upload_url: str,
    min_audit_budget: int,
    terms: bytes,
) -> DataOrder:
    if min_audit_budget < 0:
        raise MessageError("minimum audit budget must be >= 0")
    order = DataOrder(
        audience=audience,
        request=request,
        buyer_pk=buyer_keys.public_key,
        upload_url=upload_url,
        min_audit_budget=min_audit_budget,
        terms=terms,
    )
    sig = crypto.sign(buyer_keys.secret_key, order.signing_bytes())
    return DataOrder(**{**_asdict_shallow(order), "buyer_signature": sig})


def countersign_order(
    notary_keys: crypto.KeyPair,
    order: DataOrder,
    fee: int,
    service_terms: bytes,
) -> NotaryTerms:
    if not order.verify_signature():
        raise MessageError("order buyer signature does not verify; refusing to countersign")
    if fee < 0:
        raise MessageError("fee must be >= 0")
    terms = NotaryTerms(
        notary_pk=notary_keys.public_key,
        notary_address=crypto.derive_address(notary_keys.public_key),
        fee=fee,
        service_terms=service_terms,
        order_digest=order.digest(),
    )
    sig = crypto.sign(notary_keys.secret_key, terms.signing_bytes())
    return NotaryTerms(**{**_asdict_shallow(terms), "notary_signature": sig})


def build_data_response(
    seller_keys: crypto.KeyPair,
    order: DataOrder,
    price: int,
    data: bytes,
    chosen_notary: Address,
    notary_list: Sequence[NotaryTerms],
    posted_price: int,
    salt: bytes = None,
):
    """Build a signed offer for `order`. Returns (response, salt); the salt
    never leaves the seller until payload delivery."""
    if chosen_notary not in {nt.notary_address for nt in notary_list}:
        raise MessageError("chosen notary is not in the order's notary list")
    if price != posted_price:
        raise MessageError(f"price {price} does not match the posted price {posted_price}")
    if salt is None:
        salt = secrets.token_bytes(crypto.SALT_LEN)
    response = DataResponse(
        seller_pk=seller_keys.public_key,
        payment_address=crypto.derive_address(seller_keys.public_key),
        order_ref=order.digest(),
        price=price,
        commitment=crypto.commit(salt, data),
        chosen_notary=chosen_notary,
        terms=order.terms,
    )
    sig = crypto.sign(seller_keys.secret_key, response.signing_bytes())
    return DataResponse(**{**_asdict_shallow(response), "seller_signature": sig}), salt


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failures: tuple = ()


def validate_response(
    response: DataResponse,
    order: DataOrder,
    notary_list: Sequence[NotaryTerms],
    posted_price: int,
) -> ValidationResult:
    """Buyer-side screening before selection; each failed check is reported
    distinctly."""
    failures = []
    if not response.verify_signature():
        failures.append("signature")
    if response.order_ref != order.digest():
        failures.append("order-mismatch")
    if response.price != posted_price:
        failures.append("price")
    if response.chosen_notary not in {nt.notary_address for nt in notary_list}:
        failures.append("notary-not-listed")
    if response.terms != order.terms:
        failures.append("terms")
    return ValidationResult(ok=not failures, failures=tuple(failures))


def issue_certificate(
    notary_keys: crypto.KeyPair,
    order_ref: bytes,
    response: DataResponse,
    verdict: Verdict,
) -> NotaryCertificate:
    cert = NotaryCertificate(
        notary_pk=notary_keys.public_key,
        order_ref=order_ref,
        response_digest=response.digest(),
        verdict=verdict,
    )
    sig = crypto.sign(notary_keys.secret_key, cert.signing_bytes())
    return NotaryCertificate(**{**_asdict_shallow(cert), "notary_signature": sig})


def _asdict_shallow(msg) -> dict:
    return {f.name: getattr(msg, f.name) for f in dataclass_fields(msg)}
