"""Protocol message types, their canonical byte encoding, and the
constructors/validators each participant uses.

Each type's layout is its dataclass field list: `_layout` attaches an
`encoding.Layout` of the fields in order, each written by the codec of
`encoding` that its annotation names, after the type's tag byte. A
`PublicKey`, `Address` or `Commitment` field is plain `bytes` whose codec
checks its size on write and on read: no message that holds one of the
wrong size is encoded, signed or decoded. `decode` is a tag check and
`_build`, which runs the layout's generated reader in place, over a range
of a larger buffer when the message is nested in one; `encode` and
`signing_bytes` are the layout's generated writer. Decoding is total and
canonical: it raises only `EncodingError`, and whatever decodes re-encodes
to its input.

Signed types expose `signing_bytes()` (the canonical encoding of every
field before the signature) and `encode()` (signing bytes plus the
signature field). They are frozen, so each instance computes its encodings,
digest, signer address and signature check once (see `_memoized`), and all
copies of one message share one check through a memo (`_verifies`). A
decoded signed message is built without its constructor and keeps only its
fields and its input, as its encoding, in its `__dict__`; `signing_bytes()`
cuts them from that encoding on first use. No field repeats a fact another
fixes: a signer's address is derived from its key, and a response names its
order only by digest.

A notary signs certificates in batches of at most `CERTIFICATE_BATCH`: one
signature covers a tag byte no message has, the batch size and the RFC 6962
Merkle root over the certificates' leaves (`NotaryCertificate`).

The seller's offer deliberately has no plaintext-data field and no salt
field: only the salted commitment is signed and published, and the salt is
revealed off-chain at delivery time inside the encrypted payload.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import TYPE_CHECKING, Annotated, Dict, Mapping, Optional, Union
from typing import get_origin, get_type_hints

from . import crypto
from .encoding import (
    ADDRESS,
    COMMITMENT,
    FLAG,
    PUBLIC_KEY,
    RAW,
    U64,
    UTF8,
    Codec,
    Layout,
    ListOf,
    SetOf,
    decode_uint,
    encode_uint,
    enum_byte,
    nested,
    field_end,
    require_ascending,
    write_field,
)
from .errors import EncodingError, MessageError

if TYPE_CHECKING:
    from .ledger import OrderContract

TAG_AUDIENCE = 1
TAG_DATA_REQUEST = 2
TAG_DATA_ORDER = 3
TAG_NOTARY_TERMS = 4
TAG_DATA_RESPONSE = 5
TAG_CERTIFICATE = 6
TAG_PAYLOAD_DELIVERY = 7
TAG_NOTARIZATION_REQUEST = 8
TAG_CERTIFICATE_ROOT = 9  # what a certificate's signature covers; no message has this tag
CERTIFICATE_BATCH = 16  # certificates per signed root, so an audit path holds at most 4 hashes
VERIFY_MEMO = 256  # signature checks remembered: more than a ladder tick has in flight

PredicateValue = Union[int, str, frozenset]
PublicKey = Annotated[bytes, PUBLIC_KEY]
Address = Annotated[bytes, ADDRESS]
Commitment = Annotated[bytes, COMMITMENT]


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
    the instance `__dict__` under `_memo_<name>`. Only for frozen
    dataclasses: their fields never change, so the kept value cannot go
    stale, and a changed copy (made with `dataclasses.replace`) is a new
    instance with no memo."""
    key = "_memo_" + method.__name__

    @functools.wraps(method)
    def wrapper(self):
        memo = self.__dict__
        value = memo.get(key)
        if value is None:
            value = memo[key] = method(self)
        return value

    return wrapper


class Message:
    """Base of every message type; `_layout` sets a type's layout."""

    _PREFIX = b""  # the type's tag byte, if it has one
    _NAMES: tuple = ()  # the field names, in field order
    _LAYOUT: Layout  # every field, by name
    _SIGNER: Optional[str] = None  # the name of the one `PublicKey` field, if any

    def encode(self) -> bytes:
        return self._LAYOUT.encode(self, self._PREFIX)

    @classmethod
    def decode(cls, data: bytes, start: int = 0, end: Optional[int] = None):
        """The `cls` that `data[start:end]` encodes, read in place; raises
        EncodingError unless those bytes are exactly what some `cls` encodes to."""
        if not data.startswith(cls._PREFIX, start, end):
            raise EncodingError(f"expected a {cls.__name__}")
        return cls._build(data, start, end)

    @classmethod
    def _build(cls, data: bytes, start: int, end: int):
        values = cls._LAYOUT.read(data, start + len(cls._PREFIX), end)
        try:
            return cls(*values)
        except MessageError as exc:
            raise EncodingError(f"invalid {cls.__name__}: {exc}") from None


@functools.lru_cache(maxsize=VERIFY_MEMO)
def _verifies(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """`crypto.verify`, remembered for copies of one message and a batch root's certificates."""
    return crypto.verify(public_key, message, signature)


class _Signed(Message):
    """Base of the signed types. The last field is the signature, by the
    key in the type's one `PublicKey` field, over the encoding of the fields
    before it (a certificate's is over its batch's root instead)."""

    _SIGNING: Layout  # every field before the signature, by name

    @property
    def signature(self) -> bytes:
        return getattr(self, self._NAMES[-1])

    @_memoized
    def signing_bytes(self) -> bytes:
        data = self.__dict__.get("_memo_encode")  # a decoded message's input
        if data is None:
            return self._SIGNING.encode(self, self._PREFIX)
        return data[: -4 - len(self.signature)]  # all but the signature field

    @_memoized
    def encode(self) -> bytes:
        out = bytearray(self.signing_bytes())
        write_field(out, self.signature)
        return bytes(out)

    @_memoized
    def digest(self) -> bytes:
        return crypto.sha256(self.encode())

    @_memoized
    def signer_address(self) -> Address:
        return crypto.derive_address(getattr(self, self._SIGNER))

    @_memoized
    def verify_signature(self) -> bool:
        return _verifies(getattr(self, self._SIGNER), self.signing_bytes(), self.signature)

    @classmethod
    def _build(cls, data: bytes, start: int, end: int):
        # No signed type has a __post_init__, so the reader sets the fields
        # directly, without the generated __init__. Decoding is canonical, so
        # `data[start:end]` is the message's own encoding.
        msg = object.__new__(cls)
        fields = cls._LAYOUT.read(data, start + len(cls._PREFIX), end, msg.__dict__)
        fields["_memo_encode"] = data[start:end]
        return msg


_BY_TAG: Dict[int, type] = {}
_SCALARS = {bytes: RAW, int: U64, str: UTF8, bool: FLAG}


def _codec(hint) -> Codec:
    """The codec a field annotation names: the one given in `Annotated`,
    a byte per enum member, a nested message, or a scalar's."""
    if get_origin(hint) is Annotated:
        return hint.__metadata__[0]
    if issubclass(hint, enum.Enum):
        return enum_byte(hint)
    if issubclass(hint, Message):
        return nested(hint)
    return _SCALARS[hint]


def _layout(tag: Optional[int] = None):
    """Make the decorated class a frozen dataclass whose fields, in order
    after the `tag` byte, are its layout, and let `decode` find it by tag."""

    def wrap(cls):
        cls = dataclass(frozen=True)(cls)
        hints = get_type_hints(cls, include_extras=True)
        cls._PREFIX = b"" if tag is None else bytes([tag])
        cls._NAMES = names = tuple(f.name for f in dataclass_fields(cls))
        codecs = tuple(_codec(hints[name]) for name in names)
        cls._LAYOUT = Layout(codecs, names)
        if issubclass(cls, _Signed):
            cls._SIGNING = Layout(codecs[:-1], names[:-1])
        cls._SIGNER = next((n for n, c in zip(names, codecs) if c is PUBLIC_KEY), None)
        if tag is not None:
            _BY_TAG[tag] = cls
        return cls

    return wrap


def _predicate_value_bytes(value: PredicateValue) -> bytes:
    """An int as b"i" and 8 bytes, a string as b"s" and its UTF-8, a set as
    b"S" and one field per item as a string, in ascending order."""
    if isinstance(value, bool):
        raise MessageError("boolean predicate values are not supported")
    if isinstance(value, int):
        return b"i" + encode_uint(value)
    if isinstance(value, str):
        return b"s" + value.encode()
    if isinstance(value, frozenset):
        out = bytearray(b"S")
        for item in sorted(str(item) for item in value):
            write_field(out, item.encode())
        return bytes(out)
    raise MessageError(f"unsupported predicate value type: {type(value).__name__}")


def _predicate_value(data: bytes) -> PredicateValue:
    kind, body = data[:1], data[1:]
    if kind == b"i":
        return decode_uint(body)
    if kind == b"s":
        return UTF8.from_bytes(body)
    if kind == b"S":
        items, pos = [], 1
        while pos < len(data):
            start, pos = pos + 4, field_end(data, pos)
            items.append(UTF8.from_bytes(data[start:pos]))
        require_ascending(items)
        return frozenset(items)
    raise EncodingError(f"unknown predicate value kind {kind!r}")


@_layout()
class Predicate(Message):
    attribute: str
    op: Comparator
    value: Annotated[PredicateValue, Codec(_predicate_value_bytes, _predicate_value)]

    def __post_init__(self):
        if not self.attribute:
            raise MessageError("predicate attribute name must be non-empty")
        if self.op is Comparator.IN and not isinstance(self.value, frozenset):
            if isinstance(self.value, (int, str)):
                raise MessageError("IN takes a set of values")
            object.__setattr__(self, "value", frozenset(self.value))

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
        except (TypeError, ValueError, OverflowError):
            return False
        return actual_n >= bound if self.op is Comparator.GE else actual_n <= bound


@_layout(TAG_AUDIENCE)
class Audience(Message):
    """Conjunctive attribute filter over seller profiles; empty matches all."""

    predicates: Annotated[frozenset, SetOf(nested(Predicate), key=Predicate.encode)]

    def __post_init__(self):
        object.__setattr__(self, "predicates", frozenset(self.predicates))

    def matches(self, attributes: Mapping[str, object]) -> bool:
        return all(p.matches(attributes) for p in self.predicates)


@_layout(TAG_DATA_REQUEST)
class DataRequest(Message):
    """Names the kind of data wanted and its required fields."""

    schema_id: str
    fields: Annotated[tuple, ListOf(UTF8)] = ()

    def __post_init__(self):
        if not self.schema_id:
            raise MessageError("schema_id must be non-empty")
        object.__setattr__(self, "fields", tuple(self.fields))


@_layout(TAG_DATA_ORDER)
class DataOrder(_Signed):
    """Buyer's signed query: audience filter, data request, buyer key,
    upload endpoint, minimum audit budget, a nonce that tells apart
    otherwise identical orders from one buyer, and terms link."""

    audience: Audience
    request: DataRequest
    buyer_pk: PublicKey
    upload_url: str
    min_audit_budget: int
    nonce: int
    terms: bytes
    buyer_signature: bytes = b""


@_layout(TAG_NOTARY_TERMS)
class NotaryTerms(_Signed):
    """A notary's countersigned fee and terms of service for one order."""

    notary_pk: PublicKey
    fee: int
    service_terms: bytes
    order_digest: bytes
    notary_signature: bytes = b""

    notary_address = property(_Signed.signer_address)


@_layout(TAG_DATA_RESPONSE)
class DataResponse(_Signed):
    """Seller's signed offer: seller key, order reference, price, salted
    commitment, and chosen notary. Carries no plaintext data and no salt;
    both stay with the seller until delivery."""

    seller_pk: PublicKey
    order_ref: bytes
    price: int
    commitment: Commitment
    chosen_notary: Address
    seller_signature: bytes = b""

    payment_address = property(_Signed.signer_address)  # the seller is paid at its key's address


@_layout(TAG_CERTIFICATE)
class NotaryCertificate(_Signed):
    """Notary-signed verdict binding one (order, response) pair. Its leaf is
    its order, response and verdict fields, and `audit_path` proves it leaf
    `leaf_index` of `batch_size` under the signed root; a lone certificate
    is leaf 0 of 1. Each distinct root signature is checked once."""

    notary_pk: PublicKey
    order_ref: bytes
    response_digest: bytes
    verdict: Verdict
    leaf_index: int = 0
    batch_size: int = 1
    audit_path: bytes = b""
    notary_signature: bytes = b""

    _LEAF = Layout((RAW, RAW, enum_byte(Verdict)))  # a leaf: its order, response and verdict

    @staticmethod
    def _root_message(batch_size: int, root: bytes) -> bytes:
        return bytes([TAG_CERTIFICATE_ROOT]) + encode_uint(batch_size) + root

    @_memoized
    def verify_signature(self) -> bool:
        leaf = self._LEAF.encode((self.order_ref, self.response_digest, self.verdict))
        root = crypto.merkle_fold(leaf, self.leaf_index, self.batch_size, self.audit_path)
        return root is not None and _verifies(
            self.notary_pk, self._root_message(self.batch_size, root), self.notary_signature
        )

    @classmethod
    def _build(cls, data: bytes, start: int, end: int):
        cert = super()._build(data, start, end)
        index, size, path = cert.leaf_index, cert.batch_size, cert.audit_path
        in_batch = index < size <= CERTIFICATE_BATCH
        if not in_batch or len(path) != crypto.DIGEST_LEN * crypto.merkle_path_length(index, size):
            raise EncodingError(f"no leaf {index} of {size} has a {len(path)}-byte audit path")
        return cert


@_layout(TAG_PAYLOAD_DELIVERY)
class PayloadDelivery(Message):
    """Seller's post-selection upload: the (salt, data) pair encrypted under
    the buyer's public key, tied to the response it fulfils."""

    response_digest: bytes
    ciphertext: bytes


@_layout(TAG_NOTARIZATION_REQUEST)
class NotarizationRequest(Message):
    """Buyer's request for a settlement certificate for the response that
    the order's contract records under `response_digest`; the notary audits
    that recorded copy. The audit material (salt and data, as delivered) is
    encrypted under the notary's key: a buyer seals one order's requests to
    one notary under one key agreement and re-sends each byte for byte. An
    empty ciphertext marks a delivery the buyer could not decrypt."""

    order_ref: bytes
    response_digest: bytes
    forced: bool
    audit_ciphertext: bytes


def decode(data: bytes) -> Message:
    """The message `data` encodes, of the type its tag byte names."""
    if not data:
        raise EncodingError("truncated stream: expected tag byte")
    cls = _BY_TAG.get(data[0])
    if cls is None:
        raise EncodingError(f"unknown message tag {data[0]}")
    return cls.decode(data)


def signed(keys: crypto.KeyPair, message: _Signed) -> _Signed:
    """A copy of `message` carrying `keys`' signature over its signing bytes."""
    signing_bytes = message.signing_bytes()
    sig = crypto.sign(keys.secret_key, signing_bytes)
    copy = replace(message, **{message._NAMES[-1]: sig})
    copy.__dict__["_memo_signing_bytes"] = signing_bytes
    return copy


def terms_link(text: Union[str, bytes]) -> bytes:
    """Content-addressed link to a terms-and-conditions document."""
    if isinstance(text, str):
        text = text.encode()
    return crypto.sha256(text)


_PAYLOAD_PLAINTEXT = Layout((RAW, RAW))


def encode_payload_plaintext(salt: bytes, data: bytes) -> bytes:
    return _PAYLOAD_PLAINTEXT.encode((salt, data))


def parse_payload_plaintext(plaintext: bytes):
    salt, data = _PAYLOAD_PLAINTEXT.read(plaintext)
    return salt, data


def build_data_order(
    buyer_keys: crypto.KeyPair,
    audience: Audience,
    request: DataRequest,
    upload_url: str,
    min_audit_budget: int,
    terms: bytes,
    nonce: int = 0,
) -> DataOrder:
    if min_audit_budget < 0:
        raise MessageError("minimum audit budget must be >= 0")
    order = DataOrder(
        audience=audience,
        request=request,
        buyer_pk=buyer_keys.public_key,
        upload_url=upload_url,
        min_audit_budget=min_audit_budget,
        nonce=nonce,
        terms=terms,
    )
    return signed(buyer_keys, order)


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
        fee=fee,
        service_terms=service_terms,
        order_digest=order.digest(),
    )
    return signed(notary_keys, terms)


def build_data_response(
    seller_keys: crypto.KeyPair,
    order: DataOrder,
    price: int,
    data: bytes,
    chosen_notary: Address,
    salt: bytes,
) -> DataResponse:
    """Build a signed offer for `order` at `price`, naming `chosen_notary`,
    that commits to `data` under `salt`; the salt never leaves the seller
    until payload delivery. Whether the price and notary fit the order is
    judged by `validate_response`, the one rule list that the buyer's screen
    and the ledger's selection both apply, not here."""
    response = DataResponse(
        seller_pk=seller_keys.public_key,
        order_ref=order.digest(),
        price=price,
        commitment=crypto.commit(salt, data),
        chosen_notary=chosen_notary,
    )
    return signed(seller_keys, response)


def validate_response(response: DataResponse, contract: OrderContract) -> tuple:
    """The one list of rules a response must meet to be selected on
    `contract`, live or replayed, for the buyer's screen and the ledger
    alike: the names of the rules `response` fails, each reported distinctly;
    empty when it is valid. Its signature is checked where it enters the
    ledger (`Ledger.select_sellers`)."""
    checks = (
        ("order-mismatch", response.order_ref == contract.order_digest),
        ("price", response.price == contract.price),
        ("notary-not-listed", response.chosen_notary in contract.notary_terms),
    )
    return tuple(name for name, passed in checks if not passed)


def issue_certificates(notary_keys: crypto.KeyPair, claims: Sequence[tuple]) -> list:
    """One certificate per (order digest, response, verdict) claim, in
    order, with one signed root per `CERTIFICATE_BATCH` claims."""
    certs, key = [], notary_keys.public_key
    for start in range(0, len(claims), CERTIFICATE_BATCH):
        batch = [(ref, r.digest(), v) for ref, r, v in claims[start : start + CERTIFICATE_BATCH]]
        root, paths = crypto.merkle_tree([NotaryCertificate._LEAF.encode(c) for c in batch])
        message = NotaryCertificate._root_message(len(batch), root)
        signature = crypto.sign(notary_keys.secret_key, message)
        for index, (claim, path) in enumerate(zip(batch, paths)):
            certs.append(NotaryCertificate(key, *claim, index, len(batch), path, signature))
    return certs


def issue_certificate(
    notary_keys: crypto.KeyPair, order_ref: bytes, response: DataResponse, verdict: Verdict
) -> NotaryCertificate:
    """A certificate that is the only leaf of its batch."""
    (cert,) = issue_certificates(notary_keys, [(order_ref, response, verdict)])
    return cert
