"""Key management, addresses, salted hash commitments, signatures, and the
hybrid encryption envelope for payload delivery.

Each identity carries two keys derived from one 32-byte seed: an Ed25519
signing key and an X25519 encryption key. Public key bytes are the
concatenation signing-pub (32) || encryption-pub (32). The secret key is a
`SecretKey` that holds the seed, libsodium's 64-byte Ed25519 secret (seed ||
signing-pub) and the parsed X25519 key, derived once with the pair; it
compares by seed and prints none of them. Addresses are the first 20 bytes
of SHA-256 over the public key bytes. Ed25519 runs on the system libsodium,
opened through `ctypes` on first use: signatures are RFC 8032's, byte for
byte OpenSSL's, and verification refuses small-order keys and small-order R.

Envelopes are ECIES-style, shaped like an RFC 9180 (HPKE) context: a
`Sealer` runs one ephemeral X25519 agreement and HKDF-SHA256 derivation,
then seals any number of plaintexts with ChaCha20-Poly1305. An envelope is
`ephemeral public (32) || sequence (u64, big-endian) || ciphertext + tag`,
sealed under the nonce `4 zero bytes || sequence`. The sequence starts at 0
and is never reused, so each (key, nonce) pair seals one plaintext, and it
is authenticated because it is the nonce. An `Opener` is the recipient's
side of one agreement. Both keep the derived key, not a 2.4 KB AEAD object.
A seller's deliveries to one buyer share one agreement, as do one order's
audit copies to one notary; the shared ephemeral key reveals nothing new, as
offers and transport envelopes name their sender. The one-shot `encrypt_for`
and `decrypt` serve tests and the benchmark's micro-benchmarks and traces.
Tampering or a wrong key raises DecryptionError.

Merkle trees hash as RFC 6962 does: a leaf is SHA-256 over 0x00 || data, a
node over 0x01 || left || right, and n > 1 leaves split at the largest power
of two below n. An audit path is the siblings' hashes from the leaf up.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from cryptography.exceptions import InvalidTag as _InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import CryptoError, DecryptionError

SEED_LEN = 32
SALT_LEN = 32
ADDRESS_LEN = 20
PUBLIC_KEY_LEN = 64
SIGNATURE_LEN = 64
DIGEST_LEN = 32
# How many recent keys `derive_address` remembers: more than the ~170 keys
# one 160 x 40 ladder journal names, so a replay derives each address once.
ADDRESS_MEMO = 256

_ENC_SEED_INFO = b"datamarket-enc-key-v1"
_ENVELOPE_INFO = b"datamarket-envelope-v1"
_NONCE_PAD = bytes(4)  # a nonce is these || the envelope's sequence
_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw
# Tried in order; `ctypes.util.find_library` would run `ldconfig` in a subprocess.
_SODIUM_NAMES = ("libsodium.so.23", "libsodium.so", "libsodium.23.dylib", "libsodium.dylib")
_P, _LEN = ctypes.c_char_p, ctypes.c_ulonglong
_SODIUM_ARGTYPES = {
    "sodium_init": [],
    "crypto_sign_seed_keypair": [_P, _P, _P],  # pk, sk, seed
    "crypto_sign_detached": [_P, ctypes.c_void_p, _P, _LEN, _P],  # sig, siglen, m, mlen, sk
    "crypto_sign_verify_detached": [_P, _P, _LEN, _P],  # sig, m, mlen, pk
}


@functools.cache
def _sodium() -> ctypes.CDLL:
    """The system libsodium, opened and initialised on first use."""
    for name in _SODIUM_NAMES:
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError:
            continue
    else:
        raise CryptoError(f"Ed25519 needs the libsodium library; none of {_SODIUM_NAMES} loads")
    for function, argtypes in _SODIUM_ARGTYPES.items():
        getattr(lib, function).argtypes = argtypes
        getattr(lib, function).restype = ctypes.c_int
    if lib.sodium_init() < 0:
        raise CryptoError("libsodium failed to initialise")
    return lib


@dataclass(frozen=True)
class SecretKey:
    seed: bytes = field(repr=False)
    signing: bytes = field(compare=False, repr=False)  # libsodium's seed || signing-pub
    decryption: X25519PrivateKey = field(compare=False, repr=False)
    encryption_public: bytes = field(compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.signing, bytes) or len(self.signing) != 64:
            raise CryptoError("an Ed25519 secret must be 64 bytes")


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    secret_key: SecretKey


@dataclass(frozen=True, order=True)
class Address:
    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != ADDRESS_LEN:
            raise CryptoError(f"address must be {ADDRESS_LEN} bytes")

    @property
    def hex(self) -> str:
        return self.bytes.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex})"


@dataclass(frozen=True)
class Commitment:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_LEN:
            raise CryptoError(f"commitment digest must be {DIGEST_LEN} bytes")

    @property
    def hex(self) -> str:
        return self.digest.hex()


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def generate_keypair(seed: bytes) -> KeyPair:
    """Deterministically derive a signing + encryption key pair from a seed."""
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_LEN:
        raise CryptoError(f"seed must be {SEED_LEN} bytes")
    seed = bytes(seed)
    sign_pub, sign_sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
    _sodium().crypto_sign_seed_keypair(sign_pub, sign_sk, seed)
    enc_sk = X25519PrivateKey.from_private_bytes(sha256(seed + _ENC_SEED_INFO))
    enc_pub = enc_sk.public_key().public_bytes(_RAW, _RAW_PUB)
    return KeyPair(sign_pub.raw + enc_pub, SecretKey(seed, sign_sk.raw, enc_sk, enc_pub))


@functools.lru_cache(maxsize=ADDRESS_MEMO)
def derive_address(public_key: bytes) -> Address:
    if len(public_key) != PUBLIC_KEY_LEN:
        raise CryptoError(f"public key must be {PUBLIC_KEY_LEN} bytes")
    return Address(sha256(public_key)[:ADDRESS_LEN])


def commit(salt: bytes, data: bytes) -> Commitment:
    """SHA-256 over salt-prepended data: a 32-byte salt and non-empty data."""
    if len(salt) != SALT_LEN:
        raise CryptoError(f"salt must be {SALT_LEN} bytes")
    if len(data) == 0:
        raise CryptoError("data must be non-empty")
    return Commitment(sha256(salt + data))


def verify_commitment(salt: bytes, data: bytes, commitment: Commitment) -> bool:
    return sha256(salt + data) == commitment.digest


def sign(secret_key: SecretKey, message: bytes) -> bytes:
    message, signature = bytes(message), ctypes.create_string_buffer(SIGNATURE_LEN)
    _sodium().crypto_sign_detached(signature, None, message, len(message), secret_key.signing)
    return signature.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """False for a key or signature that is not `bytes` of its length."""
    if not (isinstance(public_key, bytes) and len(public_key) == PUBLIC_KEY_LEN):
        return False
    if not (isinstance(signature, bytes) and len(signature) == SIGNATURE_LEN):
        return False
    message, lib = bytes(message), _sodium()
    return lib.crypto_sign_verify_detached(signature, message, len(message), public_key[:32]) == 0


def _envelope_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    hkdf = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_ENVELOPE_INFO)
    return hkdf.derive(shared + eph_pub + recipient_pub)


class Sealer:
    """One key agreement with the holder of `public_key`. `entropy`, 32
    bytes, seeds the ephemeral key, so transcripts are reproducible."""

    def __init__(self, public_key: bytes, entropy: bytes):
        if len(public_key) != PUBLIC_KEY_LEN:
            raise CryptoError(f"public key must be {PUBLIC_KEY_LEN} bytes")
        if len(entropy) != 32:
            raise CryptoError("entropy must be 32 bytes")
        eph_sk = X25519PrivateKey.from_private_bytes(entropy)
        self.ephemeral_public = eph_sk.public_key().public_bytes(_RAW, _RAW_PUB)
        shared = eph_sk.exchange(X25519PublicKey.from_public_bytes(public_key[32:]))
        self._key = _envelope_key(shared, self.ephemeral_public, public_key[32:])
        self._sequence = 0

    def seal(self, plaintext: bytes) -> bytes:
        if len(plaintext) == 0:
            raise CryptoError("plaintext must be non-empty")
        sequence = self._sequence.to_bytes(8, "big")
        self._sequence += 1
        ciphertext = ChaCha20Poly1305(self._key).encrypt(_NONCE_PAD + sequence, plaintext, None)
        return self.ephemeral_public + sequence + ciphertext


class Opener:
    """The recipient's side of the agreement that `ephemeral_public` names."""

    def __init__(self, secret_key: SecretKey, ephemeral_public: bytes):
        try:
            peer = X25519PublicKey.from_public_bytes(ephemeral_public)
            shared = secret_key.decryption.exchange(peer)
        except ValueError as exc:
            raise DecryptionError("envelope names no usable ephemeral key") from exc
        self._key = _envelope_key(shared, ephemeral_public, secret_key.encryption_public)

    def open(self, envelope: bytes) -> bytes:
        """An envelope sealed under another agreement fails to authenticate."""
        nonce = _NONCE_PAD + envelope[32:40]
        try:
            return ChaCha20Poly1305(self._key).decrypt(nonce, envelope[40:], None)
        except (_InvalidTag, ValueError) as exc:  # ValueError: a nonce under 12 bytes
            raise DecryptionError("envelope failed to authenticate") from exc


def open_kept(openers: dict[bytes, Opener], secret_key: SecretKey, envelope: bytes) -> bytes:
    """Open `envelope` with the opener `openers` holds for its ephemeral key,
    or with a new one, kept only once the envelope authenticates."""
    opener = openers.get(envelope[:32]) or Opener(secret_key, envelope[:32])
    plaintext = opener.open(envelope)
    openers[envelope[:32]] = opener
    return plaintext


def encrypt_for(public_key: bytes, plaintext: bytes, entropy: bytes) -> bytes:
    """Seal one plaintext under a key agreement of its own."""
    return Sealer(public_key, entropy).seal(plaintext)


def decrypt(secret_key: SecretKey, envelope: bytes) -> bytes:
    return Opener(secret_key, envelope[:32]).open(envelope)


def merkle_tree(leaves: Sequence[bytes]) -> Tuple[bytes, List[bytes]]:
    """The root over one or more leaves, and each leaf's audit path."""
    if len(leaves) == 1:
        return sha256(b"\x00" + leaves[0]), [b""]
    k = 1 << ((len(leaves) - 1).bit_length() - 1)
    (left, left_paths), (right, right_paths) = merkle_tree(leaves[:k]), merkle_tree(leaves[k:])
    paths = [path + right for path in left_paths] + [path + left for path in right_paths]
    return sha256(b"\x01" + left + right), paths


def merkle_path_length(index: int, size: int) -> int:
    """Hashes in the audit path of leaf `index` < `size`, as Trillian counts
    them: levels below where it parts from the last leaf's, and left turns above."""
    inner = (index ^ (size - 1)).bit_length()
    return inner + bin(index >> inner).count("1")


def merkle_fold(leaf: bytes, index: int, size: int, path: bytes) -> Optional[bytes]:
    """The root that `path` proves `leaf` at `index` of `size` leaves under,
    or None if the path does not fit that place."""
    if not 0 <= index < size or len(path) != DIGEST_LEN * merkle_path_length(index, size):
        return None
    inner, root = (index ^ (size - 1)).bit_length(), sha256(b"\x00" + leaf)
    for level in range(len(path) // DIGEST_LEN):
        sibling = path[level * DIGEST_LEN : (level + 1) * DIGEST_LEN]
        on_left = level >= inner or index >> level & 1
        root = sha256(b"\x01" + (sibling + root if on_left else root + sibling))
    return root
