"""Key management, addresses, salted hash commitments, signatures, and the
hybrid encryption envelope for payload delivery.

Each identity carries two keys derived from one 32-byte seed: an Ed25519
signing key and an X25519 encryption key. Public key bytes are the
concatenation signing-pub (32) || encryption-pub (32). The secret key is a
`SecretKey` that holds the seed, libsodium's 64-byte Ed25519 secret (seed ||
signing-pub) and the 32-byte X25519 scalar, derived once with the pair; it
compares by seed and prints none of them. Addresses are the first 20 bytes
of SHA-256 over the public key bytes.

Every primitive but SHA-256 and HMAC runs on the system libsodium, opened
through `ctypes` on first use, so importing the package opens nothing.
Ed25519 signatures are RFC 8032's, byte for byte OpenSSL's, and verification
refuses small-order keys and small-order R. X25519 and ChaCha20-Poly1305 are
RFC 7748's and RFC 8439's; HKDF-SHA256 (RFC 5869) runs on stdlib `hmac`.
Every envelope is byte for byte what the `cryptography` (OpenSSL) versions
of the same primitives make. Lengths from the network are checked before
any C call, and libsodium's refusals raise `CryptoError` or
`DecryptionError`.

Envelopes are ECIES-style, shaped like an RFC 9180 (HPKE) context: a
`Sealer` runs one ephemeral X25519 agreement and HKDF-SHA256 derivation,
then seals any number of plaintexts with ChaCha20-Poly1305. An envelope is
`ephemeral public (32) || sequence (u64, big-endian) || ciphertext + tag`,
sealed under the nonce `4 zero bytes || sequence`. The sequence starts at 0
and is never reused, so each (key, nonce) pair seals one plaintext, and it
is authenticated because it is the nonce. An `Opener` is the recipient's
side of one agreement. Both keep only the 32-byte derived key.
A seller's deliveries to one buyer share one agreement, as do one order's
audit copies to one notary; the shared ephemeral key reveals nothing new, as
offers and transport envelopes name their sender. Nothing can be sealed to a
key whose X25519 half has small order (`sealable`): its shared secret would
be all zero, and libsodium refuses it. The one-shot `encrypt_for` and
`decrypt` serve tests and the benchmark's micro-benchmarks and traces.
Tampering or a wrong key raises DecryptionError.

Merkle trees hash as RFC 6962 does: a leaf is SHA-256 over 0x00 || data, a
node over 0x01 || left || right, and n > 1 leaves split at the largest power
of two below n. An audit path is the siblings' hashes from the leaf up.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import hmac
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
_TAG_LEN = 16  # ChaCha20-Poly1305's
_OPENABLE_LEN = 32 + 8 + _TAG_LEN  # the shortest envelope: ephemeral, sequence, tag
_HKDF_SALT = bytes(32)  # RFC 5869's default: one SHA-256 output of zeros
# The encodings libsodium's X25519 refuses: those of the points of order
# dividing 8 on Curve25519 and its twist (u = 0, 1, p - 1 and the two points
# of order 8), whose product with any clamped scalar is 0. X25519 ignores the
# top bit and reads u mod p = 2**255 - 19, so each u has two or four
# encodings: 14 in all.
_P25519 = 2**255 - 19
_SMALL_ORDER_U = (0, 1, _P25519 - 1) + tuple(
    int.from_bytes(bytes.fromhex(u), "little")
    for u in (
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    )
)
_SMALL_ORDER = frozenset(
    (v | top).to_bytes(32, "little")
    for u in _SMALL_ORDER_U
    for v in (u, u + _P25519)
    if v < 2**255
    for top in (0, 1 << 255)
)
# Tried in order; `ctypes.util.find_library` would run `ldconfig` in a subprocess.
_SODIUM_NAMES = ("libsodium.so.23", "libsodium.so", "libsodium.23.dylib", "libsodium.dylib")
_P, _LEN, _NULL = ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_void_p
_SODIUM_ARGTYPES = {
    "sodium_init": [],
    "crypto_sign_seed_keypair": [_P, _P, _P],  # pk, sk, seed
    "crypto_sign_detached": [_P, _NULL, _P, _LEN, _P],  # sig, siglen, m, mlen, sk
    "crypto_sign_verify_detached": [_P, _P, _LEN, _P],  # sig, m, mlen, pk
    "crypto_scalarmult_base": [_P, _P],  # q, n
    "crypto_scalarmult": [_P, _P, _P],  # q, n, p
    # c, clen, m, mlen, ad, adlen, nsec, npub, k
    "crypto_aead_chacha20poly1305_ietf_encrypt": [_P, _NULL, _P, _LEN, _P, _LEN, _NULL, _P, _P],
    # m, mlen, nsec, c, clen, ad, adlen, npub, k
    "crypto_aead_chacha20poly1305_ietf_decrypt": [_P, _NULL, _NULL, _P, _LEN, _P, _LEN, _P, _P],
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
        raise CryptoError(f"crypto needs the libsodium library; none of {_SODIUM_NAMES} loads")
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
    decryption: bytes = field(compare=False, repr=False)  # the X25519 scalar
    encryption_public: bytes = field(compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.signing, bytes) or len(self.signing) != 64:
            raise CryptoError("an Ed25519 secret must be 64 bytes")
        if not isinstance(self.decryption, bytes) or len(self.decryption) != 32:
            raise CryptoError("an X25519 secret must be 32 bytes")


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
    enc_sk = sha256(seed + _ENC_SEED_INFO)
    enc_pub = _x25519_base(enc_sk)
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


def _x25519_base(scalar: bytes) -> bytes:
    public = ctypes.create_string_buffer(32)
    _sodium().crypto_scalarmult_base(public, scalar)
    return public.raw


def _x25519(scalar: bytes, point: bytes, error: type) -> bytes:
    """The shared secret of a 32-byte scalar and point; `error` if libsodium
    refuses the point, whose shared secret would be all zero."""
    shared = ctypes.create_string_buffer(32)
    if _sodium().crypto_scalarmult(shared, scalar, point) != 0:
        raise error("X25519 agreement with a small-order point")
    return shared.raw


def sealable(public_key: bytes) -> bool:
    """Whether a `Sealer` can agree with the holder of `public_key`: it is 64
    bytes and its X25519 half is not a small-order point."""
    return len(public_key) == PUBLIC_KEY_LEN and public_key[32:] not in _SMALL_ORDER


def _envelope_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    """HKDF-SHA256 with no salt: one extract, then one expand block."""
    prk = hmac.digest(_HKDF_SALT, shared + eph_pub + recipient_pub, "sha256")
    return hmac.digest(prk, _ENVELOPE_INFO + b"\x01", "sha256")


class Sealer:
    """One key agreement with the holder of `public_key`. `entropy`, 32
    bytes, seeds the ephemeral key, so transcripts are reproducible."""

    def __init__(self, public_key: bytes, entropy: bytes):
        if not sealable(public_key):
            raise CryptoError(
                f"nothing seals to a key that is not {PUBLIC_KEY_LEN} bytes or whose"
                " X25519 half has small order"
            )
        if len(entropy) != 32:
            raise CryptoError("entropy must be 32 bytes")
        self.ephemeral_public = _x25519_base(entropy)
        shared = _x25519(entropy, public_key[32:], CryptoError)
        self._key = _envelope_key(shared, self.ephemeral_public, public_key[32:])
        self._sequence = 0

    def seal(self, plaintext: bytes) -> bytes:
        if len(plaintext) == 0:
            raise CryptoError("plaintext must be non-empty")
        sequence = self._sequence.to_bytes(8, "big")
        self._sequence += 1
        ciphertext = ctypes.create_string_buffer(len(plaintext) + _TAG_LEN)
        nonce = _NONCE_PAD + sequence
        _sodium().crypto_aead_chacha20poly1305_ietf_encrypt(
            ciphertext, None, plaintext, len(plaintext), None, 0, None, nonce, self._key
        )
        return self.ephemeral_public + sequence + ciphertext.raw


class Opener:
    """The recipient's side of the agreement that `ephemeral_public` names."""

    def __init__(self, secret_key: SecretKey, ephemeral_public: bytes):
        if len(ephemeral_public) != 32:
            raise DecryptionError("envelope names no usable ephemeral key")
        shared = _x25519(secret_key.decryption, ephemeral_public, DecryptionError)
        self._key = _envelope_key(shared, ephemeral_public, secret_key.encryption_public)

    def open(self, envelope: bytes) -> bytes:
        """An envelope sealed under another agreement fails to authenticate."""
        if len(envelope) < _OPENABLE_LEN:
            raise DecryptionError("envelope failed to authenticate")
        nonce, ciphertext = _NONCE_PAD + envelope[32:40], envelope[40:]
        plaintext = ctypes.create_string_buffer(len(ciphertext) - _TAG_LEN)
        if _sodium().crypto_aead_chacha20poly1305_ietf_decrypt(
            plaintext, None, None, ciphertext, len(ciphertext), None, 0, nonce, self._key
        ):
            raise DecryptionError("envelope failed to authenticate")
        return plaintext.raw


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
