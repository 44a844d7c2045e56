import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import crypto, messages
from datamarket.errors import CryptoError, DecryptionError
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario

from sha256_ref import sha256_ref

SEED = bytes(range(32))
FUZZ_KEYS = crypto.generate_keypair(SEED)


def test_keypair_deterministic():
    assert crypto.generate_keypair(SEED) == crypto.generate_keypair(SEED)


def test_key_pair_repr_shows_no_secret():
    text = repr(crypto.generate_keypair(SEED))
    assert repr(SEED)[2:-1] not in text and SEED.hex() not in text


def test_distinct_seeds_distinct_keys():
    other = bytes([1]) + SEED[1:]
    assert crypto.generate_keypair(SEED).public_key != crypto.generate_keypair(other).public_key


def test_bad_seed_length():
    with pytest.raises(CryptoError):
        crypto.generate_keypair(b"short")


def test_sign_verify_roundtrip():
    kp = crypto.generate_keypair(SEED)
    sig = crypto.sign(kp.secret_key, b"m")
    assert crypto.verify(kp.public_key, b"m", sig)


def test_verify_wrong_key_false():
    kp = crypto.generate_keypair(SEED)
    kp2 = crypto.generate_keypair(bytes([7]) * 32)
    sig = crypto.sign(kp.secret_key, b"m")
    assert not crypto.verify(kp2.public_key, b"m", sig)


def test_verify_mutated_message_false():
    kp = crypto.generate_keypair(SEED)
    sig = crypto.sign(kp.secret_key, b"message")
    assert not crypto.verify(kp.public_key, b"messagf", sig)


def test_verify_garbage_signature_never_crashes():
    kp = crypto.generate_keypair(SEED)
    assert not crypto.verify(kp.public_key, b"m", b"not-a-signature")
    assert not crypto.verify(kp.public_key, b"m", b"")


def test_address_deterministic_and_length():
    kp = crypto.generate_keypair(SEED)
    a1 = crypto.derive_address(kp.public_key)
    a2 = crypto.derive_address(kp.public_key)
    assert a1 == a2
    assert len(a1.bytes) == 20


def test_address_memo_is_bounded_by_the_module_constant():
    assert crypto.derive_address.cache_info().maxsize == crypto.ADDRESS_MEMO
    keys = [crypto.generate_keypair(bytes([i]) * 32).public_key for i in range(3)]
    first = [crypto.derive_address(key) for key in keys]
    hits = crypto.derive_address.cache_info().hits
    # An equal key in other bytes gives the remembered address, not a new derivation.
    assert [crypto.derive_address(key[:32] + key[32:]) for key in keys] == first
    assert crypto.derive_address.cache_info().hits == hits + 3


def test_address_no_collisions_10k():
    seen = set()
    for i in range(10_000):
        kp = crypto.generate_keypair(i.to_bytes(32, "big"))
        seen.add(crypto.derive_address(kp.public_key).bytes)
    assert len(seen) == 10_000


def test_address_malformed_key():
    # An exception is not remembered: every call with the key raises.
    for _ in range(3):
        with pytest.raises(CryptoError):
            crypto.derive_address(b"\x00" * 10)


def test_commit_empty_known_answer():
    # FIPS 180-4 empty-input vector, cross-checked against the independent
    # reference implementation.
    digest = crypto.sha256(b"")
    assert digest == sha256_ref(b"")
    assert digest.hex() == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_commit_matches_reference_on_random_pairs():
    for _ in range(100):
        salt, data = os.urandom(32), os.urandom(24)
        assert crypto.commit(salt, data).digest == sha256_ref(salt + data)


def test_commit_roundtrip():
    salt, data = os.urandom(32), b"payload"
    assert crypto.verify_commitment(salt, data, crypto.commit(salt, data))


def test_commit_rejects_empty_and_bad_salt():
    with pytest.raises(CryptoError):
        crypto.commit(b"\x00" * 31, b"data")
    with pytest.raises(CryptoError):
        crypto.commit(b"\x00" * 32, b"")


def test_all_single_bit_flips_fail():
    salt, data = os.urandom(32), os.urandom(8)
    c = crypto.commit(salt, data)
    for byte in range(8):
        for bit in range(8):
            mutated = bytearray(data)
            mutated[byte] ^= 1 << bit
            assert not crypto.verify_commitment(salt, bytes(mutated), c)


def test_salt_flip_fails():
    salt, data = os.urandom(32), os.urandom(8)
    c = crypto.commit(salt, data)
    bad_salt = bytes([salt[0] ^ 1]) + salt[1:]
    assert not crypto.verify_commitment(bad_salt, data, c)


def test_encrypt_decrypt_roundtrip():
    kp = crypto.generate_keypair(SEED)
    ct = crypto.encrypt_for(kp.public_key, b"secret payload", b"\x01" * 32)
    assert crypto.decrypt(kp.secret_key, ct) == b"secret payload"


def test_decrypt_wrong_key_fails():
    kp = crypto.generate_keypair(SEED)
    other = crypto.generate_keypair(bytes([9]) * 32)
    ct = crypto.encrypt_for(kp.public_key, b"secret", b"\x01" * 32)
    with pytest.raises(DecryptionError):
        crypto.decrypt(other.secret_key, ct)


def test_tampered_ciphertext_fails():
    kp = crypto.generate_keypair(SEED)
    ct = bytearray(crypto.encrypt_for(kp.public_key, b"secret", b"\x01" * 32))
    ct[40] ^= 1  # the first ciphertext byte
    with pytest.raises(DecryptionError):
        crypto.decrypt(kp.secret_key, bytes(ct))


def test_every_sequence_and_ciphertext_byte_is_authenticated():
    """Bytes 32-39 hold the sequence, which is the nonce; the rest is
    ciphertext and tag. Flipping any one of them fails to open."""
    kp = crypto.generate_keypair(SEED)
    sealer = crypto.Sealer(kp.public_key, b"\x01" * 32)
    sealer.seal(b"first")
    envelope = sealer.seal(b"secret payload")
    assert envelope[32:40] == (1).to_bytes(8, "big")
    for offset in range(32, len(envelope)):
        flipped = bytearray(envelope)
        flipped[offset] ^= 0x80
        with pytest.raises(DecryptionError):
            crypto.decrypt(kp.secret_key, bytes(flipped))


def test_one_sealer_seals_each_plaintext_under_its_own_nonce():
    kp = crypto.generate_keypair(SEED)
    sealer = crypto.Sealer(kp.public_key, b"\x01" * 32)
    first, second = sealer.seal(b"same"), sealer.seal(b"same")
    assert first != second and first[:32] == second[:32] == sealer.ephemeral_public
    assert [e[32:40] for e in (first, second)] == [bytes(8), (1).to_bytes(8, "big")]
    for order in ([first, second], [second, first]):
        opener = crypto.Opener(kp.secret_key, first[:32])
        assert [crypto.decrypt(kp.secret_key, e) for e in order] == [b"same", b"same"]
        assert [opener.open(e) for e in order] == [b"same", b"same"]


def test_an_opener_refuses_another_agreement():
    kp = crypto.generate_keypair(SEED)
    envelope = crypto.encrypt_for(kp.public_key, b"secret", b"\x01" * 32)
    opener = crypto.Opener(kp.secret_key, envelope[:32])
    assert opener.open(envelope) == b"secret"
    other = crypto.encrypt_for(kp.public_key, b"secret", b"\x02" * 32)
    assert other[32:] != envelope[32:] and crypto.decrypt(kp.secret_key, other) == b"secret"
    with pytest.raises(DecryptionError):
        opener.open(other)
    with pytest.raises(DecryptionError):
        opener.open(envelope[:32] + other[32:])


@pytest.mark.parametrize("length", [0, 31, 32, 39, 40, 55, 56])
def test_an_envelope_at_a_length_boundary_raises_only_decryption_error(length):
    """Short of the ephemeral key (32), of the sequence (40), of the tag
    (56), or just a tag: each fails before or inside libsodium alike."""
    genuine = crypto.encrypt_for(FUZZ_KEYS.public_key, b"secret payload", b"\x01" * 32)
    opener = crypto.Opener(FUZZ_KEYS.secret_key, genuine[:32])
    for envelope in (genuine[:length], bytes(length), b"\xff" * length):
        with pytest.raises(DecryptionError):
            crypto.decrypt(FUZZ_KEYS.secret_key, envelope)
        with pytest.raises(DecryptionError):
            opener.open(envelope)


@given(st.binary(min_size=0, max_size=120))
@settings(max_examples=300)
def test_decrypt_of_arbitrary_bytes_raises_only_decryption_error(data):
    try:
        crypto.decrypt(FUZZ_KEYS.secret_key, data)
    except DecryptionError:
        pass


def test_encrypt_deterministic_with_entropy():
    kp = crypto.generate_keypair(SEED)
    entropy = os.urandom(32)
    assert crypto.encrypt_for(kp.public_key, b"x", entropy) == crypto.encrypt_for(
        kp.public_key, b"x", entropy
    )


def count_sodium_calls(monkeypatch, function):
    """The second argument (a seed or scalar) of each call to libsodium's
    `function` from now on."""
    lib, calls = crypto._sodium(), []
    real = getattr(lib, function)

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(lib, function, counting)
    return calls


def test_a_run_parses_each_identity_key_once(monkeypatch):
    """bank.yaml: one buyer, three sellers and one notary. Each identity's
    Ed25519 pair and X25519 public key are derived once; beyond those, only
    the ephemeral public key of each delivering (seller, buyer) context and
    of each (order, notary) request context is derived."""
    ed25519 = count_sodium_calls(monkeypatch, "crypto_sign_seed_keypair")
    x25519 = count_sodium_calls(monkeypatch, "crypto_scalarmult_base")
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "bank.yaml")
    result = run_scenario(scenario)
    assert result.report.ok
    sent = [(messages.decode(e.message), e) for e in result.network.transcript]
    deliveries = {
        (e.sender, e.endpoint) for m, e in sent if isinstance(m, messages.PayloadDelivery)
    }
    contexts = {
        (m.order_ref, e.endpoint)
        for m, e in sent
        if isinstance(m, messages.NotarizationRequest) and m.audit_ciphertext
    }
    identities = len(scenario.buyers) + len(scenario.sellers) + len(scenario.notaries)
    assert identities == 5 and deliveries and contexts
    assert len(ed25519) == identities
    assert len(x25519) == identities + len(deliveries) + len(contexts)


def test_signing_with_many_keys_parses_each_once(monkeypatch):
    ed25519 = count_sodium_calls(monkeypatch, "crypto_sign_seed_keypair")
    pairs = [crypto.generate_keypair(i.to_bytes(32, "big")) for i in range(600)]
    for _ in range(2):
        for kp in pairs:
            crypto.sign(kp.secret_key, b"m")
    assert len(ed25519) == 600


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=256))
@settings(max_examples=50)
def test_sign_verify_property(seed, message):
    kp = crypto.generate_keypair(seed)
    assert crypto.verify(kp.public_key, message, crypto.sign(kp.secret_key, message))


# -- Ed25519 against the `cryptography` (OpenSSL) reference -----------------

# The group order of Curve25519's prime-order subgroup.
ED25519_L = 2**252 + 27742317777372353535851937790883648493


def reference_verifies(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key[:32]).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def flip(data: bytes, index: int, mask: int) -> bytes:
    return data[:index] + bytes([data[index] ^ mask]) + data[index + 1 :]


@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(min_size=0, max_size=1024),
    flips=st.tuples(st.integers(0, 31), st.integers(0, 1023), st.integers(0, 63)),
    mask=st.integers(1, 255),
)
@settings(max_examples=150)
def test_ed25519_matches_the_reference_byte_for_byte(seed, message, flips, mask):
    kp = crypto.generate_keypair(seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    assert kp.public_key[:32] == reference.public_key().public_bytes_raw()
    signature = crypto.sign(kp.secret_key, message)
    assert signature == reference.sign(message)
    key_at, message_at, signature_at = flips
    cases = [
        (kp.public_key, message, signature),
        (flip(kp.public_key, key_at, mask), message, signature),
        (kp.public_key, message, flip(signature, signature_at, mask)),
    ]
    if message:
        cases.append((kp.public_key, flip(message, message_at % len(message), mask), signature))
    verdicts = [crypto.verify(*case) for case in cases]
    assert verdicts == [reference_verifies(*case) for case in cases]
    assert verdicts == [True] + [False] * (len(cases) - 1)


def test_the_small_order_identity_key_and_signature_are_refused():
    identity = b"\x01" + bytes(31)  # the neutral point, y = 1
    public_key = identity + FUZZ_KEYS.public_key[32:]
    # (R, S) = (identity, 0) satisfies the verification equation for every
    # message under this key; the `cryptography` 48.0.0 reference accepts it.
    for message in (b"", b"m", bytes(100)):
        assert not crypto.verify(public_key, message, identity + bytes(32))


def test_a_signature_with_s_plus_l_is_refused():
    signature = crypto.sign(FUZZ_KEYS.secret_key, b"m")
    s = int.from_bytes(signature[32:], "little")
    assert s < ED25519_L and crypto.verify(FUZZ_KEYS.public_key, b"m", signature)
    malleated = signature[:32] + (s + ED25519_L).to_bytes(32, "little")
    assert not crypto.verify(FUZZ_KEYS.public_key, b"m", malleated)


def test_verify_refuses_a_signature_of_any_other_length():
    signature = crypto.sign(FUZZ_KEYS.secret_key, b"m")
    for length in range(129):
        if length != crypto.SIGNATURE_LEN:
            assert crypto.verify(FUZZ_KEYS.public_key, b"m", (signature * 2)[:length]) is False


def test_verify_refuses_a_key_or_signature_that_is_not_bytes():
    key, signature = FUZZ_KEYS.public_key, crypto.sign(FUZZ_KEYS.secret_key, b"m")
    assert crypto.verify(key, b"m", signature) is True
    for convert in (bytearray, memoryview, lambda b: b.decode("latin-1")):
        assert crypto.verify(key, b"m", convert(signature)) is False
        assert crypto.verify(convert(key), b"m", signature) is False


def test_a_secret_key_holds_a_64_byte_libsodium_secret():
    secret = FUZZ_KEYS.secret_key
    assert secret.signing == secret.seed + FUZZ_KEYS.public_key[:32]
    for signing in (secret.signing[:63], bytearray(secret.signing), None):
        with pytest.raises(CryptoError):
            dataclasses.replace(secret, signing=signing)


# -- X25519, HKDF and ChaCha20-Poly1305 against the `cryptography` reference --

# The encodings of the points of order dividing 8 on Curve25519 and its
# twist, as RFC 7748 reads them (top bit ignored, u taken mod 2**255 - 19).
P25519 = 2**255 - 19
ORDER_8 = [
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
]
SMALL_ORDER_U = [0, 1, P25519 - 1] + [int.from_bytes(bytes.fromhex(u), "little") for u in ORDER_8]
SMALL_ORDER_POINTS = [
    (v + top).to_bytes(32, "little")
    for u in SMALL_ORDER_U
    for v in (u, u + P25519)
    if v < 2**255
    for top in (0, 2**255)
]


def reference_x25519_secret(seed: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(crypto.sha256(seed + b"datamarket-enc-key-v1"))


def reference_shared(scalar: bytes, point: bytes):
    """The shared secret, or None where the reference refuses the point."""
    try:
        return X25519PrivateKey.from_private_bytes(scalar).exchange(
            X25519PublicKey.from_public_bytes(point)
        )
    except ValueError:
        return None


def reference_aead(shared: bytes, ephemeral: bytes, recipient: bytes) -> ChaCha20Poly1305:
    hkdf = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=b"datamarket-envelope-v1")
    return ChaCha20Poly1305(hkdf.derive(shared + ephemeral + recipient))


def reference_encrypt_for(public_key: bytes, plaintext: bytes, entropy: bytes) -> bytes:
    ephemeral = X25519PrivateKey.from_private_bytes(entropy).public_key().public_bytes_raw()
    shared = reference_shared(entropy, public_key[32:])
    aead = reference_aead(shared, ephemeral, public_key[32:])
    return ephemeral + bytes(8) + aead.encrypt(bytes(12), plaintext, None)


def reference_decrypt(seed: bytes, envelope: bytes):
    """The plaintext, or None where the reference refuses the envelope."""
    secret = reference_x25519_secret(seed)
    shared = reference_shared(secret.private_bytes_raw(), envelope[:32])
    if shared is None:
        return None
    aead = reference_aead(shared, envelope[:32], secret.public_key().public_bytes_raw())
    try:
        return aead.decrypt(bytes(4) + envelope[32:40], envelope[40:], None)
    except InvalidTag:
        return None


def opened(secret_key: crypto.SecretKey, envelope: bytes):
    try:
        return crypto.decrypt(secret_key, envelope)
    except DecryptionError:
        return None


@given(
    seed=st.binary(min_size=32, max_size=32),
    entropy=st.binary(min_size=32, max_size=32),
    plaintext=st.binary(min_size=1, max_size=512),
    flips=st.tuples(st.integers(0, 15), st.integers(0, 10**6)),
    mask=st.integers(1, 255),
)
@settings(max_examples=150)
def test_x25519_and_envelopes_match_the_reference_byte_for_byte(
    seed, entropy, plaintext, flips, mask
):
    kp = crypto.generate_keypair(seed)
    reference = reference_x25519_secret(seed)
    assert kp.public_key[32:] == reference.public_key().public_bytes_raw()
    assert kp.secret_key.decryption == reference.private_bytes_raw()
    shared = crypto._x25519(entropy, kp.public_key[32:], CryptoError)
    assert shared == reference_shared(entropy, kp.public_key[32:])
    envelope = crypto.encrypt_for(kp.public_key, plaintext, entropy)
    assert envelope == reference_encrypt_for(kp.public_key, plaintext, entropy)
    tag_at, anywhere = flips
    cases = [
        envelope,
        flip(envelope, len(envelope) - 16 + tag_at, mask),
        flip(envelope, anywhere % len(envelope), mask),
    ]
    plaintexts = [opened(kp.secret_key, case) for case in cases]
    assert plaintexts == [reference_decrypt(seed, case) for case in cases]
    assert plaintexts == [plaintext, None, None]


def test_both_backends_refuse_the_same_small_order_points():
    """libsodium and the reference refuse exactly the small-order encodings:
    each of the 14, and none of their one-bit neighbours below the top bit."""
    assert len(set(SMALL_ORDER_POINTS)) == 14
    scalar = crypto.generate_keypair(SEED).secret_key.decryption
    for point in SMALL_ORDER_POINTS:
        assert reference_shared(scalar, point) is None
        with pytest.raises(CryptoError):
            crypto._x25519(scalar, point, CryptoError)
        key = FUZZ_KEYS.public_key[:32] + point
        assert not crypto.sealable(key)
        with pytest.raises(CryptoError, match="small order"):
            crypto.Sealer(key, b"\x01" * 32)
        with pytest.raises(DecryptionError):
            crypto.Opener(FUZZ_KEYS.secret_key, point)
        for bit in range(255):
            neighbour = (int.from_bytes(point, "little") ^ 1 << bit).to_bytes(32, "little")
            if neighbour not in SMALL_ORDER_POINTS:
                assert reference_shared(scalar, neighbour) is not None
                assert crypto.sealable(FUZZ_KEYS.public_key[:32] + neighbour)
                assert crypto._x25519(scalar, neighbour, CryptoError) == reference_shared(
                    scalar, neighbour
                )


def test_sealable_needs_a_64_byte_key():
    assert crypto.sealable(FUZZ_KEYS.public_key)
    for length in (0, 32, 63, 65):
        assert not crypto.sealable((FUZZ_KEYS.public_key * 2)[:length])


def test_without_libsodium_signing_raises_crypto_error(monkeypatch):
    """Signing, sealing and opening all need libsodium: without it each
    raises CryptoError, not a DecryptionError that blames the envelope."""
    sealer = crypto.Sealer(FUZZ_KEYS.public_key, b"\x01" * 32)
    envelope = sealer.seal(b"m")
    opener = crypto.Opener(FUZZ_KEYS.secret_key, envelope[:32])
    monkeypatch.setattr(crypto, "_SODIUM_NAMES", ("libsodium-absent.so.0",))
    crypto._sodium.cache_clear()
    try:
        for call in (
            lambda: crypto.sign(FUZZ_KEYS.secret_key, b"m"),
            lambda: crypto.Sealer(FUZZ_KEYS.public_key, b"\x01" * 32),
            lambda: sealer.seal(b"m"),
            lambda: crypto.decrypt(FUZZ_KEYS.secret_key, envelope),
            lambda: opener.open(envelope),
        ):
            with pytest.raises(CryptoError, match="libsodium") as raised:
                call()
            assert type(raised.value) is CryptoError
    finally:
        crypto._sodium.cache_clear()


def python_output(code: str, *args: str) -> bytes:
    """What `code`, run with `args`, prints in a new interpreter that
    imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(crypto.__file__).parents[1])}
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, capture_output=True, check=True).stdout


def test_importing_the_package_opens_no_library():
    code = "import datamarket; print(datamarket.crypto._sodium.cache_info().currsize)"
    assert python_output(code) == b"0\n"


def test_importing_the_package_loads_neither_cryptography_nor_yaml():
    code = "import datamarket, sys; print(sorted({'cryptography', 'yaml'} & set(sys.modules)))"
    assert python_output(code) == b"[]\n"


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=256))
@settings(max_examples=50)
def test_encrypt_decrypt_property(seed, plaintext):
    kp = crypto.generate_keypair(seed)
    ct = crypto.encrypt_for(kp.public_key, plaintext, b"\x01" * 32)
    assert crypto.decrypt(kp.secret_key, ct) == plaintext


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=128))
@settings(max_examples=50)
def test_commitment_property(salt, data):
    c = crypto.commit(salt, data)
    assert crypto.verify_commitment(salt, data, c)
    assert c.digest == sha256_ref(salt + data)


# -- RFC 6962 Merkle trees ---------------------------------------------------

# The leaves and tree heads of the Certificate Transparency reference tests.
CT_LEAVES = [
    b"", b"\x00", b"\x10", b"\x20\x21", b"\x30\x31", b"\x40\x41\x42\x43",
    bytes(range(0x50, 0x58)), bytes(range(0x60, 0x70)),
]
CT_ROOTS = [
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
    "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
    "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
    "4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
    "76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
    "ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
    "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
]
CT_PATH_OF_LEAF_0 = [
    "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    "5f083f0a1a33ca076a95279832580db3e0ef4584bdff1f54c8a360f50de3031e",
    "6b47aaf29ee3c2af9af889bc1fb9254dabd31177f16232dd6aab035ca39bf6e4",
]


@pytest.mark.parametrize("size", range(1, 9))
def test_merkle_root_matches_the_reference_tree_heads(size):
    root, _ = crypto.merkle_tree(CT_LEAVES[:size])
    assert root.hex() == CT_ROOTS[size - 1]


def test_merkle_path_matches_the_reference_proof():
    _, paths = crypto.merkle_tree(CT_LEAVES)
    assert paths[0].hex() == "".join(CT_PATH_OF_LEAF_0)


@given(st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_every_leaf_folds_back_to_the_root_only_from_its_own_place(size):
    leaves = [i.to_bytes(2, "big") for i in range(size)]
    root, paths = crypto.merkle_tree(leaves)
    for index, (leaf, path) in enumerate(zip(leaves, paths)):
        assert len(path) == 32 * crypto.merkle_path_length(index, size)
        assert crypto.merkle_fold(leaf, index, size, path) == root
        if path:
            assert crypto.merkle_fold(leaf, index, size, path[:-32]) is None
        assert crypto.merkle_fold(leaf, index, size, path + root) is None
        assert crypto.merkle_fold(leaf, index, size, path + b"\x00") is None
        for other in range(size):
            if other != index and len(paths[other]) == len(path):
                assert crypto.merkle_fold(leaf, other, size, path) != root
    assert crypto.merkle_fold(leaves[0], size, size, paths[0]) is None
    assert crypto.merkle_fold(leaves[0], -1, size, paths[0]) is None
