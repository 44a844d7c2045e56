import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
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


def count_parses(monkeypatch, name):
    """The private keys of class `crypto.<name>` parsed from now on."""
    real = getattr(crypto, name)
    parsed = []

    class Counting:
        @staticmethod
        def from_private_bytes(data):
            parsed.append(data)
            return real.from_private_bytes(data)

    monkeypatch.setattr(crypto, name, Counting)
    return parsed


def count_ed25519_derivations(monkeypatch):
    """The seeds libsodium derives an Ed25519 key pair from, from now on."""
    lib, seeds = crypto._sodium(), []
    real = lib.crypto_sign_seed_keypair

    def counting(public, secret, seed):
        seeds.append(seed)
        return real(public, secret, seed)

    monkeypatch.setattr(lib, "crypto_sign_seed_keypair", counting)
    return seeds


def test_a_run_parses_each_identity_key_once(monkeypatch):
    """bank.yaml: one buyer, three sellers and one notary. Each identity's
    Ed25519 pair is derived once; beyond their X25519 keys, only the
    ephemeral key of each delivering (seller, buyer) context and of each
    (order, notary) request context is parsed."""
    ed25519 = count_ed25519_derivations(monkeypatch)
    x25519 = count_parses(monkeypatch, "X25519PrivateKey")
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
    ed25519 = count_ed25519_derivations(monkeypatch)
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


def test_without_libsodium_signing_raises_crypto_error(monkeypatch):
    monkeypatch.setattr(crypto, "_SODIUM_NAMES", ("libsodium-absent.so.0",))
    crypto._sodium.cache_clear()
    try:
        with pytest.raises(CryptoError, match="libsodium"):
            crypto.sign(FUZZ_KEYS.secret_key, b"m")
    finally:
        crypto._sodium.cache_clear()


def test_importing_the_package_opens_no_library():
    code = "import datamarket; print(datamarket.crypto._sodium.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(crypto.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert out.stdout == b"0\n"


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
