"""Tests for the crypto substrate: cipher, tags, and key stores."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ids import Id, NULL_ID
from repro.crypto import (
    AuthenticationError,
    auth_tag,
    cipher,
    decrypt,
    encrypt,
    generate_key,
    verify_tag,
)
from repro.crypto.keystore import KeyStore


class TestCipher:
    def test_roundtrip(self):
        key = generate_key()
        assert decrypt(key, encrypt(key, b"hello group")) == b"hello group"

    def test_empty_plaintext(self):
        key = generate_key()
        assert decrypt(key, encrypt(key, b"")) == b""

    def test_wrong_key_rejected(self):
        blob = encrypt(generate_key(), b"secret")
        with pytest.raises(AuthenticationError):
            decrypt(generate_key(), blob)

    def test_tampering_detected(self):
        key = generate_key()
        blob = bytearray(encrypt(key, b"secret"))
        blob[20] ^= 0xFF
        with pytest.raises(AuthenticationError):
            decrypt(key, bytes(blob))

    def test_truncated_blob_rejected(self):
        with pytest.raises(AuthenticationError):
            decrypt(generate_key(), b"short")

    def test_nonce_randomizes_ciphertext(self):
        key = generate_key()
        assert encrypt(key, b"x") != encrypt(key, b"x")

    def test_deterministic_with_seeded_rng(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        key = b"k" * 32
        assert encrypt(key, b"data", rng=rng1) == encrypt(key, b"data", rng=rng2)

    def test_generate_key_length_and_variety(self):
        keys = {generate_key() for _ in range(10)}
        assert len(keys) == 10
        assert all(len(k) == 32 for k in keys)

    def test_generate_key_bad_rng(self):
        with pytest.raises(TypeError):
            generate_key(rng="not an rng")

    @given(st.binary(max_size=300))
    @settings(max_examples=30)
    def test_roundtrip_property(self, plaintext):
        key = b"fixed-key-for-hypothesis-tests!!"
        assert decrypt(key, encrypt(key, plaintext)) == plaintext


#: ``encrypt(bytes(range(32)), plaintext(n), rng=default_rng(2005))`` for
#: n in this order off one generator, as produced by the byte-at-a-time
#: implementation this one replaced.  The wire format is
#: ``nonce(16) || plaintext XOR SHA-256-CTR(enc key, nonce) || HMAC-SHA256
#: (mac key, nonce || ciphertext)``; a blob that moves here can no longer
#: be read by a peer running the other version.
KNOWN_ANSWERS = [
    (0, "881e9a4f7d44beb715f27c8e91f6de7b690d08c8bbd75f23b7e74d99d954e600"
        "1eb53fc3205b03f89ce8c8fee6cb4860"),
    (1, "061f0443fc564c0446c64b02d2177997af12594c91e3ade2e51a372dc3802341"
        "1aa8b2c4490c81451b1c809679685ba06a"),
    (31, "b372a13605c4df001cf98ff0c4b8da5abb90c6a96f103f61b4e5bf5f7f937992"
         "67c26af4414b5b4bed4f02b5eea38ed62b220389b8fb02dc0a0f4c4a48a5ea94"
         "bf37211d21c9fc31a075fa0d8f6da2"),
    (32, "99803ca6fbfda698f2b7173afa5c1baa7ca7ee7ac9680262ee47f59fbe226494"
         "5bd897e8f26a0e6cb219d26de0bd8370dfe10d1300970452c735bb0e1d2fc882"
         "56ef2b5adb143a43491ed90ab8f66ee0"),
    (33, "9fea7630ec1dcc31ad5746bdf0bbf2f2157f4ba97297c4e21ccaa97c93c954b7"
         "fc64dcae136517951f3ba0b7214e09fef003aa6e64a13c13e9cdf442987d23ea"
         "684e268d2d6a2be40d2b189e35d01b3574"),
    (100, "ca30549c02acf5617f44db3266acfb9046f1af00d31d0088a9cd454ffa8cba82"
          "ea6e188fd3b8b235590f2879a29e3edee5f1de29ca3e90bb8cb6f64a7602d72d"
          "d29330b31bb41b30942915887875930e1f1a6cc9e38a9a0aa957df00f641a246"
          "3faf350f53ffac3c8d67183d9bf68abad6fafb2a09c431334cfc9e1a294f54ad"
          "4403da8b76d5178b33fb95274cf4221c863331b3"),
]
KNOWN_KEY = bytes(range(32))


def known_plaintext(n):
    return bytes((7 * i + n) % 256 for i in range(n))


class TestKnownAnswers:
    def test_encrypt_reproduces_the_recorded_blobs(self):
        rng = np.random.default_rng(2005)
        for n, blob in KNOWN_ANSWERS:
            assert encrypt(KNOWN_KEY, known_plaintext(n), rng=rng).hex() == blob, n
        # six nonces, 32 bytes drawn for each
        assert rng.bit_generator.state == _after_draws(2005, 6)

    @pytest.mark.parametrize("n,blob", KNOWN_ANSWERS)
    def test_decrypt_reads_the_recorded_blobs(self, n, blob):
        assert decrypt(KNOWN_KEY, bytes.fromhex(blob)) == known_plaintext(n)

    @pytest.mark.parametrize("n,blob", KNOWN_ANSWERS)
    def test_recorded_blobs_reject_wrong_key_flipped_bit_and_truncation(
        self, n, blob
    ):
        blob = bytes.fromhex(blob)
        with pytest.raises(AuthenticationError):
            decrypt(KNOWN_KEY[::-1], blob)
        for position in {0, 15, 16, len(blob) // 2, len(blob) - 32, len(blob) - 1}:
            damaged = bytearray(blob)
            damaged[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                decrypt(KNOWN_KEY, bytes(damaged))
        for cut in (1, 16, 32, len(blob) - 1, len(blob)):
            with pytest.raises(AuthenticationError):
                decrypt(KNOWN_KEY, blob[:-cut])

    def test_auth_tag_known_answer(self):
        assert auth_tag(KNOWN_KEY, b"challenge").hex() == (
            "faac15ba2ce33ed1b3e45a96093c4f24c919b5453208ac3d0dbb8deff771ea48"
        )


def _after_draws(seed, draws):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        rng.bytes(32)
    return rng.bit_generator.state


class TestDrawAhead:
    def test_hands_out_what_separate_draws_would(self):
        ahead, apart = np.random.default_rng(9), np.random.default_rng(9)
        drawn = cipher.draw_ahead(ahead, 5)
        assert [generate_key(drawn) for _ in range(5)] == [
            generate_key(apart) for _ in range(5)
        ]
        assert ahead.bit_generator.state == apart.bit_generator.state

    def test_refuses_to_hand_out_more_than_was_drawn(self):
        drawn = cipher.draw_ahead(np.random.default_rng(9), 1)
        generate_key(drawn)
        with pytest.raises(ValueError):
            generate_key(drawn)

    def test_drawing_nothing_leaves_the_generator_alone(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        cipher.draw_ahead(rng, 0)
        assert rng.bit_generator.state == before


class TestTags:
    def test_tag_verifies(self):
        key = generate_key()
        tag = auth_tag(key, b"challenge")
        assert verify_tag(key, b"challenge", tag)

    def test_tag_rejects_wrong_message(self):
        key = generate_key()
        tag = auth_tag(key, b"challenge")
        assert not verify_tag(key, b"other", tag)

    def test_tag_rejects_wrong_key(self):
        tag = auth_tag(generate_key(), b"challenge")
        assert not verify_tag(generate_key(), b"challenge", tag)


class TestKeyStore:
    def test_put_get_latest(self):
        store = KeyStore()
        store.put(NULL_ID, 0, b"a" * 32)
        store.put(NULL_ID, 1, b"b" * 32)
        assert store.get(NULL_ID) == b"b" * 32
        assert store.get(NULL_ID, 0) == b"a" * 32
        assert store.latest_version(NULL_ID) == 1

    def test_has(self):
        store = KeyStore()
        assert not store.has(NULL_ID)
        store.put(NULL_ID, 3, b"c" * 32)
        assert store.has(NULL_ID)
        assert store.has(NULL_ID, 3)
        assert not store.has(NULL_ID, 2)

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            KeyStore().get(Id([1]))

    def test_drop_forgets_all_versions(self):
        store = KeyStore()
        store.put(Id([1]), 0, b"a" * 32)
        store.put(Id([1]), 1, b"b" * 32)
        store.drop(Id([1]))
        assert not store.has(Id([1]))
        assert not store.has(Id([1]), 0)

    def test_wrap_unwrap(self):
        store = KeyStore()
        wrapping = generate_key()
        store.put(Id([2]), 0, wrapping)
        inner = generate_key()
        blob = store.wrap(Id([2]), inner)
        assert store.unwrap(Id([2]), 0, blob) == inner

    def test_unwrap_without_key_raises(self):
        store = KeyStore()
        with pytest.raises(KeyError):
            store.unwrap(Id([2]), 0, b"blob")

    def test_key_ids_enumeration(self):
        store = KeyStore()
        store.put(Id([1]), 0, b"a" * 32)
        store.put(Id([2]), 0, b"b" * 32)
        assert set(store.key_ids()) == {Id([1]), Id([2])}
