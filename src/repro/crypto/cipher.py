"""Symmetric crypto primitives (stdlib-only, but real keyed crypto).

The paper treats encryption as a black box: the key server encrypts new
keys under old keys (``{k'}_k`` — an *encryption*), users and the server
encrypt unicast traffic under individual keys, and group data is encrypted
under the group key.  This module provides those operations with an
authenticated stream cipher built from SHA-256 in counter mode plus an
HMAC-SHA256 tag (encrypt-then-MAC).  It is not meant to compete with AES —
the point is that the reproduced system actually *enforces* key possession:
a member without the right key cannot read a payload, which the test suite
exercises for forward/backward secrecy of rekey batches.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct

_TAG_LEN = 32
_NONCE_LEN = 16
_BLOCK = 32  # SHA-256 digest size
_COUNTER_ZERO = struct.pack(">Q", 0)


class AuthenticationError(Exception):
    """Raised when a ciphertext fails authentication (wrong key or
    tampered payload)."""


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream: H(key || nonce || counter)."""
    seed = key + nonce
    if length <= _BLOCK:  # a wrapped key is one block
        return hashlib.sha256(seed + _COUNTER_ZERO).digest()[:length]
    blocks = [
        hashlib.sha256(seed + struct.pack(">Q", counter)).digest()
        for counter in range(-(-length // _BLOCK))
    ]
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def _split_key(key: bytes) -> tuple:
    """Derive independent encryption and MAC keys from one secret."""
    enc = hashlib.sha256(b"enc" + key).digest()
    mac = hashlib.sha256(b"mac" + key).digest()
    return enc, mac


def generate_key(rng=None) -> bytes:
    """A fresh 32-byte symmetric key.

    Pass a ``numpy`` Generator (or any object with ``bytes(n)``) for
    deterministic simulation keys; defaults to ``os.urandom``.
    """
    if rng is None:
        return os.urandom(_BLOCK)
    if hasattr(rng, "bytes"):
        return rng.bytes(_BLOCK)
    raise TypeError(f"unsupported rng {rng!r}")


class _DrawnBytes:
    """Random bytes drawn earlier, handed out front to back through the
    ``bytes(n)`` call :func:`generate_key` makes on a generator."""

    def __init__(self, data: bytes):
        self._data = data
        self._taken = 0

    def bytes(self, n: int) -> bytes:
        start = self._taken
        self._taken = end = start + n
        if end > len(self._data):
            raise ValueError("more random bytes taken than were drawn ahead")
        return self._data[start:end]


def draw_ahead(rng, calls: int):
    """Draw the random bytes of the next ``calls`` calls of
    :func:`generate_key` / :func:`encrypt` from a ``numpy`` Generator in
    one ``rng.bytes`` call (each separate call costs microseconds of
    generator overhead for 32 bytes).  Pass the result as their ``rng``:
    the bytes each call gets, and the generator's state afterwards, are
    what ``calls`` separate draws would have produced."""
    # Generator.bytes(0) advances the generator; no draw must not.
    return _DrawnBytes(rng.bytes(_BLOCK * calls) if calls else b"")


def encrypt(key: bytes, plaintext: bytes, rng=None) -> bytes:
    """Authenticated encryption: ``nonce || ciphertext || tag``."""
    enc_key, mac_key = _split_key(key)
    nonce = generate_key(rng)[:_NONCE_LEN]
    body = nonce + _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    return body + hmac.digest(mac_key, body, "sha256")


def decrypt(key: bytes, blob: bytes) -> bytes:
    """Inverse of :func:`encrypt`; raises :class:`AuthenticationError` on
    a wrong key or tampered blob."""
    if len(blob) < _NONCE_LEN + _TAG_LEN:
        raise AuthenticationError("ciphertext too short")
    enc_key, mac_key = _split_key(key)
    body, tag = blob[:-_TAG_LEN], blob[-_TAG_LEN:]
    if not hmac.compare_digest(tag, hmac.digest(mac_key, body, "sha256")):
        raise AuthenticationError("bad authentication tag")
    nonce, ciphertext = body[:_NONCE_LEN], body[_NONCE_LEN:]
    return _xor(ciphertext, _keystream(enc_key, nonce, len(ciphertext)))


def auth_tag(key: bytes, message: bytes) -> bytes:
    """Plain HMAC tag — used for the mutual-authentication handshake that
    stands in for the paper's SSL step."""
    return hmac.digest(_split_key(key)[1], message, "sha256")


def verify_tag(key: bytes, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(auth_tag(key, message), tag)
