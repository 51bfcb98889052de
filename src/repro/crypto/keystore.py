"""Per-member key storage and key wrapping.

A member's key store holds the keys the paper says it holds: its
individual key, the group key, and — depending on role — auxiliary keys on
its ID-tree path, or a pairwise key with its cluster leader (Appendix B).
Keys are looked up by ``(key_id, version)``, where ``key_id`` is an
ID-tree node ID and ``version`` increments whenever the key server changes
the key at that node.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..core.ids import Id
from . import cipher


class KeyStore:
    """Versioned symmetric keys held by one member."""

    def __init__(self) -> None:
        self._keys: Dict[Tuple[Id, int], bytes] = {}
        self._latest: Dict[Id, int] = {}

    def put(self, key_id: Id, version: int, secret: bytes) -> None:
        self._keys[(key_id, version)] = secret
        if version >= self._latest.get(key_id, -1):
            self._latest[key_id] = version

    def get(self, key_id: Id, version: Optional[int] = None) -> bytes:
        """The secret for a key; ``version=None`` means latest held."""
        if version is None:
            version = self._latest[key_id]
        return self._keys[(key_id, version)]

    def has(self, key_id: Id, version: Optional[int] = None) -> bool:
        if version is None:
            return key_id in self._latest
        return (key_id, version) in self._keys

    @property
    def secrets(self) -> Mapping[Tuple[Id, int], bytes]:
        """Every held secret by ``(key_id, version)``, for callers that
        probe many keys in a row; read it, change it through :meth:`put`."""
        return self._keys

    def latest_version(self, key_id: Id) -> Optional[int]:
        return self._latest.get(key_id)

    def key_ids(self) -> Iterable[Id]:
        return self._latest.keys()

    def drop(self, key_id: Id) -> None:
        """Forget every version of a key (a member discards path keys it is
        no longer entitled to, e.g. after losing cluster leadership)."""
        self._latest.pop(key_id, None)
        for key in [k for k in self._keys if k[0] == key_id]:
            del self._keys[key]

    # ------------------------------------------------------------------
    # Key wrapping
    # ------------------------------------------------------------------
    def wrap(self, wrapping_id: Id, secret: bytes, rng=None) -> bytes:
        """Encrypt ``secret`` under the latest key named ``wrapping_id`` —
        produces the payload of a paper ``{k'}_k`` encryption."""
        return cipher.encrypt(self.get(wrapping_id), secret, rng=rng)

    def unwrap(self, wrapping_id: Id, version: int, blob: bytes) -> bytes:
        """Decrypt a wrapped key with the held key ``(wrapping_id,
        version)``; raises ``KeyError`` if the key is not held and
        :class:`~repro.crypto.cipher.AuthenticationError` on a mismatch."""
        return cipher.decrypt(self._keys[(wrapping_id, version)], blob)
