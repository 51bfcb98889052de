"""Keys, encryptions, and rekey messages.

The identification scheme of Section 2.4: the ID of a key is the ID of its
corresponding ID-tree node, and the ID of an *encryption* ``{k'}_k`` is the
ID of the encrypting key ``k``.  Lemma 3: a user needs the key carried in
an encryption iff the encryption's ID is a prefix of the user's ID.

Encryptions can carry real wrapped-key bytes (application mode) or a
``None`` payload (simulation mode, where only counts and IDs matter).

:func:`pack_encryptions` / :func:`unpack_encryptions` are the one byte
encoding of an encryption sequence, shared by the live service's wire
(:mod:`repro.service.wire`) and the FEC packets of
:mod:`repro.keytree.recovery`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from ..core.ids import Id, pack_id, unpack_id


@dataclass(frozen=True)
class Encryption:
    """One ``{new_key}_{encrypting_key}`` item of a rekey message.

    ``encrypting_key_id`` doubles as the encryption's ID.  Versions pin the
    exact secrets involved, so a receiver knows which held key decrypts the
    payload and which version the recovered key becomes.
    """

    encrypting_key_id: Id
    encrypting_version: int
    new_key_id: Id
    new_version: int
    payload: Optional[bytes] = field(default=None, compare=False, repr=False)

    @property
    def id(self) -> Id:
        """The encryption's ID — the ID of the encrypting key
        (Section 2.4)."""
        return self.encrypting_key_id

    def needed_by(self, user_id: Id) -> bool:
        """Lemma 3: the user needs this encryption iff the encryption's ID
        is a prefix of the user's ID."""
        return self.encrypting_key_id.is_prefix_of(user_id)


@dataclass(frozen=True)
class RekeyMessage:
    """The batch rekey message generated at the end of a rekey interval."""

    interval: int
    encryptions: Tuple[Encryption, ...]

    @property
    def rekey_cost(self) -> int:
        """The paper's *rekey cost*: number of encryptions contained in the
        message (Section 4.2)."""
        return len(self.encryptions)

    def needed_by(self, user_id: Id) -> Tuple[Encryption, ...]:
        """The subset of encryptions a given user needs (Lemma 3)."""
        return tuple(e for e in self.encryptions if e.needed_by(user_id))

    def restricted_to(self, encryptions: Iterable[Encryption]) -> "RekeyMessage":
        """A copy carrying only the given encryptions (used by the
        splitting scheme)."""
        return RekeyMessage(self.interval, tuple(encryptions))


_U32 = struct.Struct(">I")
#: Two one-byte IDs, two versions and the payload flag.
_MIN_ENCRYPTION = 1 + 4 + 1 + 4 + 1


def pack_encryptions(encryptions: Sequence[Encryption]) -> bytes:
    """A u32 count, then per encryption: encrypting-key ID, u32
    encrypting version, new-key ID, u32 new version, and a payload flag —
    0 for none, 1 followed by a u32 length and the payload bytes.  IDs
    are :func:`~repro.core.ids.pack_id`.  Raises ``struct.error`` /
    ``ValueError`` for a field outside that layout."""
    parts = [_U32.pack(len(encryptions))]
    for enc in encryptions:
        parts += (
            pack_id(enc.encrypting_key_id),
            _U32.pack(enc.encrypting_version),
            pack_id(enc.new_key_id),
            _U32.pack(enc.new_version),
        )
        payload = enc.payload
        if payload is None:
            parts.append(b"\0")
        else:
            parts += (b"\1", _U32.pack(len(payload)), payload)
    return b"".join(parts)


def unpack_encryptions(
    buf: bytes, pos: int = 0
) -> Tuple[Tuple[Encryption, ...], int]:
    """Read a :func:`pack_encryptions` sequence at ``buf[pos]``; returns
    the encryptions and the offset after them.  Malformed bytes raise
    ``ValueError``, ``IndexError`` or ``struct.error``, never anything
    else."""
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    if count * _MIN_ENCRYPTION > len(buf) - pos:
        raise ValueError(f"{count} encryptions cannot fit the buffer")
    out = []
    for _ in range(count):
        encrypting_key_id, pos = unpack_id(buf, pos)
        (encrypting_version,) = _U32.unpack_from(buf, pos)
        new_key_id, pos = unpack_id(buf, pos + 4)
        (new_version,) = _U32.unpack_from(buf, pos)
        flag = buf[pos + 4]
        pos += 5
        payload = None
        if flag == 1:
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4 + length
            if pos > len(buf):
                raise ValueError("encryption payload runs past the buffer")
            payload = buf[pos - length : pos]
        elif flag != 0:
            raise ValueError(f"encryption payload flag {flag}")
        out.append(
            Encryption(
                encrypting_key_id,
                encrypting_version,
                new_key_id,
                new_version,
                payload,
            )
        )
    return tuple(out), pos
