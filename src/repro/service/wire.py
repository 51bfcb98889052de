"""Framing and codec for the live service's streams.

Every frame is ``u32 length ‖ version byte ‖ tag byte ‖ src u32 ‖ dst
u32 ‖ fields``; the length counts everything after itself.  The tag
names the payload — :class:`Hello` or one of the 14
:mod:`repro.distributed.messages` dataclasses — and fixes its field
layout (big-endian throughout, docs/SERVICE.md has the table):

* an ``Id`` is a length byte plus one byte per digit
  (:func:`repro.core.ids.pack_id`);
* a ``UserRecord`` is ``>IddB`` — host, ``access_rtt`` and ``join_time``
  as bit-exact IEEE f64, ID length — plus the ID's digits;
* an ``Encryption`` sequence is :func:`repro.keytree.keys.
  pack_encryptions`;
* a tuple is a u32 count plus its items, an optional value a presence
  byte plus the value;
* a query token is ``>BII`` (0 ``"phase"`` / 1 ``"refill"``, two ints),
  a ping token a u64.

Nothing on the wire names a type or a callable, so a frame can only ever
decode to these shapes.  Bytes that do not (wrong version, unknown tag,
short fields, trailing bytes, oversized length) raise :class:`FrameError`
and nothing else.

Two things make the codec cheap where the traffic is.  A forwarder's
copies of one ``MembershipUpdate`` share the ``joins`` / ``leaves`` /
``replacements`` tuples and differ only in the Theorem-2 split
encryptions, so the sender's :class:`SectionMemo` encodes that section
once.  On decode, a per-stream record table (a
``weakref.WeakValueDictionary`` from a record's wire bytes to the frozen
``UserRecord`` already built from them) hands back the member's own
record object for repeats instead of materialising a copy.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, MutableMapping, Optional, Tuple

from ..core.ids import pack_id, unpack_id
from ..core.neighbor_table import UserRecord
from ..distributed import messages as m
from ..keytree.keys import pack_encryptions, unpack_encryptions

#: Frames larger than this are treated as corruption, not data.
MAX_FRAME = 64 * 1024 * 1024

#: Wire format version; a frame with any other first byte is rejected.
VERSION = 1

_HEADER = struct.Struct(">I")
_PREFIX = struct.Struct(">BBII")  # version, tag, src, dst
_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_RECORD = struct.Struct(">IddB")
_QUERY_TOKEN = struct.Struct(">BII")
_TOKEN_KINDS = ("phase", "refill")

#: Decoded records by wire bytes, one table per stream.
RecordTable = MutableMapping[bytes, UserRecord]


class FrameError(ValueError):
    """Bytes that are not a frame of this codec, or a payload it cannot
    encode."""


@dataclass(frozen=True)
class Hello:
    """First frame on every endpoint connection: which host this
    stream carries traffic for."""

    host: int


class SectionMemo:
    """Encode-once for the shared section of a ``MembershipUpdate``.

    Every next-hop copy a forwarder sends carries the same ``joins``,
    ``leaves`` and ``replacements`` tuple objects; only the split
    encryptions differ.  The memo keeps the bytes of the last section it
    encoded, keyed by the identity of those three tuples, and holds the
    tuples so their identities cannot be reused while it does.  One memo
    serves one sender."""

    def __init__(self) -> None:
        self._last: Optional[Tuple[tuple, tuple, tuple, bytes]] = None

    def section(self, update: m.MembershipUpdate) -> bytes:
        last = self._last
        if (
            last is not None
            and last[0] is update.joins
            and last[1] is update.leaves
            and last[2] is update.replacements
        ):
            return last[3]
        blob = _pack_section(update)
        self._last = (update.joins, update.leaves, update.replacements, blob)
        return blob


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _pack_record(record: UserRecord) -> bytes:
    digits = record.user_id.digits
    return _RECORD.pack(
        record.host, record.access_rtt, record.join_time, len(digits)
    ) + bytes(digits)


def _pack_records(records: Tuple[UserRecord, ...]) -> bytes:
    return _U32.pack(len(records)) + b"".join(map(_pack_record, records))


def _pack_ids(ids: tuple) -> bytes:
    return _U32.pack(len(ids)) + b"".join(map(pack_id, ids))


def _pack_optional_record(record: Optional[UserRecord]) -> bytes:
    return b"\0" if record is None else b"\1" + _pack_record(record)


def _pack_query_token(token: tuple) -> bytes:
    kind, first, second = token
    return _QUERY_TOKEN.pack(_TOKEN_KINDS.index(kind), first, second)


def _pack_section(update: m.MembershipUpdate) -> bytes:
    return (
        _pack_records(update.joins)
        + _pack_ids(update.leaves)
        + _pack_records(update.replacements)
    )


#: Encodes an update's shared section: :func:`_pack_section`, or a
#: sender's :meth:`SectionMemo.section`.
_Section = Callable[[m.MembershipUpdate], bytes]


def _write_update(
    update: m.MembershipUpdate, section: _Section = _pack_section
) -> bytes:
    return (
        _U32.pack(update.interval)
        + section(update)
        + pack_encryptions(update.encryptions)
    )


def _write_hello(p: Hello) -> bytes:
    return _U32.pack(p.host)


def _write_join_request(p: m.JoinRequest) -> bytes:
    return b""


def _write_join_grant(p: m.JoinGrant) -> bytes:
    return _pack_optional_record(p.assigned) + _pack_optional_record(
        p.bootstrap
    )


def _write_query(p: m.QueryMsg) -> bytes:
    return pack_id(p.target_prefix) + _pack_query_token(p.token)


def _write_query_response(p: m.QueryResponse) -> bytes:
    return _pack_records(p.records) + _pack_query_token(p.token)


def _write_ping(p: m.PingMsg) -> bytes:
    return _U64.pack(p.token)


def _write_pong(p: m.PongMsg) -> bytes:
    return _pack_optional_record(p.responder_record) + _U64.pack(p.token)


def _write_failure(p: m.FailureNotice) -> bytes:
    return pack_id(p.failed_user) + pack_id(p.reporter)


def _write_notify(p: m.NotifyPrefix) -> bytes:
    return pack_id(p.determined_prefix)


def _write_assigned(p: m.AssignedId) -> bytes:
    return _pack_record(p.record) + _pack_ids(p.departed)


def _write_leave(p: m.LeaveRequest) -> bytes:
    return pack_id(p.user_id) + _pack_records(p.neighbor_records)


def _write_recover_request(p: m.RecoverRequest) -> bytes:
    return _I32.pack(p.last_interval)


def _write_recover_response(
    p: m.RecoverResponse, section: _Section = _pack_section
) -> bytes:
    return _U32.pack(len(p.updates)) + b"".join(
        _write_update(update, section) for update in p.updates
    )


def _write_multicast(
    p: m.MulticastMsg, section: _Section = _pack_section
) -> bytes:
    return _write_update(p.payload, section) + bytes((p.forward_level,))


#: Payloads that carry a ``MembershipUpdate``; their writers take the
#: section encoder.
_CARRY_UPDATES = frozenset((m.MembershipUpdate, m.RecoverResponse, m.MulticastMsg))


def encode_frame(
    src: int, dst: int, payload: Any, memo: Optional[SectionMemo] = None
) -> bytes:
    """One complete frame, length header included.  ``memo`` is the
    sender's :class:`SectionMemo`, which encodes the shared section of
    its copies of one update once.  A payload outside the codec raises
    :class:`FrameError`."""
    entry = _ENCODERS.get(type(payload))
    if entry is None:
        raise FrameError(f"no wire encoding for {type(payload).__name__}")
    tag, write = entry
    try:
        if memo is not None and type(payload) in _CARRY_UPDATES:
            fields = write(payload, memo.section)
        else:
            fields = write(payload)
        body = _PREFIX.pack(VERSION, tag, src, dst) + fields
    except (struct.error, ValueError, TypeError, AttributeError) as exc:
        raise FrameError(
            f"cannot encode {type(payload).__name__}: {exc}"
        ) from exc
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


# ----------------------------------------------------------------------
# Decoding: each reader returns (value, offset after it)
# ----------------------------------------------------------------------
def _check_count(count: int, item_size: int, buf: bytes, pos: int) -> None:
    if count * item_size > len(buf) - pos:
        raise FrameError(f"{count} items cannot fit the frame")


def _read_record(
    buf: bytes, pos: int, table: Optional[RecordTable]
) -> Tuple[UserRecord, int]:
    end = pos + _RECORD.size + buf[pos + _RECORD.size - 1]
    if end > len(buf):
        raise FrameError(f"record at offset {pos} runs past the frame")
    key = buf[pos:end]
    if table is not None:
        record = table.get(key)
        if record is not None:
            return record, end
    host, access_rtt, join_time, _ = _RECORD.unpack_from(buf, pos)
    user_id, _ = unpack_id(buf, pos + _RECORD.size - 1)
    record = UserRecord(user_id, host, access_rtt, join_time)
    if table is not None:
        table[key] = record
    return record, end


def _read_records(
    buf: bytes, pos: int, table: Optional[RecordTable]
) -> Tuple[Tuple[UserRecord, ...], int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    _check_count(count, _RECORD.size, buf, pos)
    out: List[UserRecord] = []
    for _ in range(count):
        record, pos = _read_record(buf, pos, table)
        out.append(record)
    return tuple(out), pos


def _read_ids(buf: bytes, pos: int) -> Tuple[tuple, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    _check_count(count, 1, buf, pos)
    out = []
    for _ in range(count):
        value, pos = unpack_id(buf, pos)
        out.append(value)
    return tuple(out), pos


def _read_optional_record(buf, pos, table):
    flag = buf[pos]
    if flag == 0:
        return None, pos + 1
    if flag != 1:
        raise FrameError(f"presence flag {flag}")
    return _read_record(buf, pos + 1, table)


def _read_query_token(buf: bytes, pos: int) -> Tuple[tuple, int]:
    kind, first, second = _QUERY_TOKEN.unpack_from(buf, pos)
    if kind >= len(_TOKEN_KINDS):
        raise FrameError(f"query token kind {kind}")
    return (_TOKEN_KINDS[kind], first, second), pos + _QUERY_TOKEN.size


def _read_update(buf, pos, table):
    (interval,) = _U32.unpack_from(buf, pos)
    joins, pos = _read_records(buf, pos + 4, table)
    leaves, pos = _read_ids(buf, pos)
    replacements, pos = _read_records(buf, pos, table)
    encryptions, pos = unpack_encryptions(buf, pos)
    return (
        m.MembershipUpdate(interval, joins, leaves, encryptions, replacements),
        pos,
    )


def _read_hello(buf, pos, table):
    (host,) = _U32.unpack_from(buf, pos)
    return Hello(host), pos + 4


def _read_join_request(buf, pos, table):
    return m.JoinRequest(), pos


def _read_join_grant(buf, pos, table):
    assigned, pos = _read_optional_record(buf, pos, table)
    bootstrap, pos = _read_optional_record(buf, pos, table)
    return m.JoinGrant(assigned, bootstrap), pos


def _read_query(buf, pos, table):
    prefix, pos = unpack_id(buf, pos)
    token, pos = _read_query_token(buf, pos)
    return m.QueryMsg(prefix, token), pos


def _read_query_response(buf, pos, table):
    records, pos = _read_records(buf, pos, table)
    token, pos = _read_query_token(buf, pos)
    return m.QueryResponse(records, token), pos


def _read_ping(buf, pos, table):
    (token,) = _U64.unpack_from(buf, pos)
    return m.PingMsg(token), pos + 8


def _read_pong(buf, pos, table):
    record, pos = _read_optional_record(buf, pos, table)
    (token,) = _U64.unpack_from(buf, pos)
    return m.PongMsg(record, token), pos + 8


def _read_failure(buf, pos, table):
    failed, pos = unpack_id(buf, pos)
    reporter, pos = unpack_id(buf, pos)
    return m.FailureNotice(failed, reporter), pos


def _read_notify(buf, pos, table):
    prefix, pos = unpack_id(buf, pos)
    return m.NotifyPrefix(prefix), pos


def _read_assigned(buf, pos, table):
    record, pos = _read_record(buf, pos, table)
    departed, pos = _read_ids(buf, pos)
    return m.AssignedId(record, departed), pos


def _read_leave(buf, pos, table):
    user_id, pos = unpack_id(buf, pos)
    records, pos = _read_records(buf, pos, table)
    return m.LeaveRequest(user_id, records), pos


def _read_recover_request(buf, pos, table):
    (last,) = _I32.unpack_from(buf, pos)
    return m.RecoverRequest(last), pos + 4


def _read_recover_response(buf, pos, table):
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    _check_count(count, 20, buf, pos)  # interval + four empty counts
    updates = []
    for _ in range(count):
        update, pos = _read_update(buf, pos, table)
        updates.append(update)
    return m.RecoverResponse(tuple(updates)), pos


def _read_multicast(buf, pos, table):
    update, pos = _read_update(buf, pos, table)
    return m.MulticastMsg(update, buf[pos]), pos + 1


#: The codec, in tag order: a payload's tag is its index here.
_CODECS = (
    (Hello, _write_hello, _read_hello),
    (m.JoinRequest, _write_join_request, _read_join_request),
    (m.JoinGrant, _write_join_grant, _read_join_grant),
    (m.QueryMsg, _write_query, _read_query),
    (m.QueryResponse, _write_query_response, _read_query_response),
    (m.PingMsg, _write_ping, _read_ping),
    (m.PongMsg, _write_pong, _read_pong),
    (m.FailureNotice, _write_failure, _read_failure),
    (m.NotifyPrefix, _write_notify, _read_notify),
    (m.AssignedId, _write_assigned, _read_assigned),
    (m.LeaveRequest, _write_leave, _read_leave),
    (m.MembershipUpdate, _write_update, _read_update),
    (m.RecoverRequest, _write_recover_request, _read_recover_request),
    (m.RecoverResponse, _write_recover_response, _read_recover_response),
    (m.MulticastMsg, _write_multicast, _read_multicast),
)
_ENCODERS: Dict[type, Tuple[int, Callable[[Any], bytes]]] = {
    cls: (tag, write) for tag, (cls, write, _) in enumerate(_CODECS)
}
_DECODERS = tuple(read for _, _, read in _CODECS)


def decode_body(
    body: bytes, records: Optional[RecordTable] = None
) -> Tuple[int, int, Any]:
    """``(src, dst, payload)`` from a frame body (the bytes after the
    length header).  ``records`` is the stream's record table, filled
    and consulted as records decode.  Anything but a whole, well-formed
    body of this version raises :class:`FrameError`."""
    try:
        version, tag, src, dst = _PREFIX.unpack_from(body)
        if version != VERSION:
            raise FrameError(f"wire version {version}, expected {VERSION}")
        if tag >= len(_DECODERS):
            raise FrameError(f"unknown message tag {tag}")
        payload, end = _DECODERS[tag](body, _PREFIX.size, records)
    except FrameError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc
    if end != len(body):
        raise FrameError(f"{len(body) - end} bytes after the payload")
    return src, dst, payload


async def read_frame(
    reader: asyncio.StreamReader, records: Optional[RecordTable] = None
) -> Optional[Tuple[int, int, Any]]:
    """Read one frame; None on EOF at a frame boundary or on a dropped
    connection.  A frame cut short by EOF, an oversized length header or
    a body :func:`decode_body` rejects raises :class:`FrameError`."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("stream ended inside a frame header") from exc
        return None
    except ConnectionError:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("stream ended inside a frame") from exc
    except ConnectionError:
        return None
    return decode_body(body, records)
