"""The live service's wire codec (`repro.service.wire`, docs/SERVICE.md).

Every payload the service sends round-trips bit-exactly — floats by
their IEEE bits, ``Encryption.payload`` compared explicitly because the
dataclass leaves it out of ``==`` — and any other bytes raise
:class:`FrameError` and nothing else: arbitrary bytes, truncations, byte
flips, oversized length headers, trailing bytes, and a pickle that would
run ``eval``.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import gc
import pathlib
import pickle
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ids import Id
from repro.core.neighbor_table import UserRecord
from repro.distributed import messages as m
from repro.keytree.keys import Encryption
from repro.service import wire
from repro.service.wire import FrameError, Hello, decode_body, encode_frame

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

u32 = st.integers(0, 2**32 - 1)
ids = st.lists(st.integers(0, 255), max_size=6).map(Id)
floats = st.floats(allow_nan=True, allow_infinity=True)
records = st.builds(UserRecord, ids, u32, floats, floats)
encryptions = st.builds(
    Encryption, ids, u32, ids, u32, st.none() | st.binary(max_size=24)
)
query_tokens = st.tuples(st.sampled_from(("phase", "refill")), u32, u32)
ping_tokens = st.integers(0, 2**64 - 1)


def tuples_of(strategy):
    return st.lists(strategy, max_size=4).map(tuple)


updates = st.builds(
    m.MembershipUpdate,
    u32,
    tuples_of(records),
    tuples_of(ids),
    tuples_of(encryptions),
    tuples_of(records),
)

#: One strategy per payload type the codec carries.
PAYLOADS = {
    Hello: st.builds(Hello, u32),
    m.JoinRequest: st.just(m.JoinRequest()),
    m.JoinGrant: st.builds(m.JoinGrant, st.none() | records, st.none() | records),
    m.QueryMsg: st.builds(m.QueryMsg, ids, query_tokens),
    m.QueryResponse: st.builds(m.QueryResponse, tuples_of(records), query_tokens),
    m.PingMsg: st.builds(m.PingMsg, ping_tokens),
    m.PongMsg: st.builds(m.PongMsg, st.none() | records, ping_tokens),
    m.FailureNotice: st.builds(m.FailureNotice, ids, ids),
    m.NotifyPrefix: st.builds(m.NotifyPrefix, ids),
    m.AssignedId: st.builds(m.AssignedId, records, tuples_of(ids)),
    m.LeaveRequest: st.builds(m.LeaveRequest, ids, tuples_of(records)),
    m.MembershipUpdate: updates,
    m.RecoverRequest: st.builds(m.RecoverRequest, st.integers(-(2**31), 2**31 - 1)),
    m.RecoverResponse: st.builds(
        m.RecoverResponse, st.lists(updates, max_size=3).map(tuple)
    ),
    m.MulticastMsg: st.builds(m.MulticastMsg, updates, st.integers(0, 255)),
}
payloads = st.one_of(*PAYLOADS.values())


def bits(value):
    """A comparable form that sees every field, payloads included, and
    floats by their bits (so -0.0, NaN payloads and infinities count)."""
    if isinstance(value, float):
        return ("f64", struct.pack(">d", value))
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value)),
        )
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value).__name__, value)


def frame_payloads(payload):
    """Every Encryption inside a payload, in order."""
    if isinstance(payload, Encryption):
        return [payload]
    if dataclasses.is_dataclass(payload):
        return [
            e
            for f in dataclasses.fields(payload)
            for e in frame_payloads(getattr(payload, f.name))
        ]
    if isinstance(payload, tuple):
        return [e for v in payload for e in frame_payloads(v)]
    return []


def read_stream(data: bytes, records=None):
    """``read_frame`` over a stream holding exactly ``data``."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.read_frame(reader, records)

    return asyncio.run(read())


def sample_frame() -> bytes:
    record = UserRecord(Id((1, 2, 3, 4, 5)), 7, 0.125, 3.0)
    update = m.MembershipUpdate(
        9,
        (record,),
        (Id((9, 9, 9, 9, 9)),),
        (Encryption(Id((1,)), 2, Id(()), 3, b"\x01\x02"),),
        (record,),
    )
    return encode_frame(4, 7, m.MulticastMsg(update, 2))


class TestRoundTrip:
    def test_codec_covers_every_message_dataclass(self):
        carried = set(PAYLOADS) - {Hello}
        declared = {
            cls
            for cls in vars(m).values()
            if dataclasses.is_dataclass(cls) and cls.__module__ == m.__name__
        }
        assert len(declared) == 14
        assert carried == declared == set(wire._ENCODERS) - {Hello}

    @given(u32, u32, payloads)
    @settings(max_examples=300, deadline=None)
    def test_every_payload_round_trips_bit_exactly(self, src, dst, payload):
        frame = encode_frame(src, dst, payload)
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
        got_src, got_dst, got = decode_body(frame[4:])
        assert (got_src, got_dst) == (src, dst)
        assert type(got) is type(payload)
        assert bits(got) == bits(payload)
        # ``payload`` is compare=False on Encryption: check it by hand.
        assert [e.payload for e in frame_payloads(got)] == [
            e.payload for e in frame_payloads(payload)
        ]
        assert bits(read_stream(frame)) == bits((src, dst, payload))

    @given(u32, updates, st.lists(tuples_of(encryptions), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_section_memo_never_changes_the_bytes(self, src, update, splits):
        """Copies sharing one update's tuples (a forwarder's next hops),
        alone and inside a recovery response, encode to the same bytes
        with and without the memo."""
        memo = wire.SectionMemo()
        for level, split in enumerate(splits):
            copy = dataclasses.replace(update, encryptions=split)
            for payload in (
                m.MulticastMsg(copy, level),
                m.RecoverResponse((copy, update)),
                m.PingMsg(level),
            ):
                assert encode_frame(src, 1, payload, memo) == encode_frame(
                    src, 1, payload
                )

    def test_record_table_shares_repeats_and_forgets_dropped_records(self):
        table = weakref.WeakValueDictionary()
        frame = sample_frame()[4:]
        first = decode_body(frame, table)[2].payload
        second = decode_body(frame, table)[2].payload
        assert second.joins[0] is first.joins[0] is first.replacements[0]
        assert len(table) == 1
        del first, second
        gc.collect()
        assert len(table) == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"not": "a message"},
            m.NotifyPrefix(Id((256,))),
            m.QueryMsg(Id(()), ("bogus", 1, 2)),
            m.QueryMsg(Id(()), (1, 2)),
            m.PingMsg(-1),
            m.MulticastMsg(m.MembershipUpdate(0, (), (), (), ()), 256),
            m.JoinGrant("record", None),
        ],
    )
    def test_unencodable_payloads_raise_frame_error(self, payload):
        with pytest.raises(FrameError):
            encode_frame(0, 1, payload)


class TestHostileBytes:
    def test_a_pickle_that_calls_eval_is_rejected(self):
        """A pickle wire whose unpickler admits ``builtins`` decodes this
        body to ``(1, 2, 42)``: the frame runs ``eval``."""

        class Evaluates:
            def __reduce__(self):
                return (eval, ("6*7",))

        body = pickle.dumps((1, 2, Evaluates()), protocol=4)
        with pytest.raises(FrameError):
            decode_body(body)

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_frame_error(self, body):
        try:
            decode_body(body)
        except FrameError:
            pass

    def test_every_truncation_is_rejected(self):
        frame = sample_frame()
        body = frame[4:]
        for cut in range(len(body)):
            with pytest.raises(FrameError):
                decode_body(body[:cut])
        for cut in range(1, len(frame)):
            with pytest.raises(FrameError):
                read_stream(frame[:cut])

    def test_every_single_byte_flip_decodes_or_raises_frame_error(self):
        body = sample_frame()[4:]
        for index in range(len(body)):
            for value in (0x00, 0x01, 0x7F, 0xFF, body[index] ^ 0x55):
                flipped = body[:index] + bytes((value,)) + body[index + 1 :]
                try:
                    decode_body(flipped)
                except FrameError:
                    pass

    def test_trailing_bytes_are_rejected(self):
        body = sample_frame()[4:]
        with pytest.raises(FrameError):
            decode_body(body + b"\0")

    def test_oversized_length_header_is_rejected_before_reading(self):
        header = struct.pack(">I", wire.MAX_FRAME + 1)
        with pytest.raises(FrameError):
            read_stream(header)

    def test_wrong_version_and_unknown_tag_are_rejected(self):
        body = bytearray(sample_frame()[4:])
        for index, value in ((0, wire.VERSION + 1), (1, len(wire._DECODERS))):
            bad = bytearray(body)
            bad[index] = value
            with pytest.raises(FrameError):
                decode_body(bytes(bad))

    def test_huge_counts_fail_fast(self):
        for tag in (4, 11, 13):  # records, update, updates
            body = struct.pack(">BBII", wire.VERSION, tag, 0, 0)
            body += struct.pack(">I", 0) if tag == 11 else b""
            body += struct.pack(">I", 2**32 - 1) + bytes(64)
            with pytest.raises(FrameError):
                decode_body(body)

    def test_clean_eof_at_a_frame_boundary_is_not_an_error(self):
        frame = sample_frame()
        assert read_stream(b"") is None
        assert read_stream(frame)[:2] == (4, 7)


def _imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _importers(root: pathlib.Path, packages):
    """Modules under ``root`` importing any of the top-level ``packages``."""
    return [
        str(path.relative_to(SRC))
        for path in sorted(root.rglob("*.py"))
        if any(name.split(".")[0] in packages for name in _imports(path))
    ]


@pytest.mark.parametrize("package", ["service", "keytree"])
def test_no_pickle_import(package):
    assert _importers(SRC / package, {"pickle"}) == []


def test_no_process_pool_import():
    """Replications run in process: nothing under ``src/repro`` forks."""
    assert _importers(SRC, {"multiprocessing", "concurrent"}) == []
