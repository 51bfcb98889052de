"""Rekey delivery reliability: proactive FEC and limited unicast recovery.

The paper's rekey transport lineage (its references [30]-[32], by the
same authors) makes batch rekey messages reliable with two mechanisms,
both implemented here so the reproduced system is usable on lossy paths:

* **Proactive FEC** (:class:`FecEncoder` / :class:`FecDecoder`): a user's
  rekey share is split into data packets; each block of ``k`` data
  packets gets one XOR parity packet, so any single loss per block is
  repaired locally with no round trip at ``1/k`` bandwidth overhead.
  (ToN'03 uses Reed–Solomon over larger blocks; XOR parity reproduces
  the mechanism and its single-loss repair property.)
* **Limited unicast recovery** (reference [31], "Group rekeying with
  limited unicast recovery"): a user that still misses keys after FEC —
  e.g. it detects a version gap when new group data arrives — asks the
  key server for its key path over unicast; the server answers with
  exactly the keys on the user's ID-tree path
  (:class:`KeyPathGrant`).

:class:`repro.core.group.SecureGroup` integrates both: ``end_interval``
accepts a per-packet loss model, and ``recover_member`` performs the
unicast repair.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ids import Id
from .keys import Encryption, pack_encryptions, unpack_encryptions


def _deserialize(raw: bytes) -> Tuple[Encryption, ...]:
    encryptions, end = unpack_encryptions(raw)
    if end != len(raw):
        raise ValueError(f"{len(raw) - end} bytes after the encryptions")
    return encryptions


def _xor(buffers: Sequence[bytes], length: int) -> bytes:
    out = bytearray(length)
    for buf in buffers:
        for i, b in enumerate(buf):
            out[i] ^= b
    return bytes(out)


@dataclass(frozen=True)
class FecPacket:
    """One packet of a FEC-protected rekey share.

    Data packets carry ``raw = len || pack_encryptions(payload)``; the parity
    packet carries the XOR of its block's zero-padded data packets.
    ``block_data_count`` tells the decoder how many data packets the
    block originally had.
    """

    block: int
    index: int             # 0..k-1 for data, -1 for parity
    raw: bytes = field(repr=False)
    block_data_count: int = 1
    is_parity: bool = False

    @property
    def num_encryptions(self) -> int:
        """Encryptions carried (parity counts its full padded size in
        bandwidth terms elsewhere; here: 0 for parity)."""
        if self.is_parity:
            return 0
        return len(self.decode_payload())

    def decode_payload(self) -> Tuple[Encryption, ...]:
        if self.is_parity:
            raise ValueError("parity packets carry no direct payload")
        (length,) = struct.unpack(">I", self.raw[:4])
        return _deserialize(self.raw[4 : 4 + length])


def _frame(payload: Tuple[Encryption, ...]) -> bytes:
    body = pack_encryptions(payload)
    return struct.pack(">I", len(body)) + body


class FecEncoder:
    """Split encryptions into data packets of ``packet_size`` encryptions
    and add one XOR parity packet per ``block_packets`` data packets."""

    def __init__(self, packet_size: int = 4, block_packets: int = 4):
        if packet_size < 1 or block_packets < 1:
            raise ValueError("packet_size and block_packets must be >= 1")
        self.packet_size = packet_size
        self.block_packets = block_packets

    def encode(self, encryptions: Sequence[Encryption]) -> List[FecPacket]:
        packets: List[FecPacket] = []
        frames: List[bytes] = [
            _frame(tuple(encryptions[i : i + self.packet_size]))
            for i in range(0, len(encryptions), self.packet_size)
        ]
        for block_start in range(0, len(frames), self.block_packets):
            block_index = block_start // self.block_packets
            block = frames[block_start : block_start + self.block_packets]
            width = max(len(f) for f in block)
            for idx, frame in enumerate(block):
                packets.append(
                    FecPacket(block_index, idx, frame, len(block))
                )
            packets.append(
                FecPacket(
                    block_index,
                    -1,
                    _xor(block, width),
                    len(block),
                    is_parity=True,
                )
            )
        return packets

    def overhead_ratio(self) -> float:
        """Asymptotic parity overhead: one parity per k data packets."""
        return 1.0 / self.block_packets


@dataclass(frozen=True)
class FecDecodeResult:
    encryptions: Tuple[Encryption, ...]
    repaired_blocks: int    # blocks fixed by parity
    lost_blocks: int        # blocks with >1 data loss (unrecoverable)

    @property
    def complete(self) -> bool:
        return self.lost_blocks == 0


class FecDecoder:
    """Recover encryptions from surviving packets, using parity to repair
    at most one lost data packet per block."""

    def decode(self, packets: Sequence[FecPacket]) -> FecDecodeResult:
        blocks: Dict[int, List[FecPacket]] = {}
        for packet in packets:
            blocks.setdefault(packet.block, []).append(packet)
        encryptions: List[Encryption] = []
        repaired = 0
        lost = 0
        for block_index in sorted(blocks):
            group = blocks[block_index]
            parity = next((p for p in group if p.is_parity), None)
            data = {p.index: p for p in group if not p.is_parity}
            expected = group[0].block_data_count
            missing = [i for i in range(expected) if i not in data]
            frames: Dict[int, bytes] = {
                i: p.raw for i, p in data.items()
            }
            if len(missing) == 1 and parity is not None:
                width = len(parity.raw)
                padded = [frames[i].ljust(width, b"\0") for i in sorted(frames)]
                frames[missing[0]] = _xor(padded + [parity.raw], width)
                repaired += 1
            elif missing:
                lost += 1
            for i in sorted(frames):
                raw = frames[i]
                (length,) = struct.unpack(">I", raw[:4])
                encryptions.extend(_deserialize(raw[4 : 4 + length]))
        return FecDecodeResult(tuple(encryptions), repaired, lost)


@dataclass(frozen=True)
class KeyPathGrant:
    """The server's unicast recovery response: every key on the member's
    ID-tree path at its current version (reference [31])."""

    user_id: Id
    keys: Tuple[Tuple[Id, int, bytes], ...]  # (key id, version, secret)
