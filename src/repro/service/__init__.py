"""Live asyncio service mode (docs/SERVICE.md).

The protocol stack from :mod:`repro.distributed` running as a
long-lived service: the ``"asyncio"`` scheduling backend
(:mod:`repro.service.aio`), a stream transport that carries
:mod:`repro.distributed.messages` over real localhost sockets
(:mod:`repro.service.transport`), the :class:`RekeyService` server
wrapper (:mod:`repro.service.server`), and the seeded soak/chaos
harness (:mod:`repro.service.soak`) driven by ``tools/soak.py``.

Layering: this package sits *above* the protocol packages — it imports
:mod:`repro.net` and :mod:`repro.distributed`; nothing below may import
it (the ``"asyncio"`` entry in the backend registry is a lazy string,
not an import).
"""

from .aio import AsyncioScheduler, asyncio_backend
from .server import RekeyService
from .soak import PROFILES, ChurnProfile, ScrapeLoop, SoakHarness, SoakReport
from .transport import StreamTransport
from .wire import FrameError, Hello, decode_body, encode_frame, read_frame

__all__ = [
    "AsyncioScheduler",
    "asyncio_backend",
    "RekeyService",
    "StreamTransport",
    "SoakHarness",
    "SoakReport",
    "ScrapeLoop",
    "ChurnProfile",
    "PROFILES",
    "FrameError",
    "Hello",
    "encode_frame",
    "decode_body",
    "read_frame",
]
