"""From-scratch SHA-256 and HMAC references for the differential tests.

Both are built directly on ``repro.crypto.sha256._compress`` (no
``hashlib``, no memo), so comparing them with ``hashlib`` verifies the
pure-Python compression, and comparing them with ``SHA256``'s
``hashlib``-backed byte stream verifies its digests and its cycle-charging
``on_block`` counts.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.crypto.sha256 import BLOCK_SIZE, _H0, _compress


def reference_sha256(
    data: bytes, on_block: Optional[Callable[[], None]] = None
) -> bytes:
    """SHA-256 by FIPS 180-4 padding and one ``_compress`` per block."""
    padded = (
        data
        + b"\x80"
        + b"\x00" * ((55 - len(data)) % BLOCK_SIZE)
        + struct.pack(">Q", len(data) * 8)
    )
    state = list(_H0)
    for offset in range(0, len(padded), BLOCK_SIZE):
        state = _compress(state, struct.unpack(">16I", padded[offset : offset + BLOCK_SIZE]))
        if on_block:
            on_block()
    return struct.pack(">8I", *state)


def reference_hmac(
    key: bytes, message: bytes, on_block: Optional[Callable[[], None]] = None
) -> bytes:
    """RFC 2104 HMAC over :func:`reference_sha256`.

    A key longer than a block is hashed first, uncharged, as
    ``repro.crypto.hmac`` does.
    """
    if len(key) > BLOCK_SIZE:
        key = reference_sha256(key)
    key = key.ljust(BLOCK_SIZE, b"\x00")
    inner = reference_sha256(bytes(b ^ 0x36 for b in key) + message, on_block)
    return reference_sha256(bytes(b ^ 0x5C for b in key) + inner, on_block)
