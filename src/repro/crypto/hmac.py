"""HMAC-SHA256 (RFC 2104), built on ``SHA256``'s byte-stream path.

Komodo's local attestation is a MAC over (measurement, enclave-supplied
data) keyed with a boot-time secret (paper section 4).  The monitor-side
preconditions mirror the paper's: keys and messages on the attestation
path are block-aligned word sequences, which keeps padding reasoning
trivial.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.arm.bits import to_word
from repro.crypto.sha256 import BLOCK_SIZE, SHA256, sha256

# Byte-wise XOR with the RFC 2104 pads, as ``bytes.translate`` tables.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(
    key: bytes, message: bytes, on_block: Optional[Callable[[], None]] = None
) -> bytes:
    """Standard HMAC-SHA256 over byte strings."""
    if len(key) > BLOCK_SIZE:
        key = sha256(key)
    key = key + b"\x00" * (BLOCK_SIZE - len(key))
    inner = SHA256(on_block=on_block)
    inner.update(key.translate(_IPAD))
    inner.update(message)
    outer = SHA256(on_block=on_block)
    outer.update(key.translate(_OPAD))
    outer.update(inner.digest())
    return outer.digest()


def hmac_sha256_words(
    key_words: Sequence[int],
    message_words: Sequence[int],
    on_block: Optional[Callable[[], None]] = None,
) -> List[int]:
    """HMAC over word sequences, returning 8 words (the monitor's shape)."""
    key = b"".join(to_word(w).to_bytes(4, "big") for w in key_words)
    message = b"".join(to_word(w).to_bytes(4, "big") for w in message_words)
    mac = hmac_sha256(key, message, on_block=on_block)
    return [int.from_bytes(mac[i : i + 4], "big") for i in range(0, 32, 4)]


def constant_time_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """Compare two word sequences without early exit.

    The real monitor's comparison is data-independent in its address
    trace; this mirrors that property at the model level.
    """
    if len(a) != len(b):
        return False
    difference = 0
    for x, y in zip(a, b):
        difference |= to_word(x) ^ to_word(y)
    return difference == 0
