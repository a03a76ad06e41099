"""SHA-256 (FIPS 180-4) over two back ends.

* **Byte stream** -- a fresh hasher (chaining state H0) fed with
  ``update``: ``sha256``/``sha256_words``, HMAC, the sealed-storage
  keystream, RSA signing, ``EncryptedMemory``, the spec's
  ``spec_finalise``.  It feeds OpenSSL's ``hashlib.sha256``, as the
  paper's monitor uses a verified OpenSSL-derived SHA-256 (Vale).
* **Chaining state** -- ``from_state``/``update_block_words``/
  ``state_words``: the enclave measurement, whose chaining state lives
  in the addrspace page between calls, and the refinement checker's
  replay of it.  ``hashlib`` can neither resume nor expose a chaining
  state, so this path runs the from-scratch ``_compress`` behind a
  bounded content-keyed memo: exact, because ``_compress`` is pure, and
  nearly always hit, because measurement re-hashes the same blocks from
  the same states.  Bytes fed to a resumed hasher, and its padding, stay
  here too.

``_compress`` is also the oracle the ``hashlib`` path is tested against.
Cycle charges are exact on both paths: ``on_block`` fires once per
64-byte block the padded message takes, and the paper's cost model counts
blocks, not instructions (section 7.2).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Callable, List, Optional, Sequence, Tuple

from repro.arm.bits import WORD_MASK, add_wrap, ror, to_word

BLOCK_SIZE = 64  # bytes
DIGEST_SIZE = 32  # bytes
DIGEST_WORDS = 8

# First 32 bits of the fractional parts of the cube roots of the first
# 64 primes (the standard round constants).
_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

# Initial hash values: first 32 bits of the fractional parts of the
# square roots of the first 8 primes.
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

#: Distinct ``(chaining state, block)`` inputs the compression memo keeps.
#: A lifecycle campaign measures the same enclave once per trial, so a
#: few dozen distinct inputs cover nearly every compression it runs.
COMPRESS_MEMO_SIZE = 1024


def _compress(state: Sequence[int], block: Sequence[int]) -> List[int]:
    """One SHA-256 compression over a 16-word block (the from-scratch core)."""
    w = list(block)
    for t in range(16, 64):
        s0 = ror(w[t - 15], 7) ^ ror(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = ror(w[t - 2], 17) ^ ror(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append(to_word(w[t - 16] + s0 + w[t - 7] + s1))
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = ror(e, 6) ^ ror(e, 11) ^ ror(e, 25)
        ch = (e & f) ^ (to_word(~e) & g)
        temp1 = to_word(h + big_s1 + ch + _K[t] + w[t])
        big_s0 = ror(a, 2) ^ ror(a, 13) ^ ror(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = to_word(big_s0 + maj)
        h = g
        g = f
        f = e
        e = to_word(d + temp1)
        d = c
        c = b
        b = a
        a = to_word(temp1 + temp2)
    return [
        add_wrap(state[0], a),
        add_wrap(state[1], b),
        add_wrap(state[2], c),
        add_wrap(state[3], d),
        add_wrap(state[4], e),
        add_wrap(state[5], f),
        add_wrap(state[6], g),
        add_wrap(state[7], h),
    ]


@functools.lru_cache(maxsize=COMPRESS_MEMO_SIZE)
def _compress_memo(state: Tuple[int, ...], block: Tuple[int, ...]) -> Tuple[int, ...]:
    """``_compress`` memoised on its inputs' content; exact, as it is pure.

    Keys and results are tuples, so no caller can mutate a cached entry.
    """
    return tuple(_compress(state, block))


def _padding(length: int) -> bytes:
    """FIPS 180-4 padding for a message of ``length`` bytes."""
    return b"\x80" + b"\x00" * ((55 - length) % 64) + (length * 8).to_bytes(8, "big")


class SHA256:
    """Incremental SHA-256 over two back ends (see the module docstring).

    ``on_block`` is an optional callback invoked once per compression; the
    monitor uses it to charge ``CostModel.sha256_block`` cycles so hashing
    cost scales with the data actually hashed.
    """

    def __init__(self, on_block: Optional[Callable[[], None]] = None):
        self._state: Tuple[int, ...] = _H0
        self._buffer = bytearray()
        self._length = 0  # total bytes consumed
        self._on_block = on_block
        self._stream = None  # the hashlib object, once a fresh hash gets bytes
        self._digest: Optional[bytes] = None

    def _charge(self, blocks: int) -> None:
        if self._on_block:
            for _ in range(blocks):
                self._on_block()

    # -- block-aligned interface (monitor measurement path) ---------------

    @property
    def state_words(self) -> List[int]:
        """The current 8-word chaining state (stored in addrspace pages)."""
        if self._stream is not None:
            raise RuntimeError("a byte-stream hash has no observable chaining state")
        return list(self._state)

    @classmethod
    def from_state(
        cls,
        state: Sequence[int],
        length: int,
        on_block: Optional[Callable[[], None]] = None,
    ) -> "SHA256":
        """Rebuild an incremental hash from saved chaining state.

        The monitor persists the measurement's chaining state and running
        length inside the addrspace page between MapSecure calls; this
        constructor resumes from that representation.  ``length`` must be
        block aligned (the monitor only hashes block-aligned data).
        """
        if len(state) != DIGEST_WORDS:
            raise ValueError("chaining state must be 8 words")
        if length % BLOCK_SIZE:
            raise ValueError("resumed length must be block aligned")
        hasher = cls(on_block=on_block)
        hasher._state = tuple(w & WORD_MASK for w in state)
        hasher._length = length
        return hasher

    def update_block_words(self, words: Sequence[int]) -> None:
        """Consume one 64-byte block given as 16 words."""
        if self._digest is not None:
            raise RuntimeError("hash already finalised")
        if self._length % BLOCK_SIZE:
            raise RuntimeError("block interface mixed with unaligned bytes")
        if len(words) != 16:
            raise ValueError("a block is exactly 16 words")
        block = tuple([w & WORD_MASK for w in words])
        if self._stream is not None:
            self._stream.update(struct.pack(">16I", *block))
        else:
            self._state = _compress_memo(self._state, block)
        self._length += BLOCK_SIZE
        self._charge(1)

    # -- byte-stream interface ------------------------------------------------

    def update(self, data: bytes) -> None:
        if self._digest is not None:
            raise RuntimeError("hash already finalised")
        if self._stream is None and self._length == 0 and self._state == _H0:
            self._stream = hashlib.sha256()
        if self._stream is None:
            self._absorb(data)
            return
        self._stream.update(data)
        blocks_before = self._length // BLOCK_SIZE
        self._length += len(data)
        self._charge(self._length // BLOCK_SIZE - blocks_before)

    def _absorb(self, data: bytes) -> None:
        """The from-scratch byte path: compress every completed block."""
        self._buffer += data
        self._length += len(data)
        while len(self._buffer) >= BLOCK_SIZE:
            block = struct.unpack(">16I", self._buffer[:BLOCK_SIZE])
            del self._buffer[:BLOCK_SIZE]
            self._state = _compress_memo(self._state, block)
            self._charge(1)

    def digest(self) -> bytes:
        """Finalise (pad) and return the 32-byte digest."""
        if self._digest is None:
            if self._stream is not None:
                # Padding needs ceil((length + 9) / 64) blocks in all.
                length = self._length
                self._charge((length + 72) // BLOCK_SIZE - length // BLOCK_SIZE)
                self._digest = self._stream.digest()
            else:
                self._absorb(_padding(self._length))
                self._digest = struct.pack(">8I", *self._state)
        return self._digest

    def digest_words(self) -> List[int]:
        """The digest as 8 words (the monitor's native representation)."""
        return list(struct.unpack(">8I", self.digest()))

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256."""
    hasher = SHA256()
    hasher.update(data)
    return hasher.digest()


def sha256_words(words: Sequence[int]) -> List[int]:
    """One-shot SHA-256 over a word sequence, returning 8 words."""
    hasher = SHA256()
    hasher.update(b"".join(to_word(w).to_bytes(4, "big") for w in words))
    return hasher.digest_words()
