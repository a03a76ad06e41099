"""SHA-256: standard vectors, from-scratch oracle, fast-path differential."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.bits import bytes_to_words
from repro.crypto.sha256 import (
    _H0,
    BLOCK_SIZE,
    COMPRESS_MEMO_SIZE,
    DIGEST_SIZE,
    SHA256,
    _compress,
    _compress_memo,
    sha256,
    sha256_words,
)
from tests.crypto.reference import reference_sha256

# FIPS 180-4 / NIST test vectors.
VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


class TestVectors:
    @pytest.mark.parametrize("message,expected", VECTORS[:3])
    def test_nist_vectors(self, message, expected):
        assert sha256(message).hex() == expected
        assert reference_sha256(message).hex() == expected

    def test_million_a(self):
        message, expected = VECTORS[3]
        assert sha256(message).hex() == expected

    def test_digest_size(self):
        assert len(sha256(b"x")) == DIGEST_SIZE


class TestAgainstHashlib:
    """The from-scratch code (``_compress``) checked against OpenSSL.

    ``sha256()`` itself is ``hashlib``-backed, so these target the
    from-scratch reference and the from-scratch incremental byte path.
    """

    @given(st.binary(max_size=512))
    @settings(max_examples=200)
    def test_matches_hashlib(self, data):
        assert reference_sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=100), max_size=8))
    def test_incremental_matches(self, chunks):
        # A hasher that took a block on the chaining path stays from
        # scratch for its byte-stream updates and its padding.
        prefix = bytes(range(BLOCK_SIZE))
        ours = SHA256()
        ours.update_block_words(bytes_to_words(prefix))
        reference = hashlib.sha256(prefix)
        for chunk in chunks:
            ours.update(chunk)
            reference.update(chunk)
        assert ours.digest() == reference.digest()

    def test_boundary_lengths(self):
        """Lengths around the padding boundary (55/56/63/64/65 bytes)."""
        for length in (0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128):
            data = b"\xab" * length
            assert reference_sha256(data) == hashlib.sha256(data).digest()


class TestIncrementalState:
    def test_block_interface_matches_bytes(self):
        data = bytes(range(128))
        block_wise = SHA256()
        for i in range(0, 128, 64):
            block_wise.update_block_words(bytes_to_words(data[i : i + 64]))
        assert block_wise.digest() == sha256(data)

    def test_save_and_resume_state(self):
        """The monitor persists chaining state between MapSecure calls."""
        data = bytes(range(64)) * 3
        full = SHA256()
        full.update(data)
        partial = SHA256()
        partial.update_block_words(bytes_to_words(data[:64]))
        resumed = SHA256.from_state(partial.state_words, 64)
        resumed.update_block_words(bytes_to_words(data[64:128]))
        resumed.update_block_words(bytes_to_words(data[128:]))
        assert resumed.digest() == full.digest()

    def test_resume_requires_block_alignment(self):
        with pytest.raises(ValueError):
            SHA256.from_state([0] * 8, 63)

    def test_resume_requires_eight_words(self):
        with pytest.raises(ValueError):
            SHA256.from_state([0] * 7, 64)

    def test_block_requires_sixteen_words(self):
        with pytest.raises(ValueError):
            SHA256().update_block_words([0] * 15)

    def test_no_update_after_digest(self):
        hasher = SHA256()
        hasher.digest()
        with pytest.raises(RuntimeError):
            hasher.update(b"late")
        with pytest.raises(RuntimeError):
            hasher.update_block_words([0] * 16)

    def test_mixing_interfaces_rejected(self):
        hasher = SHA256()
        hasher.update(b"odd")  # leaves a partial buffer
        with pytest.raises(RuntimeError):
            hasher.update_block_words([0] * 16)

    def test_digest_idempotent(self):
        hasher = SHA256()
        hasher.update(b"hello")
        assert hasher.digest() == hasher.digest()

    def test_digest_words(self):
        words = SHA256()
        words.update(b"abc")
        assert len(words.digest_words()) == 8
        reconstructed = b"".join(w.to_bytes(4, "big") for w in words.digest_words())
        assert reconstructed == sha256(b"abc")


class TestCostHook:
    def test_on_block_called_per_compression(self):
        calls = []
        hasher = SHA256(on_block=lambda: calls.append(1))
        hasher.update(b"x" * 200)  # 3 full blocks consumed, 8 bytes buffered
        assert len(calls) == 3
        hasher.digest()  # padding adds one more block
        assert len(calls) == 4

    def test_resumed_finalise_charges_padding_block(self):
        calls = []
        hasher = SHA256.from_state(list(_H0), 0, on_block=lambda: calls.append(1))
        hasher.update_block_words([0] * 16)
        hasher.digest()
        assert len(calls) == 2

    def test_sha256_words_helper(self):
        assert sha256_words([0x61626380]) == bytes_to_words(
            hashlib.sha256(b"\x61\x62\x63\x80").digest()
        )


def _stream_and_reference(data, cuts):
    """Digest and ``on_block`` count from the byte stream and the oracle."""
    stream_calls, reference_calls = [], []
    hasher = SHA256(on_block=lambda: stream_calls.append(1))
    start = 0
    for cut in sorted(cuts) + [len(data)]:
        hasher.update(data[start:cut])
        start = cut
    digest = hasher.digest()
    expected = reference_sha256(data, on_block=lambda: reference_calls.append(1))
    return (digest, len(stream_calls)), (expected, len(reference_calls))


class TestFastPathDifferential:
    """The ``hashlib`` byte stream against the ``_compress`` reference."""

    @given(st.data())
    @settings(max_examples=150)
    def test_split_stream_matches_reference(self, data):
        message = data.draw(st.binary(max_size=300))
        cuts = data.draw(st.lists(st.integers(0, len(message)), max_size=6))
        ours, reference = _stream_and_reference(message, cuts)
        assert ours == reference

    @pytest.mark.parametrize("length", [0, 1, 55, 56, 63, 64, 65, 119, 120, 128])
    def test_boundary_lengths_and_block_counts(self, length):
        message = bytes(range(256))[:length]
        for cut in {0, length // 2, max(length - 1, 0)}:
            ours, reference = _stream_and_reference(message, [cut])
            assert ours == reference
            assert ours[1] == (length + 9 + 63) // BLOCK_SIZE

    @given(
        st.lists(st.integers(0, 0xFFFFFFFF), min_size=8, max_size=8),
        st.lists(
            st.lists(st.integers(0, 0xFFFFFFFF), min_size=16, max_size=16),
            max_size=5,
        ),
    )
    def test_memoised_block_chain_matches_compress(self, start, blocks):
        hasher = SHA256.from_state(start, 0)
        state = start
        for block in blocks:
            hasher.update_block_words(block)
            state = _compress(state, block)
        assert hasher.state_words == state

    def test_aligned_blocks_on_byte_stream(self):
        """Whole blocks after aligned bytes are still accepted."""
        data = bytes(range(128))
        hasher = SHA256()
        hasher.update(data[:64])
        hasher.update_block_words(bytes_to_words(data[64:]))
        assert hasher.digest() == reference_sha256(data)

    def test_mixing_interfaces_still_raises(self):
        hasher = SHA256()
        hasher.update(b"x" * 65)
        with pytest.raises(RuntimeError):
            hasher.update_block_words([0] * 16)
        with pytest.raises(RuntimeError):
            hasher.state_words
        resumed = SHA256.from_state(list(_H0), 64)
        resumed.update(b"odd")
        with pytest.raises(RuntimeError):
            resumed.update_block_words([0] * 16)


class TestCompressMemo:
    def test_cache_stays_bounded(self):
        _compress_memo.cache_clear()
        hasher = SHA256()
        for i in range(COMPRESS_MEMO_SIZE + 50):
            hasher.update_block_words([i] + [0] * 15)
        # Full (every input was distinct), yet no larger than the cap.
        assert _compress_memo.cache_info().currsize == COMPRESS_MEMO_SIZE

    def test_mutating_returned_state_does_not_leak(self):
        block = list(range(16))
        first = SHA256()
        first.update_block_words(block)
        leaked = first.state_words
        expected = list(leaked)
        leaked[0] ^= 0xFFFFFFFF
        block[0] ^= 0xFFFFFFFF
        second = SHA256()
        second.update_block_words(list(range(16)))
        assert second.state_words == expected == _compress(_H0, range(16))
        assert first.state_words == expected
