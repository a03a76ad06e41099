"""HMAC-SHA256: RFC 4231 vectors, from-scratch oracle, word interface."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.bits import bytes_to_words
from repro.crypto.hmac import constant_time_equal, hmac_sha256, hmac_sha256_words
from tests.crypto.reference import reference_hmac

# RFC 4231 test cases (key, data, expected HMAC-SHA256).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        b"\xaa" * 131,  # key longer than a block: must be hashed first
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
]


class TestRFC4231:
    @pytest.mark.parametrize("key,data,expected", RFC4231)
    def test_vectors(self, key, data, expected):
        assert hmac_sha256(key, data).hex() == expected
        assert reference_hmac(key, data).hex() == expected


class TestAgainstStdlib:
    """The from-scratch reference HMAC checked against the stdlib.

    ``hmac_sha256`` itself runs on ``hashlib``; it is checked against
    the reference in :class:`TestFastPathDifferential`.
    """

    @given(st.binary(max_size=200), st.binary(max_size=300))
    @settings(max_examples=100)
    def test_matches_stdlib(self, key, message):
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert reference_hmac(key, message) == expected


class TestFastPathDifferential:
    @given(st.binary(max_size=130), st.binary(max_size=300))
    @settings(max_examples=150)
    def test_matches_reference_with_block_counts(self, key, message):
        ours, reference = [], []
        mac = hmac_sha256(key, message, on_block=lambda: ours.append(1))
        expected = reference_hmac(key, message, on_block=lambda: reference.append(1))
        assert mac == expected
        assert len(ours) == len(reference)

    @pytest.mark.parametrize("key_len", [0, 1, 63, 64, 65, 128, 130])
    def test_key_lengths_around_a_block(self, key_len):
        key = bytes(range(key_len))
        message = b"komodo" * 20
        assert hmac_sha256(key, message) == reference_hmac(key, message)


class TestWordInterface:
    def test_matches_byte_interface(self):
        key_words = [1, 2, 3, 4, 5, 6, 7, 8]
        msg_words = list(range(16))
        from repro.arm.bits import words_to_bytes

        expected = hmac_sha256(words_to_bytes(key_words), words_to_bytes(msg_words))
        assert hmac_sha256_words(key_words, msg_words) == bytes_to_words(expected)

    def test_returns_eight_words(self):
        assert len(hmac_sha256_words([0] * 8, [0] * 16)) == 8

    def test_cost_hook_counts_blocks(self):
        calls = []
        # 8-word key (32B, zero-padded to a block), 16-word message (64B):
        # inner = ipad block + msg block + padding block = 3; outer = 2.
        hmac_sha256_words([0] * 8, [0] * 16, on_block=lambda: calls.append(1))
        assert len(calls) == 5


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal([1, 2, 3], [1, 2, 3])

    def test_unequal_value(self):
        assert not constant_time_equal([1, 2, 3], [1, 2, 4])

    def test_unequal_length(self):
        assert not constant_time_equal([1, 2], [1, 2, 3])

    def test_masks_to_words(self):
        assert constant_time_equal([0x1_0000_0001], [1])

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=8))
    def test_reflexive(self, words):
        assert constant_time_equal(words, list(words))
