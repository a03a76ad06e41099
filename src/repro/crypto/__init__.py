"""Cryptographic substrate.

The paper's prototype borrows a verified, OpenSSL-derived ARM SHA-256
from Vale and builds an HMAC-SHA256 attestation MAC on top, with a
hardware RNG supplying the boot-time attestation secret.  Here byte-stream
SHA-256 (and so HMAC) runs on OpenSSL through ``hashlib``; the enclave
measurement, which must save and resume SHA-256 chaining state, runs a
from-scratch compression behind a bounded memo, and that from-scratch
code is also the oracle the ``hashlib`` path is tested against.  Cycle
charges count 64-byte blocks (paper section 7.2), so they are the same on
either path.  The package also provides the RSA signing the notary
application needs.
"""

from repro.crypto.hmac import hmac_sha256, hmac_sha256_words
from repro.crypto.rng import HardwareRNG
from repro.crypto.sha256 import SHA256, sha256

__all__ = ["HardwareRNG", "SHA256", "hmac_sha256", "hmac_sha256_words", "sha256"]
