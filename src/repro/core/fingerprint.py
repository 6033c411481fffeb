"""Fingerprints of XML values (Sec. 4.3).

A fingerprint is a fixed-width digest of the *canonical form* of an XML
value, so value-equal values always share a fingerprint (the DOMHash
idea).  Nested Merge can sort and compare keyed siblings by fingerprint
instead of by full key value; on a fingerprint match it verifies the
actual key values, so a collision never merges distinct nodes — the
sort token appends the actual key value as the final tie-breaker, which
is exactly that verification step expressed as ordering.

:class:`Fingerprinter` with a small ``bits`` value deliberately forces
collisions; the test suite uses it to demonstrate collision safety.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..keys.annotate import KeyLabel, KeyValue


@dataclass(frozen=True)
class Fingerprinter:
    """Digest function over canonical value strings.

    ``bits`` controls the digest width (the paper suggests 64 or 128,
    as for MD5); small widths are useful only to exercise collisions.
    """

    bits: int = 64

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 256:
            raise ValueError(f"Fingerprint width must be 1-256 bits, got {self.bits}")

    def fingerprint(self, canonical_value: str) -> int:
        """Fingerprint of one canonical value string."""
        digest = hashlib.sha256(canonical_value.encode("utf-8")).digest()
        value = int.from_bytes(digest, "big")
        return value >> (256 - self.bits)

    def fingerprint_key(self, key: KeyValue) -> tuple[tuple[str, int], ...]:
        """Fingerprint every component of a key value."""
        return tuple((path, self.fingerprint(value)) for path, value in key)

    def sort_token(self, label: KeyLabel) -> tuple:
        """A ``<=lab`` token ordering by fingerprints first.

        The actual key value trails the digests, so two distinct key
        values that collide on every fingerprint still compare as
        distinct — the collision-verification step of Sec. 4.3.
        """
        return (
            label.tag,
            len(label.key),
            self.fingerprint_key(label.key),
            label.key,
        )
