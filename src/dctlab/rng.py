"""Counter-based deterministic randomness for scenarios.

Every random choice in a simulation run is drawn from a :class:`SeedStream`
so that (scenario, seed) fully determines the outcome on any platform.
Streams are derived hierarchically: the scenario owns a root stream and each
device, the server, and each attack get labelled child streams, which keeps
draws independent of scheduling order.

Not a CSPRNG. Reproducibility is the goal here, not unpredictability.
"""

from __future__ import annotations

import hashlib
import struct

# 32 letters and digits, without the look-alikes I, O, 0 and 1
TOKEN_ALPHABET = "ABCDEFGHJKLMNPQRSTUVWXYZ23456789"


class SeedStream:
    """SHA-256 counter-mode byte stream with labelled sub-streams."""

    def __init__(self, seed: int | bytes, label: str = ""):
        if isinstance(seed, int):
            seed = struct.pack(">Q", seed & 0xFFFFFFFFFFFFFFFF)
        self._key = hashlib.sha256(b"dctlab:seed:" + seed + b":" + label.encode()).digest()
        self._counter = 0
        self._buffer = b""

    def child(self, label: str) -> "SeedStream":
        """Independent stream derived from this one; does not consume bytes."""
        return SeedStream(self._key, label)

    def take(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(self._key + struct.pack(">Q", self._counter)).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def at(self, offset: int, n: int) -> bytes:
        """Bytes offset .. offset + n of the stream, as take(n) gives them
        after take(offset) on a fresh stream; consumes nothing."""
        first, last = offset // 32, -(-(offset + n) // 32)
        blocks = b"".join(hashlib.sha256(self._key + struct.pack(">Q", c)).digest()
                          for c in range(first, last))
        return blocks[offset - 32 * first:][:n]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        span = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < span:
                return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def token(self, length: int) -> str:
        return "".join(TOKEN_ALPHABET[self.randrange(len(TOKEN_ALPHABET))] for _ in range(length))
