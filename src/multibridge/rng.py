"""Pinned, portable pseudo-random generator for reproducible sampling.

Python's ``random`` module does not guarantee identical sequences across
interpreter versions for every method, and sampling here must be
byte-reproducible across runs, platforms, and reimplementations. So the
generator is pinned: xoshiro256** (Blackman & Vigna) with its state
initialized from four successive splitmix64 outputs of the seed, exactly
as the reference C implementations specify.

Integer draws below a bound use unbiased rejection sampling: draw 64-bit
words until one falls below ``2**64 - (2**64 % n)``, then reduce mod n.
Shuffles are backward Fisher-Yates. Labeled child streams are seeded with
``splitmix64_mix(seed XOR fnv1a64(label))`` so that each corpus or
language pair gets an independent, stable stream.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_mix(x: int) -> int:
    """One splitmix64 step: advance the state by the golden gamma, then mix."""
    return _mix64((x + 0x9E3779B97F4A7C15) & MASK64)


def fnv1a64(data: str | bytes) -> int:
    """64-bit FNV-1a hash, used only for deriving labeled stream seeds."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Stable child seed for a labeled stream (e.g. one per language pair)."""
    return splitmix64_mix((seed & MASK64) ^ fnv1a64(label))


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** seeded via splitmix64, per the reference implementation."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        sm_state = seed & MASK64
        state = []
        for _ in range(4):
            sm_state = (sm_state + 0x9E3779B97F4A7C15) & MASK64
            state.append(_mix64(sm_state))
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), returned in increasing order.

        Increasing order makes subsequence sampling order-preserving, so
        sampled corpora stay diffable against their parents.
        """
        if k > n:
            raise ValueError(f"cannot sample {k} of {n}")
        # Partial Fisher-Yates over range(n): only the first k slots need
        # settling, and only displaced slots are stored, so memory grows with k, not n.
        moved: dict[int, int] = {}
        chosen = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            chosen.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(chosen)
