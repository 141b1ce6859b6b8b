"""Deterministic 64-bit pseudorandom streams (splitmix64).

The generator is fixed, with its constants written out, so every stochastic
result in the package is bit-reproducible from its seed.  Modular reduction
of raw outputs is never used directly; bounded draws go through rejection
sampling on the largest multiple of the bound to avoid modulo bias.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_1 = 0xBF58476D1CE4E5B9
MIX_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 output function: a bijective scramble of one 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream: state advances by the golden gamma."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform draw from range(n) via rejection on the top multiple of n."""
        if n < 1:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
