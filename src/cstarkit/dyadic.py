"""Exact arithmetic helpers on dyadic rationals; ``floor_log2`` is the one exponent rule.

Floats are dyadic, so ``Fraction(x)`` is lossless for any finite float and
everything here stays exact.
"""
from __future__ import annotations

from fractions import Fraction


def floor_log2(x: Fraction) -> int:
    """The integer f with 2**f <= x < 2**(f+1), for positive x."""
    if x <= 0:
        raise ValueError(f"expected a positive value, got {x}")
    # 2**(k-1) < n/d < 2**(k+1) for k = bitlen(n) - bitlen(d), so f is k or k - 1
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return k if Fraction(2) ** k <= x else k - 1


def largest_pow2_leq(x: Fraction) -> Fraction:
    """Largest power of two p with p <= x, as an exact Fraction; x must be positive."""
    return Fraction(2) ** floor_log2(x)


def ceil_log2(x: Fraction) -> int:
    """Smallest integer k with 2**k >= x, for positive x."""
    f = floor_log2(x)
    return f if Fraction(2) ** f == x else f + 1


def is_dyadic(x: Fraction) -> bool:
    """True when x has a power-of-two denominator."""
    d = x.denominator
    return d & (d - 1) == 0
