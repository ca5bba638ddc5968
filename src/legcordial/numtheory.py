"""Odd-prime modular arithmetic: primality, quadratic residues, Legendre symbols.

A LegendreContext bundles an odd prime p with a lookup table classifying
every residue 0..p-1 as zero, residue, or nonresidue. The table is built by
enumerating x^2 mod p; euler_criterion() provides an independent computation
path so the two can cross-check each other in tests.
"""

from __future__ import annotations

MAX_PRIME = 10_000  # desk-scale cap; keeps every table and label sum tiny


def is_odd_prime(n: int) -> bool:
    """True iff n is an exact int (not a float or bool), prime and >= 3 (trial division)."""
    if type(n) is not int or n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_primes_below(limit: int) -> list[int]:
    """All odd primes < limit, ascending (simple sieve)."""
    if limit <= 3:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(3, limit, 2) if sieve[i]]


def check_prime(p: int) -> None:
    """Refuse a p that is not an odd prime or exceeds MAX_PRIME."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"p exceeds the supported bound {MAX_PRIME}: {p}")


class LegendreContext:
    """An odd prime p plus its precomputed residue classification.

    symbols[r] is the Legendre symbol of r for r in 0..p-1: 0 for r = 0,
    +1 for quadratic residues, -1 for nonresidues. Instances are immutable
    after construction and compare by identity.
    """

    __slots__ = ("p", "symbols")

    def __init__(self, p: int):
        check_prime(p)
        residues = {(x * x) % p for x in range(1, p)}
        table = [0] * p
        for r in range(1, p):
            table[r] = 1 if r in residues else -1
        self.p = p
        self.symbols: tuple[int, ...] = tuple(table)

    def __repr__(self) -> str:
        return f"LegendreContext(p={self.p})"


def legendre_symbol(a: int, ctx: LegendreContext) -> int:
    """Legendre symbol (a/p) by table lookup; a may be any integer."""
    return ctx.symbols[a % ctx.p]


def euler_criterion(a: int, p: int) -> int:
    """Legendre symbol via a^((p-1)/2) mod p, mapped into {-1, 0, +1}.

    Independent of the table path; p is assumed to be an odd prime.
    """
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def quadratic_residues(ctx: LegendreContext) -> frozenset[int]:
    """The (p-1)/2 quadratic residues of p in {1, ..., p-1}."""
    return frozenset(r for r in range(1, ctx.p) if ctx.symbols[r] == 1)


def two_symbol_rule(p: int) -> int:
    """(2/p) from p mod 8: -1 when p = +-3 (mod 8), +1 when p = +-1 (mod 8)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return -1 if p % 8 in (3, 5) else 1
