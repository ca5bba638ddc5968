"""Odd-prime modular arithmetic: primality, quadratic residues, Legendre symbols.

Primality has one test, is_odd_prime's trial division, and check_prime is
the one gate for every function that takes p: it refuses a p over MAX_PRIME
before that test runs. A LegendreContext bundles an odd prime p with a lookup
table classifying every residue 0..p-1 as zero, residue, or nonresidue. The
table is built by enumerating x^2 mod p for x in 1..(p-1)/2, which meets
every residue once; euler_criterion() and two_symbol_rule() provide
independent computation paths so that tests can cross-check the table.
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


def check_prime(p: int) -> None:
    """Refuse a p that exceeds MAX_PRIME, before trial division could run
    long on it, or that is not an odd prime."""
    if type(p) is int and p > MAX_PRIME:
        raise ValueError(f"p exceeds the supported bound {MAX_PRIME}: {p}")
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


class LegendreContext:
    """An odd prime p plus its precomputed residue classification.

    symbols[r] is the Legendre symbol of r for r in 0..p-1: 0 for r = 0,
    +1 for quadratic residues, -1 for nonresidues. Instances are immutable
    after construction and compare by identity.
    """

    __slots__ = ("p", "symbols")

    def __init__(self, p: int):
        check_prime(p)
        table = [-1] * p
        table[0] = 0
        for x in range(1, (p + 1) // 2):
            table[x * x % p] = 1
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


def two_symbol_rule(p: int) -> int:
    """(2/p) from p mod 8: -1 when p = +-3 (mod 8), +1 when p = +-1 (mod 8)."""
    check_prime(p)
    return -1 if p % 8 in (3, 5) else 1
