#!/usr/bin/env python3
"""Walk through the number-theory layer: residue tables, Euler's criterion,
and the mod-8 rule for (2/p).

Usage: python demos/legendre_basics.py
"""

from legcordial import (
    LegendreContext,
    euler_criterion,
    is_odd_prime,
    legendre_symbol,
    two_symbol_rule,
)


def main():
    print("Residue tables for small odd primes")
    print("-" * 50)
    for p in (3, 5, 7, 11, 13):
        residues = [r for r, s in enumerate(LegendreContext(p).symbols) if s == 1]
        print(f"p = {p:2d}: residues = {residues}")

    print()
    print("Three ways to compute (a/7), all in agreement")
    print("-" * 50)
    ctx = LegendreContext(7)
    squares = sorted({(x * x) % 7 for x in range(1, 7)})
    print(f"squares mod 7: {squares}")
    for a in range(1, 7):
        table = legendre_symbol(a, ctx)
        euler = euler_criterion(a, 7)
        brute = 1 if a in squares else -1
        mark = "ok" if table == euler == brute else "MISMATCH"
        print(f"  ({a}/7): table {table:+d}  euler {euler:+d}  brute {brute:+d}   {mark}")

    print()
    print("(2/p) follows p mod 8: -1 at +-3, +1 at +-1")
    print("-" * 50)
    for p in filter(is_odd_prime, range(40)):
        rule = two_symbol_rule(p)
        table = legendre_symbol(2, LegendreContext(p))
        print(f"  p = {p:2d} = {p % 8} (mod 8): rule {rule:+d}, table {table:+d}")
        assert rule == table


if __name__ == "__main__":
    main()
