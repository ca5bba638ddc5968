"""Output checks that do not use legcordial's own verifier.

Residues come from Euler's criterion, product sizes from the closed-form
formulas, and counts and verdicts from ``expected.json``, which was recorded
at the seed commit. Every check returns None when the output is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import json
import os

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

_RESIDUE_TABLES: dict[int, list[bool]] = {}


def residue_table(p: int) -> list[bool]:
    """table[r] is True iff r is a nonzero quadratic residue mod p (Euler's criterion)."""
    table = _RESIDUE_TABLES.get(p)
    if table is None:
        table = [r != 0 and pow(r, (p - 1) // 2, p) == 1 for r in range(p)]
        _RESIDUE_TABLES[p] = table
    return table


def recount(edges, assign, p: int) -> tuple[int, int]:
    """(e0, e1) of a labeling, recounted edge by edge."""
    table = residue_table(p)
    e1 = sum(1 for u, v in edges if table[(assign[u] + assign[v]) % p])
    return len(edges) - e1, e1


def product_shape(op: str, n1: int, q1: int, n2: int, q2: int) -> tuple[int, int]:
    """(order, size) of a binary graph operation from the factors' orders and sizes."""
    if op == "join":
        return n1 + n2, q1 + q2 + n1 * n2
    if op == "corona":
        return n1 * (1 + n2), q1 + n1 * (q2 + n2)
    if op == "lexicographic":
        return n1 * n2, n1 * q2 + q1 * n2 * n2
    if op == "cartesian":
        return n1 * n2, n1 * q2 + n2 * q1
    if op == "tensor":
        return n1 * n2, 2 * q1 * q2
    if op == "strong":
        return n1 * n2, n1 * q2 + n2 * q1 + 2 * q1 * q2
    raise ValueError(op)


def canonical_edges(edges) -> list[tuple[int, int]]:
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def check_labeled_composite(
    order: int, edges, assign, p: int, shape: tuple[int, int], reported: tuple[int, int] | None,
    expected: tuple[int, int] | None = None,
) -> str | None:
    """A composite and its labeling: shape, simple edges, bijection, recount, cordiality."""
    if (order, len(edges)) != shape:
        return f"(order, size) = {(order, len(edges))}, formula gives {shape}"
    if any(not (0 <= u < order and 0 <= v < order) or u == v for u, v in edges):
        return "edge out of range or self-loop"
    if len(set(map(tuple, edges))) != len(edges):
        return "repeated edge"
    if len(assign) != order or sorted(assign) != list(range(1, order + 1)):
        return "labeling is not a bijection onto 1..n"
    tally = recount(edges, assign, p)
    if reported is not None and tally != tuple(reported):
        return f"program reports (e0, e1) = {tuple(reported)}, recount gives {tally}"
    if expected is not None and tally != tuple(expected):
        return f"recount {tally} differs from the recorded {tuple(expected)}"
    if abs(tally[0] - tally[1]) > 1:
        return f"labeling is not cordial: {tally}"
    return None


def check_window(edges, n: int, assign, p: int, lo: int, hi: int) -> str | None:
    """A search witness: a bijection onto 1..n whose e1 - e0 lies in [lo, hi]."""
    if assign is None or sorted(assign) != list(range(1, n + 1)):
        return "witness is not a bijection onto 1..n"
    e0, e1 = recount(edges, assign, p)
    if not lo <= e1 - e0 <= hi:
        return f"witness has e1 - e0 = {e1 - e0}, outside [{lo}, {hi}]"
    return None
