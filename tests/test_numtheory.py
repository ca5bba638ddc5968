import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcordial.numtheory import (
    LegendreContext,
    check_prime,
    euler_criterion,
    is_odd_prime,
    legendre_symbol,
    two_symbol_rule,
)

from oracles import brute_symbol

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_is_odd_prime_examples():
    assert not is_odd_prime(2)
    assert is_odd_prime(3)
    assert not is_odd_prime(9)
    assert not is_odd_prime(0)
    assert not is_odd_prime(1)
    assert is_odd_prime(9973)


def test_context_rejects_bad_p():
    for bad in (1, 2, 4, 9, 15, 3.0, 7.0):
        with pytest.raises(ValueError):
            LegendreContext(bad)
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {bad}"):
            check_prime(bad)
    with pytest.raises(ValueError):
        LegendreContext(10007)  # above the size cap


def test_context_repr():
    assert repr(LegendreContext(7)) == "LegendreContext(p=7)"


def test_prime_over_the_cap_is_refused_before_trial_division(monkeypatch):
    from legcordial import numtheory

    def capped(n):
        assert not (type(n) is int and n > numtheory.MAX_PRIME), "trial division ran above the cap"
        return is_odd_prime(n)

    monkeypatch.setattr(numtheory, "is_odd_prime", capped)
    for big in (2**127 - 1, 10_007, 10_001):
        for refuse in (check_prime, two_symbol_rule):  # (2/p) shares the gate
            with pytest.raises(ValueError, match=f"p exceeds the supported bound 10000: {big}"):
                refuse(big)
    check_prime(9973)
    assert two_symbol_rule(9973) == -1  # 9973 = 5 (mod 8)
    with pytest.raises(ValueError, match="p must be an odd prime, got 10007.0"):
        check_prime(10007.0)  # not an int: named as not a prime


def test_residue_sets():
    for p, residues in ((3, [1]), (5, [1, 4]), (7, [1, 2, 4])):
        assert [r for r, s in enumerate(LegendreContext(p).symbols) if s == 1] == residues


def test_symbol_examples():
    assert legendre_symbol(1, LegendreContext(7)) == 1
    assert legendre_symbol(2, LegendreContext(3)) == -1
    assert legendre_symbol(3, LegendreContext(7)) == -1
    assert legendre_symbol(14, LegendreContext(7)) == 0


def test_two_symbol_rule_examples():
    assert two_symbol_rule(3) == -1
    assert two_symbol_rule(7) == 1
    assert two_symbol_rule(11) == -1
    for bad in (9, 5.0):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {bad}"):
            two_symbol_rule(bad)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_three_paths_agree(p):
    ctx = LegendreContext(p)
    for a in range(1, p):
        table = legendre_symbol(a, ctx)
        assert table == euler_criterion(a, p)
        assert table == brute_symbol(a, p)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_residue_counts_balanced(p):
    ctx = LegendreContext(p)
    assert ctx.symbols.count(1) == (p - 1) // 2
    assert ctx.symbols.count(-1) == (p - 1) // 2


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_reduction_property(p):
    ctx = LegendreContext(p)
    for a in range(-10 * p, 10 * p + 1):
        assert legendre_symbol(a, ctx) == legendre_symbol(a % p, ctx)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=-(10**6), max_value=10**6))
@settings(max_examples=120)
def test_symbol_matches_euler_everywhere(p, a):
    assert legendre_symbol(a, LegendreContext(p)) == euler_criterion(a, p)


def test_mod8_rule_matches_table():
    for p in filter(is_odd_prime, range(500)):
        assert two_symbol_rule(p) == legendre_symbol(2, LegendreContext(p))
