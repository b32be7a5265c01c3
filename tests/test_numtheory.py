import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamegal import numtheory as nt


def test_primes_upto_matches_naive():
    def naive(n):
        return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]

    assert nt.primes_upto(100).tolist() == naive(100)
    assert nt.primes_upto(1).tolist() == []


def naive_sieve(n):
    mark = [True] * (n + 1)
    for p in range(2, n + 1):
        for q in range(p * p, n + 1, p):
            mark[q] = False
    return [p for p in range(2, n + 1) if mark[p]]


def test_cached_sieve_is_exact_read_only_and_shared():
    # more limits than the cache keeps, each asked for twice, so entries are
    # evicted and sieved again
    limits = [-3, 0, 1, 2, 3, 4, 97, 100, 7919, 20_000]
    for limit in limits + limits[::-1]:
        primes = nt.primes_upto(limit)
        assert primes.dtype == np.int64
        assert primes.tolist() == naive_sieve(limit), limit
        assert not primes.flags.writeable
        if primes.size:
            with pytest.raises(ValueError):
                primes[0] = 4
        assert np.array_equal(nt.primes_upto(limit), primes)
    assert nt.primes_upto(7919).tolist() == naive_sieve(7919)


def test_sieve_cap_is_refused_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="sieve cap 10000000"):
            nt.primes_upto(nt.SIEVE_CAP + 1)
    assert nt.primes_upto(nt.SIEVE_CAP)[-1] == 9_999_991


def test_parse_rational_forms():
    assert nt.parse_rational("1e3") == 1000
    assert nt.parse_rational("2.5e-3") == Fraction(1, 400)
    assert nt.parse_rational("-7/3") == Fraction(-7, 3)
    assert nt.parse_rational(" 3E0_1 ") == 30
    assert nt.parse_rational("1e4300") == 10**4300
    assert nt.parse_rational("1e-0004300") == Fraction(1, 10**4300)
    with pytest.raises(ValueError, match="zero denominator"):
        nt.parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", "1e100000000", "1e00_4_301", "1e" + "9" * 5000])
def test_parse_rational_refuses_decimal_exponents_beyond_the_int_limit(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        nt.parse_rational(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "n,expect",
    [(1, False), (2, True), (97, True), (91, False), (2**31 - 1, True), (10**12 + 39, True)],
)
def test_is_prime(n, expect):
    assert nt.is_prime(n) is expect


def test_is_prime_matches_sieve():
    primes = set(nt.primes_upto(10**5).tolist())
    assert [n for n in range(-5, 10**5) if nt.is_prime(n) != (n in primes)] == []


# psi_k: the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461]
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("psi", PSI)
def test_is_prime_rejects_strong_pseudoprimes(psi):
    f = nt._pollard_rho(psi)  # composite: Pollard rho finds a proper factor
    assert 1 < f < psi and psi % f == 0
    assert nt.is_prime(psi) is False


def test_is_prime_refuses_beyond_psi_13():
    with pytest.raises(ValueError, match=str(PSI_13)):
        nt.is_prime(PSI_13)
    with pytest.raises(ValueError, match="psi_13"):
        nt.is_prime(2**89 - 1)
    # a factor below 43 still decides: no refusal
    assert nt.is_prime(PSI_13 * 41) is False
    assert nt.is_prime(PSI_13 - 1) is False


def test_factorize_refuses_unfactorable_cofactor():
    with pytest.raises(ValueError, match=f"^{2**89 - 1} cannot be factored: its cofactor {2**89 - 1} "):
        nt.factorize(2**89 - 1)
    with pytest.raises(ValueError, match=f"^{48 * (2**89 - 1)} cannot be factored: its cofactor {2**89 - 1} "):
        nt.factorize(48 * (2**89 - 1))
    # Pollard rho splits off 41, and the cofactor psi_13 is refused
    with pytest.raises(ValueError, match=f"its cofactor {PSI_13} >= psi_13"):
        nt.factorize(PSI_13 * 41)
    assert nt.factorize(3 * 2**90) == {2: 90, 3: 1}  # above psi_13, no cofactor left


def _is_prime_by_trial_division(n):
    """Reference: no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(
    st.integers(min_value=-10, max_value=10**10),
    st.builds(lambda a, b: a * b, st.integers(2, 10**5), st.integers(2, 10**5)),
))
def test_is_prime_matches_trial_division(n):
    assert nt.is_prime(n) == _is_prime_by_trial_division(n)


def test_factorize_roundtrip():
    for n in (1, 2, 12, 360, 2**20, 999999, 10**12 + 39, 600851475143):
        fac = nt.factorize(n)
        prod = 1
        for p, a in fac.items():
            assert nt.is_prime(p)
            prod *= p**a
        assert prod == n


def test_divisors():
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(1) == [1]


def test_valuations():
    assert nt.p_split(49 * 3, 7) == (2, 3)
    assert nt.p_split(Fraction(49, 3), 7) == (2, 5)  # 3 * 5 = 1 mod 7
    assert nt.p_split(Fraction(3, 125), 5) == (-3, 3)
    with pytest.raises(ValueError):
        nt.p_split(Fraction(0), 5)


@pytest.mark.parametrize("p", [1, -1, 0])
def test_p_split_refuses_p_below_two(p):
    # p = +-1 divides every numerator, so the strip ran forever; p = 0 divided by zero
    with pytest.raises(ValueError, match="p >= 2"):
        nt.p_split(Fraction(6, 5), p)


def test_unit_residue():
    # 50/3 = 2 * 5^2 / 3; unit part mod 5 is 2 * 3^-1 = 4
    assert nt.p_split(Fraction(50, 3), 5) == (2, (2 * pow(3, -1, 5)) % 5)


def test_p_split():
    # ints, negatives, and x prime to p
    assert nt.p_split(1, 5) == (0, 1)
    assert nt.p_split(-12, 2) == (2, 1)
    assert nt.p_split(-12, 3) == (1, 2)  # -4 = 2 mod 3
    assert nt.p_split(Fraction(-7, 18), 3) == (-2, 1)  # -7/2 = 1 mod 3
    assert nt.p_split(Fraction(-5, 4), 7) == (0, -5 * pow(4, -1, 7) % 7)
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="valuation of zero is undefined"):
            nt.p_split(zero, 5)


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    den=st.integers(min_value=1, max_value=10**6),
    p=st.sampled_from([2, 3, 5, 7, 97, 65537]),
    j=st.integers(min_value=-12, max_value=12),
)
def test_p_split_of_a_shift(num, den, p, j):
    x = Fraction(num, den)
    v, w = nt.p_split(x, p)
    # x / p^v has p in neither numerator nor denominator, and w is its residue
    unit = x / Fraction(p) ** v
    assert unit.numerator % p and unit.denominator % p
    assert (unit.numerator - w * unit.denominator) % p == 0 and 0 < w < p
    assert nt.p_split(x * Fraction(p) ** j, p) == (v + j, w)
    if den == 1:
        assert nt.p_split(num, p) == (v, w)


def test_multiplicative_order_mod():
    assert nt.multiplicative_order_mod(3, 7) == 6
    assert nt.multiplicative_order_mod(2, 7) == 3
    assert nt.multiplicative_order_mod(7, 9) == 3
    with pytest.raises(ValueError):
        nt.multiplicative_order_mod(3, 9)
    assert nt.multiplicative_order_mod(5, 1) == 1
    with pytest.raises(ArithmeticError):
        nt._order_from_multiple(2, 7, 4)  # 2^4 = 2 mod 7: 4 is not a multiple of 3


def _order_by_walk(a, n):
    """Reference: the least k >= 1 with a^k = 1 mod n, by repeated multiplication."""
    k, x = 1, a % n
    while x != 1 % n:
        x = x * a % n
        k += 1
    return k


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=5000), a=st.integers(min_value=-10**6, max_value=10**6))
def test_multiplicative_order_mod_matches_walk(n, a):
    if math.gcd(a, n) != 1:
        return
    assert nt.multiplicative_order_mod(a, n) == _order_by_walk(a, n)


def test_legendre_symbol_matches_square_search():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert nt.legendre_symbol(a, p) == (1 if a in squares else -1)
        assert nt.legendre_symbol(p, p) == 0


def test_square_predicates():
    assert nt.is_rational_square(Fraction(9, 16))
    assert not nt.is_rational_square(Fraction(8, 16))
    assert nt.is_squarefree(30)
    assert not nt.is_squarefree(12)


def test_gcd_zero_convention():
    # stratum arithmetic relies on gcd(d, 0) = d
    assert math.gcd(9, 0) == 9
