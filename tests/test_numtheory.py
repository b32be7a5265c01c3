import math
import re
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
    assert nt.parse_rational(" 3E01 ") == 30
    assert nt.parse_rational("-.5") == Fraction(-1, 2)
    assert nt.parse_rational("7.") == 7
    assert nt.parse_rational("007/0010") == Fraction(7, 10)
    assert nt.parse_rational("9" * 4300 + "/" + "7" * 4300) == Fraction(int("9" * 4300), int("7" * 4300))
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


@pytest.mark.parametrize("text", [
    " 3E0_1 ", "1_0", "+2", "\u0663", "\u0663/\u0664", "1e+3", "+1/2", "3/-4", "1 / 2", "1/2e3",
    "1.5/2", "--1", "-", "", ".", "e3", "1e", "0x10", "nan", "inf", "1,5", "9" * 4301,
    "1/" + "9" * 4301, "0." + "1" * 4301, "1e" + "0" * 4301 + "1",
], ids=lambda t: t if len(t) < 20 else f"{t[:4]}..{len(t)} chars")
def test_parse_rational_refuses_everything_but_ascii_digits_by_name(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^rational .* must be a, a/b or a decimal in ASCII digits"):
        nt.parse_rational(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("x, want", [
    (7, 7), (-3, -3), (0, 0), (2**100, 2**100), ("7", 7), (" 12\n", 12), ("-0", 0), ("007", 7),
    ("9" * 4300, int("9" * 4300)), ("-" + "9" * 4300, -int("9" * 4300)),
])
def test_parse_int_accepts_ints_and_ascii_digit_strings(x, want):
    got = nt.parse_int(x, "n")
    assert got == want and type(got) is int


@pytest.mark.parametrize("x", [
    True, False, 7.0, 7.9, None, [7], Fraction(7), np.int64(7), "", " ", "-", "+2", "1_0", "٣",
    "C12", "7.0", "1e3", "0x10", "--5", "5-", "1 2", "9" * 4301, "-" + "9" * 4301, "9" * 100000,
])
def test_parse_int_refuses_everything_else_by_name(x):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^the count must be an int or at most 4300 ASCII digits"):
        nt.parse_int(x, "the count")
    assert time.perf_counter() - start < 0.1


def test_parse_fields_reads_each_key_once_and_last_to_the_end():
    assert nt.parse_fields(" m = 1 ,d=9,c= -5/7", ("d", "m", "c")) == {"d": "9", "m": "1", "c": "-5/7"}
    assert nt.parse_fields("p=3, e=13, f=3, D = SD:13,3,9 ", ("p", "e", "f"), last="D") == {
        "p": "3", "e": "13", "f": "3", "D": "SD:13,3,9"
    }
    assert nt.parse_fields("a=1", ("a",), last="D") == {"a": "1"}
    # the value of the last field runs to the end, so a key after it is part of it
    assert nt.parse_fields("a=1,D=x,a=2", ("a",), last="D") == {"a": "1", "D": "x,a=2"}
    assert nt.parse_fields("a=,b==", ("a", "b")) == {"a": "", "b": "="}


@pytest.mark.parametrize("text, message", [
    ("d=9,m=1,c=1,x=2", "unknown key 'x'"),
    ("d=9,m=1,D=1,c=1", "unknown key 'D'"),
    ("D=9,m=1,c=1", "unknown key 'D'"),
    ("d=9,d=3,m=1,c=1", "repeated key 'd'"),
    ("d=9,m=1", "missing a key: the keys are d, m, c"),
    ("", "field '' of '' is not key=value"),
    ("d=9,m=1,c=1,", "field '' of 'd=9,m=1,c=1,' is not key=value"),
    ("d=9,m,c=1", "field 'm' of 'd=9,m,c=1' is not key=value"),
    ("d=9;m=1;c=1", "missing a key"),
])
def test_parse_fields_refuses_unknown_repeated_and_missing_keys(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        nt.parse_fields(text, ("d", "m", "c"))


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


def primes_agree_upto(bound: int) -> int:
    """Exact primality against the sieve, for every 0 <= n <= bound; returns
    the number of primes.

    The memo is cleared, then every n is asked for cold, in increasing order,
    each a miss; then warm, as np.int64(n) in decreasing order, so the last
    _PRIME_CACHE_SIZE values of the cold pass hit first: the warm pass must
    hit min(bound + 1, cache size) times and give the same answers, which
    checks that the memo is keyed on the int that n reads as.

    Tier-1 runs it to 10^4 (1,229 primes); the CI workflow also runs it to
    10^6 (78,498 primes), as a step of its own."""
    size = nt._is_prime.cache_info().maxsize
    sieve = np.zeros(bound + 1, dtype=bool)
    sieve[nt.primes_upto(bound)] = True
    want = sieve.tolist()
    nt._is_prime.cache_clear()
    cold = [nt.is_prime(n) for n in range(bound + 1)]
    assert cold == want and nt._is_prime.cache_info().misses == bound + 1
    warm = [nt.is_prime(np.int64(n)) for n in range(bound, -1, -1)]
    assert warm[::-1] == want
    assert nt._is_prime.cache_info().hits == min(bound + 1, size)
    return sum(want)


def test_primality_agrees_with_the_sieve_cold_and_warm():
    assert primes_agree_upto(10**4) == 1229


# Carmichael numbers (OEIS A002997 and larger ones): Fermat pseudoprimes to
# every coprime base, so only the strong test tells them from primes
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161]


def test_pseudoprimes_read_alike_cold_and_warm():
    composite = [*PSI, *CARMICHAEL, PSI_13 - 1, PSI_13 * 41]
    prime = [2**61 - 1, 10**18 + 9, 10**24 + 7]
    ns = composite + prime
    nt._is_prime.cache_clear()
    cold = [nt.is_prime(n) for n in ns]
    assert cold == [False] * len(composite) + [True] * len(prime)
    assert nt._is_prime.cache_info().misses == len(set(ns))  # PSI repeats some values
    assert [nt.is_prime(n) for n in ns] == cold
    assert nt._is_prime.cache_info().hits == 2 * len(ns) - len(set(ns))


def test_refused_n_raises_on_every_call_and_is_never_cached():
    nt._is_prime.cache_clear()
    nt.is_prime(7)
    before = nt._is_prime.cache_info()
    for n in (PSI_13, 2**89 - 1):
        for _ in range(3):
            with pytest.raises(ValueError, match=f"^primality of {n} is decided only below psi_13"):
                nt.is_prime(n)
    for x in (7.5, 7.0, "7", Fraction(15, 2), None):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(x))}$"):
                nt.is_prime(x)
    after = nt._is_prime.cache_info()
    assert after.currsize == before.currsize == 1 and after.hits == before.hits
    assert after.maxsize == nt._PRIME_CACHE_SIZE


def test_numpy_integers_and_bool_keep_their_answers():
    assert [nt.is_prime(x) for x in (np.int64(7), np.uint8(2), np.int32(9), True, False)] == [
        True, True, False, False, False]


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


def _orders_by_powering(n):
    """The units a mod n, in increasing order, and the least k >= 1 with
    a^k = 1 mod n for each, by multiplying all of them by themselves at once
    until each has met 1."""
    units = np.array([a for a in range(n) if math.gcd(a, n) == 1], dtype=np.int64)
    order = np.zeros(units.size, dtype=np.int64)
    x, k = units % n, 1
    while not order.all():
        order[(x == 1 % n) & (order == 0)] = k
        x, k = x * units % n, k + 1
    return units.tolist(), order.tolist()


def orders_agree_upto(bound: int) -> int:
    """Exact multiplicative orders against brute-force powering, for every
    unit a mod n and every n <= bound; returns the number of (a, n) pairs.

    For each n the memo is cleared, then every unit is asked for cold, as a
    and in increasing order, then warm, as a - n with n an np.int64 and in
    decreasing order, so the last _ORDER_CACHE_SIZE units of the cold pass
    hit first: the warm pass must hit min(phi(n), cache size) times and read
    the same orders, which checks that the memo is keyed on (a mod n, int(n)).
    Every non-unit raises on two calls in a row and adds nothing to the memo.

    Tier-1 runs it to n <= 300 (27,398 pairs); the CI workflow also runs it
    to n <= 2000 (1,216,588 pairs), as a step of its own."""
    size = nt._order_mod.cache_info().maxsize
    pairs = 0
    for n in range(1, bound + 1):
        units, want = _orders_by_powering(n)
        nt._order_mod.cache_clear()
        cold = [nt.multiplicative_order_mod(a, n) for a in units]
        assert cold == want and nt._order_mod.cache_info().misses == len(units), n
        warm = [nt.multiplicative_order_mod(a - n, np.int64(n)) for a in reversed(units)]
        assert warm[::-1] == want, n
        assert nt._order_mod.cache_info().hits == min(len(units), size), n
        cached = nt._order_mod.cache_info().currsize
        for a in sorted(set(range(n)) - set(units)):
            for _ in range(2):
                try:
                    nt.multiplicative_order_mod(a, n)
                except ValueError as e:
                    assert str(e) == f"{a} is not a unit modulo {n}"
                else:
                    raise AssertionError(f"non-unit {a} mod {n} was given an order")
        assert nt._order_mod.cache_info().currsize == cached, n
        pairs += len(units)
    return pairs


def test_multiplicative_orders_agree_with_powering_cold_and_warm():
    assert orders_agree_upto(300) == 27398


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
