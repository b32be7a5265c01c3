import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamegal import numtheory as nt
from tamegal import prime_strata as ps
from tamegal.padic_oracle import kummer_local_invariants


def naive_primes(bound):
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_stratum_of_examples():
    assert ps.stratum_of(7, 9) == 3
    assert ps.stratum_of(19, 9) == 9
    assert ps.stratum_of(5, 3) == 1  # 5 = 2 mod 3
    assert ps.stratum_of(11, 5) == 5
    with pytest.raises(ValueError):
        ps.stratum_of(2, 9)
    with pytest.raises(ValueError):
        ps.stratum_of(3, 9)
    with pytest.raises(ValueError):
        ps.stratum_of(9, 5)  # not prime


def test_enumerate_stratum_examples():
    s = ps.enumerate_stratum(9, 3, 100)
    assert s.primes == [7, 13, 31, 43, 61, 67, 79, 97]
    s = ps.enumerate_stratum(9, 9, 100)
    assert s.primes == [19, 37, 73]
    # independent recomputation by naive sieve + gcd filter
    for d, e, bound in ((9, 3, 500), (8, 4, 300), (12, 2, 400)):
        expected = [
            p
            for p in naive_primes(bound)
            if p > 2 and d % p and math.gcd(d, p - 1) == e
        ]
        assert ps.enumerate_stratum(d, e, bound).primes == expected


def test_stratum_membership_invariant():
    s = ps.enumerate_stratum(12, 4, 1000)
    for p in s.primes:
        assert p % 2 == 1 and 12 % p
        assert ps.stratum_of(p, 12) == 4


def test_predicted_densities():
    assert ps.predicted_stratum_density(9, 9) == Fraction(1, 6)
    assert ps.predicted_stratum_density(9, 3) == Fraction(1, 3)
    assert ps.predicted_stratum_density(9, 1) == Fraction(1, 2)
    # e = d is always the single residue class 1 mod d
    for d in (5, 8, 12, 27):
        assert ps.predicted_stratum_density(d, d) == Fraction(1, _phi(d))
    # p - 1 is even for odd p, so even d has an empty e = 1 stratum
    assert ps.predicted_stratum_density(8, 1) == 0


def test_degrees_below_one_are_refused_by_name():
    for d, e in ((0, 1), (-6, 2), (-1, 1)):
        for call in (lambda: ps.predicted_stratum_density(d, e), lambda: ps.enumerate_stratum(d, e, 100)):
            with pytest.raises(ValueError, match=f"d={d} must be at least 1"):
                call()


def _phi(d):
    return sum(1 for a in range(d) if math.gcd(a, d) == 1)


def _density_by_residues(d, e):
    """Reference: count the units a mod d with gcd(d, a - 1) = e."""
    if d == 1:
        return Fraction(1)
    # math.gcd(d, 0) = d, matching the a = 1 residue landing in the top stratum
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    hits = sum(1 for a in units if math.gcd(d, a - 1) == e)
    return Fraction(hits, len(units))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=1, max_value=2000), data=st.data())
def test_predicted_density_matches_residue_count(d, data):
    e = data.draw(st.sampled_from(nt.divisors(d)))
    assert ps.predicted_stratum_density(d, e) == _density_by_residues(d, e)


def test_predicted_density_rejects_non_divisors():
    for d, e in ((9, 2), (9, 0), (9, -3)):
        with pytest.raises(ValueError):
            ps.predicted_stratum_density(d, e)


def test_enumerate_stratum_matches_gcd_reference():
    """The congruence filter against math.gcd(d, p - 1) == e, prime by prime,
    with the empirical density over the odd primes not dividing d."""
    bound = 20_000
    odd = naive_primes(bound)[1:]
    rng = random.Random(20240611)
    ds = [rng.randint(1, 10**6) for _ in range(300)]
    ds += [1, 2, 3**12, 2**19, 7**7, 9973, 19997, 20011, 2 * 55001, 2**3 * 3**2 * 5 * 7 * 11 * 13]
    for d in ds:
        coprime = [p for p in odd if d % p]
        gcds = [math.gcd(d, p - 1) for p in coprime]
        for e in nt.divisors(d):
            s = ps.enumerate_stratum(d, e, bound)
            want = [p for p, g in zip(coprime, gcds) if g == e]
            assert s.primes == want, (d, e)
            assert s.empirical_density == Fraction(len(want), len(coprime)), (d, e)


def test_strata_partition():
    for d in (8, 9, 12):
        bound = 3000
        primes = [p for p in naive_primes(bound) if p > 2 and d % p]
        total = sum(len(ps.enumerate_stratum(d, e, bound).primes) for e in nt.divisors(d))
        assert total == len(primes)
        # predicted densities over all divisors sum to 1
        assert sum(ps.predicted_stratum_density(d, e) for e in nt.divisors(d)) == 1


def test_lemma32_prime_set_examples():
    # p = 1 mod 5 below 50 are 11, 31, 41; drop 31 = 1 mod 3
    assert ps.lemma32_prime_set(3, 5, 50) == [11, 41]
    # p = 1 mod 3 below 100 minus those = 1 mod 5 (31 and 61)
    assert ps.lemma32_prime_set(5, 3, 100) == [7, 13, 19, 37, 43, 67, 73, 79, 97]
    # independent recomputation
    for q, r, bound in ((3, 5, 400), (5, 3, 400), (7, 11, 800)):
        expected = [p for p in naive_primes(bound) if p % r == 1 and p % q != 1]
        assert ps.lemma32_prime_set(q, r, bound) == expected


def test_lemma32_prime_set_errors():
    with pytest.raises(ValueError):
        ps.lemma32_prime_set(2, 3, 50)  # q = 2 rejected
    with pytest.raises(ValueError):
        ps.lemma32_prime_set(3, 3, 50)
    with pytest.raises(ValueError):
        ps.lemma32_prime_set(3, 4, 50)  # r not prime
    with pytest.raises(ValueError, match="raise the bound"):
        ps.lemma32_prime_set(3, 5, 10)  # empty at this bound


def test_lemma32_members_are_stratum_compatible():
    for q, r in ((3, 5), (5, 3), (3, 7)):
        for p in ps.lemma32_prime_set(q, r, 500):
            assert ps.stratum_of(p, r) == r
            assert ps.stratum_of(p, q) == 1


def test_biquadratic_split_examples():
    assert 1 in ps.biquadratic_split(2, 5, 7)  # 2 = 3^2 mod 7
    assert ps.biquadratic_split(3, 5, 7) == {3}
    with pytest.raises(ValueError):
        ps.biquadratic_split(-1, -1, 7)  # product is a square: degenerate
    with pytest.raises(ValueError):
        ps.biquadratic_split(2, 5, 5)  # ramified
    with pytest.raises(ValueError):
        ps.biquadratic_split(4, 5, 7)  # not squarefree
    with pytest.raises(ValueError):
        ps.biquadratic_split(2, 5, 9)  # not prime


def test_biquadratic_split_matches_symbols():
    for p in (7, 11, 13, 17, 19, 23):
        for a, b in ((2, 5), (3, 5), (-2, 3), (-5, -7), (2, 3)):
            if (2 * a * b) % p == 0:
                continue
            got = ps.biquadratic_split(a, b, p)
            want = {
                j + 1
                for j, val in enumerate((a, b, a * b))
                if nt.legendre_symbol(val, p) == 1
            }
            assert got == want
            assert got  # pigeonhole: never empty


def test_cross_module_stratum_degree_law():
    # members of the stratum (d odd prime power, e) give oracle degree d/e
    for d, e in ((9, 3), (9, 9), (27, 3), (27, 9), (27, 27)):
        for p in ps.enumerate_stratum(d, e, 400).primes:
            inv = kummer_local_invariants(p, d, 1, 1)
            assert inv.f == d // e, (d, e, p)
