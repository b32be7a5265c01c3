import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from tamegal import numtheory as nt
from tamegal import padic_oracle as po


def test_kummer_examples():
    inv = po.kummer_local_invariants(7, 3, 1, 1)
    assert (inv.e, inv.f, inv.f0) == (3, 1, 1)
    inv = po.kummer_local_invariants(7, 3, 0, 2)  # 2 is not a cube mod 7
    assert (inv.e, inv.f, inv.f0) == (1, 3, 1)
    inv = po.kummer_local_invariants(5, 3, 1, 1)
    assert (inv.e, inv.f, inv.f0) == (3, 2, 2)
    assert inv.total_degree == 6


def test_kummer_edge_cases():
    assert po.kummer_local_invariants(7, 1, 5, 3) == po.KummerLocalInvariants(1, 1, 1, 1)
    # negative valuations reduce mod d
    a = po.kummer_local_invariants(7, 3, -1, 1)
    b = po.kummer_local_invariants(7, 3, 2, 1)
    assert (a.e, a.f) == (b.e, b.f)
    with pytest.raises(po.WildRamificationError):
        po.kummer_local_invariants(3, 9, 1, 1)
    with pytest.raises(ValueError):
        po.kummer_local_invariants(7, 3, 1, 0)
    with pytest.raises(ValueError):
        po.kummer_local_invariants(8, 3, 1, 1)


# Scalar polynomial arithmetic over F_p (dense coefficient lists, low degree
# first) and Rabin's irreducibility test: enough to pick a modulus for GF(p^k)
# so that the root counts below enumerate a field the oracle never builds.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    deg = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * mod[j]) % p
    return _poly_trim(prod[:deg] if len(prod) > deg else prod)


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic on the fly
        inv_lead = pow(b[-1], -1, p)
        while len(a) >= len(b) and a:
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _poly_trim(a)
        a, b = b, a
    return a


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial over F_p (low-first coefficients)."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    x = [0, 1]
    xqk = _poly_powmod(x, p**k, coeffs, p)
    if _poly_trim([(c - d) % p for c, d in _zip_pad(xqk, x)]):
        return False
    for r in nt.factorize(k):
        xq = _poly_powmod(x, p ** (k // r), coeffs, p)
        diff = _poly_trim([(c - d) % p for c, d in _zip_pad(xq, x)])
        g = _poly_gcd(list(coeffs), diff, p)
        if len(g) != 1:
            return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p with the smallest coefficient
    code sum(c_i p^i)."""
    if k == 1:
        return (0, 1)
    code = 0
    while True:
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
        code += 1


def _mulmod_all(a, b, mod, p):
    """Row-wise product of two (N, k) coefficient arrays in F_p[X]/(mod)."""
    k = a.shape[1]
    prod = np.zeros((a.shape[0], 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, i : i + k] += a[:, i : i + 1] * b
    prod %= p
    for i in range(2 * k - 2, k - 1, -1):
        prod[:, i - k : i] = (prod[:, i - k : i] - prod[:, i : i + 1] * mod[:k]) % p
    return prod[:, :k]


def _count_roots_in_field(p, k, d, w):
    """Number of x in GF(p^k) with x^d = w, every element powered at once."""
    mod = np.array(_least_irreducible(p, k), dtype=np.int64)
    codes = np.arange(p**k, dtype=np.int64)
    base = codes[:, None] // p ** np.arange(k, dtype=np.int64) % p
    result = np.zeros_like(base)
    result[:, 0] = 1
    e = d
    while e:
        if e & 1:
            result = _mulmod_all(result, base, mod, p)
        base = _mulmod_all(base, base, mod, p)
        e >>= 1
    target = np.zeros(k, dtype=np.int64)
    target[0] = w % p
    return int((result == target).all(axis=1).sum())


def test_least_irreducible_examples():
    # F_4 has exactly one irreducible quadratic: X^2 + X + 1
    assert _least_irreducible(2, 2) == (1, 1, 1)
    for p, k in ((3, 2), (5, 3), (7, 2), (2, 8)):
        coeffs = _least_irreducible(p, k)
        assert len(coeffs) == k + 1 and coeffs[-1] == 1
        assert _is_irreducible(list(coeffs), p)
    assert not _is_irreducible([1, 0, 1], 5)  # X^2 + 1 = (X - 2)(X + 2) mod 5


def test_root_count_cross_check():
    """f from the invariants equals the least k with d roots of X^d = w in
    the field of p^k elements, found by direct enumeration."""
    rng = random.Random(11)
    cases = [(7, 3), (7, 6), (5, 4), (5, 3), (11, 5), (13, 4), (3, 5), (17, 8)]
    checked = 0
    for p, d in cases:
        for w in rng.sample(range(1, p), min(3, p - 1)):
            f = po.kummer_local_invariants(p, d, 0, w).f
            found = None
            k = 1
            while p**k <= 10**5:
                if _count_roots_in_field(p, k, d, w) == d:
                    found = k
                    break
                k += 1
            if found is None:
                continue  # splitting field too big to enumerate; skip sample
            assert found == f, (p, d, w)
            checked += 1
    assert checked >= 12
    # one larger prime-field instance near the documented 10^6 bound
    p, d, w = 99991, 6, 3
    f = po.kummer_local_invariants(p, d, 0, w).f
    count = _count_roots_in_field(p, 1, d, w)
    assert (count == d) == (f == 1)


def test_tameness_invariant():
    rng = random.Random(3)
    for _ in range(60):
        p = int(rng.choice([3, 5, 7, 11, 13, 101, 997]))
        d = rng.randrange(1, 30)
        if d % p == 0:
            continue
        v = rng.randrange(-5, 9)
        w = rng.randrange(1, p)
        inv = po.kummer_local_invariants(p, d, v, w)
        assert inv.e == d // math.gcd(d, v)
        assert inv.f % inv.f0 == 0
        assert (p**inv.f - 1) % inv.e == 0
        assert inv.total_degree == inv.e * inv.f


def test_kummer_huge_cyclotomic_layer():
    # ord_27(2) = 18, so the cyclotomic residue field has 2^18-digit-scale
    # cardinality; the computation must not materialize it
    inv = po.kummer_local_invariants(99991, 27, 1, 1)
    assert inv.f0 == nt.multiplicative_order_mod(99991 % 27, 27)
    assert inv.e == 27 and inv.f == inv.f0


def test_kummer_f0_at_large_modulus():
    # d = 10000019: p^f0 has millions of digits and is never formed; f0 is
    # checked by its defining property, the order of p mod d
    p, d = 3, 10000019
    inv = po.kummer_local_invariants(p, d, 1, 1)
    assert pow(p, inv.f0, d) == 1
    assert all(pow(p, inv.f0 // q, d) != 1 for q in nt.factorize(inv.f0))
    assert inv.e == d and inv.f == inv.f0


def test_stratum_degree_law_spot():
    # for d an odd prime power and p = 1 mod 3, f(p, d, 1, 1) = d / gcd(d, p-1)
    for p, d in ((7, 9), (13, 9), (19, 9), (31, 27), (109, 27)):
        inv = po.kummer_local_invariants(p, d, 1, 1)
        assert inv.f == d // math.gcd(d, p - 1), (p, d)
    # outside that stratum the degree is ord_d(p) instead: p = 11, d = 9
    inv = po.kummer_local_invariants(11, 9, 1, 1)
    assert inv.f == nt.multiplicative_order_mod(11, 9) == 6
    assert inv.f != 9 // math.gcd(9, 10)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [7.5, 7.0, "7", Fraction(15, 2)], ids=repr)
def test_oracle_refuses_each_argument_that_is_not_an_integer_by_name(field, bad):
    args = [7, 3, 1, 2]
    args[field] = bad
    with pytest.raises(ValueError, match=f"^{'pdvw'[field]} must be an integer, got {re.escape(repr(bad))}$"):
        po.kummer_local_invariants(*args)


def test_oracle_reads_numpy_integers_as_the_ints_they_hold():
    args = (np.int64(7), np.int32(3), np.int16(-1), np.uint8(2))
    assert po.kummer_local_invariants(*args) == po.kummer_local_invariants(7, 3, -1, 2)
    with pytest.raises(ValueError, match=r"^p must be an integer, got 7\.5$"):
        po.kummer_local_invariants(7.5, 9.5, 1.5, 2.5)  # int() read this as (7, 9, 1, 2)
