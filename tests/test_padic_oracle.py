import math
import random

import pytest

from tamegal import numtheory as nt
from tamegal import padic_oracle as po


def test_build_field_examples():
    f7 = po.build_field(7, 1)
    assert f7.card == 7
    f25 = po.build_field(5, 2)
    assert f25.card == 25
    f243 = po.build_field(3, 5)
    assert f243.card == 243
    g = f243.generator()
    assert po.multiplicative_order(g) == 242


def test_build_field_modulus_deterministic():
    # F_4 has exactly one irreducible with the least coefficient code: X^2+X+1
    assert po.build_field(2, 2).modulus == (1, 1, 1)
    for p, k in ((3, 2), (5, 3), (7, 2), (2, 8)):
        assert po.build_field(p, k).modulus == po.build_field(p, k).modulus
        coeffs = po.build_field(p, k).modulus
        assert len(coeffs) == k + 1 and coeffs[-1] == 1


def test_build_field_caps():
    with pytest.raises(po.FieldSizeError):
        po.build_field(2, 13)
    with pytest.raises(po.FieldSizeError):
        po.build_field(2**31 - 1, 3)
    with pytest.raises(ValueError):
        po.build_field(10, 1)


def test_element_carries_field_parameters():
    x = po.build_field(5, 2).element([1, 2])
    assert (x.p, x.k) == (5, 2)
    assert len(x.coeffs) == 2


def test_field_arithmetic_is_a_field():
    f = po.build_field(3, 2)
    elems = list(f.elements())
    assert len(elems) == 9
    one, zero = f.one(), f.zero()
    for x in elems:
        assert x + zero == x and x * one == x
        if not x.is_zero():
            assert x * x.inverse() == one
    # Frobenius x -> x^p is additive (spot check on all pairs)
    for x in elems:
        for y in elems:
            assert (x + y) ** 3 == x**3 + y**3


def test_multiplicative_order_examples():
    f7 = po.build_field(7)
    assert po.multiplicative_order(f7.element(3)) == 6
    assert po.multiplicative_order(f7.element(1)) == 1
    assert po.multiplicative_order(f7.element(2)) == 3
    with pytest.raises(ZeroDivisionError):
        po.multiplicative_order(f7.element(0))


def test_discrete_log_order_consistency():
    rng = random.Random(5)
    for p, k in ((7, 1), (5, 2), (3, 4), (13, 2), (101, 1)):
        f = po.build_field(p, k)
        g = f.generator()
        assert po.multiplicative_order(g) == f.card - 1
        for _ in range(8):
            e = rng.randrange(f.card - 1)
            x = g**e
            assert x ** po.multiplicative_order(x) == f.one()


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


def _count_roots_in_field(field, d, w_int):
    if field.k == 1:
        p = field.p
        w = w_int % p
        return sum(1 for x in range(p) if pow(x, d, p) == w)
    w = field.element(w_int)
    return sum(1 for x in field.elements() if x**d == w)


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
                if _count_roots_in_field(po.build_field(p, k), d, w) == d:
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
    count = _count_roots_in_field(po.build_field(p, 1), d, w)
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


def test_kummer_with_extension_field_unit():
    # twisted constant: a primitive 8th root of unity in F_9 (base is the
    # unramified quadratic extension of the 3-adics)
    f9 = po.build_field(3, 2)
    zeta8 = f9.generator()
    assert po.multiplicative_order(zeta8) == 8
    inv = po.kummer_local_invariants(3, 8, 1, zeta8)
    assert inv.e == 8
    assert inv.f % inv.f0 == 0
    assert (9**inv.f - 1) % inv.e == 0
    # degenerate twist: w = 1 in the extension matches the prime-field call
    inv_ext = po.kummer_local_invariants(3, 8, 1, f9.one())
    assert (inv_ext.e, inv_ext.f0) == (8, 1)  # mu_8 lives in F_9 already


def test_stratum_degree_law_spot():
    # for d an odd prime power and p = 1 mod 3, f(p, d, 1, 1) = d / gcd(d, p-1)
    for p, d in ((7, 9), (13, 9), (19, 9), (31, 27), (109, 27)):
        inv = po.kummer_local_invariants(p, d, 1, 1)
        assert inv.f == d // math.gcd(d, p - 1), (p, d)
    # outside that stratum the degree is ord_d(p) instead: p = 11, d = 9
    inv = po.kummer_local_invariants(11, 9, 1, 1)
    assert inv.f == nt.multiplicative_order_mod(11, 9) == 6
    assert inv.f != 9 // math.gcd(9, 10)
