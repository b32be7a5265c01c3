"""Property tests for the arithmetic invariants that hold on all inputs."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tamegal import covers as cv
from tamegal import local_tame as lt
from tamegal import numtheory as nt
from tamegal.padic_oracle import kummer_local_invariants

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 97, 101]

rationals = st.builds(
    Fraction,
    st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=400),
)


@settings(max_examples=150, deadline=None)
@given(a=rationals)
def test_two_squares_criterion_matches_enumeration(a):
    n = a.numerator * a.denominator
    brute = False
    if n > 0:
        x = 0
        while x * x <= n:
            if nt.is_perfect_square(n - x * x):
                brute = True
                break
            x += 1
    assert lt.c4_embeddable_quadratic(a) == brute


@settings(max_examples=100, deadline=None)
@given(t0=rationals, p=st.sampled_from(PRIMES), j=st.integers(min_value=-4, max_value=4))
def test_intersection_multiplicity_shift(t0, p, j):
    shifted = t0 * Fraction(p) ** j
    num, den, v = t0.numerator, t0.denominator, j  # v ends as v_p(shifted)
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    pred = cv.predict_specialization(cv.KummerCover(6, 1, Fraction(1)), shifted, p)
    # t0 meets at most one branch point, clamped at zero on the other
    k_zero = pred.multiplicity if pred.point == cv.ZERO else 0
    k_inf = pred.multiplicity if pred.point == cv.INFINITY else 0
    assert (k_zero, k_inf) == (max(v, 0), max(-v, 0))
    assert pred.point is not None or pred.multiplicity == 0
    assert pred.predicted_e == 6 // math.gcd(6, v)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    d=st.integers(min_value=1, max_value=32),
    v=st.integers(min_value=-6, max_value=12),
    w=st.integers(min_value=1, max_value=10**6),
)
def test_kummer_invariants_structure(p, d, v, w):
    if d % p == 0 or w % p == 0:
        return
    inv = kummer_local_invariants(p, d, v, w)
    assert d % inv.e == 0
    assert inv.f % inv.f0 == 0
    assert inv.e == d // math.gcd(d, v)
    assert (p**inv.f - 1) % inv.e == 0
    assert inv.total_degree == inv.e * inv.f
    # invariants depend on w only through its residue class
    again = kummer_local_invariants(p, d, v, w % p)
    assert (again.e, again.f, again.f0) == (inv.e, inv.f, inv.f0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    d=st.integers(min_value=2, max_value=24),
    v=st.integers(min_value=-4, max_value=8),
    w=st.integers(min_value=1, max_value=10**4),
    u=st.integers(min_value=1, max_value=10**4),
)
def test_kummer_invariants_unchanged_by_dth_power_units(p, d, v, w, u):
    if d % p == 0 or w % p == 0 or u % p == 0:
        return
    base = kummer_local_invariants(p, d, v, w)
    scaled = kummer_local_invariants(p, d, v, w * pow(u, d, p))
    assert (base.e, base.f, base.f0) == (scaled.e, scaled.f, scaled.f0)
