import math
import random
import time
from fractions import Fraction

import pytest

from tamegal import covers as cv
from tamegal import numtheory as nt
from tamegal.padic_oracle import kummer_local_invariants


def test_cover_construction_and_parsing():
    c = cv.parse_cover_spec("d=3,m=1,c=1")
    assert (c.d, c.m, c.c) == (3, 1, Fraction(1))
    c = cv.parse_cover_spec("d=6,m=4,c=-5/7")
    assert c.c == Fraction(-5, 7)
    with pytest.raises(ValueError):
        cv.parse_cover_spec("d=3,m=1")
    with pytest.raises(ValueError):
        cv.KummerCover(1, 1, Fraction(1))
    with pytest.raises(ValueError):
        cv.KummerCover(3, 1, Fraction(0))


def test_branch_data_examples():
    assert cv.branch_data(cv.KummerCover(3, 1, Fraction(1))) == [
        cv.BranchDatum(cv.ZERO, 3),
        cv.BranchDatum(cv.INFINITY, 3),
    ]
    assert cv.branch_data(cv.KummerCover(4, 2, Fraction(1))) == [
        cv.BranchDatum(cv.ZERO, 2),
        cv.BranchDatum(cv.INFINITY, 2),
    ]
    assert cv.branch_data(cv.KummerCover(2, 2, Fraction(1))) == []


def test_intersection_multiplicity_examples():
    assert cv.intersection_multiplicity(Fraction(49, 3), cv.ZERO, 7) == 2
    assert cv.intersection_multiplicity(Fraction(5), cv.ZERO, 7) == 0
    assert cv.intersection_multiplicity(Fraction(3, 125), cv.INFINITY, 5) == 3
    assert cv.intersection_multiplicity(Fraction(1, 7), cv.ZERO, 7) == 0  # clamped
    with pytest.raises(ValueError):
        cv.intersection_multiplicity(Fraction(0), cv.ZERO, 7)


def test_predict_examples():
    pred = cv.predict_specialization(cv.KummerCover(9, 1, Fraction(1)), Fraction(7), 7)
    assert (pred.predicted_e, pred.predicted_f) == (9, 3)
    assert (pred.point, pred.multiplicity) == (cv.ZERO, 1)

    pred = cv.predict_specialization(cv.KummerCover(3, 1, Fraction(1)), Fraction(7**3 * 2), 7)
    assert pred.predicted_e == 1 and pred.predicted_f is None
    assert pred.multiplicity == 3

    pred = cv.predict_specialization(cv.KummerCover(3, 1, Fraction(1)), Fraction(5), 7)
    assert pred.predicted_e == 1 and pred.multiplicity == 0 and pred.point is None

    with pytest.raises(ValueError):
        cv.predict_specialization(cv.KummerCover(3, 1, Fraction(1)), Fraction(0), 7)


def test_exceptional_primes_declared():
    c = cv.KummerCover(6, 1, Fraction(5, 21))
    assert all(c.is_exceptional(p) for p in (2, 3, 5, 7))
    assert not c.is_exceptional(11)
    pred = cv.predict_specialization(c, Fraction(11), 5)
    assert pred.exceptional and pred.predicted_f is None


def test_verify_examples():
    c3 = cv.KummerCover(3, 1, Fraction(1))
    r = cv.verify_beckmann(c3, Fraction(7), 7)
    assert (r.predicted_e, r.predicted_f, r.oracle_e, r.oracle_f) == (3, 1, 3, 1)
    assert r.agree

    r = cv.verify_beckmann(c3, Fraction(2), 7)
    assert r.predicted_e == 1 and r.predicted_f is None
    assert (r.oracle_e, r.oracle_f) == (1, 3)  # 2 is not a cube mod 7
    assert r.agree

    r = cv.verify_beckmann(c3, Fraction(5), 5)
    assert (r.predicted_e, r.predicted_f) == (3, 2)
    assert (r.oracle_e, r.oracle_f) == (3, 2)
    assert r.agree


def test_report_serialization():
    r = cv.verify_beckmann(cv.KummerCover(3, 1, Fraction(1)), Fraction(7), 7)
    d = r.as_dict()
    assert d["cover"] == "d=3,m=1,c=1"
    assert d["intersection"] == {"point": "zero", "multiplicity": 1}
    assert d["agree"] is True
    line = r.to_json_line()
    assert line.startswith("{") and '"agree": true' in line


@pytest.mark.parametrize(
    "cover",
    [
        cv.KummerCover(3, 1, Fraction(1)),
        cv.KummerCover(4, 2, Fraction(1)),
        cv.KummerCover(9, 3, Fraction(2)),
        cv.KummerCover(6, 4, Fraction(5, 7)),
        cv.KummerCover(6, 2, Fraction(-3)),
        cv.KummerCover(2, 2, Fraction(5)),
        cv.KummerCover(27, 9, Fraction(10, 3)),
        cv.KummerCover(12, 8, Fraction(7, 5)),
    ],
)
def test_sweep_laws_general_family(cover):
    reports, summary = cv.sweep(cover, prime_bound=2000, samples=120, seed=17)
    assert summary["disagreements"] == 0
    e_i = cover.branch_inertia_order
    for r in reports:
        if r.exceptional:
            continue
        k = r.intersection[1]
        # ramification-order law
        assert r.oracle_e == e_i // math.gcd(e_i, k)
        # coprime-multiplicity residue law
        if math.gcd(k, e_i) == 1:
            assert r.predicted_f == r.oracle_f
        # unramified by default
        if k == 0:
            assert r.oracle_e == 1


def test_scaling_invariance():
    rng = random.Random(23)
    cover = cv.KummerCover(6, 1, Fraction(5))
    primes = [p for p in (7, 11, 13, 17, 19, 23) if not cover.is_exceptional(p)]
    for _ in range(40):
        p = rng.choice(primes)
        t0 = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * Fraction(p) ** rng.randint(
            -2, 2
        )
        if t0 == 0:
            continue
        u = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        while nt.rational_valuation(u, p) != 0:
            u = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        base = cv.verify_beckmann(cover, t0, p)
        scaled = cv.verify_beckmann(cover, t0 * u**cover.d, p)
        assert (base.oracle_e, base.predicted_e) == (scaled.oracle_e, scaled.predicted_e)
        assert base.intersection[1] == scaled.intersection[1]
        assert base.predicted_f == scaled.predicted_f


def test_degenerate_cover_always_unramified():
    for cover in (cv.KummerCover(2, 2, Fraction(1)), cv.KummerCover(3, 6, Fraction(5))):
        reports, summary = cv.sweep(cover, prime_bound=500, samples=60, seed=3)
        assert summary["disagreements"] == 0
        assert all(r.oracle_e == 1 for r in reports)
        assert cv.branch_data(cover) == []


def test_negative_specialization_points():
    c3 = cv.KummerCover(3, 1, Fraction(1))
    r = cv.verify_beckmann(c3, Fraction(-7), 7)
    assert r.intersection == (cv.ZERO, 1)
    assert (r.oracle_e, r.predicted_e) == (3, 3)
    assert r.agree
    # -1 is a cube mod 7, 2 is not: sign changes f at unramified primes
    r_neg = cv.verify_beckmann(c3, Fraction(-2), 7)
    assert r_neg.agree and r_neg.oracle_e == 1
    reports, summary = cv.sweep(cv.KummerCover(4, 1, Fraction(3)), 1500, 150, seed=5)
    assert summary["disagreements"] == 0
    assert any(r.t0 < 0 for r in reports)


def ref_sample_points(cover, prime_bound, samples, seed):
    """The stream as first written: a per-prime is_exceptional filter and t0
    built as a product of Fractions."""
    primes = [
        int(p) for p in nt.primes_upto(prime_bound) if not cover.is_exceptional(int(p))
    ]
    if not primes:
        raise ValueError("no non-exceptional primes below the bound")
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        p = rng.choice(primes)
        num = rng.randint(1, 999)
        den = rng.randint(1, 999)
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
        sign = rng.choice((1, -1))
        j = rng.randint(-3, 3)
        t0 = Fraction(sign * num, den) * Fraction(p) ** j
        out.append((t0, p))
    return out


# the kummer-sweep and large-modulus benchmark covers at their prime bounds,
# plus two with a non-integral c
_SAMPLED_COVERS = (
    [(f"d={d},m=1,c=1", 10**6) for d in (2, 3, 4, 5, 6, 9, 27)]
    + [(s, 10**6) for s in ("d=12,m=4,c=5", "d=27,m=3,c=2/7", "d=60,m=6,c=3")]
    + [(f"d={d},m=1,c=1", 10**5) for d in (1009, 2003, 4001, 9973)]
    + [("d=6,m=1,c=2/7", 10**4), ("d=5,m=2,c=-5/3", 10**4)]
)


@pytest.mark.parametrize("spec,bound", _SAMPLED_COVERS)
def test_sample_points_matches_per_prime_filter(spec, bound):
    cover = cv.parse_cover_spec(spec)
    for seed in (0, 17, 1_000_003 * 101 + 9):
        got = cv.sample_points(cover, bound, 400, seed)
        want = ref_sample_points(cover, bound, 400, seed)
        assert got == want
        assert all(type(p) is int for _, p in got)
        assert [str(t0) for t0, _ in got] == [str(t0) for t0, _ in want]


@pytest.mark.parametrize("spec,bound", [("d=6,m=1,c=5/7", 10), ("d=2,m=3,c=-5/3", 6), ("d=3,m=1,c=1", 1)])
def test_sample_points_refuses_when_every_prime_is_exceptional(spec, bound):
    cover = cv.parse_cover_spec(spec)
    for sampler in (cv.sample_points, ref_sample_points):
        with pytest.raises(ValueError, match="no non-exceptional primes"):
            sampler(cover, bound, 5, 0)


def ref_oracle(cover, t0, p):
    """The oracle's (e, f) as first written: v and w read off the Fraction
    u = c*t0^m."""
    u = cover.c * Fraction(t0) ** cover.m
    inv = kummer_local_invariants(p, cover.d, nt.rational_valuation(u, p), nt.unit_residue(u, p))
    return inv.e, inv.f


@pytest.mark.parametrize("spec,bound", _SAMPLED_COVERS)
def test_oracle_from_the_splits_of_c_and_t0_matches_the_fraction(spec, bound):
    cover = cv.parse_cover_spec(spec)
    points = cv.sample_points(cover, bound, 300, 3)
    # the sample leaves out the primes that divide c
    c_primes = [p for p in (3, 5, 7) if cover.c.numerator * cover.c.denominator % p == 0]
    points += [
        (Fraction(a, 13) * Fraction(p) ** j, p)
        for p in c_primes if cover.d % p for j in (-2, 0, 3) for a in (1, -11)
    ]
    for t0, p in points:
        r = cv.verify_beckmann(cover, t0, p)
        assert (r.oracle_e, r.oracle_f) == ref_oracle(cover, t0, p), (t0, p)


def test_oracle_cost_does_not_grow_with_m_squared():
    start = time.perf_counter()
    t0 = Fraction(997 * 97**3, 991)
    cover = cv.KummerCover(3, 10**5, Fraction(5, 97))
    r = cv.verify_beckmann(cover, t0, 97)
    _, summary = cv.sweep(cv.KummerCover(3, 10**5, Fraction(1)), 100, 2, seed=0)
    assert time.perf_counter() - start < 1
    w = 5 * pow(997 * pow(991, -1, 97), 10**5, 97) % 97
    inv = kummer_local_invariants(97, 3, 3 * 10**5 - 1, w)
    assert (r.oracle_e, r.oracle_f) == (inv.e, inv.f)
    assert summary["samples"] == 2


def test_sweep_determinism():
    cover = cv.KummerCover(3, 1, Fraction(1))
    r1, s1 = cv.sweep(cover, 1000, 50, seed=9)
    r2, s2 = cv.sweep(cover, 1000, 50, seed=9)
    assert [r.as_dict() for r in r1] == [r.as_dict() for r in r2]
    assert s1 == s2
    r4, _ = cv.sweep(cover, 1000, 50, seed=10)
    assert [r.as_dict() for r in r4] != [r.as_dict() for r in r1]


def test_oracle_agrees_at_wild_prime_is_rejected():
    cover = cv.KummerCover(9, 1, Fraction(1))
    with pytest.raises(Exception):
        cv.verify_beckmann(cover, Fraction(5), 3)  # 3 divides d: wild for the oracle
