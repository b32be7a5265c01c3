import dataclasses
import functools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from test_padic_oracle import _count_roots_in_field

from tamegal import covers as cv
from tamegal import numtheory as nt
from tamegal import padic_oracle
from tamegal.groups import parse_group_spec
from tamegal.local_tame import LocalExtensionSpec, grunwald_feasible
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
    # a float or a bool is refused by name when built, not deep in verify_beckmann
    for d, m in ((2.5, 1), (3.0, 1), (True, 1), (3, 1.0), (3, True)):
        with pytest.raises(ValueError, match="must be an integer at least 2|a positive integer"):
            cv.KummerCover(d, m, 1)
    # c must print as a Python int string of at most 4300 digits, on both sides
    widest = 10**4300 - 1
    assert cv.KummerCover(3, 1, Fraction(-widest, widest - 1)).spec_string()
    for c in (Fraction(10**4300), Fraction(-(10**4300)), Fraction(1, 10**4300)):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            cv.KummerCover(3, 1, c)


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
    # the branch point t0 meets and the multiplicity, from the sign and size of v_p(t0)
    for t0, p, point, k in [
        (Fraction(49, 3), 7, cv.ZERO, 2),
        (Fraction(5), 7, None, 0),
        (Fraction(3, 125), 5, cv.INFINITY, 3),
        (Fraction(1, 7), 7, cv.INFINITY, 1),
    ]:
        pred = cv.predict_specialization(cv.KummerCover(9, 1, Fraction(1)), t0, p)
        assert (pred.point, pred.multiplicity) == (point, k), t0
    # with e_i = 1 no branch point exists to meet
    pred = cv.predict_specialization(cv.KummerCover(3, 3, Fraction(2)), Fraction(7), 7)
    assert (pred.predicted_e, pred.point, pred.multiplicity) == (1, None, 0)
    with pytest.raises(ValueError):
        cv.predict_specialization(cv.KummerCover(9, 1, Fraction(1)), Fraction(0), 7)


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


def test_branch_residue_degree_by_root_counts():
    """Ground truth for the predictor's residue degree, without the oracle:
    for g = gcd(d, m) > 1, every unit c mod a small p with p not dividing 2d,
    the least k such that the field of p^k elements holds d roots of X^d = 1
    and g roots of X^g = c, found by enumerating that field."""
    count = functools.cache(_count_roots_in_field)
    checked = beyond_cyclotomic = 0
    for d, m in ((2, 2), (3, 3), (4, 2), (4, 4), (6, 2), (6, 3), (6, 6), (9, 3), (12, 6), (12, 8)):
        g = math.gcd(d, m)
        for p in nt.primes_upto(13).tolist():
            if 2 * d % p == 0:
                continue
            for c in range(1, p):
                k = 1
                while p**k <= 10**5 and not (count(p, k, d, 1) == d and count(p, k, g, c) == g):
                    k += 1
                if p**k > 10**5:
                    continue  # splitting field too big to enumerate
                assert cv._branch_residue_degree(cv.KummerCover(d, m, Fraction(c)), p) == k, (
                    d, m, c, p
                )
                checked += 1
                beyond_cyclotomic += k > nt.multiplicative_order_mod(p % d, d)
    assert checked == 302 and beyond_cyclotomic == 96


def test_predictor_answers_without_the_oracle(monkeypatch):
    """The predictor calls no oracle code: with kummer_local_invariants made
    to raise, it still answers on the ten kummer-sweep covers, and as the
    oracle does."""
    reports = [
        cv.verify_beckmann(cover, t0, p)
        for cover in (cv.parse_cover_spec(spec) for spec, _ in _SAMPLED_COVERS[:10])
        for t0, p in cv.sample_points(cover, 10**6, 100, 7)
    ]

    def no_oracle(*args):
        raise AssertionError("the predictor called the oracle")

    monkeypatch.setattr(cv, "kummer_local_invariants", no_oracle)
    monkeypatch.setattr(padic_oracle, "kummer_local_invariants", no_oracle)
    for r in reports:
        pred = cv.predict_specialization(r.cover, r.t0, r.p)
        assert r.agree and (pred.predicted_e, pred.predicted_f) == (r.predicted_e, r.predicted_f)
    # the covers with gcd(d, m) > 1 reach the constant-field search
    assert any(r.predicted_f is not None and r.cover.m > 1 for r in reports)


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


def ref_split(x, p):
    """(v_p(x), residue mod p of x / p^v) for a nonzero rational x, by
    dividing the Fraction x itself by p, or multiplying it, until p leaves
    its numerator and its denominator."""
    x, v = Fraction(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v, x.numerator * pow(x.denominator, -1, p) % p


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
        while ref_split(u, p)[0] != 0:
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


def test_residues_of_big_integers_match_python():
    primes = nt.primes_upto(10**6)[::97]
    rng = random.Random(5)
    for bits in (1, 31, 32, 33, 63, 64, 65, 135, 997):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        for x in (n, -n, n * int(primes[-1])):  # the last has a zero residue
            assert cv._residues(x, primes).tolist() == [abs(x) % p for p in primes.tolist()], bits


# c with a numerator above 2^63, so exceptional_primes_divide() leaves int64;
# the filter must still drop 3 and 7919
_BIG_C_COVER = (f"d=5,m=1,c={(2**64 + 13) * 7919}/{3**41}", 10**4)


@pytest.mark.parametrize("spec,bound", _SAMPLED_COVERS + [_BIG_C_COVER])
def test_sample_points_matches_per_prime_filter(spec, bound):
    cover = cv.parse_cover_spec(spec)
    for seed in (0, 17, 1_000_003 * 101 + 9):
        got = cv.sample_points(cover, bound, 400, seed)
        want = ref_sample_points(cover, bound, 400, seed)
        assert got == want
        assert all(type(p) is int for _, p in got)
        assert [str(t0) for t0, _ in got] == [str(t0) for t0, _ in want]


def test_sample_count_must_not_be_negative():
    cover = cv.parse_cover_spec("d=3,m=1,c=1")
    for samples in (-1, -(10**18)):
        with pytest.raises(ValueError, match=f"sample count {samples} is negative"):
            cv.sample_points(cover, 100, samples, 0)
    assert cv.sample_points(cover, 100, 0, 0) == []
    assert cv.sweep(cover, 100, 0, 0)[1]["samples"] == 0


@pytest.mark.parametrize("spec,bound", [("d=6,m=1,c=5/7", 10), ("d=2,m=3,c=-5/3", 6), ("d=3,m=1,c=1", 1)])
def test_sample_points_refuses_when_every_prime_is_exceptional(spec, bound):
    cover = cv.parse_cover_spec(spec)
    for sampler in (cv.sample_points, ref_sample_points):
        with pytest.raises(ValueError, match="no non-exceptional primes"):
            sampler(cover, bound, 5, 0)


def ref_oracle(cover, t0, p):
    """The oracle's (e, f) as first written: v and w read off the Fraction
    u = c*t0^m."""
    inv = kummer_local_invariants(p, cover.d, *ref_split(cover.c * Fraction(t0) ** cover.m, p))
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


@pytest.mark.parametrize("spec,bound", _SAMPLED_COVERS)
def test_int_and_fraction_t0_give_identical_reports(spec, bound):
    """t0 is read through its numerator and denominator alone, so an int
    and the equal Fraction give the same prediction and the same report,
    byte for byte, and ref_oracle, which builds u = c*t0^m as a Fraction,
    agrees with the oracle on every drawn point."""
    cover = cv.parse_cover_spec(spec)
    for t0, p in cv.sample_points(cover, bound, 200, 11):
        n = t0.numerator  # an int, with v_p(n) = max(v_p(t0), 0)
        r = cv.verify_beckmann(cover, n, p)
        assert r.to_json_line() == cv.verify_beckmann(cover, Fraction(n), p).to_json_line()
        assert cv.predict_specialization(cover, n, p) == cv.predict_specialization(cover, Fraction(n), p)
        for x, rep in ((n, r), (t0, cv.verify_beckmann(cover, t0, p))):
            assert (rep.oracle_e, rep.oracle_f) == ref_oracle(cover, x, p), (x, p)


def test_the_sweep_op_builds_no_fraction(monkeypatch):
    """verify_beckmann reads t0 and c through their numerators and
    denominators: with Fraction construction made to raise, a sweep over
    sampled Fraction points, and int points, still reports."""
    cover = cv.KummerCover(12, 4, Fraction(5, 7))
    points = cv.sample_points(cover, 10**4, 300, 5)
    points += [(t0.numerator, p) for t0, p in points]

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    lines = [cv.verify_beckmann(cover, t0, p).to_json_line() for t0, p in points]
    monkeypatch.undo()
    assert len(lines) == 600 and all('"agree": true' in line for line in lines)


@pytest.mark.parametrize("t0", ["7", 7.0, True, False, None, np.int64(7), "0", 0.0, "1/3"])
def test_t0_other_than_int_or_fraction_is_refused_by_name(t0):
    cover = cv.KummerCover(9, 1, Fraction(1))
    for entry in (cv.predict_specialization, cv.verify_beckmann):
        with pytest.raises(ValueError, match=re.escape(f"t0 must be an int or a Fraction, got {t0!r}")):
            entry(cover, t0, 7)


def test_t0_zero_is_refused_before_any_split(monkeypatch):
    def no_split(*args):
        raise AssertionError("p_split ran on t0 = 0")

    monkeypatch.setattr(nt, "p_split", no_split)
    for cover in (cv.KummerCover(9, 1, Fraction(1)), cv.KummerCover(3, 3, Fraction(2, 5))):
        for t0 in (0, Fraction(0), Fraction(0, 7)):
            for entry in (cv.predict_specialization, cv.verify_beckmann):
                with pytest.raises(ValueError, match=r"^t0 = 0 is not specializable \(branch point"):
                    entry(cover, t0, 7)


def test_cover_constants_are_computed_once_and_kept_out_of_eq_hash_and_repr():
    a, b = cv.KummerCover(6, 1, Fraction(5, 21)), cv.parse_cover_spec("d=6,m=1,c=5/21")
    assert a.exceptional_primes_divide() == 2 * 6 * 5 * 21 == a._exceptional
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "KummerCover(d=6, m=1, c=Fraction(5, 21))"
    assert [f.name for f in dataclasses.fields(a) if f.compare or f.repr] == ["d", "m", "c"]


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


def every_class_agreement(prime_bound: int) -> int:
    """Exact agreement at each non-exceptional p <= prime_bound on the ten
    kummer-sweep covers, in place of samples; returns the number of
    verify_beckmann calls.  At such a p the predictor's answer depends only
    on v = v_p(t0), and the oracle's on v and on the class of the unit
    residue w(t0) in F_p^* / (F_p^*)^g, g = gcd(d, p - 1), since the d-th
    powers of F_p^* are its g-th powers.  Both repeat in v with period d.  So
    t0 = p^v * r^i, with v in -d..d and i < g for a primitive root r mod p,
    covers every t0 in Q^* at p, and every multiplicity k = |v| up to d.

    Tier-1 runs it at p < 200 (87,565 calls, a few seconds); the CI workflow
    also runs it at p < 1000 (347,551 calls), as a step of its own."""
    ops, reached = 0, set()
    for spec, _ in _SAMPLED_COVERS[:10]:
        cover = cv.parse_cover_spec(spec)
        e_i = cover.branch_inertia_order
        for p in nt.primes_upto(prime_bound).tolist():
            if cover.is_exceptional(p):
                continue
            r = next(r for r in range(2, p) if len({pow(r, k, p) for k in range(p - 1)}) == p - 1)
            for v in range(-cover.d, cover.d + 1):
                for i in range(math.gcd(cover.d, p - 1)):
                    t0 = Fraction(r**i * p ** max(v, 0), p ** max(-v, 0))
                    rep = cv.verify_beckmann(cover, t0, p)
                    assert rep.agree and not rep.exceptional, rep.as_dict()
                    reached.add((e_i, math.gcd(e_i, abs(v))))
                    ops += 1
    # all 24 (e_i, gcd(e_i, k)) of the ten covers, among them the gcds 4, 5, 6,
    # 9, 10 and 27 that sampled points, with k at most 3, never reach
    assert reached == {
        (e, g) for e in (2, 3, 4, 5, 6, 9, 10, 27) for g in range(1, e + 1) if e % g == 0
    }
    return ops


def test_predictor_and_oracle_agree_on_every_class_at_each_prime():
    assert every_class_agreement(199) == 87565


def _holomorph_spec(d: int) -> str:
    """Hol(C_d) = C_d x| (Z/d)^* as a group spec: SD:d,phi(d),r for a
    primitive root r mod d, or for d = 12 and 60, where (Z/d)^* is not
    cyclic, the product of the holomorphs of the prime-power parts."""
    if d in (12, 60):
        return "X:SD:4,2,3*SD:3,2,2" + "*SD:5,4,2" * (d == 60)
    phi = math.prod(q ** (k - 1) * (q - 1) for q, k in nt.factorize(d).items())
    r = next(r for r in range(1, d + 1) if math.gcd(r, d) == 1 and nt.multiplicative_order_mod(r, d) == phi)
    return f"SD:{d},{phi},{r}"


def test_every_specialization_is_a_feasible_local_problem():
    """The splitting field of X^d - u over Q_p has Galois group D inside
    Hol(C_d), acting on the roots zeta^i * alpha.  For p not dividing d, D is
    tame, generated by a tame pair with ord(tau) = e and |D| = e*f.  So each
    non-exceptional oracle answer (e, f) at p is a feasible local problem for
    Hol(C_d): this ties padic_oracle to local_tame, which share only
    numtheory.  Feasibility depends on p only through p mod |G|.

    The converse does not hold, and is not asserted: every Kummer D maps onto
    Gal(Q_p(mu_d)/Q_p), while a feasible subgroup of order e*f need not."""
    feasible, reports = {}, 0
    for i, (spec, bound) in enumerate(_SAMPLED_COVERS[:10]):
        cover = cv.parse_cover_spec(spec)
        hol = parse_group_spec(_holomorph_spec(cover.d))
        for r in cv.sweep(cover, bound, 1500, seed=i)[0]:
            if r.exceptional:
                continue
            key = (cover.d, r.p % hol.order, r.oracle_e, r.oracle_f)
            if key not in feasible:
                problem = LocalExtensionSpec(r.p, r.oracle_e, r.oracle_f)
                feasible[key] = grunwald_feasible(hol, [problem]).all_feasible
            reports += 1
    assert (reports, len(feasible)) == (15000, 1655)
    assert all(feasible.values())


def test_one_op_tests_its_prime_once():
    """The predictor and the oracle each ask is_prime(p); on a fresh p the
    predictor's call misses and the oracle's is answered from it."""
    cover = cv.KummerCover(9, 1, Fraction(1))
    nt._is_prime.cache_clear()
    cv.verify_beckmann(cover, Fraction(2, 5), 1000003)
    info = nt._is_prime.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("p", [7.5, 7.0, "7", Fraction(7), None], ids=repr)
def test_p_other_than_an_integer_is_refused_by_name(p):
    cover = cv.KummerCover(9, 1, Fraction(1))
    for entry in (cv.predict_specialization, cv.verify_beckmann):
        with pytest.raises(ValueError, match=f"^p must be an integer, got {re.escape(repr(p))}$"):
            entry(cover, 2, p)


def test_numpy_p_is_read_as_the_int_it_holds():
    cover = cv.KummerCover(9, 1, Fraction(1))
    for p in (np.int64(7), np.int32(19)):
        r = cv.verify_beckmann(cover, Fraction(2, 7), p)
        assert type(r.p) is int and r.to_json_line() == cv.verify_beckmann(cover, Fraction(2, 7), int(p)).to_json_line()
        assert cv.predict_specialization(cover, 2, p) == cv.predict_specialization(cover, 2, int(p))
