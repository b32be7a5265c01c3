"""Acceptance suite: one test per capability criterion, each printing a
pass/fail line with its runtime (run with -s to see them).

All tolerances are exact unless stated otherwise; the sweeps are seeded and
deterministic.
"""

import math
import time
from fractions import Fraction


from tamegal import covers as cv
from tamegal import groups as G
from tamegal import local_tame as lt
from tamegal import numtheory as nt
from tamegal import prime_strata as ps
from tamegal.padic_oracle import kummer_local_invariants


def _report(name, ok, elapsed, detail, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s, budget {budget}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# criterion 1: obstruction-classification equivalence over the group corpus


def _group_corpus(n_max=512):
    """The criterion-1 corpus, or its groups of order at most n_max."""
    for n in range(2, n_max + 1):
        yield G.cyclic(n)
    for n in range(2, min(64, n_max // 2) + 1):
        yield G.dihedral(n)
    for n in (8, 16, 32):
        if n <= n_max:
            yield G.generalized_quaternion(n)
    for P in range(2, 257):
        for Q in range(2, n_max // P + 1):
            for k in range(1, P):
                if math.gcd(k, P) == 1 and pow(k, Q, P) == 1:
                    yield G.semidirect_cyclic(P, Q, k)
    basis = (
        [G.cyclic(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16)]
        + [G.dihedral(n) for n in (3, 4, 5, 6, 8)]
        + [G.generalized_quaternion(8), G.generalized_quaternion(16)]
    )
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if a.order * b.order <= n_max:
                yield G.direct_product(a, b)
    for g in (G.symmetric(4), G.alternating(4), G.alternating(5)):
        if g.order <= n_max:
            yield g


def test_criterion_1_obstruction_classification_equivalence():
    start = time.time()
    total = 0
    mismatches = []
    for g in _group_corpus():
        r = G.classify(g)
        if r.hg_real != (len(r.obstructions) == 0):
            mismatches.append(g.label)
        total += 1
    elapsed = time.time() - start
    _report(
        "criterion 1 (eligibility iff no obstruction, full corpus)",
        not mismatches,
        elapsed,
        f"{total} groups, {len(mismatches)} mismatches",
        60,
    )


# ---------------------------------------------------------------------------
# criterion 2: tame cyclic criterion vs epimorphism enumeration


def _cyclic_exists_brute(q, d, e):
    # surjections Z/(q-1) x Z/d -> Z/d mapping the first factor onto the
    # order-e subgroup: image generators a (with (q-1)a = 0) and b
    for a in range(d):
        if (q - 1) * a % d:
            continue
        if d // math.gcd(d, a) != e:
            continue
        for b in range(d):
            if math.gcd(math.gcd(a, b), d) == 1:
                return True
    return False


def test_criterion_2_tame_cyclic_criterion():
    start = time.time()
    checked = 0
    bad = []
    for q in nt.primes_upto(99).tolist():
        for d in range(1, 37):
            if math.gcd(d, q) != 1:
                continue
            for e in nt.divisors(d):
                if lt.cyclic_tame_exists(q, d, e) != _cyclic_exists_brute(q, d, e):
                    bad.append((q, d, e))
                checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 2 (cyclic local criterion vs brute force)",
        not bad,
        elapsed,
        f"{checked} triples, {len(bad)} mismatches",
        10,
    )


# ---------------------------------------------------------------------------
# criterion 3: specialization sweeps, predictor vs oracle


def test_criterion_3_specialization_sweeps():
    start = time.time()
    total = disagreements = f_checked = 0
    for d in (2, 3, 4, 5, 6, 9, 27):
        cover = cv.KummerCover(d, 1, Fraction(1))
        reports, summary = cv.sweep(cover, prime_bound=10_000, samples=500, seed=d)
        disagreements += summary["disagreements"]
        total += summary["samples"]
        for r in reports:
            if not r.exceptional and r.predicted_f is not None:
                f_checked += 1
                assert r.predicted_f == r.oracle_f
    elapsed = time.time() - start
    _report(
        "criterion 3 (specialization sweeps, 7 covers x 500 points)",
        disagreements == 0,
        elapsed,
        f"{total} samples, {disagreements} disagreements, {f_checked} residue degrees matched",
        300,
    )


# ---------------------------------------------------------------------------
# criterion 4: degree law for prime-power covers


def test_criterion_4_stratum_degree_law():
    # The law f(p, d, v=1, w=1) = d / gcd(d, p-1) holds on the strata whose
    # index shares the prime of d, i.e. p = 1 mod 3 for d in {9, 27}: then
    # gcd(d, p-1) = 3^b with b >= 1 and the cyclotomic layer has degree
    # 3^(a-b).  For p = 2 mod 3 the layer degree is ord_d(p), which is never
    # d/gcd(d, p-1) (p = 11, d = 9 gives f = 6, not 9), so those primes are
    # outside the law's domain and excluded.
    start = time.time()
    checked = 0
    bad = []
    primes = nt.primes_upto(100_000 - 1).tolist()
    for d in (9, 27):
        for p in primes:
            if d % p == 0 or p % 3 != 1:
                continue
            inv = kummer_local_invariants(p, d, 1, 1)
            if inv.f != d // math.gcd(d, p - 1):
                bad.append((d, p))
            checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 4 (degree law d/gcd(d, p-1), p < 1e5)",
        not bad,
        elapsed,
        f"{checked} primes checked, {len(bad)} violations",
        120,
    )


# ---------------------------------------------------------------------------
# criterion 5: stratum densities


def test_criterion_5_stratum_densities():
    start = time.time()
    bad = []
    strata = 0
    for d in (8, 9, 12, 27):
        for e in nt.divisors(d):
            s = ps.enumerate_stratum(d, e, 1_000_000)
            strata += 1
            if s.predicted_density == 0:
                if s.empirical_density != 0:
                    bad.append((d, e))
                continue
            rel = abs(s.empirical_density - s.predicted_density) / s.predicted_density
            if rel > Fraction(2, 100):
                bad.append((d, e, float(rel)))
    elapsed = time.time() - start
    _report(
        "criterion 5 (stratum densities within 2% at 1e6)",
        not bad,
        elapsed,
        f"{strata} strata, deviations beyond tolerance: {bad or 'none'}",
        120,
    )


# ---------------------------------------------------------------------------
# criterion 6: quaternion local realizability


def test_criterion_6_quaternion_local_realizability():
    start = time.time()
    q8 = G.generalized_quaternion(8)
    bad = []
    checked = 0
    for p in nt.primes_upto(199).tolist():
        if p == 2:
            continue
        pairs = lt.enumerate_tame_pairs(q8, p)
        if p % 4 == 1 and pairs:
            bad.append(p)
        if p % 4 == 3 and not pairs:
            bad.append(p)
        checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 6 (quaternion group realizable iff p = 3 mod 4)",
        not bad,
        elapsed,
        f"{checked} primes, violations: {bad or 'none'}",
        30,
    )


# ---------------------------------------------------------------------------
# criterion 7: sum-of-two-squares criterion


def _sum_two_squares_brute(a: Fraction) -> bool:
    n = a.numerator * a.denominator  # scale by den^2: same answer in integers
    if n < 0:
        return False
    x = 0
    while x * x <= n:
        if nt.is_perfect_square(n - x * x):
            return True
        x += 1
    return False


def test_criterion_7_sum_of_two_squares():
    start = time.time()
    checked = 0
    bad = []
    for num in range(-50, 51):
        if num == 0:
            continue
        for den in range(-50, 51):
            if den == 0:
                continue
            a = Fraction(num, den)
            if lt.c4_embeddable_quadratic(a) != _sum_two_squares_brute(a):
                bad.append((num, den))
            checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 7 (two-squares criterion vs enumeration)",
        not bad,
        elapsed,
        f"{checked} rationals, {len(bad)} mismatches",
        30,
    )


# ---------------------------------------------------------------------------
# criterion 8: biquadratic splitting pigeonhole


def test_criterion_8_biquadratic_splitting_nonempty():
    start = time.time()
    values = [2, 3, 5, 7, 10, -2, -3, -5, -7, -10]
    primes = nt.primes_upto(9999).tolist()
    checked = 0
    bad = []
    for a in values:
        for b in values:
            g = math.gcd(a, b)
            third = a * b // (g * g)
            if any(v > 0 and nt.is_perfect_square(v) for v in (a, b, third)):
                continue  # degenerate, not a biquadratic field
            for p in primes:
                if p == 2 or (2 * a * b) % p == 0:
                    continue
                if not ps.biquadratic_split(a, b, p):
                    bad.append((a, b, p))
                checked += 1
    elapsed = time.time() - start
    _report(
        "criterion 8 (some quadratic subfield always splits)",
        not bad,
        elapsed,
        f"{checked} (a, b, p) triples, {len(bad)} empty results",
        60,
    )
