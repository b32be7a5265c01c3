"""Kummer covers X^d - c*t^m over the rational function field.

The family has closed-form branch geometry: the only branch points are t = 0
and t = infinity, each with inertia order d/gcd(d, m).  That makes the
specialization-inertia machinery fully checkable: from the p-adic distance
between the specialization point t0 and a branch point (an intersection
multiplicity) the local invariants (e, f) of the specialized extension at p
are predicted, and an independent finite-field oracle recomputes them from
X^d - c*t0^m directly.

Primes dividing 2, d, or the numerator or denominator of c are declared
exceptional up front; the prediction laws hold away from finitely many primes
and the declared set is a conservative bound for them, so reports at
exceptional primes are informational and never counted as disagreements.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import numtheory
from .padic_oracle import KummerLocalInvariants, kummer_local_invariants

# sample_points builds a list of this many points at most
SAMPLE_CAP = 10**6

ZERO = "zero"
INFINITY = "infinity"


@dataclass(frozen=True)
class KummerCover:
    """Parameters of the cover defined by X^d - c*t^m."""

    d: int
    m: int
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.d < 2:
            raise ValueError("degree d must be at least 2")
        if self.m < 1:
            raise ValueError("exponent m must be positive")
        if self.c == 0:
            raise ValueError("constant c must be nonzero")

    @property
    def branch_inertia_order(self) -> int:
        return self.d // math.gcd(self.d, self.m)

    def spec_string(self) -> str:
        return f"d={self.d},m={self.m},c={self.c}"

    def exceptional_primes_divide(self) -> int:
        """Every exceptional prime divides this integer."""
        return 2 * self.d * self.c.numerator * self.c.denominator

    def is_exceptional(self, p: int) -> bool:
        return self.exceptional_primes_divide() % p == 0


def parse_cover_spec(text: str) -> KummerCover:
    """Parse "d=<int>,m=<int>,c=<rational>"."""
    fields = {}
    for part in text.strip().split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad cover spec fragment {part!r}")
        fields[key.strip()] = val.strip()
    try:
        return KummerCover(
            d=int(fields["d"]), m=int(fields["m"]), c=numtheory.parse_rational(fields["c"])
        )
    except KeyError as exc:
        raise ValueError(f"cover spec {text!r} is missing {exc}") from exc


@dataclass(frozen=True)
class BranchDatum:
    point: str  # ZERO or INFINITY
    inertia_order: int


def branch_data(cover: KummerCover) -> list[BranchDatum]:
    """Branch points with their inertia orders; empty when d divides m
    (the cover is a constant-field extension and nothing ramifies)."""
    e = cover.branch_inertia_order
    if e == 1:
        return []
    return [BranchDatum(ZERO, e), BranchDatum(INFINITY, e)]


def intersection_multiplicity(t0, point: str, p: int) -> int:
    """p-adic meeting order of t0 with the branch point, clamped at zero.

    For t = 0 this is max(v_p(t0), 0); for t = infinity, max(v_p(1/t0), 0).
    """
    t0 = Fraction(t0)
    if point == ZERO:
        if t0 == 0:
            raise ValueError("t0 = 0 coincides with the branch point")
        return max(numtheory.rational_valuation(t0, p), 0)
    if point == INFINITY:
        return max(-numtheory.rational_valuation(t0, p), 0)
    raise ValueError(f"unknown branch point {point!r}")


@dataclass(frozen=True)
class Prediction:
    predicted_e: int
    predicted_f: int | None
    exceptional: bool
    point: str | None
    multiplicity: int


def _branch_residue_degree(cover: KummerCover, p: int) -> int:
    """Residue degree at p of the constant field attached to the branch
    points: the splitting field of X^g - c joined with the d-th roots of
    unity, where g = gcd(d, m).  Both layers are unramified at a
    non-exceptional p, so the degree is an lcm."""
    g = math.gcd(cover.d, cover.m)
    f_cyc = numtheory.multiplicative_order_mod(p % cover.d, cover.d) if cover.d > 1 else 1
    if g == 1:
        return f_cyc
    w = numtheory.unit_residue(cover.c, p)
    f_const = kummer_local_invariants(p, g, 0, w).f
    return math.lcm(f_cyc, f_const)


def predict_specialization(cover: KummerCover, t0, p: int) -> Prediction:
    """Predicted local invariants of the specialization at t0, at the prime p.

    predicted_e = e_i / gcd(e_i, k) with k the intersection multiplicity at
    the meeting branch point (k = 0 when none meets).  predicted_f is emitted
    only when gcd(k, e_i) = 1, where the residue degree transfers from the
    branch-point constants; otherwise only containment is known and the field
    is withheld.
    """
    t0 = Fraction(t0)
    p = int(p)
    if not numtheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t0 == 0:
        raise ValueError("t0 = 0 is not specializable (branch point or degenerate fiber)")
    e_i = cover.branch_inertia_order
    point = None
    k = 0
    if e_i > 1:
        k_zero = intersection_multiplicity(t0, ZERO, p)
        k_inf = intersection_multiplicity(t0, INFINITY, p)
        if k_zero > 0:
            point, k = ZERO, k_zero
        elif k_inf > 0:
            point, k = INFINITY, k_inf
    exceptional = cover.is_exceptional(p)
    predicted_e = e_i // math.gcd(e_i, k)
    predicted_f = None
    if math.gcd(k, e_i) == 1 and not exceptional:
        predicted_f = _branch_residue_degree(cover, p)
    return Prediction(
        predicted_e=predicted_e,
        predicted_f=predicted_f,
        exceptional=exceptional,
        point=point,
        multiplicity=k,
    )


@dataclass
class SpecializationReport:
    """Predicted vs oracle local invariants for one (t0, p)."""

    cover: KummerCover
    t0: Fraction
    p: int
    intersection: tuple[str | None, int]
    predicted_e: int
    predicted_f: int | None
    oracle_e: int
    oracle_f: int
    exceptional: bool

    @property
    def agree(self) -> bool:
        return self.predicted_e == self.oracle_e and (
            self.predicted_f is None or self.predicted_f == self.oracle_f
        )

    def as_dict(self):
        return {
            "cover": self.cover.spec_string(),
            "t0": str(self.t0),
            "p": self.p,
            "intersection": {"point": self.intersection[0], "multiplicity": self.intersection[1]},
            "predicted_e": self.predicted_e,
            "predicted_f": self.predicted_f,
            "oracle_e": self.oracle_e,
            "oracle_f": self.oracle_f,
            "exceptional": self.exceptional,
            "agree": self.agree,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def verify_beckmann(cover: KummerCover, t0, p: int) -> SpecializationReport:
    """Fill a report: prediction on one side, the finite-field oracle applied
    to u = c*t0^m on the other.  The oracle's v = v_p(u) and w, the residue of
    u / p^v, are taken from those of c and t0, so t0^m is never formed."""
    t0 = Fraction(t0)
    pred = predict_specialization(cover, t0, p)
    c, m = cover.c, cover.m
    v = numtheory.rational_valuation(c, p) + m * numtheory.rational_valuation(t0, p)
    w = numtheory.unit_residue(c, p) * pow(numtheory.unit_residue(t0, p), m, p) % p
    inv: KummerLocalInvariants = kummer_local_invariants(p, cover.d, v, w)
    return SpecializationReport(
        cover=cover,
        t0=t0,
        p=p,
        intersection=(pred.point, pred.multiplicity),
        predicted_e=pred.predicted_e,
        predicted_f=pred.predicted_f,
        oracle_e=inv.e,
        oracle_f=inv.f,
        exceptional=pred.exceptional,
    )


# ---------------------------------------------------------------------------
# seeded sweeps


def sample_points(cover: KummerCover, prime_bound: int, samples: int, seed: int):
    """Deterministic (t0, p) sample stream: p uniform over the primes <= bound
    that do not divide exceptional_primes_divide(), and t0 = +-num/den * p^j,
    one reduced Fraction with num, den prime to p and -3 <= j <= 3, so both
    meeting and non-meeting specializations occur.  At most SAMPLE_CAP
    samples, and the prime bound is at most numtheory.SIEVE_CAP."""
    if samples > SAMPLE_CAP:
        raise ValueError(f"{samples} samples is above the sample cap {SAMPLE_CAP}")
    bad = cover.exceptional_primes_divide()
    primes = [p for p in numtheory.primes_upto(prime_bound).tolist() if bad % p]
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
        t0 = Fraction(sign * num * p ** max(j, 0), den * p ** max(-j, 0))
        out.append((t0, p))
    return out


def sweep(cover: KummerCover, prime_bound: int, samples: int, seed: int):
    """Run verify_beckmann over a seeded sample; returns (reports, summary)."""
    points = sample_points(cover, prime_bound, samples, seed)
    reports = [verify_beckmann(cover, t0, p) for t0, p in points]
    agree = sum(1 for r in reports if r.agree)
    exceptional = sum(1 for r in reports if r.exceptional)
    disagreements = [r for r in reports if not r.agree and not r.exceptional]
    summary = {
        "cover": cover.spec_string(),
        "samples": len(reports),
        "agree": agree,
        "exceptional": exceptional,
        "disagreements": len(disagreements),
    }
    return reports, summary
