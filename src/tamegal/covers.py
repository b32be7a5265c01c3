"""Kummer covers X^d - c*t^m over the rational function field.

The family has closed-form branch geometry: the only branch points are t = 0
and t = infinity, each with inertia order d/gcd(d, m).  That makes the
specialization-inertia machinery fully checkable: from the p-adic distance
between the specialization point t0 and a branch point (an intersection
multiplicity) the local invariants (e, f) of the specialized extension at p
are predicted, and the finite-field oracle recomputes them from X^d - c*t0^m
directly.  The predictor shares with the oracle only the numtheory primitives
as_int, as_prime, p_split, factorize and multiplicative_order_mod.  Both
sides read p by as_prime and ask multiplicative_order_mod for ord_d(p), and
the two memos answer the oracle's calls from the predictor's; a memo hit
returns what the call would compute, so the sides stay as independent as
the shared primitives let them be.  A specialization point t0 is read by
as_rational, through its numerator and denominator: no Fraction per call.

Primes dividing 2, d, or the numerator or denominator of c are declared
exceptional up front; the prediction laws hold away from finitely many primes
and the declared set is a conservative bound for them, so reports at
exceptional primes are informational and never counted as disagreements.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import numtheory
from .padic_oracle import kummer_local_invariants

# sample_points builds a list of this many points at most
SAMPLE_CAP = 10**6

# numerators and denominators of c below this print within CPython's digit limit
_C_BOUND = 10**numtheory.DECIMAL_EXPONENT_CAP

ZERO = "zero"
INFINITY = "infinity"


@dataclass(frozen=True)
class KummerCover:
    """Parameters of the cover defined by X^d - c*t^m, stored as read."""

    d: int
    m: int
    c: Fraction
    # exceptional_primes_divide(), computed once
    _exceptional: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = Fraction(numtheory.as_rational(self.c, "c"))
        d = m = 0  # a d or m that as_int refuses stays 0, refused below by its range
        try:
            d = numtheory.as_int(self.d, "d")
            m = numtheory.as_int(self.m, "m")
        except ValueError:
            pass
        if isinstance(self.d, bool) or d < 2:
            raise ValueError(f"degree d must be an integer at least 2, got {self.d!r}")
        if isinstance(self.m, bool) or m < 1:
            raise ValueError(f"exponent m must be a positive integer, got {self.m!r}")
        if c == 0:
            raise ValueError("constant c must be nonzero")
        if max(abs(c.numerator), c.denominator) >= _C_BOUND:
            raise ValueError(
                f"constant c has more than {numtheory.DECIMAL_EXPONENT_CAP} digits in its "
                "numerator or denominator, the digit limit of a Python int string"
            )
        exceptional = 2 * d * c.numerator * c.denominator
        for name, value in (("d", d), ("m", m), ("c", c), ("_exceptional", exceptional)):
            object.__setattr__(self, name, value)

    @property
    def branch_inertia_order(self) -> int:
        return self.d // math.gcd(self.d, self.m)

    def spec_string(self) -> str:
        return f"d={self.d},m={self.m},c={self.c}"

    def exceptional_primes_divide(self) -> int:
        """Every exceptional prime divides this integer."""
        return self._exceptional

    def is_exceptional(self, p: int) -> bool:
        return self._exceptional % p == 0


def parse_cover_spec(text: str) -> KummerCover:
    """Parse "d=<int>,m=<int>,c=<rational>": each key once, in any order, and
    no other (numtheory.parse_fields), with d and m under numtheory.parse_int
    and c under numtheory.parse_rational."""
    fields = numtheory.parse_fields(text, ("d", "m", "c"))
    d, m = (numtheory.parse_int(fields[key], f"{key} of cover spec {text!r}") for key in "dm")
    return KummerCover(d, m, numtheory.parse_rational(fields["c"]))


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


@dataclass(frozen=True)
class Prediction:
    predicted_e: int
    predicted_f: int | None
    exceptional: bool
    point: str | None
    multiplicity: int


def _branch_residue_degree(cover: KummerCover, p: int) -> int:
    """Residue degree at p of the branch points' constant field: F_p(mu_d)
    and the roots of X^g - c, g = gcd(d, m).  Let f = ord_d(p), q = p^f, so
    F_p(mu_d) = F_q holds mu_g, as g | d.  The roots of X^g - c lie in F_(q^n)
    iff c^((q^n - 1)/g) = 1 mod p, an exponent read mod p - 1 off q^n mod
    g(p - 1).  The valid n are the multiples of the Kummer degree, which
    divides g, so the search ends at n = g at the latest."""
    d, g = cover.d, math.gcd(cover.d, cover.m)
    f = numtheory.multiplicative_order_mod(p % d, d)
    if g == 1:
        return f
    w = numtheory.p_split(cover.c, p)[1]
    return f * next(
        n for n in numtheory.divisors(g) if pow(w, (pow(p, f * n, g * (p - 1)) - 1) // g, p) == 1
    )


def predict_specialization(cover: KummerCover, t0, p: int) -> Prediction:
    """Predicted local invariants of the specialization at t0, at the prime p.

    predicted_e = e_i / gcd(e_i, k) with k the intersection multiplicity at
    the meeting branch point: t0 meets t = 0 when v_p(t0) > 0 and t = infinity
    when v_p(t0) < 0, with k = |v_p(t0)|, and no branch point when
    v_p(t0) = 0 (k = 0).  predicted_f is emitted only when gcd(k, e_i) = 1,
    where the residue degree transfers from the branch-point constants;
    otherwise only containment is known and the field is withheld.
    """
    t0, p = numtheory.as_rational(t0, "t0"), numtheory.as_prime(p, "p")
    if t0 == 0:
        raise ValueError("t0 = 0 is not specializable (branch point or degenerate fiber)")
    e_i = cover.branch_inertia_order
    point, k = None, 0
    if e_i > 1:
        v = numtheory.p_split(t0, p)[0]
        point = ZERO if v > 0 else INFINITY if v < 0 else None
        k = abs(v)
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
    t0: int | Fraction
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
    u / p^v, come from p_split(c, p) and p_split(t0, p); t0^m is never formed.
    Both sides get p as the Python int numtheory.as_int reads."""
    p = numtheory.as_int(p, "p")
    pred = predict_specialization(cover, t0, p)
    (vc, wc), (vt, wt) = numtheory.p_split(cover.c, p), numtheory.p_split(t0, p)
    inv = kummer_local_invariants(p, cover.d, vc + cover.m * vt, wc * pow(wt, cover.m, p) % p)
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


def _residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """|n| mod each of the int64 moduli, all below 2^31, for an integer n of
    any size: Horner over the 32-bit limbs of |n|, most significant first.
    Each step keeps r < modulus, so (r << 32) + limb < 2^63 fits int64."""
    n = abs(n)
    r = np.zeros_like(moduli)
    for shift in range(32 * ((n.bit_length() - 1) // 32), -1, -32):
        r = ((r << 32) + ((n >> shift) & 0xFFFFFFFF)) % moduli
    return r


def sample_points(cover: KummerCover, prime_bound: int, samples: int, seed: int):
    """Deterministic (t0, p) sample stream: p uniform over the primes <= bound
    that do not divide exceptional_primes_divide(), and t0 = +-num/den * p^j,
    one reduced Fraction with num, den prime to p and -3 <= j <= 3, so both
    meeting and non-meeting specializations occur.  From 0 to SAMPLE_CAP
    samples, and the prime bound is at most numtheory.SIEVE_CAP."""
    samples, seed = numtheory.as_int(samples, "samples"), numtheory.as_int(seed, "seed")
    if samples < 0:
        raise ValueError(f"sample count {samples} is negative")
    if samples > SAMPLE_CAP:
        raise ValueError(f"{samples} samples is above the sample cap {SAMPLE_CAP}")
    primes = numtheory.primes_upto(numtheory.as_int(prime_bound, "prime_bound"))
    primes = primes[_residues(cover.exceptional_primes_divide(), primes) != 0]
    if not primes.size:
        raise ValueError("no non-exceptional primes below the bound")
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        p = int(rng.choice(primes))
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
