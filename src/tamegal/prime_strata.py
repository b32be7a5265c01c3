"""Prime stratification and cyclotomic congruence sets over the rationals.

For an odd prime p not dividing d, the d-th roots of unity present p-adically
form exactly the gcd(d, p-1)-th roots; that gcd indexes the stratum of p.
Strata partition the odd primes prime to d, and their Dirichlet densities are
exact rationals obtained by counting residues mod each prime power dividing d.

Members are found by congruences, with no gcd: gcd(d, p-1) = e iff e | p-1
and ell*e does not divide p-1 for every prime ell | d/e.  (Given e | p-1,
e divides g = gcd(d, p-1), and g != e iff ell*e | g for some prime ell, that
is, ell | d/e and ell*e | p-1.)

Also here: the two-congruence prime sets used by the obstruction arguments
(split in one cyclotomic field, non-split in another) and the quadratic-
residue pigeonhole for biquadratic fields (a prime unramified in a biquadratic
field always splits in at least one of its three quadratic subfields, because
the product of the three Legendre symbols is +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numtheory


@dataclass
class PrimeStratum:
    """Primes p <= bound with gcd(d, p-1) = e, plus density data."""

    d: int
    e: int
    primes: list[int]
    bound: int
    empirical_density: Fraction
    predicted_density: Fraction

    def as_dict(self):
        return {
            "d": self.d,
            "e": self.e,
            "bound": self.bound,
            "count": len(self.primes),
            "primes": self.primes if len(self.primes) <= 2000 else self.primes[:2000],
            "truncated": len(self.primes) > 2000,
            "empirical_density": str(self.empirical_density),
            "predicted_density": str(self.predicted_density),
        }


def stratum_of(p: int, d: int) -> int:
    """The divisor e of d with mu_d meeting the p-adics in exactly mu_e."""
    p, d = numtheory.as_prime(p, "p"), numtheory.as_int(d, "d")
    if p == 2:
        raise ValueError("p must be an odd prime, got 2")
    if d < 1 or d % p == 0:
        raise ValueError(f"p={p} must not divide d={d}")
    return math.gcd(d, p - 1)


def predicted_stratum_density(d: int, e: int) -> Fraction:
    """Dirichlet density of the stratum: residues a mod d with gcd(d, a-1) = e,
    among the phi(d) invertible residues.

    By CRT the count is a product over the p^k exactly dividing d, with
    j = v_p(e): units a mod p^k with min(v_p(a-1), k) = j number
    p^(k-1)(p-2) for j = 0, p^(k-j) - p^(k-j-1) for 0 < j < k and 1 for j = k.
    """
    d, e = numtheory.as_int(d, "d"), numtheory.as_int(e, "e")
    if d < 1:
        raise ValueError(f"degree d={d} must be at least 1")
    if e < 1 or d % e:
        raise ValueError(f"e={e} must divide d={d}")
    density = Fraction(1)
    for p, k in numtheory.factorize(d).items():
        j = numtheory.factorize(e).get(p, 0)
        if j == 0:
            hits = p ** (k - 1) * (p - 2)
        elif j < k:
            hits = p ** (k - j) - p ** (k - j - 1)
        else:
            hits = 1
        density *= Fraction(hits, p ** (k - 1) * (p - 1))
    return density


def enumerate_stratum(d: int, e: int, bound: int) -> PrimeStratum:
    """All odd primes p <= bound, p not dividing d, with gcd(d, p-1) = e,
    found by congruences on the cached sieve: e | p-1, and ell*e does not
    divide p-1 for each prime ell | d/e (see the module docstring)."""
    d, e = numtheory.as_int(d, "d"), numtheory.as_int(e, "e")
    bound = numtheory.as_int(bound, "bound")
    if d >= 2**63:
        raise ValueError(f"d={d} must be below 2^63, the range of the sieve's int64 primes")
    predicted = predicted_stratum_density(d, e)  # refuses d < 1 and e not dividing d
    primes = numtheory.primes_upto(bound)[1:]  # the odd primes
    primes = primes[d % primes != 0]
    members = primes[(primes - 1) % e == 0]
    for ell in numtheory.factorize(d // e):
        members = members[(members - 1) % (ell * e) != 0]
    total = int(primes.size)
    emp = Fraction(int(members.size), total) if total else Fraction(0)
    return PrimeStratum(
        d=d,
        e=e,
        primes=members.tolist(),
        bound=bound,
        empirical_density=emp,
        predicted_density=predicted,
    )


def lemma32_prime_set(q: int, r: int, bound: int) -> list[int]:
    """Primes p <= bound split completely in the r-th cyclotomic field but not
    in the q-th: p = 1 mod r and p != 1 mod q.

    q = 2 is rejected (p != 1 mod 2 is vacuous for odd p).  Only the
    cyclotomic component of the construction is computed here; conditions in
    auxiliary fields attached to a specific cover are out of scope.  An empty
    result at the given bound is an error, never silently returned.
    """
    q, r = numtheory.as_prime(q, "q"), numtheory.as_prime(r, "r")
    bound = numtheory.as_int(bound, "bound")
    if q == 2:
        raise ValueError("q = 2 rejected: the non-split condition is vacuous for odd primes")
    if max(q, r) >= 2**63:
        raise ValueError("q and r must be below 2^63, the range of the sieve's int64 primes")
    if q == r:
        raise ValueError("q and r must be distinct")
    primes = numtheory.primes_upto(bound)
    members = primes[(primes % r == 1) & (primes % q != 1)]
    out = members.tolist()
    if not out:
        raise ValueError(
            f"no primes = 1 mod {r}, != 1 mod {q} below {bound}; raise the bound"
        )
    return out


def biquadratic_split(a: int, b: int, p: int) -> set[int]:
    """Indices (1-based) of the quadratic subfields by sqrt(a), sqrt(b),
    sqrt(ab) of the biquadratic field in which the odd prime p splits.

    Requires p coprime to 2ab and a, b squarefree with a, b, ab/gcd(a,b)^2
    all non-squares.  Always nonempty: the three Legendre symbols multiply
    to (ab)^2 = +1, so they cannot all be -1.
    """
    a, b, p = numtheory.as_int(a, "a"), numtheory.as_int(b, "b"), numtheory.as_prime(p, "p")
    if p == 2:
        raise ValueError("p must be an odd prime, got 2")
    if a == 0 or b == 0 or (2 * a * b) % p == 0:
        raise ValueError("p must not divide 2ab (unramified case only)")
    if not numtheory.is_squarefree(a) or not numtheory.is_squarefree(b):
        raise ValueError("a and b must be squarefree")
    g = math.gcd(a, b)
    third = (a * b) // (g * g)
    for value, name in ((a, "a"), (b, "b"), (third, "ab")):
        if value > 0 and numtheory.is_perfect_square(value):
            raise ValueError(f"degenerate input: {name} is a square, field is not biquadratic")
    symbols = [
        numtheory.legendre_symbol(a, p),
        numtheory.legendre_symbol(b, p),
        numtheory.legendre_symbol(a * b, p),
    ]
    out = {i + 1 for i, s in enumerate(symbols) if s == 1}
    if not out:
        raise ArithmeticError("Legendre symbol product identity violated: no subfield splits")
    return out
