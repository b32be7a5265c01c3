"""Ground-truth local invariants of tame Kummer extensions, by integer
arithmetic modulo p.

The key entry point is :func:`kummer_local_invariants`, which computes the
ramification index and residue degree of the splitting field of X^d - u over
the p-adic numbers (u = p^v * w with w a unit given by its residue mod p, an
int).  Because the extension is tame, everything is determined by residue-
field data: the degree f0 of the cyclotomic layer and the order of the class
of u in the Kummer pairing group.  No p-adic approximation is computed and no
finite field is built: the exponent that maps w into that group is reduced
mod d(p - 1), so p^f0 is never formed, however large it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numtheory


class WildRamificationError(ValueError):
    """The residue characteristic divides a Kummer degree or a prescribed
    ramification index: the wild case, which is out of scope."""


@dataclass(frozen=True)
class KummerLocalInvariants:
    """Splitting-field data of X^d - u over the base local field."""

    e: int
    f: int
    f0: int
    total_degree: int

    def as_dict(self):
        return {"e": self.e, "f": self.f, "f0": self.f0, "total_degree": self.total_degree}


def _unit_order_mod_dth_powers(w: int, p: int, d: int, f0: int) -> int:
    """Order of the class of w in k^* / (k^*)^d, k the field of p^f0 elements.

    That order is the multiplicative order of y = w^((p^f0 - 1)/d) mod p.  The
    exponent only matters mod p - 1, and ((p^f0 - 1)/d) mod (p - 1) equals
    ((p^f0 - 1) mod d(p - 1)) / d, so p^f0 is only ever taken mod d(p - 1).
    y^d = 1, so its order divides d.
    """
    r = pow(p, f0, d * (p - 1))
    if (r - 1) % d:
        raise ArithmeticError(f"d={d} does not divide {p}^{f0} - 1")
    y = pow(w, (r - 1) % (d * (p - 1)) // d, p)
    return numtheory._order_from_multiple(y, p, d)


def kummer_local_invariants(p: int, d: int, v: int, w: int) -> KummerLocalInvariants:
    """Invariants of the splitting field of X^d - u over Q_p, u = p^v * w.

    p is the residue characteristic, d the Kummer degree (coprime to p), v
    the valuation of u and w an int, the residue of its unit part, taken
    mod p.
    """
    p, d = numtheory.as_prime(p, "p"), numtheory.as_int(d, "d")
    v, w = numtheory.as_int(v, "v"), numtheory.as_int(w, "w")
    if d < 1:
        raise ValueError("degree must be positive")
    if d % p == 0:
        raise WildRamificationError(f"wild case rejected: {p} divides {d}")
    w %= p
    if w == 0:
        raise ValueError("unit representative must be nonzero")

    f0 = numtheory.multiplicative_order_mod(p % d, d)
    e = d // math.gcd(d, v)
    n_w = _unit_order_mod_dth_powers(w, p, d, f0)
    n = math.lcm(n_w, e)
    f = f0 * (n // e)
    inv = KummerLocalInvariants(e=e, f=f, f0=f0, total_degree=e * f)
    if pow(p, f, e) != 1 % e:
        raise ArithmeticError(f"tameness violated: e={e} does not divide {p}^{f} - 1")
    return inv
