"""Ground-truth local invariants of tame Kummer extensions, via finite fields.

The key entry point is :func:`kummer_local_invariants`, which computes the
ramification index and residue degree of the splitting field of X^d - u over
the p-adic numbers (u = p^v * w with w a unit given by its residue).  Because
the extension is tame, everything is determined by residue-field data: the
degree of the cyclotomic layer and the order of the class of u in the Kummer
pairing group.  No p-adic approximation is ever computed.

Explicitly built fields (:func:`build_field`) are capped at 2^63 elements;
:func:`kummer_local_invariants` never materializes the large cyclotomic
residue field and instead reduces all exponents into the field the unit
representative lives in, so it works even when p^f0 is astronomically large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numtheory

FIELD_CARD_CAP = 2**63
DEGREE_CAP = 12


class FieldSizeError(ValueError):
    """Requested field exceeds the 64-bit cardinality cap."""


class WildRamificationError(ValueError):
    """The residue characteristic divides a Kummer degree or a prescribed
    ramification index: the wild case, which is out of scope."""


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (dense coefficient tuples, low degree first)


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


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial over F_p (low-first coefficients)."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    x = [0, 1]
    xqk = _poly_powmod(x, p**k, coeffs, p)
    if _poly_trim([(c - d) % p for c, d in _zip_pad(xqk, x)]):
        return False
    for r in numtheory.factorize(k):
        xq = _poly_powmod(x, p ** (k // r), coeffs, p)
        diff = _poly_trim([(c - d) % p for c, d in _zip_pad(xq, x)])
        g = _poly_gcd(list(coeffs), diff, p)
        if len(g) != 1:
            return False
    return True


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p with the smallest coefficient
    code sum(c_i p^i); deterministic so all downstream logs reproduce."""
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


# ---------------------------------------------------------------------------


class FiniteField:
    """The field with p^k elements, modulus chosen deterministically."""

    def __init__(self, p: int, k: int = 1):
        p, k = int(p), int(k)
        if not numtheory.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1 or k > DEGREE_CAP:
            raise FieldSizeError(f"extension degree {k} outside 1..{DEGREE_CAP}")
        if p**k >= FIELD_CARD_CAP:
            raise FieldSizeError(f"field of {p}^{k} elements exceeds the 64-bit cap")
        self.p = p
        self.k = k
        self.card = p**k
        self.modulus = _least_irreducible(p, k)

    def element(self, coeffs) -> "FiniteFieldElement":
        if isinstance(coeffs, FiniteFieldElement):
            if coeffs.field != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.k:
            cs = _poly_mulmod(cs, [1], list(self.modulus), self.p)
        cs += [0] * (self.k - len(cs))
        return FiniteFieldElement(self, tuple(cs[: self.k]))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def elements(self):
        """Iterate over all p^k elements (small fields only)."""
        coeffs = [0] * self.k
        for code in range(self.card):
            c = code
            for i in range(self.k):
                coeffs[i] = c % self.p
                c //= self.p
            yield FiniteFieldElement(self, tuple(coeffs))

    def generator(self) -> "FiniteFieldElement":
        """Some generator of the multiplicative group."""
        fac = numtheory.factorize(self.card - 1)
        for x in self.elements():
            if x.is_zero():
                continue
            if all(x ** ((self.card - 1) // q) != self.one() for q in fac):
                return x
        raise ArithmeticError("no generator found")  # pragma: no cover

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


class FiniteFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return self.field.k

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def _wrap(self, coeffs):
        cs = list(coeffs) + [0] * (self.field.k - len(coeffs))
        return FiniteFieldElement(self.field, tuple(cs[: self.field.k]))

    def __add__(self, other):
        other = self.field.element(other)
        return self._wrap([(a + b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self.field.element(other)
        return self._wrap([(a - b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._wrap([(-a) % self.field.p for a in self.coeffs])

    def __mul__(self, other):
        other = self.field.element(other)
        prod = _poly_mulmod(list(self.coeffs), list(other.coeffs), list(self.field.modulus), self.field.p)
        return self._wrap(prod)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # x^(q-2) = x^-1
        return self ** (self.field.card - 2)

    def __pow__(self, e: int):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FiniteFieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]} (mod {self.field.p})"
        return f"{list(self.coeffs)} in {self.field!r}"


def build_field(p: int, k: int = 1) -> FiniteField:
    """Field of p^k elements with a deterministic modulus (p^k < 2^63, k <= 12)."""
    return FiniteField(p, k)


def multiplicative_order(x: FiniteFieldElement) -> int:
    """Least n >= 1 with x^n = 1; divides p^k - 1."""
    if x.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    n = x.field.card - 1
    one = x.field.one()
    for q, a in numtheory.factorize(n).items():
        for _ in range(a):
            if x ** (n // q) == one:
                n //= q
            else:
                break
    return n


# ---------------------------------------------------------------------------
# tame Kummer invariants


@dataclass(frozen=True)
class KummerLocalInvariants:
    """Splitting-field data of X^d - u over the base local field."""

    e: int
    f: int
    f0: int
    total_degree: int

    def as_dict(self):
        return {"e": self.e, "f": self.f, "f0": self.f0, "total_degree": self.total_degree}


def _unit_order_mod_dth_powers(w, p: int, d: int, f0: int) -> int:
    """Order of the unit class w * (k^*)^d where k is the degree-f0 extension
    of the field w lives in.

    w is an int (residue in the prime field) or a FiniteFieldElement.  The
    class order equals the multiplicative order of w^((q^f0-1)/d) where q is
    the cardinality of w's field; that power stays inside w's field, so the
    big cyclotomic field never needs to be built.
    """
    if isinstance(w, FiniteFieldElement):
        q = w.field.card
        big = q**f0 - 1
        if big % d:
            raise ArithmeticError("d does not divide q^f0 - 1")  # pragma: no cover
        y = w ** ((big // d) % (q - 1) if q > 2 else 0)
        one = w.field.one()
        for dd in numtheory.divisors(d):
            if y**dd == one:
                return dd
    else:
        q = p
        big = q**f0 - 1
        if big % d:
            raise ArithmeticError("d does not divide q^f0 - 1")  # pragma: no cover
        y = pow(w, (big // d) % (q - 1) if q > 2 else 0, p)
        for dd in numtheory.divisors(d):
            if pow(y, dd, p) == 1:
                return dd
    raise ArithmeticError("class order search failed")  # pragma: no cover


def kummer_local_invariants(p: int, d: int, v: int, w) -> KummerLocalInvariants:
    """Invariants of the splitting field of X^d - u, u = p^v * w.

    p is the residue characteristic, d the Kummer degree (coprime to p), v
    the valuation of u and w the residue of its unit part: an integer taken
    mod p, or a FiniteFieldElement when the base is the unramified extension
    with that residue field (used for twisted constants such as roots of
    unity of exact order e).  Degrees are relative to that base field.
    """
    p, d, v = int(p), int(d), int(v)
    if not numtheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("degree must be positive")
    if d % p == 0:
        raise WildRamificationError(f"wild case rejected: {p} divides {d}")

    if isinstance(w, FiniteFieldElement):
        if w.field.p != p:
            raise ValueError("unit representative has the wrong characteristic")
        if w.is_zero():
            raise ValueError("unit representative must be nonzero")
        q0 = w.field.card
    else:
        w = int(w) % p
        if w == 0:
            raise ValueError("unit representative must be nonzero")
        q0 = p

    f0 = numtheory.multiplicative_order_mod(q0 % d, d) if d > 1 else 1
    e = d // math.gcd(d, v)
    n_w = _unit_order_mod_dth_powers(w, p, d, f0)
    n = math.lcm(n_w, e)
    f = f0 * (n // e)
    inv = KummerLocalInvariants(e=e, f=f, f0=f0, total_degree=e * f)
    if pow(q0, f, e) != 1 % e:
        raise ArithmeticError(f"tameness violated: e={e} does not divide {q0}^{f} - 1")
    return inv
