"""Tame local Galois theory over p-adic completions of the rationals.

A tame local Galois group is generated by a pair (sigma, tau) subject to the
single relation sigma^-1 tau sigma = tau^q, where q is the residue cardinality
and the order of tau (the inertia subgroup generator) is coprime to q.  A
finite group occurs as such a Galois group exactly when it contains a
generating pair of that shape; this module enumerates those pairs, decides
cyclic realizability, and combines both into per-prime feasibility of
prescribed local behavior.

Only the rationals are supported on the global side, so residue cardinalities
are primes; the code nevertheless carries q as an abstract parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numtheory
from .groups import FiniteGroup, is_isomorphic, parse_group_spec
from .padic_oracle import WildRamificationError


@dataclass(frozen=True)
class TameLocalField:
    """A p-adic completion of the rationals, carried by its residue cardinality.

    Only primes occur over the rationals; the field is kept abstract so prime
    powers can be added later without changing call sites.
    """

    q: int

    def __post_init__(self):
        if self.q < 2 or not numtheory.is_prime(self.q):
            raise ValueError(f"residue cardinality {self.q} is not prime")


@dataclass(frozen=True)
class TamePair:
    """A pair (sigma, tau) with sigma^-1 tau sigma = tau^q and tame tau."""

    group: FiniteGroup
    sigma: int
    tau: int
    q: int

    def verify(self) -> bool:
        g = self.group
        o_tau = g.element_order(self.tau)
        if math.gcd(o_tau, self.q) != 1:
            return False
        lhs = g.mul(g.inverse(self.sigma), g.mul(self.tau, self.sigma))
        return lhs == g.power(self.tau, self.q)

    @property
    def inertia_order(self) -> int:
        return self.group.element_order(self.tau)

    @property
    def residue_degree(self) -> int:
        d = self.group.subgroup_closure([self.sigma, self.tau])
        return int(d.size) // self.inertia_order

    def as_dict(self):
        return {
            "sigma": self.sigma,
            "tau": self.tau,
            "q": self.q,
            "inertia_order": self.inertia_order,
            "residue_degree": self.residue_degree,
        }


@dataclass
class LocalExtensionSpec:
    """Prescribed local behavior at p: ramification index e, residue degree f,
    optionally a specific decomposition group."""

    p: int
    e: int
    f: int
    group_spec: FiniteGroup | None = None

    def validate(self):
        if not numtheory.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1 or self.f < 1:
            raise ValueError("e and f must be positive")
        if self.e % self.p == 0:
            raise WildRamificationError(
                f"wild problem rejected: p={self.p} divides e={self.e}"
            )

    def as_dict(self):
        return {
            "p": self.p,
            "e": self.e,
            "f": self.f,
            "D": self.group_spec.label if self.group_spec else None,
        }


def parse_local_spec(text: str) -> LocalExtensionSpec:
    """Parse "p=<prime>,e=<int>,f=<int>[,D=<group-spec>]" (D, if present, last)."""
    text = text.strip()
    fields: dict[str, str] = {}
    rest = text
    while rest:
        if rest.startswith("D="):
            fields["D"] = rest[2:]
            break
        part, _, rest = rest.partition(",")
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad local spec fragment {part!r}")
        fields[key.strip()] = val.strip()
    try:
        spec = LocalExtensionSpec(
            p=int(fields["p"]),
            e=int(fields["e"]),
            f=int(fields["f"]),
            group_spec=parse_group_spec(fields["D"]) if "D" in fields else None,
        )
    except KeyError as exc:
        raise ValueError(f"local spec {text!r} is missing {exc}") from exc
    spec.validate()
    return spec


def load_local_spec_batch(path: str) -> list[LocalExtensionSpec]:
    """A JSON array of spec strings or {"p":..,"e":..,"f":..[,"D":..]} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = []
    for item in data:
        if isinstance(item, str):
            out.append(parse_local_spec(item))
        else:
            spec = LocalExtensionSpec(
                p=int(item["p"]),
                e=int(item["e"]),
                f=int(item["f"]),
                group_spec=parse_group_spec(item["D"]) if item.get("D") else None,
            )
            spec.validate()
            out.append(spec)
    return out


# ---------------------------------------------------------------------------


def cyclic_tame_exists(q: int, d: int, e: int) -> bool:
    """Whether the q-adic completion has a degree-d cyclic extension with
    ramification index exactly e.  True iff e divides q - 1."""
    q, d, e = int(q), int(d), int(e)
    if not numtheory.is_prime(q):
        raise ValueError(f"{q} is not prime")
    if e < 1 or d < 1 or d % e:
        raise ValueError(f"e={e} must divide d={d}")
    if math.gcd(d, q) != 1:
        raise ValueError(f"tame case only: gcd(d, q) = {math.gcd(d, q)} != 1")
    return (q - 1) % e == 0


def enumerate_tame_pairs(g: FiniteGroup, q: int) -> list[TamePair]:
    """All generating pairs (sigma, tau) of G with sigma^-1 tau sigma = tau^q
    and the order of tau coprime to q.  Nonempty exactly when G occurs as a
    tame local Galois group at residue cardinality q, with inertia <tau>.
    """
    if not numtheory.is_prime(q):
        raise ValueError(f"{q} is not prime")
    n = g.order
    orders = g.orders
    tau_ok = np.array([math.gcd(int(o), q) == 1 for o in orders])
    # tau^q for every tau by binary powering on the table
    relation = g.conj == g.powers(q)[None, :]
    closure_cache: dict[frozenset, int] = {}
    out = []
    for sigma, tau in np.argwhere(relation & tau_ok[None, :]):
        key = frozenset((int(sigma), int(tau)))
        size = closure_cache.get(key)
        if size is None:
            size = int(g.subgroup_closure([sigma, tau]).size)
            closure_cache[key] = size
        if size == n:
            out.append(TamePair(group=g, sigma=int(sigma), tau=int(tau), q=q))
    return out


@dataclass
class GrunwaldFeasibility:
    problems: list[LocalExtensionSpec]
    feasible: list[bool]

    @property
    def all_feasible(self) -> bool:
        return all(self.feasible)

    def as_dict(self):
        return {
            "problems": [
                {**spec.as_dict(), "feasible": ok}
                for spec, ok in zip(self.problems, self.feasible)
            ],
            "all_feasible": self.all_feasible,
        }


def _problem_feasible(g: FiniteGroup, spec: LocalExtensionSpec) -> bool:
    n = g.order
    total = spec.e * spec.f
    if total > n or n % total:
        return False
    if math.gcd(spec.e, spec.p) != 1:
        return False
    orders = g.orders
    taus = np.flatnonzero(orders == spec.e)
    conj = g.conj
    for tau in taus.tolist():
        target = g.power(tau, spec.p)
        for sigma in np.flatnonzero(conj[:, tau] == target).tolist():
            d = g.subgroup_closure([sigma, tau])
            if d.size != total:
                continue
            if spec.group_spec is not None and not is_isomorphic(
                g.subgroup(d), spec.group_spec
            ):
                continue
            return True
    return False


def grunwald_feasible(
    g: FiniteGroup, problems: list[LocalExtensionSpec]
) -> GrunwaldFeasibility:
    """Per-prime feasibility of the prescribed local behaviors inside G.

    A problem (p, e, f) is feasible when some subgroup D of G is generated by
    a tame pair over p whose inertia has order e and whose sigma-image has
    order f in D/<tau>; equivalently |D| = e*f.  The overall answer is the
    conjunction, one prime at a time.  Wild problems (p | e) raise.
    """
    for spec in problems:
        spec.validate()
    feas = [_problem_feasible(g, spec) for spec in problems]
    return GrunwaldFeasibility(problems=list(problems), feasible=feas)


# ---------------------------------------------------------------------------


def is_rational_square(a) -> bool:
    return numtheory.is_rational_square(Fraction(a))


def c4_embeddable_quadratic(a) -> bool:
    """Whether the quadratic extension by sqrt(a) embeds into a cyclic quartic
    extension of the rationals; equivalently, whether a is a sum of two
    rational squares: a > 0 and v_l(a) even for every prime l = 3 mod 4.

    Square inputs are degenerate (the extension is trivial) and return True;
    callers that care can test is_rational_square separately.  a = 0 raises.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    if is_rational_square(a):
        return True
    if a < 0:
        return False
    for m in (a.numerator, a.denominator):
        for ell, exp in numtheory.factorize(m).items():
            if ell % 4 == 3 and exp % 2:
                return False
    return True
