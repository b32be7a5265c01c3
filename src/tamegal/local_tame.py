"""Tame local Galois theory over p-adic completions of the rationals.

A tame local Galois group is generated by a pair (sigma, tau) subject to the
single relation sigma^-1 tau sigma = tau^q, where q is the residue cardinality
and the order of tau (the inertia subgroup generator) is coprime to q.  A
finite group occurs as such a Galois group exactly when it contains a
generating pair of that shape; this module enumerates those pairs, decides
cyclic realizability, and combines both into per-prime feasibility of
prescribed local behavior.

The pair search builds no subgroup closure.  The relation makes sigma
normalize <tau>, so <sigma, tau> = <tau><sigma> has order ord(tau) * k, where
k, the residue degree, is the least k >= 1 with sigma^k in <tau> (product
formula |HK| = |H||K| / |H & K|).

Only the rationals are supported on the global side, so residue cardinalities
are primes; the code nevertheless carries q as an abstract parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numtheory
from .groups import FiniteGroup, parse_group_spec
from .numtheory import is_rational_square
from .padic_oracle import WildRamificationError


@dataclass(frozen=True)
class TamePair:
    """A generating pair (sigma, tau) of group with sigma^-1 tau sigma = tau^q
    and tame tau."""

    group: FiniteGroup
    sigma: int
    tau: int
    q: int

    def verify(self) -> bool:
        g = self.group
        if not (0 <= self.sigma < g.order and 0 <= self.tau < g.order):
            return False
        o_tau = g.element_order(self.tau)
        if math.gcd(o_tau, self.q) != 1:
            return False
        lhs = g.mul(g.inverse(self.sigma), g.mul(self.tau, self.sigma))
        if lhs != g.power(self.tau, self.q):
            return False
        return g.subgroup_closure([self.sigma, self.tau]).size == g.order

    @property
    def inertia_order(self) -> int:
        return self.group.element_order(self.tau)

    @property
    def residue_degree(self) -> int:
        """The least k >= 1 with sigma^k in <tau>.  The pair generates the
        group, of order inertia_order * k (module docstring), so k is the
        quotient."""
        return self.group.order // self.inertia_order

    def as_dict(self):
        return {
            "sigma": self.sigma,
            "tau": self.tau,
            "q": self.q,
            "inertia_order": self.inertia_order,
            "residue_degree": self.residue_degree,
        }


@dataclass(frozen=True)
class LocalExtensionSpec:
    """Prescribed local behavior at p: ramification index e, residue degree f,
    optionally a specific decomposition group.  Checked when built, a bool e
    or f refused, and a wild problem (p | e) raises; the values read are
    stored."""

    p: int
    e: int
    f: int
    group_spec: FiniteGroup | None = None

    def __post_init__(self):
        p = numtheory.as_prime(self.p, "p")
        try:
            e, f = numtheory.as_int(self.e, "e"), numtheory.as_int(self.f, "f")
        except ValueError:
            e = f = 0  # refused below, by the message that names both
        if isinstance(self.e, bool) or isinstance(self.f, bool) or min(e, f) < 1:
            raise ValueError(f"e and f must be positive integers, got e={self.e!r}, f={self.f!r}")
        if e % p == 0:
            raise WildRamificationError(f"wild problem rejected: p={p} divides e={e}")
        for name, value in (("p", p), ("e", e), ("f", f)):
            object.__setattr__(self, name, value)

    def as_dict(self):
        return {
            "p": self.p,
            "e": self.e,
            "f": self.f,
            "D": self.group_spec.label if self.group_spec else None,
        }


def _local_spec(fields, source) -> LocalExtensionSpec:
    """The spec of a dict with the keys p, e and f, integers under
    numtheory.parse_int, and optionally D, a group spec string or None (no
    D); any other key is refused."""
    if not isinstance(fields, dict) or not set("pef") <= fields.keys() <= set("pefD"):
        raise ValueError(f"bad local spec {source!r}: the keys are p, e, f and optionally D")
    if not isinstance(group := fields.get("D"), str | None):
        raise ValueError(f"bad local spec {source!r}: D must be a group spec string or null")
    p, e, f = (numtheory.parse_int(fields[key], f"{key} of local spec {source!r}") for key in "pef")
    return LocalExtensionSpec(p, e, f, None if group is None else parse_group_spec(group))


def parse_local_spec(text: str) -> LocalExtensionSpec:
    """Parse "p,e,f" or "p=<prime>,e=<int>,f=<int>[,D=<group-spec>]": in the
    keyed form p, e and f once each, in any order, D optional and last, and
    no other key (numtheory.parse_fields); the integers under
    numtheory.parse_int."""
    if "=" in text:
        return _local_spec(numtheory.parse_fields(text, ("p", "e", "f"), last="D"), text)
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"local spec {text!r} is neither p,e,f nor p=..,e=..,f=..")
    return _local_spec(dict(zip("pef", parts)), text)


def load_local_spec_batch(path: str) -> list[LocalExtensionSpec]:
    """A JSON array of spec strings or {"p":..,"e":..,"f":..[,"D":..]} objects
    with no other key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:  # nesting too deep to decode
            raise ValueError(f"batch file {path!r}: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"batch file {path!r} does not hold a JSON array")
    return [parse_local_spec(x) if isinstance(x, str) else _local_spec(x, x) for x in data]


# ---------------------------------------------------------------------------


def cyclic_tame_exists(q: int, d: int, e: int) -> bool:
    """Whether the q-adic completion has a degree-d cyclic extension with
    ramification index exactly e.  True iff e divides q - 1."""
    q, d, e = numtheory.as_prime(q, "q"), numtheory.as_int(d, "d"), numtheory.as_int(e, "e")
    if d < 1:
        raise ValueError(f"degree d={d} must be at least 1")
    if e < 1 or d % e:
        raise ValueError(f"e={e} must divide d={d}")
    if math.gcd(d, q) != 1:
        raise ValueError(f"tame case only: gcd(d, q) = {math.gcd(d, q)} != 1")
    return (q - 1) % e == 0


def _tame_pairs(g: FiniteGroup, q: int, taus, size: int):
    """Yield (tau, sigmas) for each tau in taus that has any: the sigmas with
    sigma^-1 tau sigma = tau^q and |<sigma, tau>| = size, for taus of order
    coprime to q and dividing size.  With k = size / ord(tau), sigma^k must
    lie in <tau> and sigma^(k/l) must not, for each prime l | k.
    """
    conj, tau_q, orders = g.conj, g.powers(q), g.orders
    inertia = np.zeros(g.order, dtype=bool)
    for tau in taus:
        k = size // int(orders[tau])
        # k divides ord(sigma), as sigma^ord(sigma) = 1 lies in <tau>
        sigmas = np.flatnonzero((conj[:, tau] == tau_q[tau]) & (orders % k == 0))
        if not sigmas.size:
            continue
        cyc = g.cyclic_subgroup(tau)
        inertia[cyc] = True
        sigmas = sigmas[inertia[g.powers(k, sigmas)]]
        for ell in numtheory.factorize(k):
            sigmas = sigmas[~inertia[g.powers(k // ell, sigmas)]]
        inertia[cyc] = False
        if sigmas.size:
            yield tau, sigmas


def enumerate_tame_pairs(g: FiniteGroup, q: int) -> list[TamePair]:
    """All generating pairs (sigma, tau) of G with sigma^-1 tau sigma = tau^q
    and the order of tau coprime to q, in lexicographic order of (sigma, tau).
    Nonempty exactly when G occurs as a tame local Galois group at residue
    cardinality q, with inertia <tau>.
    """
    q = numtheory.as_prime(q, "q")
    taus = [t for t, o in enumerate(g.orders.tolist()) if math.gcd(o, q) == 1]
    pairs = sorted(
        (sigma, tau)
        for tau, sigmas in _tame_pairs(g, q, taus, g.order)
        for sigma in sigmas.tolist()
    )
    return [TamePair(group=g, sigma=s, tau=t, q=q) for s, t in pairs]


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


def _relation_exponents(x: FiniteGroup, q: int, e: int, f: int):
    """Yield, for each tame pair (sigma, tau) of X at q with ord(tau) = e and
    |<sigma, tau>| = e*f, the a in [0, e) with sigma^f = tau^a."""
    log = np.zeros(x.order, dtype=np.int64)
    for tau, sigmas in _tame_pairs(x, q, np.flatnonzero(x.orders == e).tolist(), e * f):
        log[x.cyclic_subgroup(tau)] = np.arange(e)
        yield from log[x.powers(f, sigmas)].tolist()


def _problem_feasible(g: FiniteGroup, spec: LocalExtensionSpec) -> bool:
    """Whether G has a tame pair at p spanning some D of order e*f, with D
    isomorphic to H if H is given.  D = <sigma, tau> satisfies the relations
    of P_a = <tau, sigma | tau^e, sigma^-1 tau sigma = tau^q, sigma^f = tau^a>
    for one a, and P_a has at most e*f elements tau^i sigma^j.  By von Dyck's
    theorem, H is isomorphic to D iff |H| = e*f and H has a pair at q with
    the same a (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, on presentations)."""
    e, f, h = spec.e, spec.f, spec.group_spec
    if g.order % (e * f) or h is not None and h.order != e * f:
        return False
    wanted = None if h is None else set(_relation_exponents(h, spec.p, e, f))
    return any(wanted is None or a in wanted for a in _relation_exponents(g, spec.p, e, f))


def grunwald_feasible(
    g: FiniteGroup, problems: list[LocalExtensionSpec]
) -> GrunwaldFeasibility:
    """Per-prime feasibility of the prescribed local behaviors inside G.

    A problem (p, e, f) is feasible when some subgroup D of G is generated by
    a tame pair over p whose inertia has order e and whose sigma-image has
    order f in D/<tau>; equivalently |D| = e*f.  A prescribed D must match
    by its presentation (see _problem_feasible).  The overall answer is the
    conjunction, one prime at a time.  A wild problem (p | e) raises when
    its LocalExtensionSpec is built.
    """
    feas = [_problem_feasible(g, spec) for spec in problems]
    return GrunwaldFeasibility(problems=list(problems), feasible=feas)


# ---------------------------------------------------------------------------


def c4_embeddable_quadratic(a) -> bool:
    """Whether the quadratic extension by sqrt(a) embeds into a cyclic quartic
    extension of the rationals; equivalently, whether a is a sum of two
    rational squares: a > 0 and v_l(a) even for every prime l = 3 mod 4.

    Square inputs are degenerate (the extension is trivial) and return True;
    callers that care can test is_rational_square separately.  a = 0 raises.
    """
    a = numtheory.as_rational(a, "a")
    if a == 0:
        raise ValueError("a must be nonzero")
    exponents = (x for m in (a.numerator, a.denominator) for x in numtheory.factorize(m).items())
    return is_rational_square(a) or a > 0 and all(
        ell % 4 != 3 or exp % 2 == 0 for ell, exp in exponents
    )
