"""Finite groups as Cayley tables, with eligibility classification.

Groups are plain index tables: elements are 0..order-1, element 0 is the
identity, and table[i, j] is the index of the product.  Every predicate is
decided exactly on the table (order cap 2048), which keeps the whole module
free of any external group database.  Three algorithms carry the work:

* element orders by prime descent: for each p^a || n, y = x^(n/p^a) by
  binary powering, and the p-part of ord(x) is the least p^k with
  y^(p^k) = 1;
* subgroup closure by Dimino's algorithm: whole right cosets H*x are added,
  one gather each, with representatives closed under the generators;
* the Frobenius search reads the kernel off the orders: a normal subgroup of
  order P coprime to its index is {x : ord(x) | P}, and its complements are
  conjugate (Schur-Zassenhaus), so one complement decides.

Sylow shapes need no subgroup (see :func:`sylow_shape`): a Sylow p-subgroup
has order p^a for p^a || n, it is cyclic iff some element has order p^a, and
a non-cyclic Sylow 2-subgroup is generalized quaternion iff its involution
is unique, that is iff the first involution z of G commutes with no other
involution (Gorenstein, *Finite Groups*, Thm 5.4.10(ii)).

Any group can also come from a JSON file (see :func:`parse_group_spec`): an
object whose "table" is a square array of arrays of non-negative JSON
integers, and whose "order", if present, is an integer equal to the row
count.  Other keys are ignored.  The table is read by whole-buffer byte
passes straight into int32, without a Python int per entry.

The three classification flags reported by :func:`classify`:

* ``hg_real``      -- cyclic of order 2 or an odd prime power, or a Frobenius
                      group with cyclic kernel and complement whose orders are
                      each 2 or an odd prime power;
* ``hg_sqrt_minus1`` -- cyclic of prime power order, Frobenius with both parts
                      cyclic of prime power order, or generalized quaternion;
* ``pd1_candidate``  -- cyclic of prime order, dihedral of order 2p (p >= 3
                      prime), or C_p x| C_3 with p = 1 mod 3 prime.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import numtheory

ORDER_CAP = 2048

NON_CYCLIC_ABELIAN = "NonCyclicAbelian"
COMPOSITE_ORDER_ELEMENT = "CompositeOrderElement"
ORDER_FOUR_ELEMENT = "OrderFourElement"

SYLOW_CYCLIC = "Cyclic"
SYLOW_GENERALIZED_QUATERNION = "GeneralizedQuaternion"
SYLOW_OTHER = "Other"


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group given by its Cayley table of element indices."""

    def __init__(self, table, label: str = "G", validate: bool = True):
        arr = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GroupError("Cayley table must be square")
        n = arr.shape[0]
        if n < 1 or n > ORDER_CAP:
            raise GroupError(f"order {n} outside 1..{ORDER_CAP}")
        self.table = arr
        self.order = n
        self.label = label
        self._inv = None
        self._pow = None
        self._conj = None
        if validate:
            self.check_table()
        self.table.setflags(write=False)

    # -- validation ---------------------------------------------------------

    def check_table(self):
        """Latin square, two-sided identity at 0, associativity.

        Associativity is exact by Light's test: (x*a)*y = x*(a*y) for every
        a in a generating set implies it for every a, at O(n^2 log n) cost.
        The generator choice reads element orders before associativity is
        known; an element whose binary powers do not reach 0 by exponent n
        already refutes associativity.
        """
        t, n = self.table, self.order
        if t.min() < 0 or t.max() >= n:
            raise GroupError("table entries out of range")
        ar = np.arange(n)
        seen = np.zeros((n, n), dtype=bool)
        for lines in (t, t.T):
            # seen[i, x]: x occurs in line i (a row of t, then a column of t)
            seen[:] = False
            seen[ar[:, None], lines] = True
            if not seen.all():
                raise GroupError("table rows/columns are not permutations")
        if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
            raise GroupError("element 0 is not a two-sided identity")
        for a in _greedy_generators(self):
            # (x*a)*y against x*(a*y); take() gathers columns faster than t[:, idx]
            if not (t[t[:, a]] == t.take(t[a], axis=1)).all():
                raise GroupError("associativity fails")

    # -- cached structure ---------------------------------------------------

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = self.table.argmin(axis=1)  # the column of 0 in each row
        return self._inv

    def _power_data(self):
        """Element orders by prime descent, cached in ``_pow``."""
        if self._pow is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            for p, a in numtheory.factorize(n).items():
                y = self.powers(n // p**a)
                for _ in range(a):
                    orders[y != 0] *= p
                    y = self.powers(p, y)
                if y.any():
                    raise GroupError("associativity fails: an element order does not divide n")
            self._pow = orders
        return self._pow

    @property
    def orders(self) -> np.ndarray:
        return self._power_data()

    @property
    def max_order(self) -> int:
        return int(self.orders.max())

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    @property
    def is_cyclic(self) -> bool:
        return self.max_order == self.order

    @property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @property
    def conj(self) -> np.ndarray:
        """conj[s, t] = s^-1 t s."""
        if self._conj is None:
            n = self.order
            x = self.table[self.inv]
            self._conj = self.table[x, np.arange(n)[:, None]]
        return self._conj

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def powers(self, m: int, elems=None) -> np.ndarray:
        """x^m for each x in elems (default: every element), m >= 0, by
        binary powering on the table."""
        t = self.table
        base = np.arange(self.order) if elems is None else np.asarray(elems)
        out = np.zeros_like(base)
        while m:
            if m & 1:
                out = t[out, base]
            m >>= 1
            if m:
                base = t[base, base]
        return out

    def power(self, g: int, m: int) -> int:
        return int(self.powers(m % int(self.orders[g]), [g])[0])

    def element_order(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range for order {self.order}")
        return int(self.orders[g])

    def cyclic_subgroup(self, g: int) -> np.ndarray:
        o = int(self.orders[g])
        pw = np.zeros(1, dtype=np.int64)
        while pw.size < o:
            # g^0..g^(k-1) times g^k gives g^k..g^(2k-1)
            pw = np.concatenate([pw, self.table[pw, self.table[pw[-1], g]]])
        return np.sort(pw[:o])

    def subgroup_closure(self, gens) -> np.ndarray:
        """Smallest subgroup containing gens, as a sorted index array.

        Dimino's algorithm: start from the cyclic subgroup of the generator
        of highest order; each further generator g not yet reached turns the
        subgroup H so far into a union of right cosets H*r, one gather each,
        whose representatives r start at g and are closed under right
        multiplication by the generators used so far.  Every element reached
        is a product of the generators, also on a table that is no group.
        """
        t, orders = self.table, self.orders
        gens = sorted({int(x) for x in gens}, key=lambda x: -orders[x])
        mask = np.zeros(self.order, dtype=bool)
        mask[self.cyclic_subgroup(gens[0]) if gens else 0] = True
        used = gens[:1]
        for g in gens[1:]:
            if mask[g]:
                continue
            used.append(g)
            prev = np.flatnonzero(mask)
            reps = [g]
            mask[t[prev, g]] = True
            for r in reps:  # grows while it is walked
                for s in used:
                    x = t[r, s]
                    if not mask[x]:
                        mask[t[prev, x]] = True
                        reps.append(x)
        return np.flatnonzero(mask)

    def center(self) -> np.ndarray:
        comm = self.table == self.table.T
        return np.flatnonzero(comm.all(axis=1))

    def subgroup(self, elems, label: str | None = None) -> "FiniteGroup":
        """The subgroup on the given (closed) element set, reindexed."""
        el = np.unique(np.asarray(list(elems), dtype=np.int64))
        sub = self.table[np.ix_(el, el)]
        if not np.isin(sub, el).all():
            raise GroupError("element set is not closed under multiplication")
        table = np.searchsorted(el, sub)
        return FiniteGroup(table, label=label or f"{self.label}|sub{len(el)}", validate=False)

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    if n < 1 or n > ORDER_CAP:
        raise GroupError(f"cyclic order {n} outside 1..{ORDER_CAP}")
    ar = np.arange(n, dtype=np.int32)
    table = ar[:, None] + ar
    table[table >= n] -= n
    return FiniteGroup(table, label=f"C{n}", validate=False)


def semidirect_cyclic(P: int, Q: int, k: int) -> FiniteGroup:
    """C_P x| C_Q with presentation a^P = b^Q = 1, b^-1 a b = a^k.

    Elements a^i b^j are indexed as i + P*j.  Requires gcd(k, P) = 1 and the
    multiplicative order of k mod P to divide Q.
    """
    P, Q = int(P), int(Q)
    if P < 1 or Q < 1 or P * Q > ORDER_CAP:
        raise GroupError(f"orders ({P}, {Q}) invalid or product above {ORDER_CAP}")
    k = int(k) % P if P > 1 else 0
    if P > 1:
        if math.gcd(k, P) != 1:
            raise GroupError(f"action invalid: gcd({k}, {P}) = {math.gcd(k, P)} != 1")
        if pow(k, Q, P) != 1:
            raise GroupError(
                f"action invalid: k^Q = {k}^{Q} = {pow(k, Q, P)} mod {P}, expected 1"
            )
    n = P * Q
    ip = np.arange(P, dtype=np.int32)
    if P > 1:
        kbar = pow(k, -1, P)
        kbar_pows = np.array([pow(kbar, j, P) for j in range(Q)], dtype=np.int32)
    else:
        kbar_pows = np.ones(Q, dtype=np.int32)
    # block structure: the (i1, i2) part depends on j1 only and the j part is
    # a Q x Q pattern, so the modular work stays at P*n; the two are summed
    # in one broadcast over (j1, i1, j2, i2)
    twists = np.outer(kbar_pows, ip) % P  # twists[j1, i2] = kbar^j1 * i2 mod P
    core = (ip[None, :, None] + twists[:, None, :]) % P  # core[j1, i1, i2]
    jq = np.arange(Q, dtype=np.int32)
    jpart = P * ((jq[:, None] + jq[None, :]) % Q)  # jpart[j1, j2]
    table = (core[:, :, None, :] + jpart[:, None, :, None]).reshape(n, n)
    return FiniteGroup(table, label=f"SD:{P},{Q},{k}", validate=False)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (rotations r^i, reflections r^i s)."""
    if n < 1 or 2 * n > ORDER_CAP:
        raise GroupError(f"dihedral parameter {n} out of range")
    g = semidirect_cyclic(n, 2, n - 1 if n > 1 else 0)
    return FiniteGroup(g.table, label=f"D{n}", validate=False)


def generalized_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given 2-power order >= 8.

    Presentation x^(order/2) = 1, y^2 = x^(order/4), y^-1 x y = x^-1;
    element x^i y^j is indexed as i + (order/2)*j.
    """
    N = int(order)
    if N < 8 or N & (N - 1) or N > ORDER_CAP:
        raise GroupError(f"generalized quaternion order must be a 2-power >= 8, got {N}")
    half = N // 2
    idx = np.arange(N, dtype=np.int64)
    i1, j1 = (idx % half)[:, None], (idx // half)[:, None]
    i2, j2 = (idx % half)[None, :], (idx // half)[None, :]
    i = np.where(j1 == 0, i1 + i2, i1 - i2 + np.where(j2 == 1, half // 2, 0)) % half
    j = (j1 + j2) % 2
    return FiniteGroup(i + half * j, label=f"Q{N}", validate=False)


def _perm_group(perms: list[tuple[int, ...]], label: str) -> FiniteGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = index[tuple(pa[x] for x in pb)]
    return FiniteGroup(table, label=label, validate=False)


def symmetric(m: int) -> FiniteGroup:
    if m < 1 or math.factorial(m) > ORDER_CAP:
        raise GroupError(f"symmetric degree {m} out of range")
    return _perm_group(list(itertools.permutations(range(m))), f"S{m}")


def alternating(m: int) -> FiniteGroup:
    """A_m as the subgroup of S_m generated by the squares (3-cycles among
    them); it keeps the sorted order of S_m, so the even permutations."""
    if m < 3 or math.factorial(m) // 2 > ORDER_CAP:
        raise GroupError(f"alternating degree {m} out of range")
    S = symmetric(m)
    return S.subgroup(S.subgroup_closure(np.unique(S.powers(2))), label=f"A{m}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with (x, y) indexed as x*|B| + y."""
    if a.order * b.order > ORDER_CAP:
        raise GroupError("direct product exceeds the order cap")
    table = (a.table[:, None, :, None] * b.order + b.table[None, :, None, :]).reshape(
        a.order * b.order, a.order * b.order
    )
    return FiniteGroup(table, label=f"{a.label}x{b.label}", validate=False)


def relabeled(g: FiniteGroup, perm) -> FiniteGroup:
    """The same group with elements renamed by a bijection fixing 0."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm[0] != 0:
        raise GroupError("relabeling must fix the identity")
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(g.order)
    table = perm[g.table[np.ix_(inv_perm, inv_perm)]]
    return FiniteGroup(table, label=f"{g.label}~", validate=False)


# ---------------------------------------------------------------------------
# spec mini-language


_JSON_DECODER = json.JSONDecoder()
_JSON_WS = re.compile(r"[ \t\n\r]*")
# Rows of a valid table hold no brackets, so the first "]" that is followed,
# across whitespace, by a second "]" closes the table.
_TABLE_END = re.compile(r"\][ \t\n\r]*\]")
_DIGIT_MASK = bytes(48 <= c <= 57 for c in range(256))
_NOT_A_TABLE = "'table' must be an array of arrays of non-negative integers"


def _read_table(text: str, pos: int) -> tuple[np.ndarray, int]:
    """The table value that starts at text[pos], as an n x n int32 array, and
    the offset just past it.

    Whole-buffer byte passes stand in for a JSON parse, so no Python int is
    built per entry.  With whitespace dropped the table must read
    "[[" row "],[" ... "],[" row "]]", each row n tokens of digits between
    n - 1 commas.  Digit runs before the drop must be the n^2 tokens (no
    whitespace inside a number), and the parsed values must account for every
    digit (no leading zero, no number that wrapped in int32).
    """
    end = _TABLE_END.search(text, pos)
    if end is None:
        raise GroupError(_NOT_A_TABLE)
    raw = text[pos:end.end()].encode()
    s = raw.translate(None, b" \t\n\r")
    if s[:2] != b"[[":
        raise GroupError(_NOT_A_TABLE)
    rows = s[2:-2].split(b"],[", ORDER_CAP)
    n = len(rows)
    if n > ORDER_CAP:
        raise GroupError(f"table has more than {ORDER_CAP} rows")
    flat = b",".join(rows)
    if flat.translate(None, b"0123456789,"):
        raise GroupError(_NOT_A_TABLE)
    if any(row.count(b",") != n - 1 for row in rows):
        raise GroupError("Cayley table must be square")
    try:
        values = np.fromstring(flat, dtype=np.int32, sep=",")
    except ValueError as exc:  # an empty token: ",," or a comma at a row end
        raise GroupError(_NOT_A_TABLE) from exc
    # as many digit runs before whitespace was dropped, or "1 2" was read as 12
    digit = np.frombuffer(raw.translate(_DIGIT_MASK), dtype=bool)
    if values.size != n * n or np.count_nonzero(digit[1:] > digit[:-1]) != n * n:
        raise GroupError(_NOT_A_TABLE)
    if values.min() < 0 or values.max() >= n:
        raise GroupError("table entries out of range")
    digits = values.size + sum(
        np.count_nonzero(values >= 10**k) for k in range(1, len(str(n - 1)))
    )
    if digits != len(flat) - (n * n - 1):
        raise GroupError(_NOT_A_TABLE)
    return values.reshape(n, n), end.end()


def _read_table_file(path: str) -> FiniteGroup:
    """The group of a JSON file {"order": n, "table": [[...]]}.  The top-level
    object is walked key by key with the stdlib decoder, except that the
    "table" value goes to :func:`_read_table`.  As with json.load, a repeated
    key keeps its last value; other keys are ignored."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    decode = _JSON_DECODER.raw_decode

    def expect(pos: int, char: str) -> int:
        pos = _JSON_WS.match(text, pos).end()
        if not text.startswith(char, pos):
            raise GroupError(f"group JSON: expected {char!r} at char {pos}")
        return _JSON_WS.match(text, pos + 1).end()

    fields = {}
    pos = expect(0, "{")
    try:
        while True:
            if not text.startswith('"', pos):
                raise GroupError(f"group JSON: expected a key at char {pos}")
            key, pos = decode(text, pos)
            pos = expect(pos, ":")
            read = _read_table if key == "table" else decode
            fields[key], pos = read(text, pos)
            pos = _JSON_WS.match(text, pos).end()
            if not text.startswith(",", pos):
                break
            pos = _JSON_WS.match(text, pos + 1).end()
    except (json.JSONDecodeError, RecursionError) as exc:  # or nesting too deep to decode
        raise GroupError(f"group JSON: {exc}") from exc
    if expect(pos, "}") != len(text):
        raise GroupError("group JSON: data after the object")
    if "table" not in fields:
        raise GroupError("group JSON needs a 'table' field")
    n = len(fields["table"])
    order = fields.get("order", n)
    if type(order) is not int or order != n:
        raise GroupError("'order' must be an integer equal to the table size")
    return FiniteGroup(fields["table"], label=os.path.basename(path))


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse "C<n>", "D<n>", "Q<8|16|32>", "S<3|4>", "A<4|5>", "SD:<P>,<Q>,<k>",
    "X:<spec>*<spec>", or a path to a JSON file {"order": n, "table": [[...]]}.
    """
    spec = spec.strip()
    if not spec:
        raise GroupError("empty group spec")
    if spec.startswith("@") or spec.endswith(".json") or os.path.sep in spec:
        return _read_table_file(spec[1:] if spec.startswith("@") else spec)
    if spec.startswith("X:"):
        parts = spec[2:].split("*")
        if len(parts) < 2:
            raise GroupError(f"direct product spec needs at least two factors: {spec!r}")
        g = parse_group_spec(parts[0])
        for part in parts[1:]:
            g = direct_product(g, parse_group_spec(part))
        return g
    if spec.startswith("SD:"):
        try:
            P, Q, k = (int(x) for x in spec[3:].split(","))
        except ValueError as exc:
            raise GroupError(f"bad semidirect spec {spec!r}") from exc
        return semidirect_cyclic(P, Q, k)
    head, tail = spec[0], spec[1:]
    if not tail.isdigit():
        raise GroupError(f"unrecognized group spec {spec!r}")
    n = int(tail)
    if head == "C":
        return cyclic(n)
    if head == "D":
        return dihedral(n)
    if head == "Q":
        if n not in (8, 16, 32):
            raise GroupError("quaternion specs are Q8, Q16, Q32")
        return generalized_quaternion(n)
    if head == "S":
        if n not in (3, 4):
            raise GroupError("symmetric specs are S3, S4")
        return symmetric(n)
    if head == "A":
        if n not in (4, 5):
            raise GroupError("alternating specs are A4, A5")
        return alternating(n)
    raise GroupError(f"unrecognized group spec {spec!r}")


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class ObstructionWitness:
    kind: str
    witness: tuple[int, ...]

    def verify(self, g: FiniteGroup) -> bool:
        """Recompute the witness property directly from the Cayley table."""
        if self.kind == NON_CYCLIC_ABELIAN:
            a, b = self.witness
            oa, ob = g.element_order(a), g.element_order(b)
            if oa != ob or not numtheory.is_prime(oa):
                return False
            if g.mul(a, b) != g.mul(b, a):
                return False
            return b not in set(g.cyclic_subgroup(a).tolist())
        if self.kind == COMPOSITE_ORDER_ELEMENT:
            (a,) = self.witness
            return len(numtheory.factorize(g.element_order(a))) >= 2
        if self.kind == ORDER_FOUR_ELEMENT:
            (a,) = self.witness
            return g.element_order(a) == 4
        return False

    def as_dict(self):
        return {"kind": self.kind, "witness": [int(x) for x in self.witness]}


@dataclass(frozen=True)
class SylowShape:
    kind: str
    order: int

    def as_dict(self):
        return {"kind": self.kind, "order": self.order}


@dataclass(frozen=True)
class FrobeniusDecomposition:
    P: int
    Q: int
    kernel: tuple[int, ...]
    complement: tuple[int, ...]


@dataclass
class ClassificationReport:
    group_label: str
    is_trivial: bool
    hg_real: bool
    hg_sqrt_minus1: bool
    pd1_candidate: bool
    frobenius_decomposition: tuple[int, int] | None
    sylow_shapes: dict[int, SylowShape]
    obstructions: list[ObstructionWitness]

    def as_dict(self):
        return {
            "group_label": self.group_label,
            "is_trivial": self.is_trivial,
            "hg_real": self.hg_real,
            "hg_sqrt_minus1": self.hg_sqrt_minus1,
            "pd1_candidate": self.pd1_candidate,
            "frobenius_decomposition": (
                list(self.frobenius_decomposition) if self.frobenius_decomposition else None
            ),
            "sylow_shapes": {str(p): s.as_dict() for p, s in sorted(self.sylow_shapes.items())},
            "obstructions": [w.as_dict() for w in self.obstructions],
        }


# ---------------------------------------------------------------------------
# operations


def detect_obstructions(g: FiniteGroup) -> list[ObstructionWitness]:
    """Witnesses that rule the group out of the real-base eligibility class.

    Reports at most one witness per kind: a commuting pair of equal prime
    order generating a non-cyclic abelian subgroup, an element whose order
    has two distinct prime divisors, and an element of order exactly 4.
    """
    out = []
    orders = g.orders

    witness = None
    for q in sorted(numtheory.factorize(g.order)) if g.order > 1 else []:
        elems = np.flatnonzero(orders == q)
        if elems.size <= q - 1:
            continue  # a single C_q at most
        member = np.zeros((elems.size, g.order), dtype=bool)
        rows, pw = np.arange(elems.size), np.zeros_like(elems)
        for _ in range(q):  # member[i] marks the powers of elems[i]
            member[rows, pw] = True
            pw = g.table[pw, elems]
        prods = g.table[np.ix_(elems, elems)]
        viol = (prods == prods.T) & ~member[:, elems]
        if viol.any():
            i, j = np.argwhere(viol)[0]
            witness = (int(elems[i]), int(elems[j]))
            break
    if witness is not None:
        out.append(ObstructionWitness(NON_CYCLIC_ABELIAN, witness))

    composite_orders = [
        o for o in np.unique(orders).tolist() if numtheory.prime_divisor_count(o) >= 2
    ]
    if composite_orders:
        x = int(np.flatnonzero(orders == composite_orders[0])[0])
        out.append(ObstructionWitness(COMPOSITE_ORDER_ELEMENT, (x,)))

    fours = np.flatnonzero(orders == 4)
    if fours.size:
        out.append(ObstructionWitness(ORDER_FOUR_ELEMENT, (int(fours[0]),)))
    return out


def sylow_shape(g: FiniteGroup, p: int) -> SylowShape:
    """The shape of a Sylow p-subgroup T, read from element orders and one
    centralizer row; no subgroup is built.  With p^a || n, T has order p^a
    (Sylow), and:

    * Cyclic iff some element has order p^a;
    * GeneralizedQuaternion iff p = 2, T is not cyclic and z = invs[0], the
      first involution, is the only involution that commutes with z.  A
      non-cyclic 2-group with a unique involution is generalized quaternion
      (Gorenstein, *Finite Groups*, Thm 5.4.10(ii)), and T has a unique
      involution iff z is the only involution in its centralizer.  Take T
      containing z.  If T has a second involution, Z(T) holds an involution
      z'; if z' != z it commutes with z, and if z' = z then z commutes with
      the second one.  Conversely an involution x != z that commutes with z
      gives a Klein four-group <x, z>, which lies in a Sylow 2-subgroup, a
      conjugate of T, so T has more than one involution.  Any z will do;
    * Other in every remaining case.
    """
    if not numtheory.is_prime(p):
        raise GroupError(f"{p} is not prime")
    if g.order % p:
        raise GroupError(f"{p} does not divide the group order {g.order}")
    target = p ** numtheory.valuation(g.order, p)
    orders, t = g.orders, g.table
    if (orders == target).any():
        return SylowShape(SYLOW_CYCLIC, target)
    if p == 2:
        invs = np.flatnonzero(orders == 2)
        z = invs[0]
        if np.count_nonzero(t[invs, z] == t[z, invs]) == 1:
            return SylowShape(SYLOW_GENERALIZED_QUATERNION, target)
    return SylowShape(SYLOW_OTHER, target)


def frobenius_cyclic_decomposition(g: FiniteGroup) -> FrobeniusDecomposition | None:
    """Search for G = K x| H with K cyclic normal of order P, H cyclic of
    order Q = |G|/P, gcd(P, Q) = 1, and no nontrivial element of H commuting
    with any nontrivial element of K.

    A normal subgroup of order P coprime to its index is exactly
    {x : ord(x) | P}, so K is that set when it has P elements, one of them of
    order P.  Its complements are all conjugate (Schur-Zassenhaus), so H is
    the cyclic subgroup of the first element of order Q.
    """
    n, orders = g.order, g.orders
    for P in numtheory.divisors(n):
        Q = n // P
        # H acts on K \ {1} without fixed points, so Q | P - 1 (and gcd(P, Q) = 1)
        if P == 1 or P == n or (P - 1) % Q:
            continue
        k_elems = np.flatnonzero(P % orders == 0)
        h_gens = np.flatnonzero(orders == Q)
        if k_elems.size != P or not (orders[k_elems] == P).any() or not h_gens.size:
            continue
        h_elems = g.cyclic_subgroup(int(h_gens[0]))
        k_nontriv, h_nontriv = k_elems[1:], h_elems[1:]  # both sorted, 0 first
        kh = g.table[np.ix_(k_nontriv, h_nontriv)]
        hk = g.table[np.ix_(h_nontriv, k_nontriv)]
        if not (kh == hk.T).any():
            return FrobeniusDecomposition(
                P=int(P),
                Q=int(Q),
                kernel=tuple(int(x) for x in k_elems),
                complement=tuple(int(x) for x in h_elems),
            )
    return None


def _order_2_or_odd_prime_power(m: int) -> bool:
    return m == 2 or (m % 2 == 1 and numtheory.is_prime_power(m))


def classify(g: FiniteGroup) -> ClassificationReport:
    """Full eligibility report; the trivial group gets all flags false."""
    if g.order == 1:
        return ClassificationReport(
            group_label=g.label,
            is_trivial=True,
            hg_real=False,
            hg_sqrt_minus1=False,
            pd1_candidate=False,
            frobenius_decomposition=None,
            sylow_shapes={},
            obstructions=[],
        )
    obstructions = detect_obstructions(g)
    frob = frobenius_cyclic_decomposition(g)
    cyc = g.is_cyclic
    n = g.order
    shapes = {p: sylow_shape(g, p) for p in numtheory.factorize(n)}

    hg_real = (cyc and _order_2_or_odd_prime_power(n)) or (
        frob is not None
        and _order_2_or_odd_prime_power(frob.P)
        and _order_2_or_odd_prime_power(frob.Q)
    )
    hg_sqrt = (
        (cyc and numtheory.is_prime_power(n))
        or (
            frob is not None
            and numtheory.is_prime_power(frob.P)
            and numtheory.is_prime_power(frob.Q)
        )
        or shapes.get(2) == SylowShape(SYLOW_GENERALIZED_QUATERNION, n)
    )
    pd1 = (cyc and numtheory.is_prime(n)) or (
        frob is not None
        and numtheory.is_prime(frob.P)
        and (frob.Q == 2 or (frob.Q == 3 and frob.P % 3 == 1))
    )
    return ClassificationReport(
        group_label=g.label,
        is_trivial=False,
        hg_real=hg_real,
        hg_sqrt_minus1=hg_sqrt,
        pd1_candidate=pd1,
        frobenius_decomposition=(frob.P, frob.Q) if frob else None,
        sylow_shapes=shapes,
        obstructions=obstructions,
    )


# ---------------------------------------------------------------------------
# isomorphism testing (brute-force generator images; meant for small orders)


def _fingerprint(g: FiniteGroup):
    return (
        g.order,
        tuple(sorted(g.orders.tolist())),
        g.is_abelian,
        int(g.center().size),
    )


def _greedy_generators(g: FiniteGroup) -> list[int]:
    """Generators chosen greedily: each is the unreached element of highest
    order (lowest index on ties), and the reached set is their
    `subgroup_closure`, whose every element is a product of the generators
    even on a table that is no group.  In a group each new generator at least
    doubles the reached subgroup, so a table needing more than log2(order)
    generators is no group.
    """
    orders = g.orders
    reached = np.zeros(g.order, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        if len(gens) == g.order.bit_length() - 1:
            raise GroupError("associativity fails: too many generators for a group")
        gens.append(int(np.argmax(np.where(reached, 0, orders))))
        reached[g.subgroup_closure(gens)] = True
    return gens


def _extend_hom(phi: dict[int, int], new_g: int, new_h: int, g: FiniteGroup, h: FiniteGroup):
    phi = dict(phi)
    if new_g in phi:
        return phi if phi[new_g] == new_h else None
    phi[new_g] = new_h
    frontier = [new_g]
    while frontier:
        x = frontier.pop()
        for y in list(phi):
            for a, b in ((x, y), (y, x)):
                pg = g.mul(a, b)
                ph = h.mul(phi[a], phi[b])
                if pg in phi:
                    if phi[pg] != ph:
                        return None
                else:
                    phi[pg] = ph
                    frontier.append(pg)
    return phi


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Exact isomorphism test by generator-image search.

    Practical for small orders (tests use it up to ~64); invariant
    fingerprints prune most mismatches immediately.
    """
    if _fingerprint(g) != _fingerprint(h):
        return False
    gens = _greedy_generators(g)
    h_orders = h.orders

    def backtrack(i, phi):
        if i == len(gens):
            if len(phi) != g.order:
                return False
            return sorted(phi.values()) == list(range(h.order))
        x = gens[i]
        target_order = g.orders[x]
        for y in np.flatnonzero(h_orders == target_order).tolist():
            nxt = _extend_hom(phi, x, y, g, h)
            if nxt is not None and backtrack(i + 1, nxt):
                return True
        return False

    return backtrack(0, {0: 0})
