"""Finite groups as Cayley tables, with eligibility classification.

Groups are plain index tables: elements are 0..order-1, element 0 is the
identity, and table[i, j] is the index of the product.  Every predicate is
decided exactly on the table (order cap 2048), which keeps the whole module
free of any external group database.  Five algorithms carry the work:

* element orders by prime descent from one chain of squares x^(2^i) shared
  by every prime: for each p^a || n, y = x^(n/p^a) is a product of chain
  entries, and the p-part of ord(x) is the least p^k with y^(p^k) = 1;
  x^n = 1 is checked once, for the least prime.  Every product u*v is one
  flat take at u*n + v on the raveled table, and every square x^2 one take
  from the table's diagonal, cached as intp; indices stay intp throughout,
  since u*n overflows int16;
* subgroup closure by Dimino's algorithm: whole right cosets H*x are added,
  one gather each, with representatives closed under the generators;
* S_m and A_m by one Schreier-tree closure of permutation generators: each
  element b = b'*s gives its table column as right multiplication by s of
  the column of b', one gather each (:func:`_perm_closure`);
* the Frobenius search reads the kernel off the orders: a normal subgroup of
  order P coprime to its index is {x : ord(x) | P}, and its complements are
  conjugate (Schur-Zassenhaus), so one complement decides;
* the classification reads one count of element orders, order_counts[d] =
  |{x : ord(x) = d}|, and scans the orders only where the count allows a
  witness: C_q x C_q needs q^2 | n and q^2 - 1 elements of order q, a
  C_2 x C_2 three involutions, and K = {x : ord(x) | P} needs the counts
  over d | P to sum to P, and, since a Frobenius group is the union of its
  kernel and the conjugates of its complement, those over d | P or d | Q
  to sum to n.

One row of the table decides whether G contains C_q x C_q, and so both the
obstruction witness and the quaternion Sylow shape (:func:`_rank_two_pair`).
No Sylow shape needs a subgroup: a Sylow p-subgroup, of order p^a for
p^a || n, is cyclic iff some element has order p^a, and if not, for p = 2,
it is generalized quaternion iff G contains no C_2 x C_2 (Gorenstein).

Any group can also come from a JSON file (see :func:`parse_group_spec`): an
object whose "table" is a square array of arrays of non-negative JSON
integers, and whose "order", if present, is an integer equal to the row
count.  Other keys are ignored.  The table is read by whole-buffer byte
passes into int32, without a Python int per entry.  Its entries are parsed
as two halves on two threads, cut at a comma: ``np.fromstring`` releases
the GIL, and it is about half of the read.  Every table is stored
as int16, since ORDER_CAP < 2^15 bounds every entry.  A validated
table is decided exactly at every order (see :meth:`FiniteGroup.check_table`):
entries in range, identity at 0, x^n = 1 for every x, and associativity by
Light's test on a generating set make it a group's, so the Latin-square
scan runs only to name the fault of a table that is refused.

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

import functools
import json
import math
import os
import re
import threading
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
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GroupError("Cayley table must be square")
        n = arr.shape[0]
        if n < 1 or n > ORDER_CAP:
            raise GroupError(f"order {n} outside 1..{ORDER_CAP}")
        if arr.dtype.kind not in "iu":  # a float would truncate, a bool become 0/1
            raise GroupError(f"table entries must be integers, not {arr.dtype}")
        # on the entries as given, since a wide integer wraps in the int16 cast
        if validate and (arr.min() < 0 or arr.max() >= n):
            raise GroupError("table entries out of range")
        self.table = np.ascontiguousarray(arr, dtype=np.int16)  # n <= ORDER_CAP < 2^15
        self.order = n
        self.label = label
        self._inv = None
        self._sq = None
        self._pow = None
        self._counts = None
        self._conj = None
        if validate:
            self.check_table()
        self.table.setflags(write=False)

    # -- validation ---------------------------------------------------------

    def check_table(self):
        """Two-sided identity at 0, x^n = 1 for every x, and associativity:
        with the entries in range, which the constructor checks on the table
        as given, these make the table a group's.

        Associativity is exact by Light's test, at O(n^2 log n) cost.  The
        elements a with (x*a)*y = x*(a*y) for all x, y form a submagma: for
        two of them, a and b, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) =
        x*(a*(b*y)) = x*((a*b)*y).  Every element is a product of the generators that
        :func:`_greedy_generators` returns, so the test on those generators
        covers every a.  An associative table with identity 0 is a monoid,
        and a monoid in which x^n = 1 for every x is a group, x^(n-1) being
        an inverse of x; :meth:`_power_data` refuses any x with x^n != 1
        while it reads the orders that choose the generators.

        A group's table is a Latin square, so the Latin-square scan (two n x n
        boolean scatters) can never fail on an accepted table.  It runs only
        after one of the checks above has refused the table, to name the
        fault: a table that is no Latin square is refused as such, whichever
        check caught it.
        """
        t, n = self.table, self.order
        ar = np.arange(n)
        try:
            if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
                raise GroupError("element 0 is not a two-sided identity")
            for a in _greedy_generators(self):
                # (x*a)*y against x*(a*y); take() gathers columns faster than t[:, idx]
                if not (t[t[:, a]] == t.take(t[a], axis=1)).all():
                    raise GroupError("associativity fails")
        except GroupError:
            if not _is_latin_square(t):
                raise GroupError("table rows/columns are not permutations") from None
            raise

    # -- cached structure ---------------------------------------------------

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = self.table.argmin(axis=1)  # the column of 0 in each row
        return self._inv

    def _mul(self, u, v) -> np.ndarray:
        """u*v entrywise (broadcast) for intp indices in range: one take on
        the raveled table, returned as intp."""
        return self.table.ravel().take(u * self.order + v).astype(np.intp)

    def _square(self, x) -> np.ndarray:
        """x*x entrywise for intp indices in range, from the cached diagonal."""
        if self._sq is None:
            self._sq = self.table.diagonal().astype(np.intp)
        return self._sq.take(x)

    def _power_data(self):
        """Element orders by prime descent from one shared chain of squares,
        cached in ``_pow``.

        The chain x^(2^i) runs to the highest bit of the largest n/p^a over
        p^a || n, so a prime-power order builds none.  For each p, y =
        x^(n/p^a) is the product of the chain entries at the set bits of
        n/p^a, and the p-part of ord(x) is the least p^k with y^(p^k) = 1,
        read off a - 1 descents y -> y^p.  One more descent for the least
        prime gives x^n, which must be 1 for every x, or the table is
        refused.  On a table not yet known to be associative these are
        powers under one bracketing; Light's test in :meth:`check_table`
        makes every bracketing agree.
        """
        if self._pow is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            parts = numtheory.factorize(n).items()
            top = max((n // p**a for p, a in parts), default=1).bit_length()
            chain = [np.arange(n, dtype=np.intp)]  # chain[i] = x^(2^i)
            while len(chain) < top:
                chain.append(self._square(chain[-1]))
            for i, (p, a) in enumerate(parts):
                m = n // p**a
                squares = [c for j, c in enumerate(chain) if m >> j & 1]
                y = functools.reduce(self._mul, squares)  # x^m
                np.multiply(orders, p, out=orders, where=y != 0)
                for _ in range(a - 1):
                    y = self._powers(p, y)
                    np.multiply(orders, p, out=orders, where=y != 0)
                if i == 0 and self._powers(p, y).any():  # y^p = x^n
                    raise GroupError("associativity fails: an element order does not divide n")
            self._pow = orders
        return self._pow

    @property
    def orders(self) -> np.ndarray:
        return self._power_data()

    @property
    def order_counts(self) -> np.ndarray:
        """order_counts[d] = |{x : ord(x) = d}| for d = 0..n."""
        if self._counts is None:
            self._counts = np.bincount(self.orders, minlength=self.order + 1)
        return self._counts

    @property
    def is_cyclic(self) -> bool:
        return bool(self.order_counts[self.order])

    @property
    def conj(self) -> np.ndarray:
        """conj[s, t] = s^-1 t s."""
        if self._conj is None:
            n = self.order
            x = self.table[self.inv]
            self._conj = self.table[x, np.arange(n)[:, None]]
        return self._conj

    # -- basic operations ---------------------------------------------------

    def _index(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range for order {self.order}")
        return g

    def mul(self, a: int, b: int) -> int:
        return int(self.table[self._index(a), self._index(b)])

    def inverse(self, a: int) -> int:
        return int(self.inv[self._index(a)])

    def powers(self, m: int, elems=None) -> np.ndarray:
        """x^m for each x in elems (default: every element), m >= 0, as intp,
        by binary powering: one take per squaring (from the cached diagonal)
        and one flat take per set bit after the lowest.  An index outside
        0..n-1 is refused by name, and so is m < 0.  For m = 1 an intp array
        elems comes back as it is."""
        if m < 0:
            raise GroupError(f"power exponent m = {m} is negative")
        if elems is None:
            return self._powers(m, np.arange(self.order, dtype=np.intp))
        base = np.asarray(elems)
        if base.size and base.dtype.kind not in "iu":
            raise GroupError(f"element indices must be integers, not {base.dtype}")
        outside = (base < 0) | (base >= self.order)
        if outside.any():
            self._index(int(base[outside][0]))  # refuses it by name
        return self._powers(m, base.astype(np.intp, copy=False))

    def _powers(self, m: int, base: np.ndarray) -> np.ndarray:
        out = None
        while m:
            if m & 1:
                out = base if out is None else self._mul(out, base)
            m >>= 1
            if m:
                base = self._square(base)
        return np.zeros_like(base) if out is None else out

    def power(self, g: int, m: int) -> int:
        return int(self.powers(m % self.element_order(g), [g])[0])

    def element_order(self, g: int) -> int:
        return int(self.orders[self._index(g)])

    def cyclic_subgroup(self, g: int) -> np.ndarray:
        """g^0, g^1, ..., g^(o-1) for o = ord(g), in that order."""
        o = self.element_order(g)
        pw = np.array([0, g], dtype=np.intp)  # g^0 and g^1: o = 1 only for g = 0
        while pw.size < o:
            # g^0..g^(k-1) times g^k gives g^k..g^(2k-1)
            pw = np.concatenate([pw, self._mul(pw, int(self.table[pw[-1], g]))])
        return pw[:o]

    def subgroup_closure(self, gens) -> np.ndarray:
        """Smallest subgroup containing gens, as a sorted index array.

        Dimino's algorithm: start from the cyclic subgroup of the generator
        of highest order; each further generator g not yet reached turns the
        subgroup H so far into a union of right cosets H*r, one gather each,
        whose representatives r start at g and are closed under right
        multiplication by the generators used so far.  Every element reached
        is a product of the generators, also on a table that is no group.
        """
        t = self.table
        gens = sorted({int(x) for x in gens}, key=lambda x: -self.element_order(x))
        mask = np.zeros(self.order, dtype=bool)
        mask[self.cyclic_subgroup(gens[0]) if gens else 0] = True
        used = gens[:1]
        for g in gens[1:]:
            if mask[g]:
                continue
            used.append(g)
            prev = np.flatnonzero(mask)
            reps = [g]
            mask[self._mul(prev, g)] = True
            for r in reps:  # grows while it is walked
                for s in used:
                    x = int(t[r, s])
                    if not mask[x]:
                        mask[self._mul(prev, x)] = True
                        reps.append(x)
        return np.flatnonzero(mask)

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


def _is_latin_square(t: np.ndarray) -> bool:
    """Whether every row and every column of t is a permutation of 0..n-1."""
    n = len(t)
    ar = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    for lines in (t, t.T):
        # seen[i, x]: x occurs in line i (a row of t, then a column of t)
        seen[:] = False
        seen[ar[:, None], lines] = True
        if not seen.all():
            return False
    return True


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


# ---------------------------------------------------------------------------
# constructors


def _rotations(row: np.ndarray, step: int) -> np.ndarray:
    """Row r of the result is row rotated left by r*step, for r < len(row) / step:
    a strided view into row written out twice, so no entry is summed or
    reduced.  The ndarray constructor checks the view against the buffer."""
    n = len(row)
    ext = np.concatenate([row, row[: n - step]])
    return np.ndarray((n // step, n), ext.dtype, ext, strides=(step * ext.itemsize, ext.itemsize))


def cyclic(n: int) -> FiniteGroup:
    n = numtheory.as_int(n, "n")
    if n < 1 or n > ORDER_CAP:
        raise GroupError(f"cyclic order {n} outside 1..{ORDER_CAP}")
    # row i is 0..n-1 rotated left by i; the constructor copies the view
    table = _rotations(np.arange(n, dtype=np.int16), 1)
    return FiniteGroup(table, label=f"C{n}", validate=False)


def semidirect_cyclic(P: int, Q: int, k: int) -> FiniteGroup:
    """C_P x| C_Q with presentation a^P = b^Q = 1, b^-1 a b = a^k.

    Elements a^i b^j are indexed as i + P*j.  Requires gcd(k, P) = 1 and the
    multiplicative order of k mod P to divide Q.
    """
    P, Q, k = numtheory.as_int(P, "P"), numtheory.as_int(Q, "Q"), numtheory.as_int(k, "k")
    if P < 1 or Q < 1 or P * Q > ORDER_CAP:
        raise GroupError(f"orders ({P}, {Q}) invalid or product above {ORDER_CAP}")
    k %= P
    if math.gcd(k, P) != 1:
        raise GroupError(f"action invalid: gcd({k}, {P}) = {math.gcd(k, P)} != 1")
    if pow(k, Q, P) != 1 % P:
        raise GroupError(
            f"action invalid: k^Q = {k}^{Q} = {pow(k, Q, P)} mod {P}, expected 1"
        )
    n = P * Q
    ip = np.arange(P, dtype=np.int32)
    kbar = pow(k, -1, P)
    cycle = [1 % P]  # kbar^j mod P repeats with the order of kbar, which divides Q
    while (x := cycle[-1] * kbar % P) != cycle[0]:
        cycle.append(x)
    L = len(cycle)
    # block structure: the (i1, i2) part depends on j1 only through kbar^j1,
    # so row block j1 repeats row block j1 mod L, and the j part is a Q x Q
    # pattern.  Only the L distinct row blocks are built, each row whole, a
    # core row tiled Q times: a broadcast over (j1, i1, j2, i2) would run
    # n^2/P inner loops of P.  The L blocks are then tiled Q/L times, one
    # whole-block copy each, and a row of P * (j1 + j2 mod Q) added.
    # The product kbar^j1 * i2 reaches about 4*10^6, so it is taken in int32.
    kbar_pows = np.array(cycle, dtype=np.int32)  # kbar^j1 for j1 < L
    twists = (kbar_pows[:, None] * ip % P).astype(np.uint16)  # kbar^j1 * i2 mod P
    core = ip.astype(np.uint16)[None, :, None] + twists[:, None, :]  # below 2P
    # (i1 + twist) mod P without a division: in uint16, core - P wraps above
    # core when core < P, so the minimum of the two is the residue
    core = np.minimum(core, core - P, out=core).view(np.int16)  # core[j1, i1, i2], j1 < L
    # each core row Q times over: blocks[j1, i1, j2*P + i2] = core[j1, i1, i2]
    blocks = core.reshape(-1, P).repeat(Q, axis=0).reshape(L, P, n)
    # np.tile copies even at one repetition, so L = Q keeps the blocks as they are
    table = blocks if L == Q else np.tile(blocks, (Q // L, 1, 1))
    jrow = np.repeat(P * np.arange(Q, dtype=np.int16), P)  # jrow[j2*P + i2] = P*j2
    table += _rotations(jrow, P)[:, None, :]  # P * (j1 + j2 mod Q)
    return FiniteGroup(table.reshape(n, n), label=f"SD:{P},{Q},{k}", validate=False)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (rotations r^i, reflections r^i s)."""
    n = numtheory.as_int(n, "n")
    if n < 1 or 2 * n > ORDER_CAP:
        raise GroupError(f"dihedral parameter {n} outside 1..{ORDER_CAP // 2}")
    g = semidirect_cyclic(n, 2, n - 1)
    return FiniteGroup(g.table, label=f"D{n}", validate=False)


def generalized_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group of a 2-power order N, 8 <= N <= ORDER_CAP.

    Presentation x^(N/2) = 1, y^2 = x^(N/4), y^-1 x y = x^-1; element x^i y^j
    is indexed as i + (N/2)*j.  This is D_(N/2) = SD:N/2,2,N/2-1, indexed
    alike, but for y^2: x^i y * x^k y = x^(i-k) y^2 = x^(i-k+N/4), so the
    dihedral table's quadrant of products x^i y * x^k y is shifted by N/4
    mod N/2.
    """
    N = numtheory.as_int(order, "order")
    if N < 8 or N & (N - 1) or N > ORDER_CAP:
        raise GroupError(
            f"generalized quaternion order must be a 2-power in 8..{ORDER_CAP}, got {N}"
        )
    half = N // 2
    table = semidirect_cyclic(half, 2, half - 1).table.copy()
    # the quadrant holds 0..half-1, and for a 2-power half, adding half/2
    # mod half flips the bit of half/2
    table[half:, half:] ^= half // 2
    return FiniteGroup(table, label=f"Q{N}", validate=False)


def _perm_closure(gens, label: str = "G") -> FiniteGroup:
    """The group the permutations gens generate, a*b being x -> a(b(x)), its
    elements in lexicographic order (so the identity is 0).

    A breadth-first walk over a dict of tuples is a Schreier tree of the right
    regular action: each new element b = b'*s records its parent b' and
    generator s, and right[s][a] = a*s.  Column b of the table, (a*b')*s over
    every a, is then right[s][column b'].  The callers bound the order.
    """
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    tree = []  # (b, b', k) with b = b' * gens[k], for each b after the identity
    right = [[] for _ in gens]  # right[k][a] = a * gens[k]
    for a, elem in enumerate(elems):  # grows while it is walked
        for k, s in enumerate(gens):
            x = tuple(elem[i] for i in s)  # elem * s
            if x not in index:
                index[x] = len(elems)
                tree.append((len(elems), a, k))
                elems.append(x)
            right[k].append(index[x])
    n = len(elems)
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=elems.__getitem__)] = np.arange(n)
    ranked_right = np.empty((len(gens), n), dtype=np.int16)
    ranked_right[:, rank] = rank[np.array(right, dtype=np.intp)]
    cols = np.empty((n, n), dtype=np.int16)  # cols[b, a] = a*b, by rank
    cols[0] = np.arange(n)
    for b, parent, k in tree:
        cols[rank[b]] = ranked_right[k][cols[rank[parent]]]
    return FiniteGroup(cols.T, label=label, validate=False)


def symmetric(m: int) -> FiniteGroup:
    """S_m from (0 1) and (0 1 ... m-1); S_1 from its one element."""
    m = numtheory.as_int(m, "m")
    if not 1 <= m <= ORDER_CAP or math.factorial(m) > ORDER_CAP:  # m <= m!: a small m!
        raise GroupError(f"symmetric degree {m} out of range: needs 1 <= m, m! <= {ORDER_CAP}")
    cycle = tuple(range(1, m)) + (0,)
    gens = [cycle] if m == 1 else [(1, 0) + tuple(range(2, m)), cycle]
    return _perm_closure(gens, f"S{m}")


def alternating(m: int) -> FiniteGroup:
    """A_m from the 3-cycles (0 1 i), 2 <= i < m."""
    m = numtheory.as_int(m, "m")
    if not 3 <= m <= ORDER_CAP or math.factorial(m) // 2 > ORDER_CAP:  # as in symmetric
        raise GroupError(f"alternating degree {m} out of range: needs 3 <= m, m!/2 <= {ORDER_CAP}")
    gens = [[{0: 1, 1: i, i: 0}.get(x, x) for x in range(m)] for i in range(2, m)]
    return _perm_closure(gens, f"A{m}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with (x, y) indexed as x*|B| + y."""
    if a.order * b.order > ORDER_CAP:
        raise GroupError("direct product exceeds the order cap")
    na, nb = a.order, b.order
    # whole rows, as in semidirect_cyclic: row (x1, y1) is a's row x1 scaled
    # and each entry repeated nb times, plus b's row y1 na times over
    b_rows = b.table.repeat(na, axis=0).reshape(nb, na * nb)
    table = (a.table * nb).repeat(nb, axis=1)[:, None, :] + b_rows
    table = table.reshape(na * nb, na * nb)
    return FiniteGroup(table, label=f"{a.label}x{b.label}", validate=False)


def relabeled(g: FiniteGroup, perm) -> FiniteGroup:
    """The same group with elements renamed by a bijection fixing 0: element
    x of g is element perm[x] of the result.  The table is gathered in int16,
    as it is stored."""
    perm = np.asarray(perm)
    if perm.shape != (g.order,):
        raise GroupError(f"relabeling has shape {perm.shape}, expected ({g.order},)")
    if perm.dtype.kind not in "iu":  # a float would truncate, as in FiniteGroup
        raise GroupError(f"relabeling entries must be integers, not {perm.dtype}")
    not_a_permutation = f"relabeling is not a permutation of 0..{g.order - 1}"
    if perm.min() < 0 or perm.max() >= g.order:
        raise GroupError(not_a_permutation)
    if perm[0] != 0:
        raise GroupError("relabeling must fix the identity")
    perm = perm.astype(np.int16)  # in range, so below ORDER_CAP < 2^15
    inv_perm = np.full_like(perm, -1)
    inv_perm[perm] = np.arange(g.order)
    if (inv_perm < 0).any():  # a slot no entry of perm reached: perm repeats an entry
        raise GroupError(not_a_permutation)
    table = perm[g.table[np.ix_(inv_perm, inv_perm)]]
    return FiniteGroup(table, label=f"{g.label}~", validate=False)


# ---------------------------------------------------------------------------
# spec mini-language


_JSON_DECODER = json.JSONDecoder()
_JSON_WS = re.compile(r"[ \t\n\r]*")
_NOT_A_TABLE = "'table' must be an array of arrays of non-negative integers"


def _table_end(text: str, pos: int) -> int:
    """The offset just past the table that starts at text[pos].  Rows of a
    valid table hold no brackets, so the first "]" that is followed, across
    whitespace, by a second "]" closes the table, and it is at most the
    ORDER_CAP-th "]": str.find walks at most that many."""
    close = pos
    for _ in range(ORDER_CAP):
        close = text.find("]", close)
        if close < 0:
            raise GroupError(_NOT_A_TABLE)
        close = _JSON_WS.match(text, close + 1).end()
        if text.startswith("]", close):
            return close + 1
    raise GroupError(f"table has more than {ORDER_CAP} rows")


def _parse_entries(flat: bytes) -> np.ndarray:
    """The comma-separated integers of flat, as int32, parsed as two halves
    on two threads: ``np.fromstring`` releases the GIL, and on a large table
    it is about half of :func:`_read_table`.  The halves meet just after the
    first comma at or after the middle; the left one is parsed on a worker
    thread, the right one here.  A table with no comma cuts at 0, so its
    left half is empty.

    The cut is sound on the bytes :func:`_read_table` passes.  They hold only
    digits and commas, and after its per-row count exactly n^2 - 1 commas,
    so n^2 slots.  A cut at a comma leaves every token whole, in one half or
    the other, so the left values then the right ones are those of flat in
    order.  ``np.fromstring`` accepts a trailing comma, so the cut comma,
    which the left half keeps, leaves an empty slot there that gives no
    value and raises no error.  A real empty slot raises ``ValueError`` in
    its half, unless it is the last slot of flat: that gives no value, as it
    did when flat was parsed whole, and ``values.size != n*n`` in the caller
    refuses it.

    Whatever the worker raises is raised here after the join, which runs in
    a ``finally``, so no thread outlives the call.
    """
    cut = flat.find(b",", len(flat) // 2) + 1
    left = []  # the left half's values, or what parsing it raised

    def parse_left():
        try:
            left.append(np.fromstring(flat[:cut], dtype=np.int32, sep=","))
        except BaseException as exc:
            left.append(exc)

    worker = threading.Thread(target=parse_left)
    worker.start()
    try:
        right = np.fromstring(flat[cut:], dtype=np.int32, sep=",")
    finally:
        worker.join()
    if isinstance(left[0], BaseException):
        raise left[0]
    return np.concatenate([left[0], right])


def _read_table(text: str, pos: int) -> tuple[np.ndarray, int]:
    """The table value that starts at text[pos], as an n x n int32 array, and
    the offset just past it.  It is parsed into int32, wide enough for the
    digit count below to catch a wrapped number; the constructor then
    range-checks it and stores it as int16.

    Whole-buffer byte passes stand in for a JSON parse, so no Python int is
    built per entry.  With whitespace dropped the table must read
    "[[" row "],[" ... "],[" row "]]", each row n tokens of digits between
    n - 1 commas; :func:`_parse_entries` parses the rows joined by commas,
    as two halves on two threads, since ``np.fromstring`` releases the GIL
    and is about half of this read; its docstring gives the argument that
    the cut changes no answer.  The digit runs of the raw bytes, found by
    one uint8 compare, must be the n^2 tokens (no whitespace inside a
    number), and the parsed values must account for every digit (no leading
    zero, no number that wrapped in int32).
    """
    end = _table_end(text, pos)
    raw = text[pos:end].encode()
    s = raw.translate(None, b" \t\n\r")
    if s[:2] != b"[[":
        raise GroupError(_NOT_A_TABLE)
    rows = s[2:-2].split(b"],[")  # at most ORDER_CAP: _table_end saw every "]"
    n = len(rows)
    flat = b",".join(rows)
    if flat.translate(None, b"0123456789,"):
        raise GroupError(_NOT_A_TABLE)
    if any(row.count(b",") != n - 1 for row in rows):
        raise GroupError("Cayley table must be square")
    try:
        values = _parse_entries(flat)
    except ValueError as exc:  # an empty token: ",," or a comma at a row end
        raise GroupError(_NOT_A_TABLE) from exc
    # as many digit runs before whitespace was dropped, or "1 2" was read as 12;
    # a byte below "0" wraps around in uint8, so one compare finds the digits
    digit = np.frombuffer(raw, dtype=np.uint8) - np.uint8(48) < 10
    if values.size != n * n or np.count_nonzero(digit[1:] > digit[:-1]) != n * n:
        raise GroupError(_NOT_A_TABLE)
    if values.min() < 0 or values.max() >= n:
        raise GroupError("table entries out of range")
    digits = values.size + sum(
        np.count_nonzero(values >= 10**k) for k in range(1, len(str(n - 1)))
    )
    if digits != len(flat) - (n * n - 1):
        raise GroupError(_NOT_A_TABLE)
    return values.reshape(n, n), end


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


_FAMILIES = {
    "C": cyclic, "D": dihedral, "Q": generalized_quaternion, "S": symmetric, "A": alternating
}


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse "C<n>", "D<n>", "Q<n>", "S<n>", "A<n>", "SD:<P>,<Q>,<k>",
    "X:<spec>*<spec>", or a path to a JSON file {"order": n, "table": [[...]]}.

    A family letter and a number go to that family's constructor
    (:data:`_FAMILIES`), whose own bound decides the range: C<1..2048>,
    D<1..1024> (order 2n), Q<2^k> for 8 <= 2^k <= 2048, S<1..6> and A<3..6>.
    The family number and the SD: triple are integers under
    numtheory.parse_int; every refusal is a GroupError.
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
    family, numbers = _FAMILIES.get(spec[0]), [spec[1:]]
    if spec.startswith("SD:"):
        family, numbers = semidirect_cyclic, spec[3:].split(",")
    if family is None or len(numbers) != (3 if family is semidirect_cyclic else 1):
        raise GroupError(f"unrecognized group spec {spec!r}")
    try:
        args = [numtheory.parse_int(x, "each number") for x in numbers]
    except ValueError as exc:
        raise GroupError(f"group spec {spec!r}: {exc}") from None
    return family(*args)


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class ObstructionWitness:
    kind: str
    witness: tuple[int, ...]

    def verify(self, g: FiniteGroup) -> bool:
        """Recompute the witness property directly from the Cayley table.  A
        witness of an unknown kind, of the wrong length for its kind, or with
        an index outside the group is not one."""
        arity = {NON_CYCLIC_ABELIAN: 2, COMPOSITE_ORDER_ELEMENT: 1, ORDER_FOUR_ELEMENT: 1}
        if len(self.witness) != arity.get(self.kind):
            return False
        if not all(0 <= x < g.order for x in self.witness):
            return False
        a = self.witness[0]
        if self.kind == NON_CYCLIC_ABELIAN:
            b = self.witness[1]
            oa, ob = g.element_order(a), g.element_order(b)
            if oa != ob or not numtheory.is_prime(oa):
                return False
            if g.mul(a, b) != g.mul(b, a):
                return False
            return b not in set(g.cyclic_subgroup(a).tolist())
        if self.kind == COMPOSITE_ORDER_ELEMENT:
            return len(numtheory.factorize(g.element_order(a))) >= 2
        return g.element_order(a) == 4  # ORDER_FOUR_ELEMENT

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


def _rank_two_pair(g: FiniteGroup, q: int) -> tuple[int, int] | None:
    """(a, b) with a the first element of order q and b the first element of
    order q outside <a> that commutes with a, or None if there is none; q is
    a prime dividing |G|.  It reads a's row, a's column and <a>: O(n).

    Such a b exists iff G contains C_q x C_q, and then (a, b) is the first
    pair (x, y) of elements of order q, row-major, with xy = yx and y outside
    <x>.  For let T be a Sylow q-subgroup containing a.  A conjugate of T
    contains C_q x C_q, so T has a subgroup of order q other than <a>.  Z(T)
    has a subgroup Z of order q.  If Z != <a>, a generator of Z commutes with
    a and lies outside <a>; if Z = <a>, a is central in T, and every element
    of order q of T outside <a> commutes with a.
    """
    elems = np.flatnonzero(g.orders == q)
    a, inside = int(elems[0]), np.zeros(g.order, dtype=bool)
    inside[g.cyclic_subgroup(a)] = True
    partners = elems[(g.table[a].take(elems) == g._mul(elems, a)) & ~inside[elems]]
    return (a, int(partners[0])) if partners.size else None


def detect_obstructions(g: FiniteGroup) -> list[ObstructionWitness]:
    """Witnesses that rule the group out of the real-base eligibility class.

    Reports at most one witness per kind: a commuting pair of equal prime
    order generating a non-cyclic abelian subgroup, an element whose order
    has two distinct prime divisors, and an element of order exactly 4.
    Each is the first element of its order, so an order is scanned for only
    when :attr:`FiniteGroup.order_counts` shows that it occurs.  C_q x C_q
    has order q^2 and holds q^2 - 1 elements of order q, so G contains none
    unless q^2 divides n (Lagrange) and at least q^2 - 1 elements have order
    q; only then is :func:`_rank_two_pair` run for q.
    """
    out = []
    orders, counts = g.orders, g.order_counts
    for q, a in sorted(numtheory.factorize(g.order).items()):
        if a < 2 or counts[q] < q * q - 1:
            continue
        pair = _rank_two_pair(g, q)
        if pair is not None:
            out.append(ObstructionWitness(NON_CYCLIC_ABELIAN, pair))
            break

    composite_orders = [
        o for o in np.flatnonzero(counts).tolist() if numtheory.prime_divisor_count(o) >= 2
    ]
    if composite_orders:
        x = int(np.argmax(orders == composite_orders[0]))
        out.append(ObstructionWitness(COMPOSITE_ORDER_ELEMENT, (x,)))

    if g.order >= 4 and counts[4]:  # counts has n + 1 entries
        out.append(ObstructionWitness(ORDER_FOUR_ELEMENT, (int(np.argmax(orders == 4)),)))
    return out


def sylow_shape(g: FiniteGroup, p: int) -> SylowShape:
    """The shape of a Sylow p-subgroup T, read from element orders and one
    row of the table; no subgroup is built.  With p^a || n, T has order p^a
    (Sylow), and:

    * Cyclic iff some element has order p^a;
    * GeneralizedQuaternion iff p = 2, T is not cyclic and G contains no
      C_2 x C_2 (see :func:`_rank_two_pair`).  Then T contains none, so its
      involution is unique (a central one and any other make a C_2 x C_2),
      and a non-cyclic 2-group with a unique involution is generalized
      quaternion (Gorenstein, *Finite Groups*, Thm 5.4.10(ii)).  A C_2 x C_2
      holds three involutions, so with fewer G contains none;
    * Other in every remaining case.
    """
    p = numtheory.as_prime(p, "p")
    if g.order % p:
        raise GroupError(f"{p} does not divide the group order {g.order}")
    target = p ** numtheory.factorize(g.order)[p]
    counts = g.order_counts
    if counts[target]:
        return SylowShape(SYLOW_CYCLIC, target)
    if p == 2 and (counts[2] < 3 or _rank_two_pair(g, 2) is None):
        return SylowShape(SYLOW_GENERALIZED_QUATERNION, target)
    return SylowShape(SYLOW_OTHER, target)


def frobenius_cyclic_decomposition(g: FiniteGroup) -> FrobeniusDecomposition | None:
    """Search for G = K x| H with K cyclic normal of order P, H cyclic of
    order Q = |G|/P, gcd(P, Q) = 1, and no nontrivial element of H commuting
    with any nontrivial element of K.

    A normal subgroup of order P coprime to its index is exactly
    {x : ord(x) | P}, so K is that set when it has P elements, one of them of
    order P.  Its complements are all conjugate (Schur-Zassenhaus), so H is
    the cyclic subgroup of the first element of order Q.  The set has as
    many elements as the sum of order_counts[d] over d | P, so K and H are
    built only for a P that passes that count, and a second one: every
    element of such a group K x| H has order dividing P or Q (the Frobenius
    partition).  For if k^-1 h k = h' with h, h' in H and k in K, then
    k^-1 (h k h^-1) = h' h^-1 lies in K and in H, so is 1, and h commutes
    with k.  So the P conjugates of H by K meet pairwise in 1, and their
    P(Q - 1) elements other than 1, of order dividing Q, lie outside K:
    with K's P elements they are all n.  A P for which the counts over
    d | P or d | Q do not sum to n is therefore skipped before K and H are
    built.  Cyclic and abelian groups fail it at once.
    """
    n, orders, counts = g.order, g.orders, g.order_counts
    divs = numtheory.divisors(n)
    for P in divs:
        Q = n // P
        # H acts on K \ {1} without fixed points, so Q | P - 1 (and gcd(P, Q) = 1)
        if P == 1 or P == n or (P - 1) % Q:
            continue
        if not counts[P] or not counts[Q] or sum(counts[d] for d in divs if P % d == 0) != P:
            continue
        if sum(counts[d] for d in divs if P % d == 0 or Q % d == 0) != n:
            continue
        k_elems = np.flatnonzero(P % orders == 0)
        h_elems = g.cyclic_subgroup(int(np.argmax(orders == Q)))
        k_nontriv, h_nontriv = k_elems[1:], h_elems[1:]  # both start at 0
        # kh[i, j] = k_i * h_j against hk[i, j] = h_j * k_i
        kh = g._mul(k_nontriv[:, None], h_nontriv)
        hk = g._mul(h_nontriv, k_nontriv[:, None])
        if not (kh == hk).any():
            return FrobeniusDecomposition(
                P=int(P),
                Q=int(Q),
                kernel=tuple(int(x) for x in k_elems),
                complement=tuple(sorted(h_elems.tolist())),
            )
    return None


def _order_2_or_odd_prime_power(m: int) -> bool:
    return m == 2 or (m % 2 == 1 and numtheory.is_prime_power(m))


def classify(g: FiniteGroup) -> ClassificationReport:
    """Full eligibility report; the trivial group gets all flags false."""
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
        is_trivial=n == 1,
        hg_real=hg_real,
        hg_sqrt_minus1=hg_sqrt,
        pd1_candidate=pd1,
        frobenius_decomposition=(frob.P, frob.Q) if frob else None,
        sylow_shapes=shapes,
        obstructions=obstructions,
    )


# ---------------------------------------------------------------------------
# isomorphism testing by generator images: no production path calls it; it is
# the tests' reference, and perfbench/spans.py traces is_isomorphic by name


def _fingerprint(g: FiniteGroup):
    # the order of the center is n iff the group is abelian
    central = (g.table == g.table.T).all(axis=1)
    return g.order, tuple(sorted(g.orders.tolist())), int(np.count_nonzero(central))


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
