import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamegal import groups as G
from tamegal import numtheory as nt
from test_acceptance import _group_corpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# independent reference tables


def quaternion_symbol_table():
    """The unit quaternions as symbols, multiplied by the textbook rules."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign == 1 else "-" + out

    index = {u: n for n, u in enumerate(units)}
    table = [[index[mul(a, b)] for b in units] for a in units]
    return table, index


S3_TABLE = [
    # e, (12), (13), (23), (123), (132) composed left-to-right as functions
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


def test_quaternion_reference_table_is_q8():
    table, index = quaternion_symbol_table()
    ref = G.FiniteGroup(table, label="Q8-ref")
    assert G.is_isomorphic(ref, G.generalized_quaternion(8))
    # order of i computed by brute powers through the symbol table
    x, n = index["i"], 0
    cur = index["1"]
    while True:
        cur = table[cur][x]
        n += 1
        if cur == index["1"]:
            break
    assert n == 4
    assert ref.element_order(index["i"]) == 4


def test_element_order_examples():
    c6 = G.cyclic(6)
    assert c6.element_order(1) == 6
    assert c6.element_order(0) == 1
    q8 = G.generalized_quaternion(8)
    assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    with pytest.raises(G.GroupError):
        c6.element_order(6)


@pytest.mark.parametrize("g", [-1, 5])
def test_element_indices_outside_the_group_are_refused(g):
    """A negative index would wrap around the order array, and one past the
    end would raise a bare IndexError; on the flat table a raw index reads
    another entry (v = n reads row u + 1).  Each method refuses both by name,
    an index array at its first bad entry, and powers refuses non-integer
    indices, which its intp cast would truncate."""
    c5 = G.cyclic(5)
    for call in (lambda: c5.power(g, 2), lambda: c5.cyclic_subgroup(g),
                 lambda: c5.subgroup_closure([1, g]), lambda: c5.mul(g, 2),
                 lambda: c5.mul(2, g), lambda: c5.inverse(g),
                 lambda: c5.powers(2, [1, g, 2 * g]),
                 lambda: c5.powers(0, np.array([g], dtype=np.int16))):
        with pytest.raises(G.GroupError, match=f"element index {g} out of range for order 5"):
            call()
    with pytest.raises(G.GroupError, match="must be integers, not float64"):
        c5.powers(2, [1.5])


@pytest.mark.parametrize("m", [-1, -2, -7])
def test_negative_power_exponents_are_refused(m):
    # binary powering shifts m right until it is 0, and -1 >> 1 is -1
    c5 = G.cyclic(5)
    for call in (lambda: c5.powers(m), lambda: c5.powers(m, [1, 2])):
        with pytest.raises(G.GroupError, match=f"m = {m} is negative"):
            call()
    assert c5.power(2, m) == 2 * m % 5  # power reduces m mod ord(g) first


def test_semidirect_s3_example():
    got = G.semidirect_cyclic(3, 2, -1)
    assert got.order == 6
    assert sorted(got.orders.tolist()).count(2) == 3
    assert G.is_isomorphic(got, G.FiniteGroup(S3_TABLE, label="S3-ref"))


def test_semidirect_trivial_action_is_cyclic():
    for p in (1, 2, 5, 12):
        assert G.is_isomorphic(G.semidirect_cyclic(p, 1, 1), G.cyclic(p))


def test_semidirect_order21_nonabelian():
    g = G.semidirect_cyclic(7, 3, 2)
    assert g.order == 21
    assert not (g.table == g.table.T).all()
    center = [
        z
        for z in range(21)
        if all(g.mul(z, x) == g.mul(x, z) for x in range(21))
    ]
    assert center == [0]


def test_semidirect_precondition_errors():
    with pytest.raises(G.GroupError, match="k\\^Q"):
        G.semidirect_cyclic(5, 2, 2)  # ord_5(2) = 4 does not divide 2
    with pytest.raises(G.GroupError, match="gcd"):
        G.semidirect_cyclic(6, 2, 3)


def _shuffled_table(spec):
    g = G.parse_group_spec(spec)
    rest = list(range(1, g.order))
    random.Random(0).shuffle(rest)
    return G.relabeled(g, [0] + rest).table.copy()


# a loop of order 5: every element is an involution, so it is no group
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _flipped_d256():
    """Swapping the two symbols of a 2x2 Latin subsquare keeps a Latin square
    with identity 0 but breaks associativity in only a few triples, which a
    random sample of triples can miss."""
    t = _shuffled_table("D256")
    for r2 in range(2, len(t)):
        sigma = np.argsort(t[r2])[t[1]]  # column of row r2 holding t[1, c]
        cols = [c for c in range(1, len(t)) if sigma[c] not in (0, c) and sigma[sigma[c]] == c]
        if cols:
            rows, c = [1, r2], cols[0]
            t[np.ix_(rows, [c, sigma[c]])] = t[np.ix_(rows, [sigma[c], c])]
            return t
    raise AssertionError("D256 has a 2x2 Latin subsquare")


def test_table_validation_rejects_bad_tables():
    with pytest.raises(G.GroupError):
        G.FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(G.GroupError):
        G.FiniteGroup([[1, 0], [0, 1]])  # identity not at 0
    # associative Latin square with identity: fine
    G.FiniteGroup([[0, 1], [1, 0]]).check_table()
    with pytest.raises(G.GroupError, match="associativity"):
        G.FiniteGroup(LOOP5)
    with pytest.raises(G.GroupError, match="associativity"):
        G.FiniteGroup(_flipped_d256())
    # the most generators an order-2048 group needs: the cost bound
    G.FiniteGroup(_shuffled_table("X:" + "*".join(["C2"] * 11)))


def test_table_validation_checks_columns():
    # every row is a permutation and 0 is a two-sided identity, but columns
    # 2 and 3 repeat a symbol
    t = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]]
    assert all(sorted(row) == [0, 1, 2, 3] for row in t)
    with pytest.raises(G.GroupError, match="permutations"):
        G.FiniteGroup(t)
    with pytest.raises(G.GroupError, match="permutations"):
        G.FiniteGroup(np.array(t).T)


def _wrapping_c4(dtype, wrap):
    t = G.cyclic(4).table.astype(dtype)
    t[1, 1] += wrap  # 2 once cast to int16
    return t


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 0.5]], "float64"),  # 0.5 truncates to 0: C2 once cast
    ([[False, True], [True, False]], "bool"),
    (_wrapping_c4(np.int64, 2**32), "out of range"),
    (_wrapping_c4(np.int32, 2**16), "out of range"),  # wraps in int16 only
], ids=["float", "bool", "int64-wraps", "int32-wraps"])
def test_tables_that_the_int32_cast_would_change_are_refused(table, message):
    with pytest.raises(G.GroupError, match=message):
        G.FiniteGroup(table)


# ---------------------------------------------------------------------------
# table validation: the group axioms decide, the Latin scan names a refusal


def ref_check_table(table):
    """Table validation in its earlier order: the Latin-square scan first,
    then the identity at 0, then Light's test on the greedy generators."""
    g = G.FiniteGroup(table, validate=False)
    t, n = g.table, g.order
    if t.min() < 0 or t.max() >= n:
        raise G.GroupError("table entries out of range")
    ar = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    for lines in (t, t.T):
        seen[:] = False
        seen[ar[:, None], lines] = True
        if not seen.all():
            raise G.GroupError("table rows/columns are not permutations")
    if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
        raise G.GroupError("element 0 is not a two-sided identity")
    for a in G._greedy_generators(g):
        if not (t[t[:, a]] == t.take(t[a], axis=1)).all():
            raise G.GroupError("associativity fails")


def verdict(check, table):
    """None if check accepts the table, else its GroupError message."""
    try:
        check(table)
    except G.GroupError as exc:
        return str(exc)
    return None


def assert_same_verdict(table):
    want = verdict(ref_check_table, table)
    assert verdict(G.FiniteGroup, table) == want
    return want


def _with_identity(t):
    """t with row 0 and column 0 those of an identity at 0."""
    t = np.array(t)
    t[0] = t[:, 0] = np.arange(len(t))
    return t


@st.composite
def small_tables(draw):
    """Entries drawn freely in range; an identity row and column in half."""
    n = draw(st.integers(1, 8))
    t = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    return _with_identity(t) if draw(st.booleans()) else np.array(t)


@st.composite
def row_latin_tables(draw):
    """Every row a permutation, columns free; in half the draws row 0 and
    column 0 are the identity's, each row still a permutation."""
    n = draw(st.integers(1, 8))
    t = np.array([draw(st.permutations(range(n))) for _ in range(n)])
    if draw(st.booleans()):
        t[0] = np.arange(n)
        for i in range(1, n):
            j = int(np.flatnonzero(t[i] == i)[0])
            t[i, [0, j]] = t[i, [j, 0]]
    return t


@st.composite
def relabeled_group_tables(draw):
    """A group of TABLE_SPECS under any renaming, the identity's too."""
    g = G.parse_group_spec(draw(st.sampled_from(TABLE_SPECS)))
    perm = np.array(draw(st.permutations(range(g.order))))
    inv = np.argsort(perm)
    return perm[g.table[np.ix_(inv, inv)]]


@st.composite
def swapped_group_tables(draw):
    """A relabeled group with one pair of entries swapped."""
    t = draw(relabeled_group_tables()).copy()
    i1, j1, i2, j2 = (draw(st.integers(0, len(t) - 1)) for _ in range(4))
    t[i1, j1], t[i2, j2] = t[i2, j2], t[i1, j1]
    return t


@st.composite
def flipped_group_tables(draw):
    """A relabeled group with one 2x2 Latin subsquare off row and column 0
    flipped, as in _flipped_d256: a Latin square with identity 0 that is
    rarely a group.  Unchanged if the two drawn rows share no subsquare."""
    t = np.array(draw(group_tables()))
    if len(t) < 3:
        return t
    r1, r2 = draw(st.lists(st.integers(1, len(t) - 1), min_size=2, max_size=2, unique=True))
    sigma = np.argsort(t[r2])[t[r1]]  # column of row r2 holding t[r1, c]
    cols = [c for c in range(1, len(t)) if sigma[c] not in (0, c) and sigma[sigma[c]] == c]
    if cols:
        c = draw(st.sampled_from(cols))
        t[np.ix_([r1, r2], [c, sigma[c]])] = t[np.ix_([r1, r2], [sigma[c], c])]
    return t


TABLE_FAMILIES = {
    "small": small_tables, "row-latin": row_latin_tables,
    "relabeled-group": relabeled_group_tables, "swapped-pair": swapped_group_tables,
    "flipped-subsquare": flipped_group_tables,
}


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validation_verdicts_match_latin_first_order(family, data):
    assert_same_verdict(data.draw(TABLE_FAMILIES[family]()))


@pytest.mark.parametrize("table, want", [
    (LOOP5, "associativity fails"),
    (_flipped_d256(), "associativity fails"),
    ([[0, 1], [1, 1]], "permutations"),  # a monoid that passes Light's test
    ([[1, 0], [0, 1]], "identity"),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]], "permutations"),
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]], None),
], ids=["loop5", "flipped-d256", "monoid", "identity-at-1", "column-repeat", "c4"])
def test_validation_verdicts_on_named_tables(table, want):
    got = assert_same_verdict(table)
    assert got is None if want is None else want in got


def test_bad_tables_at_the_order_cap_are_refused_in_bounded_time():
    n = G.ORDER_CAP
    ar = np.arange(n)

    def elementary():  # C2^11: the most generators a group of order 2048 needs
        return G.parse_group_spec("X:" + "*".join(["C2"] * 11)).table.copy()

    def duplicated_row():
        t = elementary()
        t[7] = t[5]
        return t

    def noise_with_identity():
        return _with_identity(np.random.default_rng(0).integers(0, n, (n, n)))

    def column_pair_swapped():
        t = elementary()
        t[[3, 1000], 17] = t[[1000, 3], 17]
        return t

    def constant_block():
        t = elementary()
        t[512:1024, 512:1024] = 3
        return t

    spent = 0.0
    for make in (duplicated_row, noise_with_identity, column_pair_swapped, constant_block):
        table = make()
        start = time.perf_counter()
        with pytest.raises(G.GroupError, match="permutations"):
            G.FiniteGroup(table)
        spent += time.perf_counter() - start
    assert spent < 5, spent


def test_detect_obstructions_examples():
    v4 = G.direct_product(G.cyclic(2), G.cyclic(2))
    kinds = [w.kind for w in G.detect_obstructions(v4)]
    assert kinds == [G.NON_CYCLIC_ABELIAN]

    kinds = [w.kind for w in G.detect_obstructions(G.cyclic(6))]
    assert kinds == [G.COMPOSITE_ORDER_ELEMENT]

    kinds = [w.kind for w in G.detect_obstructions(G.generalized_quaternion(8))]
    assert kinds == [G.ORDER_FOUR_ELEMENT]

    assert G.detect_obstructions(G.cyclic(1)) == []
    assert G.detect_obstructions(G.symmetric(3)) == []


@pytest.mark.parametrize(
    "group",
    [
        G.direct_product(G.cyclic(2), G.cyclic(2)),
        G.cyclic(6),
        G.cyclic(20),
        G.generalized_quaternion(16),
        G.symmetric(4),
        G.alternating(4),
        G.dihedral(6),
        G.semidirect_cyclic(9, 3, 4),
    ],
)
def test_obstruction_witnesses_reverify(group):
    for w in G.detect_obstructions(group):
        assert w.verify(group), (group.label, w)


@pytest.mark.parametrize("spec", ["X:C2*C2", "C6", "Q8", "S4"])
def test_obstruction_witness_verify_refuses_indices_outside_the_group(spec):
    g = G.parse_group_spec(spec)
    for w in G.detect_obstructions(g):
        for i in range(len(w.witness)):
            for shift in (-g.order, g.order):  # numpy would wrap the negative one
                bad = list(w.witness)
                bad[i] += shift
                assert G.ObstructionWitness(w.kind, tuple(bad)).verify(g) is False, (w, bad)


@pytest.mark.parametrize(
    "kind, witness",
    [(G.NON_CYCLIC_ABELIAN, (1,)), (G.NON_CYCLIC_ABELIAN, (1, 2, 3)), (G.NON_CYCLIC_ABELIAN, ()),
     (G.COMPOSITE_ORDER_ELEMENT, (1, 2)), (G.ORDER_FOUR_ELEMENT, (1, 2)), (G.ORDER_FOUR_ELEMENT, ()),
     ("Unknown", (1,))],
)
def test_obstruction_witness_of_the_wrong_arity_is_refused(kind, witness):
    g = G.parse_group_spec("X:C4*C6")  # every kind has a witness here
    assert {w.kind for w in G.detect_obstructions(g)} == {
        G.NON_CYCLIC_ABELIAN, G.COMPOSITE_ORDER_ELEMENT, G.ORDER_FOUR_ELEMENT}
    assert G.ObstructionWitness(kind, witness).verify(g) is False


def ref_non_cyclic_abelian_witness(g):
    """The first commuting pair (a, b) of equal prime order q with b outside
    <a>, for the least such q, as np.argwhere finds it over the elements of
    order q in row-major order."""
    for q in sorted(nt.factorize(g.order)) if g.order > 1 else []:
        elems = np.flatnonzero(g.orders == q)
        prods = g.table[np.ix_(elems, elems)]
        outside = np.array([~np.isin(elems, g.cyclic_subgroup(int(a))) for a in elems]).reshape(prods.shape)
        viol = (prods == prods.T) & outside
        if viol.any():
            i, j = np.argwhere(viol)[0]
            return (int(elems[i]), int(elems[j]))
    return None


def test_non_cyclic_abelian_witness_is_the_first_violating_pair():
    """Also on the Sylow and kernel test groups, relabeled copies among them,
    and three larger groups.  Their 43 witnesses cover both cases of the
    proof in groups._rank_two_pair: the first element of order q is central
    in a Sylow q-subgroup containing it in 40 and not in 3."""
    larger = [G.parse_group_spec(s) for s in ("X:C8*D64", "SD:31,30,3", "X:C3*C3*C3*C3")]
    found = 0
    for g in itertools.chain(_group_corpus(128), _sylow_groups(), KERNEL_GROUPS, larger):
        got = [w.witness for w in G.detect_obstructions(g) if w.kind == G.NON_CYCLIC_ABELIAN]
        want = ref_non_cyclic_abelian_witness(g)
        assert got == ([want] if want else []), g.label
        found += want is not None
    assert found == 593 + 43


def test_sylow_shape_examples():
    assert G.sylow_shape(G.symmetric(3), 3) == G.SylowShape(G.SYLOW_CYCLIC, 3)
    assert G.sylow_shape(G.generalized_quaternion(8), 2) == G.SylowShape(
        G.SYLOW_GENERALIZED_QUATERNION, 8
    )
    v4 = G.direct_product(G.cyclic(2), G.cyclic(2))
    assert G.sylow_shape(v4, 2) == G.SylowShape(G.SYLOW_OTHER, 4)
    with pytest.raises(G.GroupError):
        G.sylow_shape(G.symmetric(3), 5)


def test_sylow_shape_more_structures():
    assert G.sylow_shape(G.symmetric(4), 2).kind == G.SYLOW_OTHER  # dihedral of order 8
    assert G.sylow_shape(G.symmetric(4), 2).order == 8
    assert G.sylow_shape(G.alternating(5), 2) == G.SylowShape(G.SYLOW_OTHER, 4)
    assert G.sylow_shape(G.generalized_quaternion(32), 2).kind == G.SYLOW_GENERALIZED_QUATERNION
    big = G.direct_product(G.generalized_quaternion(16), G.cyclic(3))
    assert G.sylow_shape(big, 2).kind == G.SYLOW_GENERALIZED_QUATERNION
    assert G.sylow_shape(big, 3) == G.SylowShape(G.SYLOW_CYCLIC, 3)


def test_frobenius_examples():
    f = G.frobenius_cyclic_decomposition(G.symmetric(3))
    assert (f.P, f.Q) == (3, 2)
    assert G.frobenius_cyclic_decomposition(G.cyclic(15)) is None
    f21 = G.frobenius_cyclic_decomposition(G.semidirect_cyclic(7, 3, 2))
    assert (f21.P, f21.Q) == (7, 3)
    # kernel/complement element sets check out
    g = G.semidirect_cyclic(7, 3, 2)
    assert len(f21.kernel) == 7 and len(f21.complement) == 3
    for k in f21.kernel:
        if k == 0:
            continue
        for h in f21.complement:
            if h == 0:
                continue
            assert g.mul(k, h) != g.mul(h, k)


def test_frobenius_presence_matches_faithful_prime_action():
    # For C_P x| C_Q (P, Q >= 2) the decomposition exists iff k has order Q
    # modulo every prime divisor of P.
    rng = random.Random(1)
    triples = []
    for P in range(2, 64):
        for Q in range(2, 512 // P + 1):
            for k in range(1, P):
                if math.gcd(k, P) == 1 and pow(k, Q, P) == 1:
                    triples.append((P, Q, k))
    for P, Q, k in rng.sample(triples, 150):
        g = G.semidirect_cyclic(P, Q, k)
        expected = all(
            nt.multiplicative_order_mod(k % p, p) == Q for p in nt.factorize(P)
        )
        got = G.frobenius_cyclic_decomposition(g) is not None
        assert got == expected, (P, Q, k)


def test_classify_examples():
    r = G.classify(G.symmetric(3))
    assert r.hg_real and r.hg_sqrt_minus1 and r.pd1_candidate
    assert r.frobenius_decomposition == (3, 2)

    r = G.classify(G.generalized_quaternion(8))
    assert not r.hg_real and r.hg_sqrt_minus1 and not r.pd1_candidate

    r = G.classify(G.cyclic(9))
    assert r.hg_real and not r.pd1_candidate and r.hg_sqrt_minus1

    r = G.classify(G.cyclic(1))
    assert r.is_trivial
    assert not (r.hg_real or r.hg_sqrt_minus1 or r.pd1_candidate)
    assert r.sylow_shapes == {} and r.obstructions == []


def test_classify_more_groups():
    cases = {
        "C2": (True, True, True),
        "C4": (False, True, False),
        "C8": (False, True, False),
        "C12": (False, False, False),
        "D5": (True, True, True),
        "D9": (True, True, False),
        "D15": (False, False, False),
        "Q16": (False, True, False),
        "SD:5,4,2": (False, True, False),
        "SD:13,3,3": (True, True, True),
        "A4": (False, False, False),
    }
    for spec, (real, sqrt, pd1) in cases.items():
        r = G.classify(G.parse_group_spec(spec))
        assert (r.hg_real, r.hg_sqrt_minus1, r.pd1_candidate) == (real, sqrt, pd1), spec


def test_report_invariants():
    for spec in ("S3", "Q8", "C9", "C12", "D6", "SD:7,3,2", "A4"):
        r = G.classify(G.parse_group_spec(spec))
        if r.hg_real:
            assert r.obstructions == []
        if r.frobenius_decomposition:
            P, Q = r.frobenius_decomposition
            assert math.gcd(P, Q) == 1
            assert P * Q == G.parse_group_spec(spec).order


def test_classify_is_relabeling_invariant():
    rng = np.random.default_rng(42)
    for spec in ("S3", "Q8", "C12", "D6", "SD:7,3,2", "SD:5,4,3", "A4"):
        g = G.parse_group_spec(spec)
        base = G.classify(g)
        for _ in range(3):
            perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
            h = G.relabeled(g, perm)
            r = G.classify(h)
            assert r.hg_real == base.hg_real
            assert r.hg_sqrt_minus1 == base.hg_sqrt_minus1
            assert r.pd1_candidate == base.pd1_candidate
            assert r.frobenius_decomposition == base.frobenius_decomposition
            assert sorted(w.kind for w in r.obstructions) == sorted(
                w.kind for w in base.obstructions
            )


@pytest.mark.parametrize(
    "perm, message",
    [([0, 1, 1, 3], "not a permutation"), ([0, 1, 2], "shape"), ([0, 1, 2, 3, 4], "shape"),
     ([0, 1, 2, 4], "not a permutation"), ([0, -1, 2, 3], "not a permutation"),
     ([1, 0, 2, 3], "fix the identity"), ([0, 1.7, 2.2, 3], "must be integers, not float64"),
     ([0.0, 1.0, 2.0, 3.0], "must be integers")],
)
def test_relabeling_must_be_a_permutation(perm, message):
    with pytest.raises(G.GroupError, match=message):
        G.relabeled(G.cyclic(4), perm)


def test_parse_group_spec():
    assert G.parse_group_spec("C6").order == 6
    assert G.parse_group_spec("D4").order == 8
    assert G.parse_group_spec("Q16").order == 16
    assert G.parse_group_spec("S4").order == 24
    assert G.parse_group_spec("A5").order == 60
    assert G.parse_group_spec("SD:7,3,2").order == 21
    x = G.parse_group_spec("X:C2*C2*C2")
    assert x.order == 8 and int(x.orders.max()) == 2
    for bad in ("", "C", "Zoo", "Q12", "S9", "SD:4,2", "X:C2", "C\u00b2", "B4", "C-4", "C+4"):
        with pytest.raises(G.GroupError):
            G.parse_group_spec(bad)


@pytest.mark.parametrize("spec, order", [
    ("C1", 1), ("C2048", 2048), ("D1", 2), ("D1024", 2048), ("Q8", 8), ("Q2048", 2048),
    ("S1", 1), ("S5", 120), ("S6", 720), ("A3", 3), ("A6", 360), ("Q032", 32),
])
def test_family_specs_reach_their_constructors_bounds(spec, order):
    g = G.parse_group_spec(spec)
    assert g.order == order and g.label == spec[0] + str(int(spec[1:]))


@pytest.mark.parametrize("spec, bound", [
    ("C0", "1..2048"), ("C2049", "1..2048"), ("D0", "1..1024"), ("D1025", "1..1024"),
    ("Q4", "8..2048"), ("Q12", "8..2048"), ("Q4096", "8..2048"),
    ("S0", "m! <= 2048"), ("S7", "m! <= 2048"), ("A2", "m!/2 <= 2048"), ("A7", "m!/2 <= 2048"),
    # bounded before m! is formed
    ("S" + "9" * 4000, "m! <= 2048"), ("A" + "9" * 4000, "m!/2 <= 2048"),
])
def test_family_specs_beyond_their_constructors_bounds_are_refused(spec, bound):
    with pytest.raises(G.GroupError, match=re.escape(bound)):
        G.parse_group_spec(spec)


def test_group_json_io(tmp_path):
    g = G.dihedral(4)
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"order": g.order, "table": g.table.tolist()}))
    loaded = G.parse_group_spec(str(path))
    assert G.is_isomorphic(loaded, g)
    assert G.parse_group_spec("@" + str(path)).order == 8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}))
    with pytest.raises(G.GroupError):
        G.parse_group_spec(str(bad))


def test_nested_product_spec_with_semidirect():
    g = G.parse_group_spec("X:SD:3,2,2*C5")
    assert g.order == 30
    assert G.is_isomorphic(g, G.direct_product(G.symmetric(3), G.cyclic(5)))


def test_negative_action_parameter_normalized():
    assert G.is_isomorphic(G.semidirect_cyclic(7, 2, -1), G.dihedral(7))


def test_order_caps():
    with pytest.raises(G.GroupError):
        G.cyclic(G.ORDER_CAP + 1)
    with pytest.raises(G.GroupError):
        G.direct_product(G.cyclic(64), G.cyclic(64))


def test_report_serialization_stable_fields():
    r = G.classify(G.symmetric(3))
    d = r.as_dict()
    assert set(d) == {
        "group_label",
        "is_trivial",
        "hg_real",
        "hg_sqrt_minus1",
        "pd1_candidate",
        "frobenius_decomposition",
        "sylow_shapes",
        "obstructions",
    }
    json.dumps(d)  # JSON-serializable

    assert d["frobenius_decomposition"] == [3, 2]
    assert d["sylow_shapes"]["2"] == {"kind": "Cyclic", "order": 2}


def test_is_isomorphic_negative_and_positive():
    assert not G.is_isomorphic(G.dihedral(4), G.generalized_quaternion(8))
    assert not G.is_isomorphic(G.cyclic(8), G.dihedral(4))
    assert G.is_isomorphic(G.dihedral(3), G.symmetric(3))
    assert G.is_isomorphic(
        G.direct_product(G.cyclic(3), G.cyclic(5)), G.cyclic(15)
    )


def test_validation_under_python_O():
    """Table validation raises named errors, so it holds with asserts off."""
    tables = {"valid": _shuffled_table("SD:7,3,2").tolist(), "loop": LOOP5,
              "flipped": _flipped_d256().tolist()}
    script = """
import json, sys
from tamegal import groups as G
tables = json.load(sys.stdin)
G.FiniteGroup(tables["valid"])
for name in ("loop", "flipped"):
    try:
        G.FiniteGroup(tables[name])
    except G.GroupError:
        continue
    sys.exit(name + " accepted")
print("optimize", sys.flags.optimize)
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(tables),
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["optimize", "1"]


# ---------------------------------------------------------------------------
# the kernel against brute-force references


def ref_power_walk(g):
    """Row m holds x^m for every x, walking x^(m+1) = x^m * x until every
    order is found; returns (power table, orders)."""
    n, t = g.order, g.table
    ar = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    rows, cur, m = [np.zeros(n, dtype=np.int64), ar], ar, 1
    while True:
        orders[(cur == 0) & (orders == 0)] = m
        if (orders != 0).all():
            return np.vstack(rows), orders
        cur = t[cur, ar]
        rows.append(cur)
        m += 1


def ref_closure(g, gens):
    """Square-product fixpoint: multiply the set by itself until it stops growing."""
    cur = np.unique(np.concatenate([[0], np.asarray(list(gens), dtype=np.int64)]))
    while True:
        prod = np.unique(g.table[np.ix_(cur, cur)])
        if prod.size == cur.size:
            return prod
        cur = prod


def ref_frobenius(g):
    """Exhaustive search over pairs of cyclic subgroups: a normal one of
    order P as kernel, one of order Q = n/P as complement, first hit by P,
    then by lowest generator index."""
    n = g.order
    pow_table, orders = ref_power_walk(g)
    subs, seen = [], np.zeros(n, dtype=bool)
    for x in range(n):
        if not seen[x]:
            col = pow_table[: orders[x], x]
            seen[col[orders[col] == orders[x]]] = True
            subs.append((int(orders[x]), np.sort(col)))
    for P in nt.divisors(n):
        Q = n // P
        if P in (1, n) or math.gcd(P, Q) != 1:
            continue
        for pk, k in subs:
            mask = np.zeros(n, dtype=bool)
            mask[k] = True
            if pk != P or not mask[g.conj[:, k]].all():
                continue
            for qh, h in subs:
                kh = g.table[np.ix_(k[1:], h[1:])]
                if qh == Q and not (kh == g.table[np.ix_(h[1:], k[1:])].T).any():
                    return G.FrobeniusDecomposition(P, Q, tuple(k.tolist()), tuple(h.tolist()))
    return None


def _kernel_groups():
    rng = random.Random(5)
    triples = [
        (P, Q, k)
        for P in range(2, 80)
        for Q in range(2, 400 // P + 1)
        for k in range(1, P)
        if math.gcd(k, P) == 1 and pow(k, Q, P) == 1
    ]
    out = [G.cyclic(n) for n in rng.sample(range(1, 400), 6)]
    out += [G.dihedral(n) for n in rng.sample(range(1, 200), 6)]
    out += [G.semidirect_cyclic(*t) for t in rng.sample(triples, 16)]
    out += [G.direct_product(G.parse_group_spec(a), G.parse_group_spec(b))
            for a, b in (("C6", "S3"), ("Q8", "C3"), ("D5", "C4"), ("SD:7,3,2", "C2"), ("A4", "C5"))]
    frobenius = [G.parse_group_spec(s) for s in
                 ("SD:7,3,2", "SD:13,3,3", "SD:11,5,3", "SD:31,5,2", "SD:19,9,4", "D15", "SD:73,8,10")]
    perm_rng = np.random.default_rng(5)
    out += [G.relabeled(g, np.concatenate([[0], 1 + perm_rng.permutation(g.order - 1)]))
            for g in out[::2] + frobenius]
    out += frobenius
    return out


KERNEL_GROUPS = _kernel_groups()


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=lambda g: g.label)
def test_orders_and_powers_match_power_walk(g):
    pow_table, orders = ref_power_walk(g)
    assert (g.orders == orders).all()
    ar, e = np.arange(g.order), int(np.lcm.reduce(g.orders))
    for m in (0, 1, 2, e - 1, e, e + 1, 3 * e + 5, 1009):
        assert (g.powers(m) == pow_table[m % orders, ar]).all(), m
    elems = ar[::3]
    assert (g.powers(7, elems) == pow_table[7 % orders[elems], elems]).all()
    assert all(g.power(x, -2) == pow_table[-2 % orders[x], x] for x in elems.tolist())


@pytest.mark.parametrize("spec", [
    "C1", "C1024", "X:" + "*".join(["C2"] * 11), "Q32", "X:C8*D64",  # no prime, or no chain
    "C210", "SD:31,30,3", "D105",  # three or more primes
])
def test_orders_match_power_walk_on_each_chain_shape(spec):
    """C1 has no prime and no x^n check, a prime power builds no chain of
    squares; each also relabeled and validated."""
    g = G.parse_group_spec(spec)
    perm = np.concatenate([[0], 1 + np.random.default_rng(19).permutation(g.order - 1)])
    for h in (g, G.FiniteGroup(G.relabeled(g, perm).table)):
        assert (h.orders == ref_power_walk(h)[1]).all()


def count_table_gathers(g, run):
    """How many squarings and products run(g) takes, counted at _square and
    _mul, the two primitives powers and _power_data gather through."""
    gathers = []
    for name in ("_mul", "_square"):
        prim = getattr(g, name)
        setattr(g, name, lambda *args, prim=prim: gathers.append(args) or prim(*args))
    run(g)
    return len(gathers)


@pytest.mark.parametrize("spec, run, want", [
    ("C12", lambda g: g.powers(0), 0),
    ("C12", lambda g: g.powers(2), 1),  # one squaring
    ("C2", G.FiniteGroup._power_data, 1),  # the x^n check alone
    ("C1024", G.FiniteGroup._power_data, 10),  # nine descents and the check
    ("Q32", G.FiniteGroup._power_data, 5),
    ("C210", G.FiniteGroup._power_data, 17),  # four primes on one chain
    ("SD:31,15,2", G.FiniteGroup._power_data, 20),
], ids=["powers0", "powers2", "C2", "C1024", "Q32", "C210", "SD:31,15,2"])
def test_table_gathers_per_power(spec, run, want):
    assert count_table_gathers(G.parse_group_spec(spec), run) == want


@pytest.mark.parametrize("spec", ["C1", "Q32", "A5", "C210", "SD:31,15,2", "X:C2*C1024"])
def test_flat_products_are_the_table_entries(spec):
    """_mul(u, v) is table[u, v] and _square the diagonal, both intp, up to
    the last flat index 2048^2 - 1; powers(m) and powers(m, elems) are the
    rows of ref_power_walk for every m in 0..2n, also from int16 elems,
    where u*n would wrap.  Each also relabeled and validated."""
    g = G.parse_group_spec(spec)
    perm = np.concatenate([[0], 1 + np.random.default_rng(23).permutation(g.order - 1)])
    for h in (g, G.FiniteGroup(G.relabeled(g, perm).table)):
        n, ar = h.order, np.arange(h.order, dtype=np.intp)
        for rows in np.array_split(ar, -(-n // 256)):  # blocks of at most 256 x n
            prod = h._mul(rows[:, None], ar)
            assert prod.dtype == np.intp and (prod == h.table[rows]).all()
        assert h._square(ar).dtype == np.intp and (h._square(ar) == h.table.diagonal()).all()
        pow_table, orders = ref_power_walk(h)
        elems = h.table[n // 2][::3]  # int16, every third element
        assert elems.dtype == np.int16
        for m in range(2 * n + 1):
            got, some = h.powers(m), h.powers(m, elems)
            assert got.dtype == some.dtype == np.intp, m
            assert (got == pow_table[m % orders, ar]).all(), m
            assert (some == pow_table[m % orders[elems], elems]).all(), m


def orders_agree_on_corpus(n_max):
    """Assert that every group of the criterion-1 corpus up to order n_max
    has the orders of ref_power_walk; returns how many groups were checked."""
    count = 0
    for g in _group_corpus(n_max):
        assert (g.orders == ref_power_walk(g)[1]).all(), g.label
        count += 1
    return count


def test_orders_agree_on_corpus_to_order_128():
    assert orders_agree_on_corpus(128) == 1221


def powers_agree_on_corpus(n_max):
    """Assert that powers(m), m in {2, 3, n - 1, n + 1}, of every group of the
    criterion-1 corpus up to order n_max is the row of ref_power_walk;
    returns how many groups were checked."""
    count = 0
    for g in _group_corpus(n_max):
        pow_table, orders = ref_power_walk(g)
        n, ar = g.order, np.arange(g.order)
        for m in {2, 3, n - 1, n + 1}:
            assert (g.powers(m) == pow_table[m % orders, ar]).all(), (g.label, m)
        count += 1
    return count


def test_powers_agree_on_corpus_to_order_128():
    assert powers_agree_on_corpus(128) == 1221


# References for the classification: its three scans without the order
# counts.  Every prime goes through _rank_two_pair, every divisor P with
# Q | P - 1 builds its kernel set, and each witness is found by a full scan.


def unpruned_detect_obstructions(g):
    out = []
    orders = g.orders
    for q in sorted(nt.factorize(g.order)):
        pair = G._rank_two_pair(g, q)
        if pair is not None:
            out.append(G.ObstructionWitness(G.NON_CYCLIC_ABELIAN, pair))
            break

    composite_orders = [o for o in np.unique(orders).tolist() if nt.prime_divisor_count(o) >= 2]
    if composite_orders:
        x = int(np.flatnonzero(orders == composite_orders[0])[0])
        out.append(G.ObstructionWitness(G.COMPOSITE_ORDER_ELEMENT, (x,)))

    fours = np.flatnonzero(orders == 4)
    if fours.size:
        out.append(G.ObstructionWitness(G.ORDER_FOUR_ELEMENT, (int(fours[0]),)))
    return out


def unpruned_sylow_shape(g, p):
    if not nt.is_prime(p):
        raise G.GroupError(f"{p} is not prime")
    if g.order % p:
        raise G.GroupError(f"{p} does not divide the group order {g.order}")
    target = p ** nt.factorize(g.order)[p]
    if (g.orders == target).any():
        return G.SylowShape(G.SYLOW_CYCLIC, target)
    if p == 2 and G._rank_two_pair(g, 2) is None:
        return G.SylowShape(G.SYLOW_GENERALIZED_QUATERNION, target)
    return G.SylowShape(G.SYLOW_OTHER, target)


def unpruned_frobenius(g):
    n, orders = g.order, g.orders
    for P in nt.divisors(n):
        Q = n // P
        if P == 1 or P == n or (P - 1) % Q:
            continue
        k_elems = np.flatnonzero(P % orders == 0)
        h_gens = np.flatnonzero(orders == Q)
        if k_elems.size != P or not (orders[k_elems] == P).any() or not h_gens.size:
            continue
        h_elems = g.cyclic_subgroup(int(h_gens[0]))
        k_nontriv, h_nontriv = k_elems[1:], h_elems[1:]
        kh = g.table[np.ix_(k_nontriv, h_nontriv)]
        hk = g.table[np.ix_(h_nontriv, k_nontriv)]
        if not (kh == hk.T).any():
            return G.FrobeniusDecomposition(
                P=int(P),
                Q=int(Q),
                kernel=tuple(int(x) for x in k_elems),
                complement=tuple(sorted(h_elems.tolist())),
            )
    return None


def assert_classify_unpruned(g):
    """classify(g) against classify with the unpruned scans and is_cyclic as
    "the largest order is n"; the Frobenius kernel and complement too."""
    with mock.patch.multiple(G, detect_obstructions=unpruned_detect_obstructions,
                             sylow_shape=unpruned_sylow_shape,
                             frobenius_cyclic_decomposition=unpruned_frobenius), \
            mock.patch.object(G.FiniteGroup, "is_cyclic", property(lambda h: int(h.orders.max()) == h.order)):
        want = G.classify(g).as_dict()
    assert G.classify(g).as_dict() == want, g.label
    assert G.frobenius_cyclic_decomposition(g) == unpruned_frobenius(g), g.label


def classify_agrees_on_corpus(n_max):
    """Assert that every group of the criterion-1 corpus up to order n_max
    is classified as the unpruned scans classify it; returns how many groups
    were checked."""
    count = 0
    for g in _group_corpus(n_max):
        assert_classify_unpruned(g)
        count += 1
    return count


def test_classify_agrees_on_corpus_to_order_128():
    assert classify_agrees_on_corpus(128) == 1221


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=lambda g: g.label)
def test_subgroup_closure_matches_fixpoint(g):
    rng = random.Random(g.order)
    for _ in range(6):
        gens = rng.sample(range(g.order), min(g.order, rng.randint(1, 3)))
        assert (g.subgroup_closure(gens) == ref_closure(g, gens)).all(), gens
    assert (g.subgroup_closure([]) == [0]).all()


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=lambda g: g.label)
def test_frobenius_matches_exhaustive_search(g):
    assert G.frobenius_cyclic_decomposition(g) == ref_frobenius(g)


def ref_sylow_subgroup(g, p):
    """A Sylow p-subgroup by the normalizer step: start from the cyclic
    subgroup of a p-element of highest order and, while P is not Sylow, add
    a p-element outside P that normalizes it.  One exists, since P is a
    proper subgroup of some Sylow S and N_S(P) > P, and <P, x> = P<x> is
    again a p-group.  Asserts that the result is closed, of order p^a."""
    n, t = g.order, g.table
    target = max(p**a for a in range(n.bit_length()) if n % p**a == 0)
    orders = g.orders
    pelems = np.flatnonzero(target % orders == 0)
    pelems = pelems[np.argsort(-orders[pelems], kind="stable")]
    gens = [int(pelems[0])]
    cur = g.cyclic_subgroup(gens[0])
    while cur.size < target:
        inside = np.zeros(n, dtype=bool)
        inside[cur] = True
        cand = pelems[~inside[pelems]]
        # x normalizes P iff x^-1 y x lies in P for each generator y of P
        conj = t[t[g.inv[cand][:, None], gens], cand[:, None]]
        ok = inside[conj].all(axis=1)
        assert ok.any(), "Sylow normalizer step stalled"
        gens.append(int(cand[np.argmax(ok)]))
        cur = g.subgroup_closure(gens)
    assert cur.size == target
    assert np.isin(t[np.ix_(cur, cur)], cur).all()
    return cur


def ref_sylow_shape(g, p):
    """Classify a built Sylow subgroup: GeneralizedQuaternion needs order
    >= 8, a unique involution, and a cyclic index-2 subgroup inverted by an
    order-4 element outside it."""
    elems = ref_sylow_subgroup(g, p)
    size = int(elems.size)
    sub_orders = g.orders[elems]
    if (sub_orders == size).any():
        return G.SylowShape(G.SYLOW_CYCLIC, size)
    if p == 2 and size >= 8 and np.count_nonzero(sub_orders == 2) == 1:
        for c in elems[sub_orders == size // 2].tolist():
            c_sub = set(g.cyclic_subgroup(c).tolist())
            for y in elems[sub_orders == 4].tolist():
                if y not in c_sub and g.mul(g.inverse(y), g.mul(c, y)) == g.inverse(c):
                    return G.SylowShape(G.SYLOW_GENERALIZED_QUATERNION, size)
    return G.SylowShape(G.SYLOW_OTHER, size)


def assert_sylow_shapes_match(g):
    for p in nt.factorize(g.order):
        assert G.sylow_shape(g, p) == ref_sylow_shape(g, p), p


@pytest.mark.parametrize("g", KERNEL_GROUPS, ids=lambda g: g.label)
def test_sylow_subgroup_is_closed_of_full_p_power(g):
    assert_sylow_shapes_match(g)


def _sylow_groups():
    """Groups with a generalized quaternion or a non-cyclic Sylow subgroup, each
    also relabeled, so that the first involution is central in its Sylow
    subgroup in some copies and not in others."""
    specs = ("Q8", "Q32", "X:Q8*C3", "X:Q16*D3", "X:Q16*SD:7,3,2", "X:Q8*Q8", "X:Q8*C2",
             "D4", "S4", "X:Q8*C3*C3")
    base = [G.parse_group_spec(s) for s in specs] + [G.generalized_quaternion(2048)]
    rng = np.random.default_rng(9)
    return base + [G.relabeled(g, np.concatenate([[0], 1 + rng.permutation(g.order - 1)]))
                   for g in base for _ in range(2)]


@pytest.mark.parametrize("g", _sylow_groups(), ids=lambda g: g.label)
def test_sylow_shape_matches_subgroup_reference(g):
    assert_sylow_shapes_match(g)


def closed_permutations(gens):
    """The permutations that gens generate, in breadth-first order from the
    identity, closed by right multiplication by the generators (a*s mapping
    x to a[s[x]])."""
    ident = tuple(range(len(gens[0])))
    elems, index = [ident], {ident: 0}
    for a in elems:  # grows while it is walked
        for s in gens:
            x = tuple(a[i] for i in s)
            if x not in index:
                index[x] = len(elems)
                elems.append(x)
    return elems


def closed_permutation_table(gens):
    """The Cayley table of the group the permutations generate, a*b being
    x -> a(b(x)), with the elements of :func:`closed_permutations` and each
    product looked up by position."""
    elems = closed_permutations(gens)
    index = {x: i for i, x in enumerate(elems)}
    return [[index[tuple(a[i] for i in b)] for b in elems] for a in elems]


def _affine_group(p, matrices, translations):
    """Permutations of F_p^2, point (x, y) numbered p*x + y, of the maps
    v -> Mv and v -> v + t."""
    points = [(x, y) for x in range(p) for y in range(p)]
    gens = [[p * ((a * x + b * y) % p) + (c * x + d * y) % p for x, y in points]
            for (a, b), (c, d) in matrices]
    gens += [[p * ((x + tx) % p) + (y + ty) % p for x, y in points] for tx, ty in translations]
    return gens


def _outside_corpus_generators():
    """Permutation generators of groups the criterion-1 families miss, each
    with the order of the group they generate."""
    inf = 7  # PSL(2,7) on the projective line F_7 + {inf}: x -> x + 1 and x -> -1/x
    psl27 = [[(x + 1) % 7 if x < inf else inf for x in range(8)],
             [inf if x == 0 else 0 if x == inf else (-pow(x, -1, 7)) % 7 for x in range(8)]]
    nonzero = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]

    def on_nonzero(matrices):  # 2x2 matrices over F_3 acting on F_3^2 \ {0}
        return [[nonzero.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in nonzero]
                for (a, b), (c, d) in matrices]

    sl23 = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    return {
        "PSL(2,7)": (psl27, 168),
        "SL(2,3)": (on_nonzero(sl23), 24),
        "GL(2,3)": (on_nonzero(sl23 + [((2, 0), (0, 1))]), 48),
        # (x, y) -> (x + 1, y) and (x, y) -> (x, y + x): exponent 3
        "Heis(3)": (_affine_group(3, [((1, 0), (1, 1))], [(1, 0)]), 27),
        # C_5^2 x| C_3 by (x, y) -> (-y, x - y), which fixes no nonzero point
        "C5^2:C3": (_affine_group(5, [((0, 4), (1, 4))], [(1, 0), (0, 1)]), 75),
        # C_3^2 x| Q_8, Q_8 = <(0 -1; 1 0), (1 1; 1 -1)> in SL(2,3)
        "C3^2:Q8": (_affine_group(3, [((0, 2), (1, 0)), ((1, 1), (1, 2))], [(1, 0), (0, 1)]), 72),
    }


OUTSIDE_CORPUS_GENERATORS = _outside_corpus_generators()


def _outside_corpus_groups():
    """The groups of OUTSIDE_CORPUS_GENERATORS by the breadth-first reference,
    each validated as a table, and a relabeled copy of each."""
    out = {}
    rng = np.random.default_rng(20)
    for label, (gens, order) in OUTSIDE_CORPUS_GENERATORS.items():
        g = G.FiniteGroup(closed_permutation_table(gens), label=label)
        assert g.order == order, label
        perm = np.concatenate([[0], 1 + rng.permutation(order - 1)])
        out[label] = g
        out[label + "~"] = G.FiniteGroup(G.relabeled(g, perm).table, label=label + "~")
    return out


OUTSIDE_CORPUS = _outside_corpus_groups()


@pytest.mark.parametrize("label", list(OUTSIDE_CORPUS_GENERATORS))
def test_perm_closure_matches_breadth_first_reference(label):
    """The closure's table is the reference table with each element renamed
    by the lexicographic rank of its permutation."""
    gens, order = OUTSIDE_CORPUS_GENERATORS[label]
    elems = closed_permutations(gens)
    rank = np.empty(order, dtype=np.int64)
    rank[sorted(range(order), key=elems.__getitem__)] = np.arange(order)
    want = np.empty((order, order), dtype=np.int16)
    want[np.ix_(rank, rank)] = rank[OUTSIDE_CORPUS[label].table]
    got = G._perm_closure(gens)
    assert got.order == order and got.table.dtype == np.int16
    assert got.table.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", OUTSIDE_CORPUS.values(), ids=list(OUTSIDE_CORPUS))
def test_classification_outside_the_corpus_families(g):
    got = [w.witness for w in G.detect_obstructions(g) if w.kind == G.NON_CYCLIC_ABELIAN]
    want = ref_non_cyclic_abelian_witness(g)
    assert got == ([want] if want else [])
    assert G.frobenius_cyclic_decomposition(g) == ref_frobenius(g)
    assert_sylow_shapes_match(g)
    assert_classify_unpruned(g)


def test_order_count_bounds_are_met_at_their_edges():
    """Each bound that lets a count skip a scan is reached exactly by one of
    the groups above, on either side of the scan's answer."""
    g = OUTSIDE_CORPUS["C5^2:C3"]
    assert g.order_counts[5] == 5**2 - 1 and G._rank_two_pair(g, 5) is not None
    g = OUTSIDE_CORPUS["SL(2,3)"]
    assert g.order_counts[3] == 3**2 - 1 and G._rank_two_pair(g, 3) is None
    assert g.order_counts[2] == 1
    assert G.sylow_shape(g, 2) == G.SylowShape(G.SYLOW_GENERALIZED_QUATERNION, 8)
    g = OUTSIDE_CORPUS["PSL(2,7)"]
    assert g.order_counts[7] == 7**2 - 1 and G._rank_two_pair(g, 7) is None
    g = OUTSIDE_CORPUS["C3^2:Q8"]  # nine involutions, none of them commuting
    assert g.order_counts[2] == 9
    assert G.sylow_shape(g, 2) == G.SylowShape(G.SYLOW_GENERALIZED_QUATERNION, 8)


def test_rank_two_scan_needs_q_squared_to_divide_the_order():
    """SD:23,22,20 (order 506 = 2 * 11 * 23) has enough elements of orders 2
    and 11 for the count bound, but neither 4 nor 121 divides 506."""
    g = G.parse_group_spec("SD:23,22,20")
    assert g.order_counts[11] == 230 >= 11**2 - 1 and g.order_counts[2] >= 3
    with mock.patch.object(G, "_rank_two_pair", side_effect=AssertionError("scanned")):
        got = G.classify(g).as_dict()
    assert G.NON_CYCLIC_ABELIAN not in [w["kind"] for w in got["obstructions"]]
    assert got["obstructions"] == [w.as_dict() for w in unpruned_detect_obstructions(g)]
    assert_classify_unpruned(g)


def test_frobenius_partition_count_skips_before_building():
    """C21 passes the kernel count for P = 7, Q = 3, but only 9 of its 21
    elements have order dividing 7 or 3, so no product is taken."""
    g = G.cyclic(21)
    assert [g.order_counts[d] for d in (7, 3, 21)] == [6, 2, 12]
    with mock.patch.object(G.FiniteGroup, "_mul", side_effect=AssertionError("built")):
        assert G.frobenius_cyclic_decomposition(g) is None


@pytest.mark.parametrize("spec", ["SD:7,3,2", "SD:73,8,10", "D15"])
def test_frobenius_partition_count_is_met_at_its_edge(spec):
    g = G.parse_group_spec(spec)
    frob = G.frobenius_cyclic_decomposition(g)
    assert frob is not None and frob == unpruned_frobenius(g) == ref_frobenius(g)
    divs = nt.divisors(g.order)
    assert sum(g.order_counts[d] for d in divs if frob.P % d == 0 or frob.Q % d == 0) == g.order


@pytest.mark.parametrize("spec", ["C2048", "D1024", "SD:1023,2,1022", "SD:241,8,8", "X:C8*D64"])
def test_classify_is_relabeling_invariant_at_the_order_cap(spec):
    g = G.parse_group_spec(spec)
    perm = np.concatenate([[0], 1 + np.random.default_rng(11).permutation(g.order - 1)])
    h = G.FiniteGroup(G.relabeled(g, perm).table, label=spec + "~")  # validated
    base, r = G.classify(g), G.classify(h)
    for key in ("hg_real", "hg_sqrt_minus1", "pd1_candidate", "frobenius_decomposition", "sylow_shapes"):
        assert getattr(r, key) == getattr(base, key), key
    assert [w.kind for w in r.obstructions] == [w.kind for w in base.obstructions]
    assert all(w.verify(h) for w in r.obstructions)
    assert all(w.verify(g) for w in base.obstructions)


def ref_semidirect_table(P, Q, k):
    """The SD:P,Q,k table assembled one j1 row block at a time (a^i1 b^j1
    times a^i2 b^j2 = a^(i1 + kbar^j1 i2) b^(j1 + j2), kbar = k^-1 mod P)."""
    n = P * Q
    ip = np.arange(P, dtype=np.int32)
    kbar = pow(k, -1, P) if P > 1 else 1
    twists = np.outer(np.array([pow(kbar, j, P) for j in range(Q)], dtype=np.int32), ip) % P
    jrow = np.arange(Q, dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    for j1 in range(Q):
        core = (ip[:, None] + twists[j1][None, :]) % P
        jadd = np.repeat(P * ((j1 + jrow) % Q), P)
        table[j1 * P : (j1 + 1) * P, :] = np.tile(core, (1, Q)) + jadd[None, :]
    return table


@pytest.mark.parametrize(
    "P,Q,k",
    [(1, 1, 0), (1, 6, 0), (5, 1, 1), (2, 2, 1), (7, 3, 2), (13, 4, 5), (61, 4, 11),
     (31, 5, 2), (19, 9, 4), (73, 8, 10), (17, 16, 3), (241, 8, 8), (1023, 2, 1022),
     # the largest intermediates: core at P = n, twists near 4*10^6, the longest repeat at P = 2
     (2048, 1, 1), (1024, 2, 1023), (2, 1024, 1),
     # 1 < L < Q distinct row blocks, L the order of k mod P, tiled Q/L times
     (7, 6, 2), (9, 6, 4), (13, 12, 5), (3, 682, 2), (31, 66, 5)],
)
def test_semidirect_table_matches_block_loop(P, Q, k):
    table = G.semidirect_cyclic(P, Q, k).table
    assert table.dtype == np.int16 and table.flags.c_contiguous
    assert np.array_equal(table, ref_semidirect_table(P, Q, k))


@functools.lru_cache(maxsize=1)
def semidirect_triples_above_corpus():
    """Every SD:P,Q,k, 0 <= k < P, with 512 < P*Q <= 2048 whose row blocks
    repeat with a period L < Q, L being the order of k mod P."""
    out = []
    for P in range(1, 1025):
        units = [(k, nt.multiplicative_order_mod(k, P)) for k in range(P) if math.gcd(k, P) == 1]
        for Q in range(512 // P + 1, 2048 // P + 1):
            out += [(P, Q, k) for k, L in units if Q % L == 0 and L < Q]
    return out


def semidirect_tables_agree(count, seed):
    """Assert that count SD tables above the corpus orders, drawn by seed
    from :func:`semidirect_triples_above_corpus`, equal their block-loop
    references; returns how many were checked."""
    triples = semidirect_triples_above_corpus()
    checked = 0
    for i in np.random.default_rng(seed).choice(len(triples), size=count, replace=False):
        P, Q, k = triples[i]
        assert np.array_equal(G.semidirect_cyclic(P, Q, k).table, ref_semidirect_table(P, Q, k)), (P, Q, k)
        checked += 1
    return checked


def test_semidirect_tables_agree_above_the_corpus():
    assert len(semidirect_triples_above_corpus()) == 29083  # 27547 with P > 1
    assert semidirect_tables_agree(40, 0) == 40


@pytest.mark.parametrize("n", [1, 2, 7, 2048])
def test_cyclic_table_matches_outer_sum(n):
    ar = np.arange(n, dtype=np.int64)
    ref = (np.add.outer(ar, ar) % n).astype(np.int16)
    table = G.cyclic(n).table
    assert table.dtype == np.int16 and table.flags.c_contiguous
    assert table.tobytes() == ref.tobytes()


def ref_direct_product(a, b):
    """The A x B table assembled one x1 row block at a time: (x1, y1) times
    (x2, y2) is (x1 x2, y1 y2), and (x, y) is indexed as x*|B| + y."""
    na, nb = a.order, b.order
    table = np.empty((na * nb, na * nb), dtype=np.int32)
    for x1 in range(na):
        block = a.table[x1].astype(np.int32)[:, None] * nb + b.table[:, None, :]  # [y1, x2, y2]
        table[x1 * nb : (x1 + 1) * nb, :] = block.reshape(nb, na * nb)
    return table


@pytest.mark.parametrize("a, b", [("C2", "C1024"), ("C1024", "C2"), ("C1", "C5")])
def test_direct_product_table_matches_block_loop(a, b):
    a, b = G.parse_group_spec(a), G.parse_group_spec(b)
    table = G.direct_product(a, b).table
    assert table.dtype == np.int16 and table.flags.c_contiguous
    assert np.array_equal(table, ref_direct_product(a, b))


def ref_quaternion_table(N):
    """The Q_N table by an int64 formula that shares nothing with the
    dihedral rows :func:`G.generalized_quaternion` copies: with half = N/2,
    x^i1 y^j1 times x^i2 y^j2 is x^(i1 + i2) y^j2 for j1 = 0, and
    x^(i1 - i2 + (N/4 if j2 = 1 else 0)) y^((1 + j2) mod 2) for j1 = 1,
    x^i y^j indexed as i + half*j."""
    half = N // 2
    idx = np.arange(N, dtype=np.int64)
    i1, j1 = (idx % half)[:, None], (idx // half)[:, None]
    i2, j2 = (idx % half)[None, :], (idx // half)[None, :]
    i = np.where(j1 == 0, i1 + i2, i1 - i2 + np.where(j2 == 1, half // 2, 0)) % half
    j = (j1 + j2) % 2
    return i + half * j


@pytest.mark.parametrize("N", [2**k for k in range(3, 12)])
def test_quaternion_table_matches_formula(N):
    table = G.generalized_quaternion(N).table
    assert table.dtype == np.int16 and table.flags.c_contiguous
    assert table.tobytes() == ref_quaternion_table(N).astype(np.int16).tobytes()


@pytest.mark.parametrize("N", [-8, 0, 1, 2, 4, 12, 24, 2047, 4096])
def test_quaternion_orders_off_the_2_powers_to_the_cap_are_refused(N):
    with pytest.raises(G.GroupError, match=rf"2-power in 8\.\.2048, got {N}$"):
        G.generalized_quaternion(N)


def test_quaternion_and_relabeled_tables_are_built_in_int16_at_the_cap():
    """Q2048 is a copy of the int16 dihedral table, and a relabeling gathers
    in int16, so neither traced peak reaches three int16 tables of order
    2048 (24 MiB); built in int64 they peaked at 104 and 40 MiB."""
    rest = list(range(1, 2048))
    random.Random(2048).shuffle(rest)
    perm = np.array([0] + rest)
    g = G.parse_group_spec("X:C2*C1024")
    for build in (lambda: G.generalized_quaternion(2048), lambda: G.relabeled(g, perm)):
        tracemalloc.start()
        try:
            got = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2048 * 2048 * 2, (got.label, peak)
    # the relabeled table scattered in int64: perm[x] * perm[y] = perm[x * y]
    want = np.empty((2048, 2048), dtype=np.int64)
    want[np.ix_(perm, perm)] = perm[g.table]
    assert got.table.tobytes() == want.astype(np.int16).tobytes()


def tables_agree_on_corpus(n_max):
    """Assert that every table of the criterion-1 corpus up to order n_max
    equals its reference; returns how many tables were checked."""
    count = 0
    for g in _group_corpus(n_max):
        label = g.label
        if label.startswith("SD:"):
            want = ref_semidirect_table(*(int(x) for x in label[3:].split(",")))
        elif "x" in label:  # no factor label holds an "x"
            want = ref_direct_product(*(G.parse_group_spec(f) for f in label.split("x")))
        elif label[0] == "D":
            want = ref_semidirect_table(g.order // 2, 2, g.order // 2 - 1)
        elif label[0] == "C":
            want = np.add.outer(np.arange(g.order), np.arange(g.order)) % g.order
        elif label[0] == "S":
            want = ref_perm_group_table(itertools.permutations(range(int(label[1:]))))
        elif label[0] == "A":
            want = ref_alternating_table(int(label[1:]))
        elif label[0] == "Q":
            want = ref_quaternion_table(g.order)
        else:
            raise AssertionError(f"no reference table for {label}")
        assert g.table.dtype == np.int16 and np.array_equal(g.table, want), label
        count += 1
    return count


def test_tables_agree_on_corpus_to_order_128():
    assert tables_agree_on_corpus(128) == 1221


def ref_alternating_table(m):
    """The even permutations (by inversion count) in lexicographic order,
    a * b mapping x to a[b[x]]."""
    perms = [p for p in itertools.permutations(range(m))
             if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms], dtype=np.int16)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_alternating_table_matches_parity_filter(m):
    g = G.alternating(m)
    assert g.label == f"A{m}" and g.table.dtype == np.int16
    assert g.table.tobytes() == ref_alternating_table(m).tobytes()


def ref_perm_group_table(perms):
    """The Cayley table filled one product at a time: sorted permutations,
    a * b mapping x to a[b[x]], looked up in a tuple index."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = index[tuple(pa[x] for x in pb)]
    return table.astype(np.int16)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_symmetric_table_matches_product_loop(m):
    g = G.symmetric(m)
    assert g.label == f"S{m}" and g.table.dtype == np.int16 and g.table.flags.c_contiguous
    assert g.table.tobytes() == ref_perm_group_table(itertools.permutations(range(m))).tobytes()


def test_perm_closure_takes_any_degree():
    """No permutation is ranked by a code, so 16 points and more close as
    15 do (base-16 codes of 16 points would reach 16^16 = 2^64)."""
    for m in (15, 16, 22):
        assert G._perm_closure([tuple(range(m - 1, -1, -1))]).table.tolist() == [[0, 1], [1, 0]]
    # C_2^11 on 22 points: the swaps of 2i and 2i + 1
    swaps = [tuple(x ^ 1 if x // 2 == i else x for x in range(22)) for i in range(11)]
    g = G._perm_closure(swaps)
    assert g.order == 2048
    G.FiniteGroup(g.table)  # validated


# ---------------------------------------------------------------------------
# JSON table files against the reader they replaced

# how the reference refuses a file: JSON errors, missing keys, ragged rows,
# numbers beyond int32
REF_REFUSALS = (ValueError, KeyError, TypeError, OverflowError)


def ref_read_table_file(path):
    """json.load, then np.asarray: how parse_group_spec read a table file
    before it walked the bytes itself, with a strict check added that every
    entry, and the order if given, is a JSON integer."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    table = data["table"]
    if not all(type(x) is int for row in table for x in row):
        raise G.GroupError("table entries must be JSON integers")
    if "order" in data and (type(data["order"]) is not int or len(table) != data["order"]):
        raise G.GroupError("declared order does not match the table size")
    return G.FiniteGroup(table, label=os.path.basename(path), validate=True)


def assert_read_alike(path):
    got, want = G.parse_group_spec(str(path)), ref_read_table_file(str(path))
    assert got.table.dtype == np.int16 and got.table.flags.c_contiguous
    assert np.array_equal(got.table, want.table)
    assert got.label == want.label == path.name


def assert_both_refuse(path):
    with pytest.raises(REF_REFUSALS):
        ref_read_table_file(str(path))
    with pytest.raises(G.GroupError):
        G.parse_group_spec(str(path))


TABLE_SPECS = ("C1", "C2", "C5", "C12", "S3", "Q8", "X:C2*C2", "D5", "A4", "SD:7,3,2")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# labels that look like table syntax, escapes and non-ASCII text
LABELS = st.sampled_from(["table", '"table": [[0]]', "[[", "]]", "]\n]", 'a\\"b\né☃', ""])
JSON_WS = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def group_tables(draw):
    g = G.parse_group_spec(draw(st.sampled_from(TABLE_SPECS)))
    perm = draw(st.permutations(range(1, g.order)))
    return G.relabeled(g, [0, *perm]).table.tolist()


@st.composite
def json_styles(draw):
    return {
        "indent": draw(st.sampled_from([None, 0, 1, 2, "\t"])),
        "separators": draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " : "), (",\r\n", ":\t")])),
        "sort_keys": draw(st.booleans()),
        "ensure_ascii": draw(st.booleans()),
    }


@st.composite
def table_objects(draw):
    """(table, pairs): the keys of a table file in file order, repeats kept.
    The last "table" is the table and the last "order", if any, its size;
    earlier ones are other tables and other integers."""
    table = draw(group_tables())
    keys = ["table"] * draw(st.integers(1, 2)) + ["order"] * draw(st.integers(0, 2))
    keys += draw(st.lists(st.sampled_from(["label", "x", "é", "table_"]) | st.text(max_size=4), max_size=4))
    keys = draw(st.permutations(keys))
    last = {k: i for i, k in enumerate(keys)}
    pairs = []
    for i, key in enumerate(keys):
        if key == "table":
            value = table if i == last[key] else draw(group_tables())
        elif key == "order":
            value = len(table) if i == last[key] else draw(st.integers(0, 50))
        else:
            value = draw(LABELS | JSON_VALUES)
        pairs.append((key, value))
    return table, pairs


def render(pairs, style, table_text=None):
    """The object of pairs, repeats kept, as json.dumps would write each value
    in style; the last "table" value is written as table_text if given."""
    dump = functools.partial(json.dumps, **style)
    item_sep, key_sep = style["separators"]
    last = max((i for i, (k, _) in enumerate(pairs) if k == "table"), default=None)
    items = [
        dump(k) + key_sep + (table_text if i == last and table_text is not None else dump(v))
        for i, (k, v) in enumerate(pairs)
    ]
    return "{" + item_sep.join(items) + "}"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=table_objects(), style=json_styles(), whole=st.booleans(), lead=JSON_WS, trail=JSON_WS)
def test_table_reader_matches_json_loads(tmp_path, obj, style, whole, lead, trail):
    _, pairs = obj
    if whole and len({k for k, _ in pairs}) == len(pairs):
        doc = json.dumps(dict(pairs), **style)
    else:
        doc = render(pairs, style)
    path = tmp_path / "g.json"
    path.write_text(lead + doc + trail, encoding="utf-8")
    assert_read_alike(path)


def _mutate(draw, table, style):
    """The text of table with one defect that JSON or the table shape forbids."""
    dump = functools.partial(json.dumps, **style)
    kind = draw(st.sampled_from([
        "double comma", "leading zero", "negative", "exponent", "fraction", "string",
        "bool", "null", "nested entry", "nested table", "space in number", "digit for bracket",
        "short row", "long row", "moved entry", "extra row", "empty", "empty row", "row comma",
    ]))
    if kind in ("short row", "long row", "moved entry", "extra row", "empty", "empty row"):
        i = draw(st.integers(0, len(table) - 1))
        rows = [list(r) for r in table]
        if kind == "short row":
            rows[i].pop()
        elif kind == "moved entry":  # the same entries in the same order, rows ragged
            if i + 1 < len(rows):
                rows[i + 1].insert(0, rows[i].pop())
            else:
                rows[i].append(0)
        elif kind == "long row":
            rows[i].append(0)
        elif kind == "extra row":
            rows.append(rows[i])
        elif kind == "empty":
            rows = []
        else:
            rows[i] = []
        return dump(rows)
    text = dump(table)
    if kind == "nested table":
        return "[" + text + "]"
    if kind == "row comma":
        return re.sub(r"\][ \t\n\r]*\]", "],]", text, count=1)
    if kind == "digit for bracket":
        i = text.index("[", 1)
        return text[:i] + "5" + text[i + 1:]
    tokens = list(re.finditer(r"\d+", text))
    if kind == "space in number":  # splitting 10 into "1 0" keeps a valid group
        tokens = [m for m in tokens if len(m.group()) > 1] or tokens
    m = tokens[draw(st.integers(0, len(tokens) - 1))]
    t = m.group()
    gap = draw(st.sampled_from([" ", "\n", "\t ", "\r\n"]))
    new = {
        "double comma": t + ",,0", "leading zero": "0" + t, "negative": "-1",
        "exponent": t + "e0", "fraction": t + ".0", "string": json.dumps(t),
        "bool": "true", "null": "null", "nested entry": "[" + t + "]",
        "space in number": t[:1] + gap + (t[1:] or t),
    }[kind]
    return text[: m.start()] + new + text[m.end():]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=table_objects(), style=json_styles(), data=st.data())
def test_table_reader_refuses_what_json_loads_refuses(tmp_path, obj, style, data):
    table, pairs = obj
    where = data.draw(st.sampled_from(["table", "order", "no table", "trailing", "truncated"]))
    if where == "table":
        doc = render(pairs, style, _mutate(data.draw, table, style))
    elif where == "order":
        bad = data.draw(st.sampled_from([str(len(table)), float(len(table)), len(table) + 1, True, None]))
        doc = render(pairs + [("order", bad)], style)
    elif where == "no table":
        doc = render([(k, v) for k, v in pairs if k != "table"], style)
    elif where == "trailing":
        doc = render(pairs, style) + data.draw(st.sampled_from(["x", "0", "{}", "]", ",", '"a"']))
    else:
        doc = render(pairs, style)
        doc = doc[: data.draw(st.integers(0, len(doc) - 1))]
    path = tmp_path / "g.json"
    path.write_text(doc, encoding="utf-8")
    assert_both_refuse(path)


@pytest.mark.parametrize("spec", ["X:C8*D64", "SD:31,30,3", "D256", "SD:61,4,11"])
def test_table_reader_on_benchmark_tables(tmp_path, spec):
    # written as the local-queries workload writes them: orders 1024, 930, 512, 244
    g = G.parse_group_spec(spec)
    perm = np.concatenate([[0], 1 + np.random.default_rng(g.order).permutation(g.order - 1)])
    path = tmp_path / f"t{g.order}.json"
    path.write_text(json.dumps({"order": g.order, "table": G.relabeled(g, perm).table.tolist()}))
    assert_read_alike(path)


def tables_read_alike_on_corpus(n_max):
    """Assert that every group of the criterion-1 corpus up to order n_max,
    relabeled by a seeded permutation fixing 0 and written with json.dumps,
    reads back through parse_group_spec as the same table; returns how many
    tables were checked."""
    rng = np.random.default_rng(0)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        for g in _group_corpus(n_max):
            want = G.relabeled(g, np.concatenate([[0], 1 + rng.permutation(g.order - 1)])).table
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"order": g.order, "table": want.tolist()}))
            got = G.parse_group_spec(path).table
            assert got.dtype == np.int16 and np.array_equal(got, want), g.label
            count += 1
    return count


def test_tables_read_alike_on_corpus_to_order_64():
    assert tables_read_alike_on_corpus(64) == 500


_C12 = json.dumps(G.cyclic(12).table.tolist())


@pytest.mark.parametrize("doc", [
    # each a valid group once whitespace, row brackets or the first "[" are
    # ignored: "1 0" for 10, one entry moved to the next row, "[50," for "[[0,"
    '{"table": ' + _C12.replace("10", "1 0", 1) + "}",
    '{"table": ' + _C12.replace("10", "1\n0", 1) + "}",
    '{"table": [[0, 1], [2, 1, 2, 0], [2, 0, 1]]}',
    '{"table": [50, 1], [1, 0]]}',
    # and once the digits are deleted: this reads "[[,],[,]]", C2's skeleton
    '{"table": [[0,]1,[1,0]]}',
])
def test_table_reader_refuses_defects_that_hide_a_group(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(doc)
    assert_both_refuse(path)


@pytest.mark.parametrize("doc", [
    '{"table": [[0, 1.7], [1.2, 0]]}',
    '{"table": [["0", "1"], ["1", "0"]]}',
    '{"table": [[false, true], [true, false]]}',
    '{"table": [[0, 99999999999999999999], [1, 0]]}',
    '{"table": [[0, 4294967297], [1, 0]]}',
    '{"order": "2", "table": [[0, 1], [1, 0]]}',
    '{"order": 2.0, "table": [[0, 1], [1, 0]]}',
    '{"order": true, "table": [[0]]}',
])
def test_table_reader_refuses_non_integer_tables(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(doc)
    with pytest.raises(G.GroupError):
        G.parse_group_spec(str(path))


def test_table_reader_names_out_of_range_entries(tmp_path):
    # a table numbered from 1 is refused for its range, not its syntax
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": (G.cyclic(10).table + 1).tolist()}))
    with pytest.raises(G.GroupError, match="out of range"):
        G.parse_group_spec(str(path))


def test_table_reader_refuses_deep_nesting(tmp_path):
    # json.load raises RecursionError here, an internal defect at the CLI
    path = tmp_path / "g.json"
    path.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + ', "table": [[0]]}')
    with pytest.raises(G.GroupError):
        G.parse_group_spec(str(path))


# ---------------------------------------------------------------------------
# the two halves that _parse_entries parses on two threads


def _cut(flat):
    """Where _parse_entries cuts the joined entries: just after the first
    comma at or after the middle (0 when there is none)."""
    return flat.find(",", len(flat) // 2) + 1


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("defect", [",,", "1 0"])
def test_defects_beside_the_cut_are_refused(tmp_path, side, defect):
    """One defect in the last token of the left half or the first of the
    right half of C15's entries: an emptied token (",,") or a two-digit
    token split by a space ("1 0"), each refused with no thread left
    running."""
    tokens = [str(x) for x in G.cyclic(15).table.ravel()]
    flat = ",".join(tokens)
    j = flat[: _cut(flat)].count(",")  # the left half holds tokens[:j]
    k = j - 1 if side == "left" else j
    assert len(tokens[k]) == 2
    tokens[k] = "" if defect == ",," else tokens[k][0] + " " + tokens[k][1]
    flat = ",".join(t.replace(" ", "") for t in tokens)
    if defect == ",,":  # the emptied token is on its side of the cut
        assert (k < flat[: _cut(flat)].count(",")) == (side == "left")
    rows = [",".join(tokens[i : i + 15]) for i in range(0, len(tokens), 15)]
    path = tmp_path / "g.json"
    path.write_text('{"table": [[' + "],[".join(rows) + "]]}")
    before = threading.active_count()
    with pytest.raises(G.GroupError, match="must be an array of arrays"):
        G.parse_group_spec(str(path))
    assert threading.active_count() == before


def test_a_fault_in_the_worker_half_reaches_the_caller(tmp_path, monkeypatch):
    # the worker parses the left half: what it raises is raised again after
    # the join, as itself, and no thread is left running
    real = np.fromstring

    def fromstring(data, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("left half")
        return real(data, *args, **kwargs)

    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": G.cyclic(12).table.tolist()}))
    monkeypatch.setattr(np, "fromstring", fromstring)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="left half"):
        G.parse_group_spec(str(path))
    assert threading.active_count() == before


@pytest.mark.parametrize("doc", ['{"table": [[0]]}', '{"table": [[0, 1], [1, 0]]}'])
def test_tables_with_and_without_a_comma_read_alike(tmp_path, doc):
    # [[0]] has no comma to cut at: its left half is empty
    path = tmp_path / "g.json"
    path.write_text(doc)
    assert_read_alike(path)


def test_table_reader_refuses_negative_zero(tmp_path):
    # json.load reads -0 as the int 0; the reader refuses any minus sign
    path = tmp_path / "g.json"
    path.write_text('{"table": [[-0]]}')
    assert ref_read_table_file(str(path)).order == 1
    with pytest.raises(G.GroupError, match="must be an array of arrays"):
        G.parse_group_spec(str(path))
