import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamegal import groups as G
from tamegal import numtheory as nt

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
    assert not g.is_abelian
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


def test_parse_group_spec():
    assert G.parse_group_spec("C6").order == 6
    assert G.parse_group_spec("D4").order == 8
    assert G.parse_group_spec("Q16").order == 16
    assert G.parse_group_spec("S4").order == 24
    assert G.parse_group_spec("A5").order == 60
    assert G.parse_group_spec("SD:7,3,2").order == 21
    x = G.parse_group_spec("X:C2*C2*C2")
    assert x.order == 8 and x.max_order == 2
    for bad in ("", "C", "Zoo", "Q12", "S9", "SD:4,2", "X:C2"):
        with pytest.raises(G.GroupError):
            G.parse_group_spec(bad)


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
    ar, e = np.arange(g.order), g.exponent
    for m in (0, 1, 2, e - 1, e, e + 1, 3 * e + 5, 1009):
        assert (g.powers(m) == pow_table[m % orders, ar]).all(), m
    elems = ar[::3]
    assert (g.powers(7, elems) == pow_table[7 % orders[elems], elems]).all()
    assert all(g.power(x, -2) == pow_table[-2 % orders[x], x] for x in elems.tolist())


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
    target = p ** nt.valuation(n, p)
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
     (31, 5, 2), (19, 9, 4), (73, 8, 10), (17, 16, 3), (241, 8, 8), (1023, 2, 1022)],
)
def test_semidirect_table_matches_block_loop(P, Q, k):
    table = G.semidirect_cyclic(P, Q, k).table
    assert table.dtype == np.int32
    assert np.array_equal(table, ref_semidirect_table(P, Q, k))


@pytest.mark.parametrize("n", [1, 2, 7, 2048])
def test_cyclic_table_matches_outer_sum(n):
    ar = np.arange(n, dtype=np.int64)
    ref = (np.add.outer(ar, ar) % n).astype(np.int32)
    table = G.cyclic(n).table
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert table.tobytes() == ref.tobytes()


def ref_alternating_table(m):
    """The even permutations (by inversion count) in lexicographic order,
    a * b mapping x to a[b[x]]."""
    perms = [p for p in itertools.permutations(range(m))
             if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms], dtype=np.int32)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_alternating_table_matches_parity_filter(m):
    g = G.alternating(m)
    assert g.label == f"A{m}" and g.table.dtype == np.int32
    assert g.table.tobytes() == ref_alternating_table(m).tobytes()


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
    assert got.table.dtype == np.int32 and got.table.flags.c_contiguous
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


_C12 = json.dumps(G.cyclic(12).table.tolist())


@pytest.mark.parametrize("doc", [
    # each a valid group once whitespace, row brackets or the first "[" are
    # ignored: "1 0" for 10, one entry moved to the next row, "[50," for "[[0,"
    '{"table": ' + _C12.replace("10", "1 0", 1) + "}",
    '{"table": ' + _C12.replace("10", "1\n0", 1) + "}",
    '{"table": [[0, 1], [2, 1, 2, 0], [2, 0, 1]]}',
    '{"table": [50, 1], [1, 0]]}',
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
