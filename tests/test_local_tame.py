import dataclasses
import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamegal import groups as G
from tamegal import local_tame as lt
from tamegal import numtheory as nt


# ---------------------------------------------------------------------------
# independent oracles


def cyclic_exists_by_epimorphism_search(q, d, e):
    """Surjections Z/(q-1) x Z/d -> Z/d sending the first factor onto the
    subgroup of order e, by enumerating generator images."""
    for a in range(d):
        if (q - 1) * a % d:
            continue  # not well defined on Z/(q-1)
        if d // math.gcd(d, a) != e:
            continue  # image of the first factor is not the order-e subgroup
        for b in range(d):
            if math.gcd(math.gcd(a, b), d) == 1:
                return True
    return False


def naive_tame_pairs(table, q):
    """Scalar re-derivation of the generating tame pairs of a Cayley table."""
    n = len(table)

    def order(x):
        c, m = x, 1
        while c != 0:
            c = table[c][x]
            m += 1
        return m

    def inv(x):
        return next(y for y in range(n) if table[x][y] == 0)

    def power(x, m):
        c = 0
        for _ in range(m % order(x)):
            c = table[c][x]
        return c

    def closure(a, b):
        cur = {0, a, b}
        while True:
            new = {table[x][y] for x in cur for y in cur}
            if new <= cur:
                return cur
            cur |= new

    out = set()
    for s in range(n):
        for t in range(n):
            if math.gcd(order(t), q) != 1:
                continue
            if table[table[inv(s)][t]][s] != power(t, q):
                continue
            if len(closure(s, t)) == n:
                out.add((s, t))
    return out


def closure_tame_pairs(g, q):
    """The closure-based enumeration that the product-formula search replaced:
    (sigma, tau, |<sigma, tau>|) for every generating tame pair, in order."""
    orders = g.orders
    tau_ok = np.array([math.gcd(int(o), q) == 1 for o in orders])
    relation = g.conj == g.powers(q)[None, :]
    closure_cache = {}
    out = []
    for sigma, tau in np.argwhere(relation & tau_ok[None, :]):
        key = frozenset((int(sigma), int(tau)))
        size = closure_cache.get(key)
        if size is None:
            size = int(g.subgroup_closure([sigma, tau]).size)
            closure_cache[key] = size
        if size == g.order:
            out.append((int(sigma), int(tau), size))
    return out


def ref_subgroup(g, elems):
    """The subgroup of g on the given (closed) element set, reindexed."""
    el = np.unique(np.asarray(list(elems), dtype=np.int64))
    sub = g.table[np.ix_(el, el)]
    if not np.isin(sub, el).all():
        raise G.GroupError("element set is not closed under multiplication")
    table = np.searchsorted(el, sub)
    return G.FiniteGroup(table, label=f"{g.label}|sub{len(el)}", validate=False)


def closure_problem_feasible(g, spec):
    """The closure-based per-prime feasibility that the product-formula
    search replaced."""
    n = g.order
    total = spec.e * spec.f
    if total > n or n % total:
        return False
    conj = g.conj
    for tau in np.flatnonzero(g.orders == spec.e).tolist():
        target = g.power(tau, spec.p)
        for sigma in np.flatnonzero(conj[:, tau] == target).tolist():
            d = g.subgroup_closure([sigma, tau])
            if d.size != total:
                continue
            if spec.group_spec is not None and not G.is_isomorphic(
                ref_subgroup(g, d), spec.group_spec
            ):
                continue
            return True
    return False


# ---------------------------------------------------------------------------


def test_cyclic_tame_exists_examples():
    assert lt.cyclic_tame_exists(7, 6, 6) is True
    assert lt.cyclic_tame_exists(7, 4, 4) is False
    for q, d in ((5, 4), (11, 9), (13, 36)):
        assert lt.cyclic_tame_exists(q, d, 1) is True
    with pytest.raises(ValueError):
        lt.cyclic_tame_exists(7, 6, 4)  # e does not divide d
    with pytest.raises(ValueError):
        lt.cyclic_tame_exists(7, 14, 7)  # wild
    with pytest.raises(ValueError):
        lt.cyclic_tame_exists(6, 5, 5)  # q not prime


def test_degrees_below_one_are_refused_by_name():
    # 1 divides 0, so the refusal must name d, not e
    for d, e in ((0, 1), (-6, 2), (-1, 1)):
        with pytest.raises(ValueError, match=f"d={d} must be at least 1"):
            lt.cyclic_tame_exists(3, d, e)


def test_cyclic_tame_exists_matches_epimorphism_search_smoke():
    for q in (3, 5, 7, 11, 13):
        for d in range(1, 13):
            if math.gcd(d, q) != 1:
                continue
            for e in nt.divisors(d):
                assert lt.cyclic_tame_exists(q, d, e) == cyclic_exists_by_epimorphism_search(
                    q, d, e
                ), (q, d, e)


def test_tame_pairs_q8():
    q8 = G.generalized_quaternion(8)
    pairs = lt.enumerate_tame_pairs(q8, 3)
    assert pairs
    assert all(p.verify() for p in pairs)
    assert {p.inertia_order for p in pairs} == {4}
    assert {p.residue_degree for p in pairs} == {2}
    assert lt.enumerate_tame_pairs(q8, 5) == []
    assert lt.enumerate_tame_pairs(q8, 13) == []  # 13 = 1 mod 4
    assert lt.enumerate_tame_pairs(q8, 7) != []   # 7 = 3 mod 4
    assert lt.enumerate_tame_pairs(q8, np.int64(7)) == lt.enumerate_tame_pairs(q8, 7)
    for q in (7.0, Fraction(7), "7"):
        with pytest.raises(ValueError, match=f"^q must be an integer, got {re.escape(repr(q))}$"):
            lt.enumerate_tame_pairs(q8, q)


def test_tame_pair_verify_refuses_indices_outside_the_group():
    g = G.parse_group_spec("SD:7,3,2")
    assert lt.TamePair(g, 7, 1, 2).verify()
    # numpy would wrap -14 to 7 and -20 to 1; 21 and 28 are past the end
    for sigma, tau in ((-14, 1), (7, -20), (21, 1), (7, 22), (28, -1)):
        assert lt.TamePair(g, sigma, tau, 2).verify() is False, (sigma, tau)


@pytest.mark.parametrize(
    "spec,q",
    [("S3", 5), ("S3", 7), ("C6", 7), ("D4", 3), ("Q8", 3), ("Q8", 5), ("C5", 11)],
)
def test_tame_pairs_match_naive_search(spec, q):
    g = G.parse_group_spec(spec)
    got = {(p.sigma, p.tau) for p in lt.enumerate_tame_pairs(g, q)}
    want = naive_tame_pairs(g.table.tolist(), q)
    assert got == want


def test_tame_pairs_cyclic_commuting_count():
    # q = 7 = 1 mod 6: the relation degenerates to commutativity, so the
    # pairs are exactly the generating pairs of C6: lcm(ord s, ord t) = 6
    c6 = G.cyclic(6)
    pairs = lt.enumerate_tame_pairs(c6, 7)
    orders = [c6.element_order(x) for x in range(6)]
    expected = sum(
        1
        for s in range(6)
        for t in range(6)
        if math.lcm(orders[s], orders[t]) == 6
    )
    assert len(pairs) == expected


def test_tame_pairs_depend_on_q_mod_exponent():
    for spec, qs in (("S3", (5, 11, 17)), ("Q8", (3, 7, 11)), ("C6", (7, 13))):
        g = G.parse_group_spec(spec)
        exponent = int(np.lcm.reduce(g.orders))
        base = {(p.sigma, p.tau) for p in lt.enumerate_tame_pairs(g, qs[0])}
        for q in qs[1:]:
            assert q % exponent == qs[0] % exponent
            assert {(p.sigma, p.tau) for p in lt.enumerate_tame_pairs(g, q)} == base


def test_abelian_inertia_divides_q_minus_1():
    for n, q in ((6, 7), (6, 5), (8, 5), (12, 13), (9, 7)):
        g = G.cyclic(n)
        for pair in lt.enumerate_tame_pairs(g, q):
            e = pair.inertia_order
            assert (q - 1) % e == 0
            assert lt.cyclic_tame_exists(q, n, e)


def test_grunwald_examples():
    s3 = G.symmetric(3)
    rep = lt.grunwald_feasible(
        s3,
        [
            lt.LocalExtensionSpec(7, 3, 1),
            lt.LocalExtensionSpec(11, 1, 2),
            lt.LocalExtensionSpec(5, 3, 2),
        ],
    )
    assert rep.feasible == [True, True, True]
    assert rep.all_feasible

    c4 = G.cyclic(4)
    assert lt.grunwald_feasible(c4, [lt.LocalExtensionSpec(7, 4, 1)]).feasible == [False]
    assert lt.grunwald_feasible(c4, [lt.LocalExtensionSpec(5, 4, 1)]).feasible == [True]
    mixed = lt.grunwald_feasible(
        c4, [lt.LocalExtensionSpec(5, 4, 1), lt.LocalExtensionSpec(7, 4, 1)]
    )
    assert mixed.feasible == [True, False]
    assert not mixed.all_feasible


def test_grunwald_infeasible_when_no_subgroup_fits():
    s3 = G.symmetric(3)
    # S3 has no order-4 subgroup and no order-6 cyclic decomposition group
    assert lt.grunwald_feasible(s3, [lt.LocalExtensionSpec(5, 2, 2)]).feasible == [False]
    assert lt.grunwald_feasible(s3, [lt.LocalExtensionSpec(7, 6, 1)]).feasible == [False]


def test_grunwald_wild_rejected():
    # a wild spec raises when it is built, before grunwald_feasible sees it
    with pytest.raises(lt.WildRamificationError, match="p=2 divides e=4"):
        lt.LocalExtensionSpec(2, 4, 1)
    for p, e, f in ((4, 3, 1), (1, 1, 1), (5, 0, 1), (5, 1, 0)):
        with pytest.raises(ValueError, match="not prime|must be positive"):
            lt.LocalExtensionSpec(p, e, f)
    # a float or a bool is refused by name when built, not deep in grunwald_feasible;
    # p is read by numtheory.as_int, so anything but an integer is refused as p
    for p in (7.9, 7.0, Fraction(7), "7"):
        with pytest.raises(ValueError, match=f"^p must be an integer, got {re.escape(repr(p))}$"):
            lt.LocalExtensionSpec(p, 3, 1)
    with pytest.raises(ValueError, match="^True is not prime$"):
        lt.LocalExtensionSpec(True, 1, 1)
    for p, e, f in ((7, 3.0, 1), (7, True, 1), (7, 3, 1.5)):
        with pytest.raises(ValueError, match="^e and f must be positive integers, got"):
            lt.LocalExtensionSpec(p, e, f)
    assert lt.LocalExtensionSpec(np.int64(7), 3, 1).as_dict()["p"] == 7


def test_local_spec_is_frozen():
    # a checked spec cannot be made wild afterwards
    spec = lt.LocalExtensionSpec(5, 4, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.p = 2
    assert lt.grunwald_feasible(G.cyclic(4), [spec]).feasible == [True]


def test_grunwald_with_group_constraint():
    s3 = G.symmetric(3)
    spec_match = lt.parse_local_spec("p=5,e=3,f=2,D=S3")
    assert lt.grunwald_feasible(s3, [spec_match]).feasible == [True]
    spec_mismatch = lt.parse_local_spec("p=5,e=3,f=2,D=C6")
    assert lt.grunwald_feasible(s3, [spec_mismatch]).feasible == [False]
    # the decomposition group for (7, 3, 1) inside S3 is the cyclic cubic
    assert lt.grunwald_feasible(s3, [lt.parse_local_spec("p=7,e=3,f=1,D=C3")]).feasible == [True]
    assert lt.grunwald_feasible(s3, [lt.parse_local_spec("p=7,e=3,f=1,D=S3")]).feasible == [False]


def test_tame_pairs_at_residue_characteristic_two():
    # q = 2 is a perfectly good tame residue cardinality for odd inertia
    s3 = G.symmetric(3)
    pairs = lt.enumerate_tame_pairs(s3, 2)
    assert pairs and all(p.verify() for p in pairs)
    assert {p.inertia_order for p in pairs} == {3}
    got = {(p.sigma, p.tau) for p in pairs}
    assert got == naive_tame_pairs(s3.table.tolist(), 2)


def test_local_spec_parsing_and_batch(tmp_path):
    spec = lt.parse_local_spec("p=7,e=3,f=1")
    assert (spec.p, spec.e, spec.f, spec.group_spec) == (7, 3, 1, None)
    spec = lt.parse_local_spec("p=5,e=3,f=2,D=SD:7,3,2")
    assert spec.group_spec.order == 21
    # whitespace before D and around its "=" as around p, e and f
    for text in ("p=3, e=13, f=3, D=SD:13,3,9", "p=3,e=13,f=3,  D = SD:13,3,9 ", "p = 3 ,e=13,f=3,D =SD:13,3,9"):
        spec = lt.parse_local_spec(text)
        assert (spec.p, spec.e, spec.f, spec.group_spec.label) == (3, 13, 3, "SD:13,3,9"), text
    for bad in ("p=3, e=13, f=3, D", "p=3, e=13, f=3, D="):
        with pytest.raises(ValueError):
            lt.parse_local_spec(bad)
    with pytest.raises(ValueError):
        lt.parse_local_spec("p=7,e=3")
    with pytest.raises(lt.WildRamificationError):
        lt.parse_local_spec("p=3,e=3,f=1")

    path = tmp_path / "batch.json"
    path.write_text(json.dumps(["p=7,e=3,f=1", {"p": 11, "e": 1, "f": 2}]))
    batch = lt.load_local_spec_batch(str(path))
    assert [(s.p, s.e, s.f) for s in batch] == [(7, 3, 1), (11, 1, 2)]


def test_local_spec_positional_form(tmp_path):
    # "p,e,f" is accepted wherever a local spec string is, batch files included
    assert lt.parse_local_spec(" 7, 3,1") == lt.parse_local_spec("p=7,e=3,f=1")
    for bad in ("7,3", "7,3,1,2", "7,x,1"):
        with pytest.raises(ValueError):
            lt.parse_local_spec(bad)
    with pytest.raises(lt.WildRamificationError):
        lt.parse_local_spec("3,3,1")
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(["11,1,2", {"p": 5, "e": 3, "f": 2, "D": "S3"}]))
    batch = lt.load_local_spec_batch(str(path))
    assert [(s.p, s.e, s.f) for s in batch] == [(11, 1, 2), (5, 3, 2)]
    assert batch[1].group_spec.order == 6


_SPECS = [(7, 3, 1, None), (5, 3, 2, "S3"), (3, 13, 3, "SD:13,3,9"), (11, 1, 2, "C2"), (13, 4, 1, None)]
_SPACE = st.text(alphabet=" \t", max_size=2)


@st.composite
def keyed_local_specs(draw):
    """(spec, fields): a keyed local spec string, p, e and f in a drawn order
    with D last, whitespace drawn around every key and value, and its
    (key, value) fields in that order."""
    p, e, f, group = draw(st.sampled_from(_SPECS))
    fields = draw(st.permutations([("p", p), ("e", e), ("f", f)]))
    if group is not None:
        fields.append(("D", group))
    def pad():
        return draw(_SPACE)

    text = ",".join(f"{pad()}{k}{pad()}={pad()}{v}{pad()}" for k, v in fields)
    return (p, e, f, group), fields, text


@settings(max_examples=150, deadline=None)
@given(drawn=keyed_local_specs())
def test_keyed_local_specs_read_alike_in_any_order_and_spacing(drawn):
    (p, e, f, group), _, text = drawn
    want = {"p": p, "e": e, "f": f, "D": group and G.parse_group_spec(group).label}
    assert lt.parse_local_spec(text).as_dict() == want, text


@settings(max_examples=200, deadline=None)
@given(drawn=keyed_local_specs(), fault=st.sampled_from(["extra", "repeat", "drop", "comma"]),
       extra=st.sampled_from(["d", "P", "x", "q", "E", "", "pe"]), data=st.data())
def test_keyed_local_specs_with_a_wrong_key_or_a_trailing_comma_are_refused(drawn, fault, extra, data):
    _, fields, _ = drawn
    base = [f"{k}={v}" for k, v in fields if k != "D"]
    tail = [f"D={v}" for k, v in fields if k == "D"]
    i = data.draw(st.integers(0, len(base)))
    if fault == "extra":
        base.insert(i, f"{extra}=1")
    elif fault == "repeat":
        base.insert(i, data.draw(st.sampled_from(base)))
    elif fault == "drop":
        del base[data.draw(st.integers(0, len(base) - 1))]
    text = ",".join(base + tail) + ("," if fault == "comma" else "")
    with pytest.raises(ValueError):
        lt.parse_local_spec(text)


# C2048 has 2048 pairs at q = 3 and 4096 at q = 5
PAIR_GROUPS = [
    ("C2048", (3, 5)),
    ("D1021", (3, 2)),
    ("X:C8*C16", (17, 3)),
    ("SD:31,5,2", (2, 47, 3)),
    ("Q8", (3, 5, 7)),
    ("A4", (2, 5)),
    ("S3", (2, 5, 7)),
    ("S4", (5, 7)),
    ("D13", (103, 5)),
    ("Q16", (3, 7)),
    ("SD:7,3,2", (2, 11)),
    ("X:C2*C2", (3, 5)),
]


@pytest.mark.parametrize("spec,qs", PAIR_GROUPS)
def test_tame_pairs_match_closure_reference(spec, qs):
    g = G.parse_group_spec(spec)
    for q in qs:
        pairs = lt.enumerate_tame_pairs(g, q)
        want = closure_tame_pairs(g, q)
        assert [(p.sigma, p.tau) for p in pairs] == [(s, t) for s, t, _ in want], (spec, q)
        for pair, (_, tau, size) in zip(pairs, want):
            assert pair.residue_degree * g.element_order(tau) == size


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "A4", "SD:7,3,2", "S4", "X:C4*C4", "Q16"])
def test_residue_degree_matches_closure_on_non_generating_pairs(spec):
    # every (sigma, tau) under the relation, most of which generate a proper
    # subgroup H: such a pair is no tame pair of G, but it is one of H
    g = G.parse_group_spec(spec)
    for q in (2, 3, 5, 7):
        for sigma, tau in np.argwhere(g.conj == g.powers(q)[None, :]).tolist():
            closure = g.subgroup_closure([sigma, tau])
            pair = lt.TamePair(group=g, sigma=sigma, tau=tau, q=q)
            assert pair.verify() == (closure.size == g.order), (spec, q, sigma, tau)
            if closure.size == g.order:
                continue
            s, t = np.searchsorted(closure, [sigma, tau]).tolist()
            pair = lt.TamePair(group=ref_subgroup(g, closure), sigma=s, tau=t, q=q)
            assert pair.verify(), (spec, q, sigma, tau)
            assert pair.residue_degree * pair.inertia_order == closure.size


GRUNWALD_GROUPS = ["S3", "D7", "Q8", "D4", "X:C4*C2", "A4", "SD:7,3,2", "SD:13,3,3", "X:C2*C2"]

# Q8, D4, C4 x C2 and C8 have equal orders and are pairwise non-isomorphic, as
# are SD:13,3,3 and C39; SD:13,3,9 is isomorphic to SD:13,3,3, with its pairs
# at q = 3 in another exponent a of sigma^f = tau^a.
DECOMPOSITION_GROUPS = ["Q8", "D4", "X:C4*C2", "C8", "SD:13,3,3", "SD:13,3,9", "C39"]


def _decomposition_candidates(m):
    specs = {f"C{m}"} | ({f"D{m // 2}"} if m % 2 == 0 and m >= 4 else set())
    specs |= {s for s in GRUNWALD_GROUPS + DECOMPOSITION_GROUPS if G.parse_group_spec(s).order == m}
    out = []
    for spec in sorted(specs):
        h = G.parse_group_spec(spec)
        out += [h, _relabeled(h)]
    return out


def _relabeled(h):
    """h with its non-identity elements shuffled, seeded by its order."""
    rest = list(range(1, h.order))
    random.Random(h.order).shuffle(rest)
    return G.relabeled(h, [0] + rest)


@pytest.mark.parametrize("spec", GRUNWALD_GROUPS)
def test_grunwald_matches_closure_reference(spec):
    g = G.parse_group_spec(spec)
    problems = []
    for p in nt.primes_upto(29).tolist():
        for m in nt.divisors(g.order):
            for e in nt.divisors(m):
                if e % p == 0:
                    continue
                problems.append(lt.LocalExtensionSpec(p, e, m // e))
                problems += [
                    lt.LocalExtensionSpec(p, e, m // e, d) for d in _decomposition_candidates(m)
                ]
    rep = lt.grunwald_feasible(g, problems)
    assert rep.feasible == [closure_problem_feasible(g, s) for s in problems]
    assert any(rep.feasible) and not all(rep.feasible)


@pytest.mark.parametrize("spec,at", [
    ("C2048", (2, 1, 2048)),
    ("SD:241,8,8", (1213, 241, 8)),
    ("SD:127,14,2", (2, 127, 14)),
    ("SD:1021,2,1020", (8167, 1021, 2)),
    ("SD:97,16,8", (79, 97, 16)),
    ("SD:31,30,3", (3, 31, 30)),
])
def test_grunwald_whole_group_as_decomposition_group(spec, at):
    # an isomorphism search took 3-15 s on each of these
    g = G.parse_group_spec(spec)
    start = time.perf_counter()
    rep = lt.grunwald_feasible(g, [lt.LocalExtensionSpec(*at, _relabeled(g))])
    assert rep.feasible == [True]
    assert time.perf_counter() - start < 5


# sum-of-two-squares criterion


def sum_two_squares_bruteforce(a: Fraction) -> bool:
    """a = n/d is a sum of two rational squares iff n*d is a sum of two
    integer squares (scale by d^2); decided by direct enumeration."""
    n = a.numerator * a.denominator
    if n < 0:
        return False
    x = 0
    while x * x <= n:
        if nt.is_perfect_square(n - x * x):
            return True
        x += 1
    return False


def test_c4_embeddable_examples():
    assert lt.c4_embeddable_quadratic(13) is True  # 4 + 9
    assert lt.c4_embeddable_quadratic(-1) is False
    assert lt.c4_embeddable_quadratic(3) is False
    assert lt.c4_embeddable_quadratic(Fraction(9, 16)) is True  # degenerate square
    assert lt.is_rational_square(Fraction(9, 16))
    with pytest.raises(ValueError):
        lt.c4_embeddable_quadratic(0)


def test_c4_embeddable_matches_bruteforce_smoke():
    for num in range(-20, 21):
        for den in range(1, 21):
            if num == 0:
                continue
            a = Fraction(num, den)
            assert lt.c4_embeddable_quadratic(a) == sum_two_squares_bruteforce(a), a
