"""One table of refusals for the number arguments of the library: every
public entry point that takes an integer refuses 7.5, "7" and Fraction(7)
with a ValueError naming the argument, and answers for a numpy integer as
for the int it holds; every rational argument is an int or a Fraction."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from tamegal import covers as cv
from tamegal import groups as G
from tamegal import local_tame as lt
from tamegal import numtheory as nt
from tamegal import padic_oracle as po
from tamegal import prime_strata as ps

COVER = cv.KummerCover(3, 1, 1)
S3, Q8 = G.symmetric(3), G.generalized_quaternion(8)

# (entry point, arguments it answers, {position: argument name})
INTEGER_ENTRIES = [
    (nt.primes_upto, (10,), {0: "limit"}),
    (nt.is_prime, (7,), {0: "n"}),
    (nt.factorize, (12,), {0: "n"}),
    (nt.prime_divisor_count, (12,), {0: "n"}),
    (nt.divisors, (12,), {0: "n"}),
    (nt.is_prime_power, (8,), {0: "n"}),
    (nt.is_squarefree, (6,), {0: "n"}),
    (nt.is_perfect_square, (9,), {0: "n"}),
    (nt.legendre_symbol, (2, 7), {0: "a", 1: "p"}),
    (nt.multiplicative_order_mod, (2, 7), {0: "a", 1: "n"}),
    (nt.p_split, (Fraction(14, 3), 7), {1: "p"}),
    (G.cyclic, (3,), {0: "n"}),
    (G.dihedral, (3,), {0: "n"}),
    (G.symmetric, (3,), {0: "m"}),
    (G.alternating, (4,), {0: "m"}),
    (G.semidirect_cyclic, (7, 3, 2), {0: "P", 1: "Q", 2: "k"}),
    (G.generalized_quaternion, (8,), {0: "order"}),
    (G.sylow_shape, (S3, 3), {1: "p"}),
    (cv.KummerCover, (3, 1, 1), {0: "d", 1: "m"}),
    (cv.predict_specialization, (COVER, 2, 7), {2: "p"}),
    (cv.verify_beckmann, (COVER, 2, 7), {2: "p"}),
    (cv.sample_points, (COVER, 100, 3, 0), {1: "prime_bound", 2: "samples", 3: "seed"}),
    (cv.sweep, (COVER, 100, 3, 0), {1: "prime_bound", 2: "samples", 3: "seed"}),
    (po.kummer_local_invariants, (7, 3, 1, 2), {0: "p", 1: "d", 2: "v", 3: "w"}),
    (lt.LocalExtensionSpec, (7, 3, 1), {0: "p", 1: "e", 2: "f"}),
    (lt.cyclic_tame_exists, (7, 6, 3), {0: "q", 1: "d", 2: "e"}),
    (lt.enumerate_tame_pairs, (Q8, 7), {1: "q"}),
    (ps.stratum_of, (7, 9), {0: "p", 1: "d"}),
    (ps.predicted_stratum_density, (9, 3), {0: "d", 1: "e"}),
    (ps.enumerate_stratum, (9, 3, 100), {0: "d", 1: "e", 2: "bound"}),
    (ps.lemma32_prime_set, (3, 7, 100), {0: "q", 1: "r", 2: "bound"}),
    (ps.biquadratic_split, (2, 5, 7), {0: "a", 1: "b", 2: "p"}),
]

# the refusals of a range check that states its own rule; each still names its argument
RANGE_MESSAGES = {
    (cv.KummerCover, "d"): "degree d must be an integer at least 2, got {bad!r}",
    (cv.KummerCover, "m"): "exponent m must be a positive integer, got {bad!r}",
    (lt.LocalExtensionSpec, "e"): "e and f must be positive integers, got e={bad!r}, f=1",
    (lt.LocalExtensionSpec, "f"): "e and f must be positive integers, got e=3, f={bad!r}",
}

INTEGER_CASES = [
    pytest.param(entry, args, i, name, id=f"{entry.__name__}-{name}")
    for entry, args, names in INTEGER_ENTRIES
    for i, name in names.items()
]


def _with(args, i, x):
    return (*args[:i], x, *args[i + 1 :])


def _plain(x):
    """x as plain data: a group as its label and table, a report through its
    JSON, and anything else with its type, so a numpy value kept in a result
    shows as a difference."""
    if isinstance(x, G.FiniteGroup):
        return x.label, x.table.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    if isinstance(x, cv.KummerCover):
        return _plain((x.d, x.m, x.c, x.exceptional_primes_divide()))
    if hasattr(x, "as_dict"):
        return json.dumps(x.as_dict(), sort_keys=True)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return json.dumps(x, sort_keys=True)
    return x, type(x)


@pytest.mark.parametrize("bad", [7.5, "7", Fraction(7)], ids=repr)
@pytest.mark.parametrize("entry, args, i, name", INTEGER_CASES)
def test_a_non_integer_is_refused_naming_its_argument(entry, args, i, name, bad):
    message = RANGE_MESSAGES.get((entry, name), "{name} must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(name=name, bad=bad))}$"):
        entry(*_with(args, i, bad))


@pytest.mark.parametrize("entry, args, i, name", INTEGER_CASES)
def test_a_numpy_integer_answers_as_the_int_it_holds(entry, args, i, name):
    assert _plain(entry(*_with(args, i, np.int64(args[i])))) == _plain(entry(*args))


# (entry point, arguments it answers, position of the rational argument, its name)
RATIONAL_ENTRIES = [
    (cv.predict_specialization, (COVER, Fraction(2, 7), 7), 1, "t0"),
    (cv.verify_beckmann, (COVER, Fraction(2, 7), 7), 1, "t0"),
    (cv.KummerCover, (3, 1, Fraction(5, 7)), 2, "c"),
    (lt.c4_embeddable_quadratic, (Fraction(5, 7),), 0, "a"),
    (nt.is_rational_square, (Fraction(9, 16),), 0, "x"),
]


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", np.int64(3), True, None], ids=repr)
@pytest.mark.parametrize(
    "entry, args, i, name", RATIONAL_ENTRIES, ids=[f"{e.__name__}-{n}" for e, _, _, n in RATIONAL_ENTRIES]
)
def test_a_rational_is_an_int_or_a_fraction(entry, args, i, name, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an int or a Fraction, got {bad!r}')}$"):
        entry(*_with(args, i, bad))
    assert _plain(entry(*_with(args, i, 3))) == _plain(entry(*_with(args, i, Fraction(3))))


def test_odd_prime_callers_keep_refusing_two_and_read_a_bool_as_an_int():
    for call in (lambda: ps.stratum_of(2, 9), lambda: ps.biquadratic_split(3, 5, 2)):
        with pytest.raises(ValueError, match="^p must be an odd prime, got 2$"):
            call()
    with pytest.raises(ValueError, match="^q = 2 rejected"):
        ps.lemma32_prime_set(2, 7, 100)
    for entry, args in ((ps.stratum_of, (True, 9)), (po.kummer_local_invariants, (True, 3, 1, 1))):
        with pytest.raises(ValueError, match="^True is not prime$"):
            entry(*args)
    assert nt.factorize(True) == {} and nt.multiplicative_order_mod(True, 7) == 1


def test_objects_built_from_numpy_integers_store_the_ints_read():
    covers = (cv.KummerCover(3, 1, 1), cv.KummerCover(np.int64(3), np.int32(1), 1))
    runs = [cv.sweep(c, 100, 20, 0) for c in covers]
    lines = [[r.to_json_line() for r in reports] + [json.dumps(summary)] for reports, summary in runs]
    assert lines[0] == lines[1] and len(lines[0]) == 21
    assert len({cv.verify_beckmann(c, 2, 7).to_json_line() for c in covers}) == 1
    specs = (lt.LocalExtensionSpec(7, 3, 1), lt.LocalExtensionSpec(np.int64(7), np.int64(3), np.uint8(1)))
    assert len({json.dumps(s.as_dict()) for s in specs}) == 1
    assert len({json.dumps(lt.grunwald_feasible(S3, [s]).as_dict()) for s in specs}) == 1
    stored = [(c.d, c.m, c.c) for c in covers] + [(s.p, s.e, s.f) for s in specs]
    assert {type(x) for x in sum(stored, ())} == {int, Fraction}
    assert {type(c.c) for c in covers} == {Fraction}
