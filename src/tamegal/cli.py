"""Command-line front end.

Every command prints a single JSON report object (sorted keys, no timestamps)
so that identical inputs and seed produce byte-identical output; sweeps stream
one JSON line per specialization report before the summary.  A report's
"inputs" are every argument of its command except --csv, --quiet and --seed
(the seed is a field of the report).  Under --csv, obstructions, tame-pairs,
grunwald, strata and lemma32-set print CSV rows in place of the report,
verify-beckmann prints a CSV row per sample before its summary, and the other
commands print their report.  The seeded generator is CPython's random.Random
(MT19937), which is stable across platforms.  Every integer, in an argument
or inside a spec, is ASCII digits with an optional leading "-" and at most
4300 digits, surrounding whitespace ignored: "+2", "1_0" and "٣" are refused.
Every rational (c, --t0, sum-two-squares) is a, a/b or a decimal in the same
digits; "+2", "1e+3" and "3/-4" are refused there too.
A key=value spec (a cover, or local data p=..,e=..,f=..[,D=..] with D last)
names each of its keys once, in any order: an unknown, repeated or missing
key exits 1.  Exit codes: 0 success / all
checks agree, 1 usage error, 2 verification failure, 3 internal defect
(traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import __version__
from .covers import SAMPLE_CAP, parse_cover_spec, predict_specialization, sweep
from .groups import classify, detect_obstructions, parse_group_spec
from .local_tame import (
    c4_embeddable_quadratic,
    cyclic_tame_exists,
    enumerate_tame_pairs,
    grunwald_feasible,
    load_local_spec_batch,
    parse_local_spec,
)
from .numtheory import SIEVE_CAP, is_rational_square, parse_int, parse_rational
from .padic_oracle import kummer_local_invariants
from .prime_strata import biquadratic_split, enumerate_stratum, lemma32_prime_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


# parsed arguments that are not a command's inputs: the command, its handler,
# the output flags, and the seed, which the report carries as its own field
_NOT_INPUTS = ("cmd", "handler", "csv", "quiet", "seed")


def _emit(args, result):
    """Print the JSON report of the command args ran."""
    report = {
        "command": args.cmd,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "result": result,
        "version": __version__,
        "seed": args.seed,
    }
    print(json.dumps(report, sort_keys=True))


def integer(text: str) -> int:
    """An integer argument, under numtheory.parse_int.  argparse names this
    function and the value when it refuses one: "invalid integer value"."""
    return parse_int(text, "integer")


def _print_csv(rows):
    for row in rows:
        print(",".join(str(x) for x in row))


def _global_flags() -> argparse.ArgumentParser:
    """Global flags, accepted before or after the subcommand.

    A fresh parent instance per attachment: argparse shares action objects
    with parents, and set_defaults would otherwise mutate the shared default
    and clobber values parsed ahead of the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--csv", action="store_true", default=argparse.SUPPRESS, help="CSV output where supported"
    )
    common.add_argument(
        "--seed", type=integer, default=argparse.SUPPRESS, help="seed for sweeps (MT19937)"
    )
    return common


# Command handlers: each parses its inputs, calls the library and returns
# (result, csv_rows), csv_rows a lazy iterable of rows or None when the
# command has no CSV form.


def _classify(args):
    return classify(parse_group_spec(args.group)).as_dict(), None


def _obstructions(args):
    ws = detect_obstructions(parse_group_spec(args.group))
    return [w.as_dict() for w in ws], ((w.kind, *w.witness) for w in ws)


def _local_cyclic(args):
    return {"exists": cyclic_tame_exists(args.q, args.d, args.e)}, None


def _tame_pairs(args):
    pairs = [p.as_dict() for p in enumerate_tame_pairs(parse_group_spec(args.group), args.q)]
    columns = ("sigma", "tau", "inertia_order", "residue_degree")
    return {"count": len(pairs), "pairs": pairs}, ([p[c] for c in columns] for p in pairs)


def _grunwald(args):
    g = parse_group_spec(args.group)
    problems = [parse_local_spec(t) for t in args.at]
    if args.batch:
        problems += load_local_spec_batch(args.batch)
    if not problems:
        raise UsageError("grunwald needs at least one --at p,e,f or --batch file")
    rep = grunwald_feasible(g, problems)
    return rep.as_dict(), ((s.p, s.e, s.f, ok) for s, ok in zip(rep.problems, rep.feasible))


def _specialize(args):
    pred = predict_specialization(parse_cover_spec(args.cover), parse_rational(args.t0), args.p)
    return {
        "predicted_e": pred.predicted_e,
        "predicted_f": pred.predicted_f,
        "exceptional": pred.exceptional,
        "intersection": {"point": pred.point, "multiplicity": pred.multiplicity},
    }, None


def _verify_beckmann(args):
    """The summary is the report, after one line per sample: a CSV row under
    --csv, none under --quiet, else the sample's JSON report."""
    cover = parse_cover_spec(args.cover)
    reports, summary = sweep(cover, args.primes, args.samples, seed=args.seed)
    if args.csv:
        columns = (
            "t0", "p", "predicted_e", "predicted_f", "oracle_e", "oracle_f", "exceptional", "agree"
        )
        _print_csv([d[k] for k in columns] for d in (r.as_dict() for r in reports))
    elif not args.quiet:
        for r in reports:
            print(r.to_json_line())
    return summary, None


def _oracle(args):
    return kummer_local_invariants(args.p, args.d, args.v, args.w).as_dict(), None


def _strata(args):
    stratum = enumerate_stratum(args.d, args.e, args.bound)
    return stratum.as_dict(), ((p,) for p in stratum.primes)


def _lemma32_set(args):
    primes = lemma32_prime_set(args.q, args.r, args.bound)
    return {"count": len(primes), "primes": primes}, ((p,) for p in primes)


def _biquad_split(args):
    return {"split_subfields": sorted(biquadratic_split(args.a, args.b, args.p))}, None


def _sum_two_squares(args):
    a = parse_rational(args.a)
    return {"embeddable": c4_embeddable_quadratic(a), "degenerate": is_rational_square(a)}, None


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call and shared by later ones."""
    parser = _Parser(prog="tamegal", description=__doc__, parents=[_global_flags()])
    parser.set_defaults(csv=False, seed=0)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[_global_flags()], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("classify", _classify, help="eligibility report for a group spec")
    p.add_argument("group")

    p = add("obstructions", _obstructions, help="obstruction witnesses for a group spec")
    p.add_argument("group")

    p = add("local-cyclic", _local_cyclic, help="existence of a tame cyclic local extension")
    p.add_argument("q", type=integer)
    p.add_argument("d", type=integer)
    p.add_argument("e", type=integer)

    p = add("tame-pairs", _tame_pairs, help="all tame generating pairs of G at q")
    p.add_argument("group")
    p.add_argument("q", type=integer)

    p = add("grunwald", _grunwald, help="local feasibility of prescribed (p,e,f) data")
    p.add_argument("group")
    p.add_argument("--at", action="append", default=[], help="p,e,f (repeatable)")
    p.add_argument("--batch", help="JSON file with an array of local specs")

    p = add("specialize", _specialize, help="predicted local invariants of a specialization")
    p.add_argument("cover")
    p.add_argument("--t0", required=True)
    p.add_argument("--p", dest="p", type=integer, required=True)

    p = add("verify-beckmann", _verify_beckmann, help="seeded predictor-vs-oracle sweep")
    p.add_argument("cover")
    p.add_argument("--primes", type=integer, default=10000, help=f"prime bound, at most {SIEVE_CAP}")
    p.add_argument("--samples", type=integer, default=200, help=f"sample count, at most {SAMPLE_CAP}")
    p.add_argument("--quiet", action="store_true", help="summary only, no per-sample lines")

    p = add("oracle", _oracle, help="splitting-field invariants of X^d - p^v*w")
    p.add_argument("--p", dest="p", type=integer, required=True)
    p.add_argument("--d", dest="d", type=integer, required=True)
    p.add_argument("--v", dest="v", type=integer, required=True)
    p.add_argument("--w", dest="w", type=integer, required=True)

    p = add(
        "strata",
        _strata,
        help="the stratum of primes p <= bound with gcd(d, p-1) = e; only the "
        "cyclotomic congruence condition is computed",
    )
    p.add_argument("d", type=integer)
    p.add_argument("e", type=integer)
    p.add_argument("--bound", type=integer, default=10000, help=f"prime bound, at most {SIEVE_CAP}")

    p = add(
        "lemma32-set",
        _lemma32_set,
        help="primes = 1 mod r and != 1 mod q (split in one cyclotomic field, "
        "non-split in the other); conditions in cover-specific auxiliary "
        "fields are out of scope",
    )
    p.add_argument("q", type=integer)
    p.add_argument("r", type=integer)
    p.add_argument("--bound", type=integer, default=1000, help=f"prime bound, at most {SIEVE_CAP}")

    p = add("biquad-split", _biquad_split, help="quadratic subfields in which p splits")
    p.add_argument("a", type=integer)
    p.add_argument("b", type=integer)
    p.add_argument("p", type=integer)

    p = add("sum-two-squares", _sum_two_squares, help="cyclic-quartic embeddability of sqrt(a)")
    p.add_argument("a")
    return parser


def _run(args) -> int:
    result, csv_rows = args.handler(args)
    if args.csv and csv_rows is not None:
        _print_csv(csv_rows)
    else:
        _emit(args, result)
    return EXIT_VERIFY if args.cmd == "verify-beckmann" and result["disagreements"] else EXIT_OK


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
