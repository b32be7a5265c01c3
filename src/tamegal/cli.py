"""Command-line front end.

Every command prints a single JSON report object (sorted keys, no timestamps)
so that identical inputs and seed produce byte-identical output; sweeps stream
one JSON line per specialization report before the summary.  The seeded
generator is CPython's random.Random (MT19937), which is stable across
platforms.  Exit codes: 0 success / all checks agree, 1 usage error,
2 verification failure, 3 internal defect (traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from fractions import Fraction

from . import __version__
from .covers import parse_cover_spec, predict_specialization, sweep
from .groups import classify, detect_obstructions, parse_group_spec
from .local_tame import (
    c4_embeddable_quadratic,
    cyclic_tame_exists,
    enumerate_tame_pairs,
    grunwald_feasible,
    is_rational_square,
    load_local_spec_batch,
    parse_local_spec,
)
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


def _emit(command: str, inputs: dict, result, seed: int | None, csv_rows=None):
    """Print the JSON report, or the CSV rows when given (only under --csv)."""
    if csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(x) for x in row))
        return
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "version": __version__,
        "seed": seed,
    }
    print(json.dumps(report, sort_keys=True))


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
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for sweeps (MT19937)"
    )
    return common


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call and shared by later ones."""
    parser = _Parser(prog="tamegal", description=__doc__, parents=[_global_flags()])
    parser.set_defaults(csv=False, seed=0)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[_global_flags()], **kwargs)

    p = add("classify", help="eligibility report for a group spec")
    p.add_argument("group")

    p = add("obstructions", help="obstruction witnesses for a group spec")
    p.add_argument("group")

    p = add("local-cyclic", help="existence of a tame cyclic local extension")
    p.add_argument("q", type=int)
    p.add_argument("d", type=int)
    p.add_argument("e", type=int)

    p = add("tame-pairs", help="all tame generating pairs of G at q")
    p.add_argument("group")
    p.add_argument("q", type=int)

    p = add("grunwald", help="local feasibility of prescribed (p,e,f) data")
    p.add_argument("group")
    p.add_argument("--at", action="append", default=[], help="p,e,f (repeatable)")
    p.add_argument("--batch", help="JSON file with an array of local specs")

    p = add("specialize", help="predicted local invariants of a specialization")
    p.add_argument("cover")
    p.add_argument("--t0", required=True)
    p.add_argument("--p", dest="p", type=int, required=True)

    p = add("verify-beckmann", help="seeded predictor-vs-oracle sweep")
    p.add_argument("cover")
    p.add_argument("--primes", type=int, default=10000, help="prime bound")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--quiet", action="store_true", help="summary only, no per-sample lines")

    p = add("oracle", help="splitting-field invariants of X^d - p^v*w")
    p.add_argument("--p", dest="p", type=int, required=True)
    p.add_argument("--d", dest="d", type=int, required=True)
    p.add_argument("--v", dest="v", type=int, required=True)
    p.add_argument("--w", dest="w", type=int, required=True)

    p = add(
        "strata",
        help="the stratum of primes p <= bound with gcd(d, p-1) = e; only the "
        "cyclotomic congruence condition is computed",
    )
    p.add_argument("d", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--bound", type=int, default=10000)

    p = add(
        "lemma32-set",
        help="primes = 1 mod r and != 1 mod q (split in one cyclotomic field, "
        "non-split in the other); conditions in cover-specific auxiliary "
        "fields are out of scope",
    )
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--bound", type=int, default=1000)

    p = add("biquad-split", help="quadratic subfields in which p splits")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("p", type=int)

    p = add("sum-two-squares", help="cyclic-quartic embeddability of sqrt(a)")
    p.add_argument("a")
    return parser


def _run(args) -> int:
    if args.cmd == "classify":
        g = parse_group_spec(args.group)
        rep = classify(g)
        _emit("classify", {"group": args.group}, rep.as_dict(), args.seed)
        return EXIT_OK

    if args.cmd == "obstructions":
        g = parse_group_spec(args.group)
        ws = detect_obstructions(g)
        _emit(
            "obstructions",
            {"group": args.group},
            [w.as_dict() for w in ws],
            args.seed,
            csv_rows=[(w.kind, *w.witness) for w in ws] if args.csv else None,
        )
        return EXIT_OK

    if args.cmd == "local-cyclic":
        ok = cyclic_tame_exists(args.q, args.d, args.e)
        _emit(
            "local-cyclic",
            {"q": args.q, "d": args.d, "e": args.e},
            {"exists": ok},
            args.seed,
        )
        return EXIT_OK

    if args.cmd == "tame-pairs":
        g = parse_group_spec(args.group)
        pairs = [p.as_dict() for p in enumerate_tame_pairs(g, args.q)]
        columns = ("sigma", "tau", "inertia_order", "residue_degree")
        _emit(
            "tame-pairs",
            {"group": args.group, "q": args.q},
            {"count": len(pairs), "pairs": pairs},
            args.seed,
            csv_rows=[[p[c] for c in columns] for p in pairs] if args.csv else None,
        )
        return EXIT_OK

    if args.cmd == "grunwald":
        g = parse_group_spec(args.group)
        problems = [parse_local_spec(t) for t in args.at]
        if args.batch:
            problems += load_local_spec_batch(args.batch)
        if not problems:
            raise UsageError("grunwald needs at least one --at p,e,f or --batch file")
        rep = grunwald_feasible(g, problems)
        _emit(
            "grunwald",
            {"group": args.group, "at": args.at, "batch": args.batch},
            rep.as_dict(),
            args.seed,
            csv_rows=(
                [(s.p, s.e, s.f, ok) for s, ok in zip(rep.problems, rep.feasible)]
                if args.csv
                else None
            ),
        )
        return EXIT_OK

    if args.cmd == "specialize":
        cover = parse_cover_spec(args.cover)
        pred = predict_specialization(cover, Fraction(args.t0), args.p)
        _emit(
            "specialize",
            {"cover": args.cover, "t0": args.t0, "p": args.p},
            {
                "predicted_e": pred.predicted_e,
                "predicted_f": pred.predicted_f,
                "exceptional": pred.exceptional,
                "intersection": {"point": pred.point, "multiplicity": pred.multiplicity},
            },
            args.seed,
        )
        return EXIT_OK

    if args.cmd == "verify-beckmann":
        cover = parse_cover_spec(args.cover)
        reports, summary = sweep(cover, args.primes, args.samples, seed=args.seed)
        if args.csv:
            for r in reports:
                d = r.as_dict()
                print(
                    ",".join(
                        str(d[k])
                        for k in (
                            "t0",
                            "p",
                            "predicted_e",
                            "predicted_f",
                            "oracle_e",
                            "oracle_f",
                            "exceptional",
                            "agree",
                        )
                    )
                )
        elif not args.quiet:
            for r in reports:
                print(r.to_json_line())
        _emit(
            "verify-beckmann",
            {"cover": args.cover, "primes": args.primes, "samples": args.samples},
            summary,
            args.seed,
        )
        return EXIT_OK if summary["disagreements"] == 0 else EXIT_VERIFY

    if args.cmd == "oracle":
        inv = kummer_local_invariants(args.p, args.d, args.v, args.w)
        _emit(
            "oracle",
            {"p": args.p, "d": args.d, "v": args.v, "w": args.w},
            inv.as_dict(),
            args.seed,
        )
        return EXIT_OK

    if args.cmd == "strata":
        stratum = enumerate_stratum(args.d, args.e, args.bound)
        _emit(
            "strata",
            {"d": args.d, "e": args.e, "bound": args.bound},
            stratum.as_dict(),
            args.seed,
            csv_rows=[(p,) for p in stratum.primes] if args.csv else None,
        )
        return EXIT_OK

    if args.cmd == "lemma32-set":
        primes = lemma32_prime_set(args.q, args.r, args.bound)
        _emit(
            "lemma32-set",
            {"q": args.q, "r": args.r, "bound": args.bound},
            {"count": len(primes), "primes": primes},
            args.seed,
            csv_rows=[(p,) for p in primes] if args.csv else None,
        )
        return EXIT_OK

    if args.cmd == "biquad-split":
        split = biquadratic_split(args.a, args.b, args.p)
        _emit(
            "biquad-split",
            {"a": args.a, "b": args.b, "p": args.p},
            {"split_subfields": sorted(split)},
            args.seed,
        )
        return EXIT_OK

    if args.cmd == "sum-two-squares":
        a = Fraction(args.a)
        ok = c4_embeddable_quadratic(a)
        _emit(
            "sum-two-squares",
            {"a": args.a},
            {"embeddable": ok, "degenerate": is_rational_square(a)},
            args.seed,
        )
        return EXIT_OK

    raise UsageError(f"unknown command {args.cmd!r}")  # pragma: no cover


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
