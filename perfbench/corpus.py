"""The acceptance criterion-1 group corpus as spec strings.

The same 7195 groups as ``tests/test_acceptance.py::_group_corpus``, written
as specs that ``tamegal.parse_group_spec`` turns into those groups, so the
benchmark times parsing and classification together.  Each entry carries the
group order, computed from the spec alone.

Rounds are strata of a cost ranking kept in ``corpus_rank.txt``.  Classify
times are heavy-tailed (the costliest 1% of groups take about a quarter of
the corpus time), so strata by order alone differ by about 20% in cost and
in their share of the tail; strata by measured cost keep every round's tail
alike.  Regenerate the ranking with ``python3 perfbench/corpus.py`` (about
40 s); a stale ranking still gives valid, only less even, strata.
"""

from __future__ import annotations

import math
import os
import sys
import time

RANK_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_rank.txt")

CORPUS_SIZE = 7195

_BASIS = (
    [(f"C{n}", n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16)]
    + [(f"D{n}", 2 * n) for n in (3, 4, 5, 6, 8)]
    + [("Q8", 8), ("Q16", 16)]
)


def corpus_specs() -> list[tuple[str, int]]:
    """(spec, order) pairs in the order the test corpus yields its groups."""
    out = [(f"C{n}", n) for n in range(2, 513)]
    out += [(f"D{n}", 2 * n) for n in range(2, 65)]
    out += [(f"Q{n}", n) for n in (8, 16, 32)]
    for P in range(2, 257):
        for Q in range(2, 512 // P + 1):
            for k in range(1, P):
                if math.gcd(k, P) == 1 and pow(k, Q, P) == 1:
                    out.append((f"SD:{P},{Q},{k}", P * Q))
    for i, (a, oa) in enumerate(_BASIS):
        for b, ob in _BASIS[i:]:
            if oa * ob <= 512:
                out.append((f"X:{a}*{b}", oa * ob))
    out += [("S4", 24), ("A4", 12), ("A5", 60)]
    return out


def stratified_rounds(ranked: list[str], stride: int) -> list[list[str]]:
    """Split a cost-ranked spec list into `stride` rounds of near-equal cost:
    round r takes every stride-th spec from rank r."""
    return [ranked[r::stride] for r in range(stride)]


def load_ranking() -> list[str]:
    with open(RANK_FILE, encoding="utf-8") as fh:
        return fh.read().split()


def _write_ranking():
    from tamegal import groups

    cost = {}
    for spec, _ in corpus_specs():
        t = time.perf_counter()
        groups.classify(groups.parse_group_spec(spec))
        cost[spec] = time.perf_counter() - t
    with open(RANK_FILE, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sorted(cost, key=cost.get)) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(RANK_FILE)), "src"))
    _write_ranking()
