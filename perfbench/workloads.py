"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the `setup_s` metric times) and then runs rounds: a round is a
fixed amount of work of near-constant cost, made of timed ops.  Every op's
output is checked right after it returns, outside the timed region, and
folded into the round's output digest.

The seed changes which inputs are drawn, never how much work a round holds,
so medians over rounds and over seeds compare like with like.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from array import array
from fractions import Fraction

import numpy as np

from tamegal import cli, covers, groups, local_tame, numtheory, padic_oracle, prime_strata

import corpus


class SetupError(RuntimeError):
    """The generated inputs do not match what the benchmark expects."""


def _reference_work():
    """A fixed pure-Python computation (integer arithmetic, dict and list
    updates, string formatting), independent of tamegal."""
    acc, table, parts = 0, {}, []
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 127] = acc
        if i % 16 == 0:
            parts.append(f"{i}:{acc}")
    return acc + len(",".join(parts)) + len(table)


class Reference:
    """Times `_reference_work` between ops, at most once every EVERY seconds
    of the run, so that the run's timed calls can also be given in
    multiples of it.

    The host is shared and its speed drifts by tens of percent over minutes,
    slowing the reference and the program alike; a time divided by the
    reference time around it is steady across such drift, while a change to
    the program still moves it.
    """

    EVERY = 0.025

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter at the end of each sample
        self._next = 0.0

    def maybe_sample(self):
        t = time.perf_counter()
        if t < self._next:
            return
        _reference_work()
        now = time.perf_counter()
        self.samples.append(now - t)
        self.stamps.append(now)
        self._next = now + self.EVERY


class Round:
    """Times the ops of one round and records their outcomes.

    With a tracer, each op runs under a root span with the tracer active;
    the checks that follow run with it inactive, so only the op is traced.
    With a reference, it may be sampled after each op, outside the timing.
    """

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.wall_s = 0.0
        # one entry per timed call, in compact arrays so that a run of
        # 10^5 ops adds little to the process's peak RSS
        self.ends = array("d")  # perf_counter at the end of the call
        self.durations = array("d")
        self.is_op = bytearray()
        self.latencies = array("d")  # durations of the ops alone
        self.attempted = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def _timed(self, latency: bool, fn, *args):
        tr = self.tracer
        if tr is not None:
            tr.begin_op()
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            dt = end - t
            if tr is not None:
                tr.end_op()
            self.wall_s += dt
            self.ends.append(end)
            self.durations.append(dt)
            self.is_op.append(latency)
            if latency:
                self.latencies.append(dt)
            if self.reference is not None:
                self.reference.maybe_sample()

    def step(self, fn, *args):
        """Timed work that belongs to the round but is not an op (sampling)."""
        return self._timed(False, fn, *args)

    def op(self, label: str, fn, *args):
        """Run one timed op; (True, result) or (False, None) if it raised."""
        self.attempted += 1
        try:
            return True, self._timed(True, fn, *args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"{label}: raised {exc!r}")
            self._digest.update(f"{label}!raised\n".encode())
            return False, None

    def record(self, label: str, output: str, problems: list[str]):
        self._digest.update(f"{label}\n{output}\n".encode())
        if problems:
            self.failures.append(f"{label}: {problems[0]}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (small n), independent of tamegal."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------


class GroupCorpus:
    """parse_group_spec + classify over the criterion-1 corpus, in rounds
    that are cost strata of it, so each keeps the corpus's share of large
    groups and of the costliest 1%."""

    name = "group-corpus"

    def __init__(self, seed: int, size: str, workdir: str, expected: dict):
        specs = corpus.corpus_specs()
        orders = ",".join(str(n) for n in sorted(n for _, n in specs))
        if len(specs) != corpus.CORPUS_SIZE:
            raise SetupError(f"corpus has {len(specs)} specs, expected {corpus.CORPUS_SIZE}")
        if hashlib.sha256(orders.encode()).hexdigest() != expected["orders_sha256"]:
            raise SetupError("corpus order multiset differs from the acceptance corpus")
        ranked = corpus.load_ranking()
        if sorted(ranked) != sorted(spec for spec, _ in specs):
            raise SetupError("corpus_rank.txt is not a ranking of the corpus")
        stride = 40 if size == "full" else 1000
        rounds = corpus.stratified_rounds(ranked, stride)
        rng = random.Random(seed)
        rng.shuffle(rounds)
        for r in rounds:
            rng.shuffle(r)
        self.rounds = rounds

    def plan(self, r: int):
        return self.rounds[r % len(self.rounds)]

    @staticmethod
    def _classify(spec):
        g = groups.parse_group_spec(spec)
        return g, groups.classify(g)

    def run(self, rnd: Round, specs):
        for spec in specs:
            ok, res = rnd.op(spec, self._classify, spec)
            if not ok:
                continue
            g, rep = res
            problems = []
            if rep.hg_real != (not rep.obstructions):
                problems.append("hg_real disagrees with the obstruction list")
            if not all(w.verify(g) for w in rep.obstructions):
                problems.append("an obstruction witness fails verify")
            rnd.record(spec, json.dumps(rep.as_dict(), sort_keys=True), problems)


# ---------------------------------------------------------------------------


_TABLE_GROUPS = ("X:C8*D64", "SD:31,30,3", "D256", "SD:61,4,11")
_HEAVY_TAME = ("D181", "D191")
_GRUNWALD_D = (("SD:13,3,3", 3, 13, 3), ("SD:7,3,2", 2, 7, 3), ("D7", 13, 7, 2))
_PAIR_GROUPS = ("D7", "D11", "D13", "Q8", "SD:7,3,2")
_COVERS_LIGHT = ("d=9,m=1,c=1", "d=27,m=1,c=1", "d=12,m=4,c=5", "d=6,m=1,c=1", "d=27,m=3,c=2/7")
_BIQUAD = (2, 3, 5, 7, 10, -2, -3, -5, -7, -10)


def _pair_q(spec: str, rng: random.Random, primes: list[int]) -> int:
    """A residue cardinality at which the group has tame generating pairs."""
    if spec.startswith("D"):
        n = int(spec[1:])
        good = [q for q in primes if q % n == n - 1]
    elif spec == "Q8":
        good = [q for q in primes if q % 4 == 3]
    else:  # SD:7,3,2 needs tau^q conjugate to tau under the order-3 action
        good = [q for q in primes if q % 7 in (2, 4)]
    return rng.choice(good[:8])


class LocalQueries:
    """A seeded mix of CLI commands run in-process through tamegal.cli.main.

    Per round: 100 light commands (about 5 ms each), 10 medium ones (tame
    pairs that exist, grunwald with D=, small JSON tables) and 4 heavy ones
    (order ~1000 JSON tables, tame-pairs on D181/D191), so op_p99_ms falls
    on the heavy queries.
    """

    name = "local-queries"

    def __init__(self, seed: int, size: str, workdir: str, expected: dict):
        self.rng = random.Random(seed)
        self.scale = 1 if size == "full" else 10
        self.primes = _small_primes(10_000)
        rng = np.random.default_rng(seed)
        self.tables = []
        self.inputs = os.path.relpath(workdir)
        os.makedirs(os.path.join(workdir, "tables"), exist_ok=True)
        for i, spec in enumerate(_TABLE_GROUPS):
            g = groups.parse_group_spec(spec)
            perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
            table = groups.relabeled(g, perm).table
            path = os.path.join(workdir, "tables", f"t{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"order": g.order, "table": table.tolist()}))
            self.tables.append(os.path.relpath(path))
        self.pair_groups = {s: groups.parse_group_spec(s) for s in _PAIR_GROUPS}

    def _light(self) -> list[str]:
        rng, primes = self.rng, self.primes
        kind = rng.randrange(6)
        if kind == 0:
            q = rng.choice(primes[:25])
            d = rng.choice([d for d in range(1, 37) if math.gcd(d, q) == 1])
            return ["local-cyclic", str(q), str(d), str(rng.choice(numtheory.divisors(d)))]
        if kind == 1:
            t0 = Fraction(rng.choice((1, -1)) * rng.randint(1, 999), rng.randint(1, 999))
            return ["specialize", rng.choice(_COVERS_LIGHT), f"--t0={t0}", "--p", str(rng.choice(primes))]
        if kind == 2:
            p = rng.choice(primes[1:])
            d = rng.choice([d for d in range(2, 61) if d % p])
            v = rng.randint(-3, 3)
            return ["oracle", "--p", str(p), "--d", str(d), "--v", str(v), "--w", str(rng.randrange(1, p))]
        if kind == 3:
            d = rng.choice((8, 9, 12, 27, 60))
            return ["strata", str(d), str(rng.choice(numtheory.divisors(d))), "--bound", "10000"]
        if kind == 4:
            while True:
                a, b = rng.choice(_BIQUAD), rng.choice(_BIQUAD)
                g = math.gcd(a, b)
                if a != b and not any(v > 0 and math.isqrt(v) ** 2 == v for v in (a, b, a * b // (g * g))):
                    break
            p = rng.choice([p for p in primes[1:200] if (2 * a * b) % p])
            return ["biquad-split", str(a), str(b), str(p)]
        num = rng.choice([n for n in range(-60, 61) if n])
        return ["sum-two-squares", "--", f"{num}/{rng.randint(1, 60)}"]

    def _medium(self, i: int) -> list[str]:
        rng = self.rng
        if i < 4:
            spec = rng.choice(_PAIR_GROUPS)
            return ["tame-pairs", spec, str(_pair_q(spec, rng, self.primes))]
        if i < 6:
            # the whole group as decomposition group, so is_isomorphic runs
            spec, p, e, f = rng.choice(_GRUNWALD_D)
            return ["grunwald", spec, "--at", f"p={p},e={e},f={f},D={spec}"]
        if i < 8:
            p = rng.choice(self.primes[1:100])
            return ["grunwald", rng.choice(_TABLE_GROUPS[2:]), "--at", f"{p},2,1"]
        return [("classify", "obstructions")[i % 2], rng.choice(self.tables[2:])]

    def plan(self, r: int):
        rng = self.rng
        cmds = [self._light() for _ in range(100 // self.scale)]
        cmds += [self._medium(i) for i in range(10 // self.scale or 1)]
        big = self.tables[:2]
        rng.shuffle(big)
        q = str(rng.choice((3, 5, 7, 11, 13)))
        cmds += [["classify", big[0]], ["obstructions", big[1]]]
        if self.scale == 1:
            cmds += [["tame-pairs", spec, q] for spec in _HEAVY_TAME]
        rng.shuffle(cmds)
        return cmds

    @staticmethod
    def _main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def run(self, rnd: Round, cmds):
        for argv in cmds:
            label = " ".join(argv)
            ok, res = rnd.op(label, self._main, argv)
            if not ok:
                continue
            rc, out = res
            if rnd.tracer is not None:
                rnd.tracer.add("cli.bytes_out", len(out.encode()))
            # table paths name a per-process directory; keep them out of the digest
            rnd.record(label.replace(self.inputs, "<inputs>"), out.replace(self.inputs, "<inputs>"),
                       self._check(argv, rc, out))

    def _check(self, argv, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError) as exc:
            return [f"output is not a JSON report: {exc!r}"]
        cmd = argv[0]
        if cmd == "classify" and result["hg_real"] != (not result["obstructions"]):
            return ["hg_real disagrees with the obstruction list"]
        if cmd == "tame-pairs":
            g = self.pair_groups.get(argv[1])
            if result["pairs"] and g is None:
                return ["pairs returned for a group expected to have none"]
            q = int(argv[2])
            for pair in result["pairs"]:
                tp = local_tame.TamePair(group=g, sigma=pair["sigma"], tau=pair["tau"], q=q)
                if not tp.verify():
                    return [f"pair {pair} fails TamePair.verify"]
            if g is not None and not result["pairs"]:
                return ["no tame pairs where some exist"]
        if cmd == "local-cyclic":
            q, e = int(argv[1]), int(argv[3])
            if result["exists"] != ((q - 1) % e == 0):
                return ["local-cyclic answer contradicts e | q - 1"]
        if cmd == "oracle":
            d, v = int(argv[4]), int(argv[6])
            if result["e"] != d // math.gcd(d, v):
                return ["oracle ramification index is not d / gcd(d, v)"]
        if cmd == "strata":
            d, e = int(argv[1]), int(argv[2])
            if any(math.gcd(d, p - 1) != e for p in result["primes"]):
                return ["stratum member with the wrong gcd(d, p - 1)"]
        if cmd == "biquad-split" and not result["split_subfields"]:
            return ["no quadratic subfield splits"]
        return []


# ---------------------------------------------------------------------------


def _check_report(rep, cover) -> list[str]:
    """Predictor == oracle away from exceptional primes, e = d / gcd(d, v),
    and, when gcd(d, m) = 1, the predicted residue degree is ord_d(p) by pow."""
    if rep.exceptional:
        return []
    out = []
    if not rep.agree:
        out.append("predictor disagrees with the oracle")
    v = _valuation(cover.c * rep.t0**cover.m, rep.p)
    if rep.oracle_e != cover.d // math.gcd(cover.d, v):
        out.append("oracle e is not d / gcd(d, v)")
    f = rep.predicted_f
    if f is not None and math.gcd(cover.d, cover.m) == 1:
        p, d = rep.p, cover.d
        if pow(p, f, d) != 1 % d or any(pow(p, f // q, d) == 1 for q in _prime_factors(f)):
            out.append(f"predicted f = {f} is not the order of {p} mod {d}")
    return out


class _Sweep:
    covers: tuple = ()
    prime_bound = 0
    samples = 0

    def __init__(self, seed: int, size: str, workdir: str, expected: dict):
        self.seed = seed
        self.cover_list = [covers.KummerCover(d, m, Fraction(c)) for d, m, c in self.covers]
        self.samples = self.samples if size == "full" else max(2, self.samples // 100)

    def _sample_seed(self, r: int, i: int) -> int:
        return (self.seed * 1_000_003 + r) * 101 + i

    def sweep_round(self, rnd: Round, r: int, law: bool):
        for i, cover in enumerate(self.cover_list):
            points = rnd.step(covers.sample_points, cover, self.prime_bound, self.samples, self._sample_seed(r, i))
            for t0, p in points:
                label = f"{cover.spec_string()} t0={t0} p={p}"
                ok, rep = rnd.op(label, covers.verify_beckmann, cover, t0, p)
                if not ok:
                    continue
                problems = _check_report(rep, cover)
                if law and cover.d in (9, 27) and cover.m == 1 and cover.c == 1 and p % 3 == 1:
                    f = padic_oracle.kummer_local_invariants(p, cover.d, 1, 1).f
                    if f != cover.d // math.gcd(cover.d, p - 1):
                        problems.append("degree law d / gcd(d, p - 1) fails")
                rnd.record(label, rep.to_json_line(), problems)


class KummerSweep(_Sweep):
    """verify_beckmann on seeded (t0, p), p <= 10^6, over small-d covers."""

    name = "kummer-sweep"
    covers = tuple((d, 1, 1) for d in (2, 3, 4, 5, 6, 9, 27)) + ((12, 4, 5), (27, 3, "2/7"), (60, 6, 3))
    prime_bound = 1_000_000
    samples = 1500

    def plan(self, r: int):
        return r

    def run(self, rnd: Round, r: int):
        self.sweep_round(rnd, r, law=True)


class LargeModulus(_Sweep):
    """The sweep path at d ~ 10^3..10^4 plus prime strata at d ~ 1.1 * 10^5.

    Each round adds the four strata of one d = 2q (q prime), so about 2% of
    the ops are stratum queries and op_p99_ms falls on them.
    """

    name = "large-modulus"
    covers = ((1009, 1, 1), (2003, 1, 1), (4001, 1, 1), (9973, 1, 1))
    prime_bound = 100_000
    samples = 50
    strata_bound = 100_000

    def __init__(self, seed, size, workdir, expected):
        super().__init__(seed, size, workdir, expected)
        primes = _small_primes(self.strata_bound)
        self.odd_primes = primes[1:]
        self.qs = [q for q in primes if 55_000 <= q <= 56_000]
        self.rng = random.Random(seed)

    def plan(self, r: int):
        return r, 2 * self.rng.choice(self.qs)

    def run(self, rnd: Round, plan):
        r, d = plan
        self.sweep_round(rnd, r, law=False)
        densities = Fraction(0)
        members = 0
        for e in sorted(numtheory.divisors(d)):
            label = f"strata d={d} e={e}"
            ok, s = rnd.op(label, prime_strata.enumerate_stratum, d, e, self.strata_bound)
            if not ok:
                continue
            densities += s.predicted_density
            members += len(s.primes)
            problems = []
            if any(pow(2, p - 1, p) != 1 or math.gcd(d, p - 1) != e for p in s.primes):
                problems.append("stratum member fails the pow or gcd check")
            rnd.record(label, json.dumps(s.as_dict(), sort_keys=True), problems)
        expected = sum(1 for p in self.odd_primes if d % p)
        rnd.record(
            f"strata d={d} partition",
            f"{densities} {members}",
            [] if densities == 1 and members == expected else ["strata densities or counts do not partition"],
        )


WORKLOADS = {w.name: w for w in (GroupCorpus, LocalQueries, KummerSweep, LargeModulus)}
