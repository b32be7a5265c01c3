"""Benchmark for tamegal: four seeded, single-process, closed-loop workloads.

One run:

    python3 perfbench/run.py --workload group-corpus --seed 1 --seconds 25 --trace 0

builds the workload's inputs from the seed, runs rounds of ops one after
another (one client, one thread, the next op sent when the previous one
returns) until --seconds have passed, checks every output, and prints the
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the rounds run in pairs, the same
inputs untraced then traced (alternating which goes first), and the metrics
are the per-layer ones from the traced rounds plus the tracing overhead.

The host is shared and its speed drifts over minutes, so the timed ops are
gated in multiples of a fixed reference computation that the run times
between ops (workloads.Reference): each timed call is divided by the
reference time around it.  The times in seconds are printed above the
result line and kept in the result file.

    python3 perfbench/run.py --all [--trace 1]   every workload, fresh process each
    python3 perfbench/run.py --smoke             every workload at a tiny size

Each run writes a result file with a machine record, and with --trace 1 a
span file, under .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RECORD = os.path.join(BENCH_DIR, "record.json")
WORKLOAD_NAMES = ("group-corpus", "local-queries", "kummer-sweep", "large-modulus")
DEFAULT_SEED = 0
SETUP_REPEATS = 5

# The times of the timed ops are gated in multiples of the reference time
# (workloads.Reference) measured in the same run; unit "ref".  The same
# times in seconds and milliseconds are printed and kept in the result file.
END_TO_END = {
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p99_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
MEASURED = {"wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "reference_ms": "ms"}


def _import_program():
    """Import tamegal from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import tamegal
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tamegal from {SRC}: {exc}")
    if not os.path.abspath(tamegal.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tamegal imported from {tamegal.__file__}, not from {SRC}")


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _local_reference(reference, half=10):
    """The reference time around each moment of the run: for each reference
    sample, the median of it and its `half` neighbours on either side."""
    samples = reference.samples
    return [statistics.median(samples[max(0, j - half) : j + half + 1]) for j in range(len(samples))]


def _in_reference_units(rounds, reference):
    """Each round's timed calls divided by the reference time around them:
    (round walls, op latencies), both in multiples of the reference."""
    local, stamps = _local_reference(reference), reference.stamps
    walls, latencies = [], []
    for r in rounds:
        wall = 0.0
        for end, dt, is_op in zip(r.ends, r.durations, r.is_op):
            x = dt / local[min(bisect.bisect_left(stamps, end), len(stamps) - 1)]
            wall += x
            if is_op:
                latencies.append(x)
        walls.append(wall)
    return walls, sorted(latencies)


def _machine(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
        "machine_settings": "untouched: no cache dropping, CPU pinning or frequency control, "
        "because the environment it runs in forbids changing machine settings",
    }


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _setup(args, workdir):
    import workloads

    with open(RECORD, encoding="utf-8") as fh:
        expected = json.load(fh)["expected"]
    os.makedirs(workdir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    return cls(args.seed, args.size, workdir, expected.get(args.workload, {})), expected


def _probe_setup(args):
    """Time set-up in fresh processes: process start until the first op is
    ready (interpreter start, import tamegal, input generation)."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe", str(i)]
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} failed (exit {rc})")
        times.append(elapsed)
    return times


def _run_rounds(args, workload):
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    reference = workloads.Reference()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    r = 0
    while True:
        plan = workload.plan(r)
        if tracer is None:
            rnd = workloads.Round(reference=reference)
            workload.run(rnd, plan)
            plain.append(rnd)
        else:
            for traced_turn in ((False, True) if r % 2 == 0 else (True, False)):
                if traced_turn:
                    tracer.install()
                try:
                    rnd = workloads.Round(tracer if traced_turn else None, reference)
                    workload.run(rnd, plan)
                finally:
                    tracer.uninstall()
                (traced if traced_turn else plain).append(rnd)
        r += 1
        if time.perf_counter() >= deadline:
            break
    return plain, traced, tracer, reference


def _run(args):
    _import_program()
    t_setup = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"inputs-{args.workload}-{os.getpid()}")
    try:
        workload, expected = _setup(args, workdir)
        if args.setup_probe is not None:
            print("ready", flush=True)
            return 0
        own_setup = time.perf_counter() - t_setup
        setup_times = _probe_setup(args)
        plain, traced, tracer, reference = _run_rounds(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    digests = [r.digest for r in plain]
    problems = []
    if tracer is not None:
        # pairs ran the same inputs: traced and untraced outputs must agree
        if [r.digest for r in traced] != digests:
            problems.append("traced and untraced rounds produced different output digests")
    recorded = expected.get(args.workload, {}).get("round0_digest_seed0")
    if args.seed == DEFAULT_SEED and args.size == "full" and recorded and digests[0] != recorded:
        problems.append(f"round 0 digest {digests[0]} differs from the recorded {recorded}")

    latencies = sorted(x for r in plain for x in r.latencies)
    walls = [r.wall_s for r in plain]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": _machine(args.seed),
        "rounds": len(plain),
        "round_wall_s": walls,
        "round0_digest": digests[0],
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "own_setup_s": own_setup,
        "setup_probe_s": setup_times,
    }
    measured = {}
    if tracer is None:
        ref_samples = reference.samples
        ref = statistics.median(ref_samples)
        measured = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * _quantile(latencies, 0.50),
            "op_p99_ms": 1e3 * _quantile(latencies, 0.99),
            "reference_ms": 1e3 * ref,
        }
        ref_walls, ref_latencies = _in_reference_units(plain, reference)
        metrics = {
            "wall_ref": statistics.median(ref_walls),
            "op_p50_ref": _quantile(ref_latencies, 0.50),
            "op_p99_ref": _quantile(ref_latencies, 0.99),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        beyond = len(latencies) - int(0.99 * len(latencies))
        notes = {
            "wall_s": f"median of {len(walls)} rounds (timed ops and sampling only)",
            "op_p50_ms": f"{len(latencies)} ops",
            "op_p99_ms": f"{len(latencies)} ops, {beyond} beyond p99",
            "reference_ms": f"median of {len(ref_samples)} reference samples taken between ops",
            "wall_ref": f"median of {len(walls)} rounds, each timed call over the reference time around it",
            "op_p50_ref": f"{len(latencies)} ops, each over the reference time around it",
            "op_p99_ref": f"{len(latencies)} ops, each over the reference time around it, {beyond} beyond p99",
            "setup_s": f"median of {len(setup_times)} fresh processes",
            "peak_rss_mib": "getrusage maxrss of this process",
        }
        result["measured"] = {k: {"value": v, "unit": MEASURED[k]} for k, v in measured.items()}
        result["reference_s"] = ref_samples
        result["latency_samples"] = len(latencies)
    else:
        from spans import UNITS, layer_metrics

        summary = tracer.summary()
        overhead = statistics.median(r.wall_s for r in traced) / statistics.median(walls) - 1
        layers = layer_metrics(summary, tracer.counters, len(traced), overhead)
        metrics = {k: v[0] for k, v in layers.items()}
        units = UNITS
        notes = {k: f"base {v[1]}" for k, v in layers.items() if v[1] is not None}
        result["not_applicable"] = {k: v[2] for k, v in layers.items() if v[2]}
        result["spans"] = summary
        result["traced_rounds"] = len(traced)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.dump(spans_path)
        result["span_file"] = os.path.relpath(spans_path, ROOT)
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    result["notes"] = notes

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for k in measured:
        print(f"{args.workload} {k} = {measured[k]:.6g} {MEASURED[k]}  ({notes[k]})")
    for k in units:
        extra = notes.get(k, "")
        na = result.get("not_applicable", {}).get(k)
        print(f"{args.workload} {k} = {metrics[k]:.6g} {units[k]}" + (f"  ({extra})" if extra else "")
              + (f"  [n/a: {na}]" if na else ""))
    print(f"{args.workload} failed_frac = {result['failed_frac']:.6g} ratio  "
          f"({len(failures)} of {attempted} ops)")
    for line in (failures[:5] + problems):
        print(f"{args.workload} CHECK FAILED: {line}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def _child(workload, seed, seconds, trace, size):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} run failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def _all(args):
    """Every workload in its own fresh process; exit 1 if any check failed."""
    bad = False
    for name in WORKLOAD_NAMES:
        rc, lines, res = _child(name, args.seed, args.seconds, args.trace, args.size)
        print("\n".join(lines), flush=True)
        bad |= rc != 0 or not res["correct"] or res["failed"] > 0
    return 1 if bad else 0


def _smoke(args):
    """Every workload at a tiny size, untraced and traced: every metric named
    in BENCHMARK.json is emitted, and a zero per-layer value carries a reason.
    Also checks the corpus against the acceptance suite's own generator."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            rc, lines, res = _child(name, args.seed, 1, trace, "smoke")
            if rc != 0 or not res["correct"]:
                errors.append(f"{name} trace={trace}: checks failed: {lines[-3:]}")
            wanted = bench["per_layer" if trace else "end_to_end"]
            path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                na = json.load(fh).get("not_applicable", {})
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{name} trace={trace}: metric {m['name']} missing or wrong unit")
                elif trace and got["value"] == 0 and m["name"] not in na and m["unit"] == "s":
                    errors.append(f"{name}: {m['name']} is 0 without a not-applicable reason")
            print(f"smoke {name} trace={trace}: {len(res['metrics'])} metrics, "
                  f"{len(na)} not applicable, correct={res['correct']}", flush=True)
    errors += _corpus_check()
    for e in errors:
        print("SMOKE FAILED:", e)
    print("smoke ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def _corpus_check():
    """The benchmark's corpus has 7195 specs and the acceptance corpus's
    multiset of group orders (read from tests/, which the benchmark itself
    never imports)."""
    import collections

    import corpus

    sys.path.insert(0, ROOT)
    from tests.test_acceptance import _group_corpus

    ours = corpus.corpus_specs()
    theirs = collections.Counter(g.order for g in _group_corpus())
    errors = []
    if len(ours) != corpus.CORPUS_SIZE:
        errors.append(f"corpus has {len(ours)} specs, expected {corpus.CORPUS_SIZE}")
    if collections.Counter(n for _, n in ours) != theirs:
        errors.append("corpus orders differ from tests/test_acceptance.py::_group_corpus")
    print(f"corpus check: {len(ours)} specs, acceptance corpus {sum(theirs.values())} groups")
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    ap.add_argument("--smoke", action="store_true", help="every workload at a tiny size, with metric checks")
    ap.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.smoke or args.all:
        _import_program()
        return _smoke(args) if args.smoke else _all(args)
    if not args.workload:
        ap.error("--workload is required (or --all / --smoke)")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
