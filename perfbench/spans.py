"""Spans around the public functions of each tamegal module, recorded from
outside the package.

`Tracer.install` replaces each traced function in every tamegal namespace
that bound it (``covers`` and ``cli`` import ``kummer_local_invariants`` by
name, ``local_tame`` imports ``is_isomorphic``), plus the lazily computed
`FiniteGroup` structure (the power walk behind ``orders``/``pow_table`` and
the ``conj`` table).  `Tracer.uninstall` puts the originals back, so rounds
run untraced pay nothing.  Spans are kept in memory as flat arrays with
parent links; self times are computed from them and they are written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = (
    "tamegal",
    "tamegal.cli",
    "tamegal.covers",
    "tamegal.groups",
    "tamegal.local_tame",
    "tamegal.numtheory",
    "tamegal.padic_oracle",
    "tamegal.prime_strata",
)

# (module, function) pairs traced by name "<module>.<function>".  Beyond the
# functions the per-layer metrics read, every library entry point the CLI
# calls is traced, so that the self time of ``cli.main`` is argparse and JSON
# emission only.
FUNCTIONS = (
    ("groups", "parse_group_spec"),
    ("groups", "classify"),
    ("groups", "detect_obstructions"),
    ("groups", "sylow_shape"),
    ("groups", "frobenius_cyclic_decomposition"),
    ("groups", "is_isomorphic"),
    ("local_tame", "enumerate_tame_pairs"),
    ("local_tame", "grunwald_feasible"),
    ("local_tame", "cyclic_tame_exists"),
    ("local_tame", "parse_local_spec"),
    ("local_tame", "c4_embeddable_quadratic"),
    ("local_tame", "is_rational_square"),
    ("covers", "parse_cover_spec"),
    ("covers", "sample_points"),
    ("covers", "predict_specialization"),
    ("covers", "verify_beckmann"),
    ("padic_oracle", "kummer_local_invariants"),
    ("numtheory", "is_prime"),
    ("numtheory", "multiplicative_order_mod"),
    ("numtheory", "primes_upto"),
    ("prime_strata", "predicted_stratum_density"),
    ("prime_strata", "enumerate_stratum"),
    ("prime_strata", "biquadratic_split"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def begin_op(self):
        """Open the root span of one timed op and start recording."""
        from tamegal import numtheory

        self._caches = [
            (key, fn, fn.cache_info())
            for key, fn in (
                ("numtheory.factorize", numtheory._factorize_cached),
                ("numtheory.prime_divisor_count", numtheory.prime_divisor_count),
            )
        ]
        self.active = True
        self._op = self.open(self.intern("bench.op"))

    def end_op(self):
        self.close(self._op)
        self.active = False
        for key, fn, before in self._caches:
            after = fn.cache_info()
            self.add(f"{key}.hits", after.hits - before.hits)
            self.add(f"{key}.misses", after.misses - before.misses)

    def add(self, counter: str, value: float):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, name, fn, on_result=None, skip=None):
        """Span around fn when the tracer is active; skip(args) returning
        True bypasses the span (cached lazy properties)."""
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        hooks = {
            "covers.verify_beckmann": lambda t, a, r: t.add("covers.exceptional", int(r.exceptional)),
            "local_tame.enumerate_tame_pairs": lambda t, a, r: t.add("local_tame.pairs", len(r)),
        }
        for mod_name, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(f"tamegal.{mod_name}"), attr)
            name = f"{mod_name}.{attr}"
            wrapped = self._wrap(name, orig, on_result=hooks.get(name))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

        from tamegal.groups import FiniteGroup

        def add_bytes(attr):
            return lambda t, a, r: t.add("groups.table_bytes", getattr(a[0], attr).nbytes)

        self._set(FiniteGroup, "check_table", self._wrap("groups.check_table", FiniteGroup.check_table))
        self._set(
            FiniteGroup,
            "subgroup_closure",
            self._wrap(
                "groups.subgroup_closure",
                FiniteGroup.subgroup_closure,
                on_result=lambda t, a, r: t.add("groups.closure_elems", int(r.size)),
            ),
        )
        self._set(
            FiniteGroup,
            "_power_data",
            self._wrap(
                "groups.power_walk",
                FiniteGroup._power_data,
                on_result=add_bytes("_pow"),
                skip=lambda a: a[0]._pow is not None,
            ),
        )
        conj = FiniteGroup.__dict__["conj"]
        self._set(
            FiniteGroup,
            "conj",
            property(
                self._wrap(
                    "groups.conj",
                    conj.fget,
                    on_result=add_bytes("_conj"),
                    skip=lambda a: a[0]._conj is not None,
                ),
                doc=conj.__doc__,
            ),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return nid, parent, dur

    def summary(self) -> dict:
        """Per span name: count, total (inclusive) and self seconds, plus the
        cross-layer figures the per-layer metrics need."""
        nid, parent, dur = self.arrays()
        k = len(self.names)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        counts = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_t, minlength=k)
        out = {
            name: {"count": int(counts[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

        def ids(name):
            return self._ids.get(name, -2)  # never a span name id, nor the -1 of a root

        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        order_mod, invariants = ids("numtheory.multiplicative_order_mod"), ids("padic_oracle.kummer_local_invariants")
        under_inv = (nid == order_mod) & (parent_name == invariants)
        tame, closure = ids("local_tame.enumerate_tame_pairs"), ids("groups.subgroup_closure")
        # oracle calls with the predictor on their ancestor chain
        inv_idx = np.flatnonzero(nid == invariants)
        found = np.zeros(inv_idx.size, dtype=bool)
        cur = parent[inv_idx]
        predict = ids("covers.predict_specialization")
        while cur.size and (cur >= 0).any():
            live = cur >= 0
            found |= live & (nid[np.maximum(cur, 0)] == predict)
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        out["_derived"] = {
            "f0_s": float(dur[under_inv].sum()),
            "calls_from_predictor": int(found.sum()),
            "closures_under_tame_pairs": int(((nid == closure) & (parent_name == tame)).sum()),
        }
        return out

    def dump(self, path):
        """Write every span as .npz: the name table plus flat arrays
        (name_id, parent, start, end; parent -1 for a root)."""
        nid, parent, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )


# ---------------------------------------------------------------------------
# per-layer metrics: name -> unit; values are per traced round unless a ratio

SELF_TIME = {
    "groups.parse_s": "groups.parse_group_spec",
    "groups.validate_s": "groups.check_table",
    "groups.orders_s": "groups.power_walk",
    "groups.closure_s": "groups.subgroup_closure",
    "groups.sylow_s": "groups.sylow_shape",
    "groups.obstructions_s": "groups.detect_obstructions",
    "groups.frobenius_s": "groups.frobenius_cyclic_decomposition",
    "groups.conj_s": "groups.conj",
    "groups.isomorphism_s": "groups.is_isomorphic",
    "local_tame.tame_pairs_s": "local_tame.enumerate_tame_pairs",
    "local_tame.grunwald_s": "local_tame.grunwald_feasible",
    "covers.sampling_s": "covers.sample_points",
    "covers.predict_s": "covers.predict_specialization",
    "covers.verify_s": "covers.verify_beckmann",
    "padic_oracle.invariants_s": "padic_oracle.kummer_local_invariants",
    "numtheory.is_prime_s": "numtheory.is_prime",
    "numtheory.order_mod_s": "numtheory.multiplicative_order_mod",
    "numtheory.sieve_s": "numtheory.primes_upto",
    "prime_strata.density_s": "prime_strata.predicted_stratum_density",
    "prime_strata.enumerate_s": "prime_strata.enumerate_stratum",
    "cli.self_s": "cli.main",
}
CALLS = {
    "groups.closure_calls": "groups.subgroup_closure",
    "groups.sylow_calls": "groups.sylow_shape",
    "padic_oracle.calls": "padic_oracle.kummer_local_invariants",
    "numtheory.is_prime_calls": "numtheory.is_prime",
    "numtheory.order_mod_calls": "numtheory.multiplicative_order_mod",
}
UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "groups.closure_elems": "count",
    "groups.table_bytes": "bytes",
    "local_tame.pair_yield": "ratio",
    "covers.exceptional_frac": "ratio",
    "padic_oracle.f0_s": "s",
    "padic_oracle.calls_from_predictor": "count",
    "numtheory.factorize_hit_ratio": "ratio",
    "numtheory.prime_divisor_count_hit_ratio": "ratio",
    "cli.bytes_out": "bytes",
    "trace_overhead_frac": "ratio",
}


def layer_metrics(summary: dict, counters: dict, rounds: int, overhead: float) -> dict:
    """{metric: (value, base, reason)}: base is the denominator of a ratio,
    reason is set when the layer did no work on this workload (value 0)."""

    def calls(span):
        return summary.get(span, {}).get("count", 0)

    def absent(span):
        return None if calls(span) else f"no {span} calls on this workload"

    out = {}
    for name, span in SELF_TIME.items():
        out[name] = (summary.get(span, {}).get("self_s", 0.0) / rounds, None, absent(span))
    for name, span in CALLS.items():
        out[name] = (calls(span) / rounds, None, absent(span))
    derived = summary["_derived"]
    closure, walk, conj = "groups.subgroup_closure", "groups.power_walk", "groups.conj"
    out["groups.closure_elems"] = (counters.get("groups.closure_elems", 0) / rounds, None, absent(closure))
    out["groups.table_bytes"] = (
        counters.get("groups.table_bytes", 0) / rounds,
        None,
        None if calls(walk) + calls(conj) else "no power table or conj table computed on this workload",
    )

    def ratio(num, den, what):
        return (num / den if den else 0.0, den, None if den else f"base is 0: no {what} on this workload")

    out["local_tame.pair_yield"] = ratio(
        counters.get("local_tame.pairs", 0), derived["closures_under_tame_pairs"], "closures under enumerate_tame_pairs"
    )
    out["covers.exceptional_frac"] = ratio(
        counters.get("covers.exceptional", 0), calls("covers.verify_beckmann"), "verify_beckmann calls"
    )
    inv = "padic_oracle.kummer_local_invariants"
    out["padic_oracle.f0_s"] = (derived["f0_s"] / rounds, None, absent(inv))
    out["padic_oracle.calls_from_predictor"] = (
        derived["calls_from_predictor"] / rounds,
        None,
        absent("covers.predict_specialization"),
    )
    for key in ("factorize", "prime_divisor_count"):
        hits = counters.get(f"numtheory.{key}.hits", 0)
        out[f"numtheory.{key}_hit_ratio"] = ratio(hits, hits + counters.get(f"numtheory.{key}.misses", 0), f"{key} lookups")
    out["cli.bytes_out"] = (counters.get("cli.bytes_out", 0) / rounds, None, absent("cli.main"))
    out["trace_overhead_frac"] = (overhead, None, None)
    assert set(out) == set(UNITS)
    return out
