"""Spans around calls into varcodes' public functions, from outside the package.

`installed(tracer)` rebinds public functions to recording wrappers for the
duration of a `with` block and restores the originals afterwards.  Where a
module imported a name into its own namespace (`codes.rref`,
`varieties.det`, ...), the binding that caller uses is the one wrapped.
Only the main thread calls wrapped functions: the engine's worker threads
run private code, so one span stack suffices.

Spans live in flat arrays (the 6-arc search alone makes ~755k `det` calls)
and are written once, as JSON lines, by `write_jsonl`.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def add(self, key: str, inc: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + inc

    def span(self, name: str, fn, count=None):
        """fn wrapped to record one span per call.

        count(result, args) gives {counter: increment} for problem-size
        counters that only the call's arguments or result can tell.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                for key, inc in count(result, args).items():
                    self.add(key, inc)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """fn wrapped to count its calls without a span."""

        def wrapper(*args, **kwargs):
            self.add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, int]:
        """Every count the tracer holds, span counts included (no timings)."""
        calls = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        out = {f"spans.{n}": int(c) for n, c in zip(self.names, calls)}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_jsonl(self, fh, phase: str, t0: int) -> None:
        """One line per span; times in ns since t0, parent -1 for a root."""
        names = self.names
        for i, (n, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
            fh.write(
                f'{{"phase":"{phase}","id":{i},"name":"{names[n]}",'
                f'"start":{s - t0},"end":{e - t0},"parent":{p}}}\n'
            )


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^k."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@contextmanager
def installed(tracer: Tracer):
    """Wrap varcodes' public functions with tracer spans inside the block."""
    from varcodes import bounds, cli, codes, gf, linalg, projgeom, varieties

    saved = []

    def patch(owner, attr, make):
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def span(owner, attr, name, count=None):
        patch(owner, attr, lambda fn: tracer.span(name, fn, count))

    def class_count(args):
        code = args[0]
        return (code.field.q ** code.k - 1) // (code.field.q - 1)

    try:
        span(gf.GF, "__init__", "gf.field")
        for owner in (projgeom, varieties):
            span(
                owner,
                "enumerate_projective_points",
                "projgeom.enumerate_points",
                lambda res, args: {"projgeom.points_enumerated": len(res)},
            )
        for owner in (codes, cli):
            span(
                owner,
                "build_point_set",
                "varieties.point_set",
                lambda res, args: {"varieties.points": len(res)},
            )
        span(
            codes,
            "delpezzo_points",
            "varieties.delpezzo",
            lambda res, args: {"varieties.points": len(res[0])},
        )
        for owner in (linalg, varieties):
            span(owner, "det", "linalg.det")
        span(varieties, "maximal_minors", "linalg.maximal_minors")
        for owner in (linalg, codes):
            span(owner, "rref", "linalg.rref")
        patch(linalg.Matrix, "__post_init__", lambda fn: tracer.counter("linalg.matrix_new", fn))
        span(
            codes,
            "build_evaluation_code",
            "codes.build",
            lambda res, args: {"codes.eval_entries": res.n * (res.k + res.kernel_dim)},
        )
        for owner in (codes, cli):
            span(owner, "code_from_descriptor", "codes.build")
            span(
                owner,
                "min_distance",
                "codes.min_distance",
                lambda res, args: {"codes.classes": class_count(args)},
            )
            span(
                owner,
                "weight_distribution",
                "codes.weight_distribution",
                lambda res, args: {"codes.classes": class_count(args)},
            )
            span(
                owner,
                "ghw",
                "codes.ghw",
                lambda res, args: {
                    "codes.subspaces": gaussian_binomial(args[0].k, args[1], args[0].field.q)
                },
            )
        span(codes.LinearCode, "to_dict", "codes.to_dict")
        span(codes.LinearCode, "from_dict", "codes.from_dict")
        for attr in ("predict", "applicable_bounds", "lower_bound_value"):
            span(cli, attr, f"predict.{attr}")
        for attr, fn in vars(bounds).copy().items():
            own = inspect.isfunction(fn) and fn.__module__ == bounds.__name__
            if own and not attr.startswith("_"):
                span(bounds, attr, f"bounds.{attr}")
        span(codes, "gaussian_binomial", "bounds.gaussian_binomial")
        span(cli, "main", "cli.main")
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-layer times and counts summed over the given tracers."""
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}

    def group(name: str) -> str:
        # Nested spans of one group (bounds calling bounds, code_from_descriptor
        # calling build_evaluation_code) count once in the inclusive time.
        return name.split(".")[0] if name.startswith(("bounds.", "predict.")) else name

    for t in tracers:
        for key, v in t.counts.items():
            counts[key] = counts.get(key, 0) + v
        if not len(t.start):
            continue
        name = np.frombuffer(t.name, dtype=np.int32)
        parent = np.frombuffer(t.parent, dtype=np.int32)
        dur = (np.frombuffer(t.end, dtype=np.int64) - np.frombuffer(t.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        groups = [group(n) for n in t.names]
        gid = np.array([groups.index(g) for g in groups])[name]
        parent_gid = np.where(has_parent, gid[np.maximum(parent, 0)], -1)
        outermost = parent_gid != gid
        for i, n in enumerate(t.names):
            sel = name == i
            g = groups[i]
            incl[g] = incl.get(g, 0.0) + float(dur[sel & outermost].sum())
            self_s[n] = self_s.get(n, 0.0) + float((dur[sel] - child[sel]).sum())
            calls[n] = calls.get(n, 0) + int(sel.sum())

    md = incl.get("codes.min_distance", 0.0)
    wd = incl.get("codes.weight_distribution", 0.0)
    ghw = incl.get("codes.ghw", 0.0)
    classes = counts.get("codes.classes", 0)
    subspaces = counts.get("codes.subspaces", 0)
    return {
        "gf.field_s": incl.get("gf.field", 0.0),
        "projgeom.enumerate_points_s": incl.get("projgeom.enumerate_points", 0.0),
        "projgeom.points_enumerated": counts.get("projgeom.points_enumerated", 0),
        "varieties.point_set_s": self_s.get("varieties.point_set", 0.0)
        + self_s.get("varieties.delpezzo", 0.0),
        "varieties.points": counts.get("varieties.points", 0),
        "varieties.delpezzo_s": incl.get("varieties.delpezzo", 0.0),
        "linalg.det_s": incl.get("linalg.det", 0.0),
        "linalg.det_calls": calls.get("linalg.det", 0),
        "linalg.maximal_minors_s": incl.get("linalg.maximal_minors", 0.0),
        "linalg.rref_s": incl.get("linalg.rref", 0.0),
        "linalg.rref_calls": calls.get("linalg.rref", 0),
        "linalg.matrix_new": counts.get("linalg.matrix_new", 0),
        "codes.build_s": self_s.get("codes.build", 0.0),
        "codes.eval_entries": counts.get("codes.eval_entries", 0),
        "codes.min_distance_s": md,
        "codes.weight_distribution_s": wd,
        "codes.classes": classes,
        "codes.classes_per_s": classes / (md + wd) if md + wd else 0.0,
        "codes.ghw_s": ghw,
        "codes.subspaces": subspaces,
        "codes.subspaces_per_s": subspaces / ghw if ghw else 0.0,
        "codes.to_dict_s": incl.get("codes.to_dict", 0.0),
        "codes.from_dict_s": incl.get("codes.from_dict", 0.0),
        "predict.s": incl.get("predict", 0.0),
        "bounds.s": incl.get("bounds", 0.0),
        "cli.main_self_s": self_s.get("cli.main", 0.0),
    }
