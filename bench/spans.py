"""Span tracing around cutnerve's public functions, installed from outside
the package.

Each public function of the layer modules is replaced, in every ``cutnerve``
namespace that binds it (several modules bind names with ``from .x import
y``), by a wrapper that records a span: bucket, start, end and parent span.
``SimplicialComplex.all_faces`` is wrapped too, but spans only the call that
materializes a complex's closure.  A bucket's self time is its spans'
durations minus the time their child spans cover.

Result checks run inside the wrappers on a paused clock, so their cost
lands in no span and in no traced wall time:

- every computed ``reduced_homology`` profile must match the reduced Euler
  characteristic taken from the complex's ``f_vector``;
- every collapsible ``greedy_collapse`` witness must pass ``replay_collapse``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "cutnerve"
LAYERS = ("graphs", "complexes", "constructions", "homology", "morse", "verify")

# complexes' other constructors are left to their caller's self time
COMPLEX_OPS = {"from_facets", "join", "union", "intersection", "equals_labeled"}
SPECIAL = {
    ("homology", "smith_normal_form"): "homology.snf",
    ("morse", "greedy_collapse"): "morse.collapse",
}


def bucket_of(layer: str, name: str) -> str | None:
    if layer == "complexes":
        return "complexes.ops" if name in COMPLEX_OPS else None
    if layer == "morse":
        return SPECIAL.get((layer, name), "morse.certificate")
    return SPECIAL.get((layer, name), layer)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def reduced_euler(f_vector) -> int:
    """-f_{-1} + f_0 - f_1 + ...; entry i of the f-vector counts faces of
    dimension i - 1."""
    return -sum((-1) ** i * f for i, f in enumerate(f_vector))


def profile_euler(profile) -> int:
    return sum((-1) ** d * b for d, b in enumerate(profile.betti)) - profile.minus_one_rank


class Tracer:
    """Spans and counters for the traced passes of one process."""

    def __init__(self):
        self.modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        self.enabled = False
        self.paused = 0.0
        self.job = None
        self._patches: list[tuple[object, str, object]] = []
        self._undone: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[list] = []   # [bucket, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_faces = 0
        self.mismatches: list[tuple[object, str]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    @contextmanager
    def off_clock(self):
        """Run bookkeeping and checks untraced, outside every span."""
        t = time.perf_counter()
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True
            self.paused += time.perf_counter() - t

    def _open(self, bucket: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([bucket, name, self.clock(), None, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][3] = self.clock()
        self.stack.pop()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, bucket: str, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                with tracer.off_clock():
                    state = before(args, kwargs)
            idx = tracer._open(bucket, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                with tracer.off_clock():
                    after(args, kwargs, result, state)
            return result

        wrapper.bench_wrapper = True
        return wrapper

    def _wrap_closure(self, all_faces):
        tracer = self

        @functools.wraps(all_faces)
        def wrapper(cx, *args, **kwargs):
            if not tracer.enabled or cx.void or cx._closure is not None:
                return all_faces(cx, *args, **kwargs)
            idx = tracer._open("complexes.closure", "complexes.all_faces")
            try:
                faces = all_faces(cx, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts["complexes.faces_materialized"] += len(faces)
            tracer.max_faces = max(tracer.max_faces, len(faces))
            return faces

        wrapper.bench_wrapper = True
        return wrapper

    def _hooks(self) -> dict:
        replay = self.modules["morse"].replay_collapse

        def add(key, value):
            self.counts[key] += value

        def homology_before(args, kwargs):
            return _first(args, kwargs)._homology is None

        def homology_after(args, kwargs, profile, computed):
            if not computed:
                return
            add("homology.profiles", 1)
            cx = _first(args, kwargs)
            chi = reduced_euler(cx.f_vector())
            if chi != profile_euler(profile):
                self.mismatches.append((self.job, f"homology {profile.to_json()} vs reduced Euler {chi}"))

        def collapse_after(args, kwargs, witness, _):
            add("morse.collapsible", witness.is_collapsible())
            add("morse.steps_tried", witness.steps_tried)
            add("morse.steps_kept", len(witness.steps))
            if witness.is_collapsible() and not replay(_first(args, kwargs), witness):
                self.mismatches.append((self.job, "collapse witness does not replay"))

        return {
            "graphs.independent_sets": (None, lambda a, k, r, s: add("graphs.independent_sets", len(r))),
            "homology.smith_normal_form": (
                lambda a, k: add("homology.snf_nnz", _first(a, k).nnz()),
                lambda a, k, r, s: add("homology.snf_rank", len(r)),
            ),
            "homology.reduced_homology": (homology_before, homology_after),
            "morse.greedy_collapse": (None, collapse_after),
            "morse.critical_cells": (None, lambda a, k, r, s: add("morse.critical_cells", len(r))),
        }

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                bucket = bucket_of(layer, name)
                if bucket is not None:
                    before, after = hooks.get(f"{layer}.{name}", (None, None))
                    wrappers[obj] = self._wrap(obj, bucket, f"{layer}.{name}", before, after)
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        cls = self.modules["complexes"].SimplicialComplex
        self._patch(cls, "all_faces", self._wrap_closure(cls.all_faces))
        self.enabled = True

    def restore(self) -> int:
        """Put every original binding back; returns how many were patched."""
        self.enabled = False
        self._undone, self._patches = self._patches, []
        for owner, attr, original in reversed(self._undone):
            setattr(owner, attr, original)
        return len(self._undone)

    def restored(self) -> bool:
        """Every restored binding is the original object again, and no
        wrapper is left in any package namespace or on the complex class."""
        owners = self._package_modules() + [self.modules["complexes"].SimplicialComplex]
        leftover = [
            attr for owner in owners for attr, val in vars(owner).items()
            if getattr(val, "bench_wrapper", False)
        ]
        return not leftover and all(getattr(o, a) is orig for o, a, orig in self._undone)

    def _package_modules(self) -> list:
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer figures for the spans recorded since ``reset``."""
        child = defaultdict(float)
        for bucket, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        bucket_calls = Counter()
        for i, (bucket, name, start, end, parent) in enumerate(self.spans):
            self_s[bucket] += end - start - child[i]
            calls[name] += 1
            bucket_calls[bucket] += 1
        c = self.counts
        collapse_calls = calls["morse.greedy_collapse"]
        tried = c["morse.steps_tried"]
        return {
            "graphs.self_s": self_s["graphs"],
            "graphs.calls": bucket_calls["graphs"],
            "graphs.independent_sets": c["graphs.independent_sets"],
            "complexes.closure_s": self_s["complexes.closure"],
            "complexes.faces_materialized": c["complexes.faces_materialized"],
            "complexes.max_faces": self.max_faces,
            "complexes.ops_s": self_s["complexes.ops"],
            "constructions.self_s": self_s["constructions"],
            "constructions.intersections": calls["constructions.cover_intersection"],
            "homology.self_s": self_s["homology"],
            "homology.snf_s": self_s["homology.snf"],
            "homology.snf_calls": calls["homology.smith_normal_form"],
            "homology.snf_nnz": c["homology.snf_nnz"],
            "homology.snf_rank": c["homology.snf_rank"],
            "homology.profiles": c["homology.profiles"],
            "morse.collapse_s": self_s["morse.collapse"],
            "morse.collapse_calls": collapse_calls,
            "morse.collapsible_ratio": c["morse.collapsible"] / collapse_calls if collapse_calls else 0.0,
            "morse.steps_tried": tried,
            "morse.steps_kept": c["morse.steps_kept"],
            "morse.step_yield": c["morse.steps_kept"] / tried if tried else 0.0,
            "morse.certificate_s": self_s["morse.certificate"],
            "morse.critical_cells": c["morse.critical_cells"],
            "verify.self_s": self_s["verify"],
            "verify.jobs": calls["verify.run_scenario"],
            "trace.unattributed_s": wall_s - sum(self_s.values()),
        }
