"""Outside-in layer tracing: spans recorded around calls into dpga.

`Tracer.installed(targets)` looks each target up by name (a path under
the `dpga` package such as "protocol.build_upload" or
"ratewalk.RateState.sample") and, for the duration of the block, replaces
every binding of that function inside the loaded `dpga` modules with a
wrapper that records a span. Call sites therefore see the wrapper no
matter which module imported the name. A target that does not resolve is
listed in `missing` and reports zero calls; nothing under `src/` is
edited.

A span is (id, parent id, name, start ns, end ns). Spans stay in memory
and are written out by `write_spans` when the run ends. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "dpga"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Exact per-layer counts, taken from a traced call's arguments and result.

def _count_examples(tracer, args, kwargs, result):
    tracer.counts["models.loss_and_gradient.examples"] += _arg(args, kwargs, 1, "batch").size


def _count_test_eval(tracer, args, kwargs, result):
    feats = _arg(args, kwargs, 1, "batch").features
    test = tracer.test_features
    if test is not None and (feats is test or (
            feats.shape == test.shape and np.array_equal(feats, test))):
        tracer.counts["models.evaluate.test_calls"] += 1


def _count_shared(tracer, args, kwargs, result):
    tracer.counts["masking.shared_entries"] += len(result.indices)
    tracer.counts["masking.uploaded_entries"] += len(_arg(args, kwargs, 1, "z"))


def _count_union(tracer, args, kwargs, result):
    tracer.counts["protocol.server_aggregate.union_entries"] += len(result.indices)


def _count_replayed(tracer, args, kwargs, result):
    # After the call the client's queue holds exactly the rounds replayed.
    tracer.counts["protocol.apply_correction.replayed_rounds"] += len(
        _arg(args, kwargs, 0, "client").pending)


COUNTERS = (
    "models.loss_and_gradient.examples",
    "models.evaluate.test_calls",
    "masking.shared_entries",
    "masking.uploaded_entries",
    "protocol.server_aggregate.union_entries",
    "protocol.apply_correction.replayed_rounds",
)

# Name -> optional count hook. Order is the order of the report.
TARGETS = {
    "cli.load_config": None,
    "engine.Simulation.__init__": None,
    "data.gen_synthetic": None,
    "data.partition": None,
    "models.init_params": None,
    "engine.Simulation.run": None,
    "protocol.local_round": None,
    "models.loss_and_gradient": _count_examples,
    "protocol.build_upload": _count_shared,
    "masking.topk_shared_indices": None,
    "masking.extract_shared": None,
    "protocol.server_aggregate": _count_union,
    "protocol.apply_correction": _count_replayed,
    "protocol.pairwise_mean": None,
    "ratewalk.RateState.sample": None,
    "engine.objective": None,
    "models.evaluate": _count_test_eval,
    "cli.write_metrics_csv": None,
}


def resolve(target: str):
    """(owner, attribute, function) for a dotted target under PACKAGE, or None."""
    module_name, *attrs = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, attrs[-1], None) if attrs else None
    return None if fn is None or not callable(fn) else (owner, attrs[-1], fn)


class Tracer:
    """In-memory span recorder plus exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self.test_features = None  # the current simulation's test set

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: dict = TARGETS):
        """Wrap every binding of each target inside PACKAGE for the block."""
        patched = []
        for name, hook in targets.items():
            self._name_id(name)
            found = resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn, hook)
            if isinstance(owner, type):
                patched.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(patched):
                if value is None:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, value)

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s for every target, zero if never called."""
        ids = np.asarray(self.span_name, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_ns = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_ns[i]) / 1e9,
                       "total_s": float(total[i]) / 1e9}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """One CSV line per span: id,parent,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for sid, (nid, par, t0, t1) in enumerate(
                    zip(self.span_name, self.parent, self.start, self.end)):
                fh.write(f"{sid},{par},{names[nid]},{t0},{t1}\n")

