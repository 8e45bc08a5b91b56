"""Wrappers installed from outside hochtrace: the traced run's per-layer
timers and spans, and the recorder of every complex a workload builds.

Each target is a module-level function or a class attribute (constructors
through ``__init__``). A module-level function is replaced in every
hochtrace module that imported it by name, so calls from inside the
library are timed too. Hot functions (the structure-map evaluators) get
aggregated count/total/self timers only; every other target also records
one span per call. A call's self time is its duration minus the time of
the wrapped calls made inside it.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

# metric prefix -> [(module, attribute path)]; several attributes may
# share one prefix (HomologyBasis construction and coords, the reports)
TARGETS = {
    "ainf.eval_mu": [("ainf", "AInfAlgebra.eval_mu")],
    "bimod.eval": [("bimod", "AInfBimodule.eval")],
    "cdga.eval_k_multilinear": [("cdga", "eval_k_multilinear")],
    "hoch.HochschildComplex": [("hoch", "HochschildComplex.__init__")],
    "hoch.ClassicalHochschild": [("hoch", "ClassicalHochschild.__init__")],
    "hoch.compare_classical": [("hoch", "compare_classical")],
    "hoch.hh_algebra_induced_map": [("hoch", "hh_algebra_induced_map")],
    "hoch.BarConnesComplex": [("hoch", "BarConnesComplex.__init__")],
    "grdlin.compose": [("grdlin", "GradedMap.compose")],
    "grdlin.sparse_rank": [("grdlin", "sparse_rank")],
    "grdlin.HomologyBasis": [("grdlin", "HomologyBasis.__init__"),
                             ("grdlin", "HomologyBasis.coords")],
    "grdlin.kernel_basis": [("grdlin", "kernel_basis")],
    "grdlin.solve": [("grdlin", "solve")],
    "bimod.tensor_inf": [("bimod", "tensor_inf")],
    "transfer.GeneralizedTrace": [("transfer", "GeneralizedTrace.__init__")],
    "transfer.closed_form_transfer": [("transfer", "closed_form_transfer")],
    "transfer.find_derived_coev": [("transfer", "find_derived_coev")],
    "transfer.reports": [("transfer", "TransferReport.chain_report"),
                         ("transfer", "TransferReport.degree_zero_report"),
                         ("transfer", "GeneralizedTrace.chain_report")],
    "wheeled.free_multilinear_algebra": [("wheeled", "free_multilinear_algebra")],
    "wheeled.gc1_complex": [("wheeled", "gc1_complex")],
}


def _eval_k_key(base, table, map_degree, pairs, gen_degrees):
    return base, id(table), map_degree, pairs, tuple(gen_degrees)


# distinct argument tuples bound the hit rate a memo could reach; the
# algebra or bimodule itself is part of the key (identity hash)
DISTINCT_KEYS = {
    "ainf.eval_mu": lambda self, pairs: (self, pairs),
    "bimod.eval": lambda self, l, r, pairs: (self, l, r, pairs),
    "cdga.eval_k_multilinear": _eval_k_key,
}
COUNT_EMPTY = {"cdga.eval_k_multilinear"}
HOT = set(DISTINCT_KEYS)

# layers of the end-to-end path, as sums of self times; a workload's
# dominant layer is the one with the largest share of traced wall time
LAYERS = {
    "assembly": ["hoch.HochschildComplex", "hoch.ClassicalHochschild", "ainf.eval_mu",
                 "bimod.eval", "cdga.eval_k_multilinear", "bimod.tensor_inf"],
    "checks": ["grdlin.compose", "hoch.compare_classical", "transfer.reports"],
    "elimination": ["grdlin.sparse_rank", "grdlin.HomologyBasis", "grdlin.kernel_basis",
                    "grdlin.solve"],
    "transfer": ["transfer.GeneralizedTrace", "transfer.closed_form_transfer",
                 "transfer.find_derived_coev", "hoch.hh_algebra_induced_map"],
    "wheel": ["wheeled.free_multilinear_algebra", "wheeled.gc1_complex",
              "hoch.BarConnesComplex"],
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "keys", "distinct", "empty")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.keys = set()   # argument tuples seen in the current iteration
        self.distinct = 0   # distinct argument tuples, summed over iterations
        self.empty = 0


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self, lib):
        self.lib = lib
        self.saved = []

    def patch(self, module_name, path, make_wrapper):
        owner, attr = _resolve(getattr(self.lib, module_name), path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        holders = [(owner, attr)]
        if owner is getattr(self.lib, module_name):
            # also the modules that did ``from .x import name``
            holders += [(mod, attr) for mod in vars(self.lib).values()
                        if mod is not owner and getattr(mod, attr, None) is original]
        for holder, name in holders:
            self.saved.append((holder, name, original))
            setattr(holder, name, wrapper)

    def restore(self):
        for holder, name, original in reversed(self.saved):
            setattr(holder, name, original)
        self.saved.clear()


class Tracer:
    """Per-target stats plus spans (name, start, end, parent), kept in
    memory until ``spans`` is written out at the end of the run."""

    def __init__(self, lib):
        self.patcher = Patcher(lib)
        self.stats = {name: Stat() for name in TARGETS}
        self.spans = []          # [id, name, start, end, parent]
        self.stack = []          # frames: [child time, span id of nearest spanned frame]

    def install(self):
        for name, attrs in TARGETS.items():
            for module_name, path in attrs:
                self.patcher.patch(module_name, path, lambda fn, n=name: self._wrap(n, fn))

    def uninstall(self):
        self.patcher.restore()

    def end_iteration(self):
        """Close the distinct-argument count of one workload iteration."""
        for stat in self.stats.values():
            stat.distinct += len(stat.keys)
            stat.keys.clear()

    @contextmanager
    def span(self, name):
        """A span (and timing frame) around benchmark-level steps."""
        parent = self.stack[-1][1] if self.stack else None
        span_id = len(self.spans)
        record = [span_id, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        frame = [0.0, span_id]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            record[3] = time.perf_counter()
            if self.stack:
                self.stack[-1][0] += record[3] - record[2]

    def _wrap(self, name, fn):
        stats = self.stats
        stack = self.stack
        spans = self.spans
        key_of = DISTINCT_KEYS.get(name)
        count_empty = name in COUNT_EMPTY
        hot = name in HOT
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if not hot:
                frame[1] = len(spans)
                record = [frame[1], name, None, None, parent]
                spans.append(record)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat = stats[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not hot:
                    record[2], record[3] = start, end
            if key_of is not None:
                stat.keys.add(key_of(*args, **kwargs))
            if count_empty and not result:
                stat.empty += 1
            return result

        return wrapper


class ComplexRecorder:
    """Collects every complex a workload builds, as (kind, object), so
    their sizes can be checked after the timed region."""

    KINDS = (("grdlin", "Complex"), ("hoch", "HochschildComplex"),
             ("hoch", "BarConnesComplex"))

    def __init__(self, lib):
        self.patcher = Patcher(lib)
        self.built = []

    def install(self):
        for module_name, cls in self.KINDS:
            self.patcher.patch(module_name, f"{cls}.__init__",
                               lambda init, kind=cls: self._wrap(kind, init))

    def uninstall(self):
        self.patcher.restore()

    def take(self):
        built, self.built = self.built, []
        return built

    def _wrap(self, kind, init):
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.built.append((kind, obj))
        return wrapper
