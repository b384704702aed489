"""Outside-in layer trace for the benchmark's traced run.

``Tracer.install()`` replaces each traced library function at every name its
callers look up: the attribute of its own module, every ``from ... import``
copy in the other ``padic_hodge`` modules, and class attributes for methods.
Each call then records a span (name, start, end, parent index) in memory;
``remove()`` puts the originals back.  The library itself is not changed.

Per-layer metrics are derived from the spans at the end: ``calls``,
``total_ms`` (span time), ``self_ms`` (span time minus the time its child
spans cover) plus a few counters recorded at call time.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, class or None, attribute, span name)
TARGETS = [
    ("intpoly", None, "polymul", "intpoly.polymul"),
    ("intpoly", None, "taylor_shift", "intpoly.taylor_shift"),
    ("intpoly", None, "compose", "intpoly.compose"),
    ("seriesops", None, "phi_op", "seriesops.phi_op"),
    ("seriesops", None, "psi_op", "seriesops.psi_op"),
    ("seriesops", None, "d_op", "seriesops.d_op"),
    ("seriesops", None, "gamma_action", "seriesops.gamma_action"),
    ("seriesops", None, "divide_by_log", "seriesops.divide_by_log"),
    ("seriesops", None, "log_order", "seriesops.log_order"),
    ("seriesops", None, "cyclotomic_evaluate", "seriesops.cyclotomic_evaluate"),
    ("seriesops", None, "ilog_series", "seriesops.ilog_series"),
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
    ("cyclotomic", "CyclotomicLayer", "__init__", "cyclotomic.layer_init"),
    ("cyclotomic", "CyclotomicLayer", "pow_rows", "cyclotomic.pow_rows"),
    ("polyroots", None, "find_k_roots", "polyroots.find_k_roots"),
    ("polyroots", None, "poly_eval", "polyroots.poly_eval"),
    ("linalg", None, "charpoly", "linalg.charpoly"),
    ("linalg", None, "echelon", "linalg.echelon"),
    ("modules", "FilteredPhiModule", "phi_stable_subspaces",
     "modules.phi_stable_subspaces"),
    ("modules", "FilteredPhiModule", "sub_degrees", "modules.sub_degrees"),
    ("modules", "FilteredPhiModule", "induced_submodule",
     "modules.induced_submodule"),
    ("modules", "FilteredPhiModule", "twist", "modules.twist"),
    ("modules", "FilteredPhiModule", "tensor_product", "modules.tensor_product"),
    ("serialize", None, "module_from_json", "serialize.module_from_json"),
    ("analytic", None, "det_log_divisibility", "analytic.det_log_divisibility"),
    ("analytic", None, "contradiction_pipeline",
     "analytic.contradiction_pipeline"),
]

# per-layer metrics reported by the traced run: (name, unit)
_TIMED = {
    "intpoly.compose": ("calls", "self_ms"),
    "intpoly.taylor_shift": ("calls", "self_ms"),
    "intpoly.polymul": ("calls", "self_ms"),
    "seriesops.phi_op": ("calls", "total_ms"),
    "seriesops.psi_op": ("calls", "total_ms"),
    "seriesops.d_op": ("calls", "total_ms"),
    "seriesops.gamma_action": ("calls", "total_ms"),
    "seriesops.divide_by_log": ("calls", "total_ms"),
    "seriesops.log_order": ("calls", "total_ms"),
    "seriesops.cyclotomic_evaluate": ("calls", "total_ms"),
    "seriesops.ilog_series": ("calls", "total_ms"),
    "series.mul": ("calls", "total_ms"),
    "cyclotomic.layer_init": ("calls",),
    "cyclotomic.pow_rows": ("calls", "self_ms"),
    "polyroots.find_k_roots": ("calls", "total_ms"),
    "polyroots.poly_eval": ("calls",),
    "linalg.charpoly": ("calls", "self_ms"),
    "linalg.echelon": ("calls", "self_ms"),
    "modules.phi_stable_subspaces": ("calls", "total_ms"),
    "modules.sub_degrees": ("calls", "total_ms"),
    "modules.induced_submodule": ("calls", "total_ms"),
    "modules.twist": ("calls", "total_ms"),
    "modules.tensor_product": ("calls", "total_ms"),
    "serialize.module_from_json": ("calls", "total_ms"),
    "analytic.det_log_divisibility": ("calls", "total_ms"),
    "analytic.contradiction_pipeline": ("calls", "total_ms"),
}
_UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms"}
COUNTERS = [
    ("intpoly.polymul.coeff_bits", "bit"),
    ("seriesops.divide_by_log.rel_digits", "digits"),
    ("seriesops.ilog_series.misses", "count"),
    ("modules.sub_degrees.repeat_ratio", "ratio"),
]
METRICS = [(f"{span}.{stat}", _UNITS[stat])
           for span, stats in _TIMED.items() for stat in stats] + \
    COUNTERS + [("trace.overhead_s", "s")]
# metrics that are counts of work: equal in every traced process of a seed
COUNT_METRICS = [name for name, unit in METRICS
                 if unit in ("count", "bit", "digits", "ratio")]


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self._undo = []
        self.coeff_bits = 0
        self.rel_digits = []
        self._ilog_seen = set()
        self.ilog_misses = 0
        self._sub_seen = set()
        self.sub_repeats = 0
        self._keep = []          # keeps keyed objects alive, so ids stay unique

    # -- call-time counters ------------------------------------------------

    def _on_polymul(self, a, b, mod, out_len):
        self.coeff_bits += (len(a) + len(b)) * mod.bit_length()

    def _on_divide_by_log(self, f, *args, **kw):
        self.rel_digits.append(f.rel)

    def _on_ilog_series(self, field, n):
        key = (id(field), n)
        if key not in self._ilog_seen:
            self._ilog_seen.add(key)
            self._keep.append(field)
            self.ilog_misses += 1

    def _on_sub_degrees(self, module, S):
        key = (id(module), id(S))
        if key in self._sub_seen:
            self.sub_repeats += 1
        else:
            self._sub_seen.add(key)
            self._keep.append((module, S))

    # -- installing the wrappers ---------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            if hook is not None:
                hook(*args, **kw)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return traced

    def install(self):
        hooks = {"intpoly.polymul": self._on_polymul,
                 "seriesops.divide_by_log": self._on_divide_by_log,
                 "seriesops.ilog_series": self._on_ilog_series,
                 "modules.sub_degrees": self._on_sub_degrees}
        loaded = [m for key, m in sys.modules.items()
                  if key == "padic_hodge" or key.startswith("padic_hodge.")]
        for mod_name, cls_name, attr, name in TARGETS:
            owner = sys.modules[f"padic_hodge.{mod_name}"]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, hooks.get(name))
            holders = [owner] if cls_name is not None else loaded
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))

    def remove(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- per-layer numbers ---------------------------------------------------

    def stats(self):
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        out = {}
        for span, stats in _TIMED.items():
            for stat in stats:
                if stat == "calls":
                    value = calls[span]
                elif stat == "total_ms":
                    value = total[span] * 1e3
                else:
                    value = self_time[span] * 1e3
                out[f"{span}.{stat}"] = value
        n_sub = calls["modules.sub_degrees"]
        out["intpoly.polymul.coeff_bits"] = self.coeff_bits
        out["seriesops.divide_by_log.rel_digits"] = (
            sum(self.rel_digits) / len(self.rel_digits)
            if self.rel_digits else 0)
        out["seriesops.ilog_series.misses"] = self.ilog_misses
        out["modules.sub_degrees.repeat_ratio"] = (
            self.sub_repeats / n_sub if n_sub else 0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fobj:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fobj.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
