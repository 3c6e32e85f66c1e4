"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the program's public functions with wrappers
that record a span per call: layer name, start, end, parent span and
request id, kept in memory.  Nothing under src/ changes: the wrappers are
put in place of every reference the program's modules hold (module
globals, module-level dicts such as the CLI dispatch table, and class
attributes for methods), and `uninstall()` puts the originals back.

Only names that exist are wrapped, so the trace survives refactors that
delete some of them; `found` and `missing` say which were seen.  The
untraced benchmark path never imports this module.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.
"""

import fnmatch
import sys
import time
from collections import defaultdict

# (layer, module, name).  A name may be 'Class.method' or a glob over
# module-level names.
TARGETS = [
    ("cli.parse", "padicroots.padic_core", "parse_value"),
    ("roots.verdict", "padicroots.roots", "check_square"),
    ("roots.verdict", "padicroots.roots", "check_coprime"),
    ("roots.verdict", "padicroots.roots", "check_qp"),
    ("roots.solve", "padicroots.roots", "solve"),
    ("roots.solve", "padicroots.roots", "_solve_chain"),
    ("roots.lift", "padicroots.roots", "lift_roots"),
    ("congruence.residue", "padicroots.congruence", "is_qth_residue"),
    ("congruence.residue", "padicroots.congruence", "power_residue_solve"),
    ("congruence.residue", "padicroots.congruence", "index"),
    ("padic_core.selfcheck", "padicroots.padic_core", "PAdic.pow_nat"),
    ("padic_core.selfcheck", "padicroots.padic_core", "PAdic.eq_mod"),
    ("representation.classify", "padicroots.representation", "classify_p"),
    ("representation.classify", "padicroots.representation", "classify_coprime"),
    ("representation.table", "padicroots.representation", "j_no_solution_table"),
    ("representation.epsilon_set", "padicroots.representation", "derived_epsilon_set"),
    ("multinomial.expand", "padicroots.multinomial", "nk_terms"),
    ("multinomial.expand", "padicroots.multinomial", "compute_Nk"),
    # the command functions: what they do beyond their traced children is
    # rendering (str(PAdic) digit peeling, JSON, text)
    ("cli.render", "padicroots.cli", "cmd_*"),
]

# Layer of the span the benchmark opens around each cli.main call; its
# self time is argument parsing and dispatch.
REQUEST_LAYER = "cli.args"

# Per-layer metric name -> unit, in report order.
METRICS = {
    "cli.args.self_ms": "ms",
    "cli.parse.self_ms": "ms",
    "cli.parse.calls": "count",
    "roots.verdict.self_ms": "ms",
    "roots.verdict.calls": "count",
    "roots.solve.self_ms": "ms",
    "roots.lift.self_ms": "ms",
    "roots.lift.calls": "count",
    "roots.lift.digits": "count",
    "roots.lift.digits_unprinted": "count",
    "congruence.residue.self_ms": "ms",
    "congruence.residue.calls": "count",
    "congruence.cache.misses": "count",
    "congruence.cache.hits": "count",
    "padic_core.selfcheck.self_ms": "ms",
    "padic_core.selfcheck.calls": "count",
    "representation.classify.self_ms": "ms",
    "representation.table.self_ms": "ms",
    "representation.epsilon_set.self_ms": "ms",
    "representation.epsilon_set.calls": "count",
    "multinomial.expand.self_ms": "ms",
    "multinomial.terms": "count",
    "cli.render.self_ms": "ms",
    "cli.render.bytes": "bytes",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, start_ns, end_ns, parent index, request id)
        self.stack = []
        self.counts = defaultdict(int)
        self.request_id = -1
        self.request_cmd = None
        self.found = []
        self.missing = []
        self._undo = []
        self._caches = []
        self._cache_base = (0, 0)

    # -- spans ---------------------------------------------------------

    def _open(self, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter_ns(), 0, parent, self.request_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def request(self, rid, argv, call):
        """Run call() as request rid inside a cli.args span."""
        self.request_id, self.request_cmd = rid, argv[0]
        self._open(REQUEST_LAYER)
        try:
            return call()
        finally:
            self._close()

    def _wrap(self, layer, orig):
        tracer = self
        counted = layer in ("roots.lift", "multinomial.expand")

        def traced(*args, **kwargs):
            tracer._open(layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
            tracer.counts[layer + ".calls"] += 1
            if counted:
                tracer._count(layer, result)
            return result

        return traced

    def _count(self, layer, result):
        if layer == "roots.lift":
            digits = sum(getattr(r, "precision", 0) for r in getattr(result, "roots", ()))
            self.counts["roots.lift.digits"] += digits
            if self.request_cmd == "check":
                self.counts["roots.lift.digits_unprinted"] += digits
        elif isinstance(result, list):
            self.counts["multinomial.terms"] += len(result)

    # -- installing ----------------------------------------------------

    def _replace_everywhere(self, orig, new):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("padicroots") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((setattr, mod, key, orig))
                    setattr(mod, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((dict.__setitem__, value, k, orig))
                            value[k] = new

    def install(self):
        self.found, self.missing, self._caches = [], [], []
        for layer, modname, pattern in TARGETS:
            mod = sys.modules.get(modname)
            hits = []
            if mod is not None and "." in pattern:
                cls_name, meth = pattern.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if callable(orig):
                    new = self._wrap(layer, orig)
                    for key, value in list(vars(cls).items()):
                        if value is orig:
                            self._undo.append((setattr, cls, key, orig))
                            setattr(cls, key, new)
                    hits.append(pattern)
            elif mod is not None:
                for name in fnmatch.filter(list(vars(mod)), pattern):
                    orig = vars(mod)[name]
                    if callable(orig) and getattr(orig, "__module__", None) == modname:
                        self._replace_everywhere(orig, self._wrap(layer, orig))
                        hits.append(name)
            if hits:
                self.found += [f"{layer}:{modname.split('.')[-1]}.{h}" for h in hits]
            else:
                self.missing.append(f"{layer}:{modname}.{pattern}")
        seen = set()
        for name, mod in list(sys.modules.items()):
            if name.startswith("padicroots") and mod is not None:
                for key, fn in vars(mod).items():
                    if hasattr(fn, "cache_info") and id(fn) not in seen:
                        seen.add(id(fn))
                        self._caches.append((f"{name.split('.')[-1]}.{key}", fn))
        self._cache_base = self._cache_totals()

    def uninstall(self):
        for op, target, key, orig in reversed(self._undo):
            op(target, key, orig)
        self._undo.clear()
        hits, misses = self._cache_totals()
        self.counts["congruence.cache.hits"] += hits - self._cache_base[0]
        self.counts["congruence.cache.misses"] += misses - self._cache_base[1]

    def _cache_totals(self):
        hits = sum(fn.cache_info().hits for _, fn in self._caches)
        misses = sum(fn.cache_info().misses for _, fn in self._caches)
        return hits, misses

    def cache_names(self):
        return [name for name, _ in self._caches]

    # -- summary -------------------------------------------------------

    def summary(self, passes):
        """Per-layer metrics per pass over the request list."""
        covered = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = defaultdict(int)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            self_ns[layer] += end - start - covered[i]
        out = {}
        for name in METRICS:
            if name.endswith(".self_ms"):
                out[name] = self_ns[name.removesuffix(".self_ms")] / 1e6 / passes
            elif name != "trace.overhead_pct":
                out[name] = self.counts.get(name, 0) / passes
        return out
