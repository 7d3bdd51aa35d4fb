"""Layer tracing installed from outside the program.

``install`` wraps the public functions and methods of every loaded nsjack
layer module.  Each wrapped call opens a frame; on exit the tracer adds
the call's duration to its parent frame, so a frame's self time is its
duration minus the time covered by its children.  Calls into ``poly`` and
``combinat`` only update counters, because per-call spans would number in
the hundreds of thousands; calls into the other layers also keep a span
(name, start, end, parent) in memory, written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("poly", "combinat", "operators", "linalg", "jack",
          "hermite_laguerre", "kernels", "suites")
COUNTER_ONLY = ("poly", "combinat")
POLY_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__",
                "__eq__")
POLY_ADD = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
POLY_MUL = ("__mul__", "__rmul__", "__truediv__", "__pow__")
POLY_SUBST = ("swap_vars", "permute_vars", "negate_var", "negate_all_vars",
              "invert_vars", "scale_exponents", "shift_by_one")
NAMED_OPERATORS = ("dunkl", "cherednik", "cherednik_direct", "laplacian_A",
                   "laplacian_B", "b_op", "psi_hat_star", "divided_difference",
                   "divide_by_difference")
# groups whose inclusive time is reported besides layers and names
GROUPS = {
    "hermite_laguerre.raise_op": "hermite_laguerre.ladder",
    "hermite_laguerre.lower_op": "hermite_laguerre.ladder",
    "hermite_laguerre.harmonic_components": "hermite_laguerre.harmonic",
    "hermite_laguerre.from_harmonics": "hermite_laguerre.harmonic",
}
SIZED_LAYERS = ("jack", "hermite_laguerre", "kernels")
CACHED_E = ("jack.E", "hermite_laguerre.E")


class Tracer:
    """Frames, counters and spans of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []        # open frames: [groups, start, child_s, span]
        self.spans = []        # [name, start, end, parent span or -1]
        self.calls = Counter()
        self.self_s = Counter()
        self.incl = Counter()  # inclusive time of the outermost open frame
        self.depth = Counter()
        self.misses = Counter()
        self.results = {}      # id -> sized result, kept alive until measured
        self.seen_terms = set()
        self.term_applications = 0
        self.term_repeats = 0
        self.suite_reports = 0
        self.suite_failed = 0
        self._restore = []

    # -- frames ------------------------------------------------------------

    def enter(self, groups, spanned):
        span = -1
        if spanned:
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0), -1)
            span = len(self.spans)
            self.spans.append([groups[0], None, None, parent])
        for g in groups:
            self.depth[g] += 1
        start = self.clock()
        if span >= 0:
            self.spans[span][1] = start
        self.stack.append([groups, start, 0.0, span])

    def exit(self):
        end = self.clock()
        groups, start, child_s, span = self.stack.pop()
        dur = end - start
        name = groups[0]
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        for g in groups:
            self.depth[g] -= 1
            if not self.depth[g]:
                self.incl[g] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if span >= 0:
            self.spans[span][2] = end

    def wrap(self, name, layer, fn, before=None, after=None):
        groups = (name, layer) + ((GROUPS[name],) if name in GROUPS else ())
        spanned = layer not in COUNTER_ONLY
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.enter(groups, spanned)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _miss_hook(self, name):
        def before(args):
            obj, eta = args[0], args[1]
            if tuple(eta) not in getattr(obj, "_cache", ()):
                self.misses[name] += 1
        return before

    def _repeat_hook(self, name, is_method):
        def before(args):
            if is_method:
                ops, p, idx = args[0], args[1], args[2:]
                key = (name, ops.alpha, ops.a, ops.vars, idx)
            else:
                p, idx = args[0], args[1:]
                key = (name, idx)
            seen = self.seen_terms
            for e in p.terms:
                k = (key, e)
                self.term_applications += 1
                if k in seen:
                    self.term_repeats += 1
                else:
                    seen.add(k)
        return before

    def _keep_result(self, result):
        if hasattr(result, "terms") and hasattr(result, "sorted_terms"):
            self.results[id(result)] = result

    def _count_reports(self, reports):
        if self.depth["suites"] == 0:
            self.suite_reports += len(reports)
            self.suite_failed += sum(1 for r in reports
                                     if r.get("status") != "pass")

    # -- installation --------------------------------------------------------

    def _traced(self, layer, attr, fn, is_method):
        name = f"{layer}.{attr}"
        before = after = None
        if layer == "operators" and attr in NAMED_OPERATORS:
            before = self._repeat_hook(attr, is_method)
        elif name in CACHED_E and is_method:
            before = self._miss_hook(name)
        if layer in SIZED_LAYERS:
            after = self._keep_result
        elif layer == "suites" and attr.startswith("suite_"):
            after = self._count_reports
        return self.wrap(name, layer, fn, before, after)

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self):
        """Wrap every loaded layer module; returns self."""
        wrapped = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"nsjack.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._traced(layer, attr, obj, False)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
            if layer == "kernels":
                checks = mod.IDENTITY_CHECKS
                for ident, fn in list(checks.items()):
                    self._set(checks, ident, self.wrap(
                        f"kernels.check.{ident}", "kernels", fn,
                        after=self._keep_result))
        # rebind every module-level reference, including `from x import f`
        for modname, mod in list(sys.modules.items()):
            if modname != "nsjack" and not modname.startswith("nsjack."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        return self

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and not (layer == "poly"
                                             and attr in POLY_DUNDERS):
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, self._traced(layer, attr, obj, True))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(
                    self._traced(layer, attr, obj.__func__, False)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def _sum(self, table, layer, names=None):
        prefix = layer + "."
        return sum(v for k, v in table.items() if k.startswith(prefix)
                   and (names is None or k[len(prefix):] in names))

    def layer_self(self, layer):
        return self._sum(self.self_s, layer)

    def metrics(self):
        """Per-layer metrics; call after ``uninstall`` and outside timing."""
        c, incl = self.calls, self.incl
        max_terms = max_bits = 0
        for p in self.results.values():
            max_terms = max(max_terms, len(p.terms))
            for v in p.terms.values():
                max_bits = max(max_bits, v.numerator.bit_length(),
                               v.denominator.bit_length())
        out = {
            "poly.add_calls": c["poly.__add__"] + c["poly.__radd__"],
            "poly.add_s": self._sum(self.self_s, "poly", POLY_ADD),
            "poly.mul_calls": c["poly.__mul__"] + c["poly.__rmul__"],
            "poly.mul_s": self._sum(self.self_s, "poly", POLY_MUL),
            "poly.subst_calls": self._sum(c, "poly", POLY_SUBST),
            "poly.subst_s": self._sum(self.self_s, "poly", POLY_SUBST),
            "poly.self_s": self.layer_self("poly"),
            "poly.max_terms": max_terms,
            "poly.max_coeff_bits": max_bits,
            "combinat.calls": self._sum(c, "combinat"),
            "combinat.s": incl["combinat"],
            "operators.calls": self._sum(c, "operators"),
            "operators.s": incl["operators"],
            "operators.self_s": self.layer_self("operators"),
        }
        for op in NAMED_OPERATORS:
            out[f"operators.{op}_calls"] = c[f"operators.{op}"]
            out[f"operators.{op}_s"] = incl[f"operators.{op}"]
        out["operators.repeat_term_share"] = (
            self.term_repeats / self.term_applications
            if self.term_applications else 0.0)
        for name in CACHED_E:
            calls = c[name]
            out[f"{name}_hit_ratio"] = (1 - self.misses[name] / calls
                                        if calls else 0.0)
            out[f"{name}_s"] = incl[name]
        out.update({
            "jack.E_calls": c["jack.E"],
            "jack.E_computed": self.misses["jack.E"],
            "jack.E_oracle_s": incl["jack.E_oracle"],
            "linalg.solve_exact_calls": c["linalg.solve_exact"],
            "linalg.solve_exact_s": incl["linalg.solve_exact"],
            "hermite_laguerre.ladder_s": incl["hermite_laguerre.ladder"],
            "hermite_laguerre.harmonic_s": incl["hermite_laguerre.harmonic"],
            "hermite_laguerre.pairing_row_s":
                incl["hermite_laguerre.pairing_row"],
            "kernels.kernel_series_calls": c["kernels.kernel_series"],
            "kernels.kernel_series_s": incl["kernels.kernel_series"],
            "kernels.binomial_coeff_s": incl["kernels.binomial_coeff"],
        })
        for name, value in incl.items():
            if name.startswith("kernels.check."):
                out[f"{name}_s"] = value
        for suite in ("operators", "kernels", "binomials"):
            out[f"suites.{suite}_s"] = incl[f"suites.suite_{suite}"]
        out["suites.reports"] = self.suite_reports
        out["suites.failed"] = self.suite_failed
        return out

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], a, b, p]
                                 for n, a, b, p in self.spans]}, fh)
