"""Per-layer tracing of cmlab, done entirely from the benchmark's side.

``Tracer.install`` wraps every public function of each module of
``src/cmlab`` (the names in the module's ``__all__``), plus
``PrecisionContext.__init__`` and the derivative callbacks of the built-in
families.  Each wrapper records a span: on exit its duration is folded into
per-function and per-layer totals, so nothing grows with the number of
calls.  The layer of a function is the module that defines it.

Definitions used by :meth:`Tracer.metrics`:

* inclusive time of a function counts only its outermost spans, so a
  function nested in itself is not counted twice;
* self time of a span is its duration minus the time of the spans of
  *other* layers beneath it (a nested span of the same layer passes its
  own other-layer time up instead), so ``remainders.remainder_deriv.self_s``
  excludes the gammakit and precision work it triggers;
* layer time counts the outermost span of that layer only.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "precision",
    "combinatorics",
    "gammakit",
    "remainders",
    "kernels",
    "quadrature",
    "cmdegree",
    "cli",
)

#: the four integral shapes; only their top-level calls count as integrals
INTEGRALS = frozenset(
    "quadrature." + n for n in ("laplace", "bose_moment", "cos_kernel_integral", "sin_kernel_integral")
)


class _Frame:
    __slots__ = ("layer", "key", "other")

    def __init__(self, layer, key):
        self.layer = layer
        self.key = key
        self.other = 0.0


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self._key_depth = defaultdict(int)
        self._layer_depth = defaultdict(int)
        self.integrals = 0
        self.integrand_evals = 0
        self.integral_s = 0.0
        self._integral_depth = 0
        self.family_evals = 0
        self.cm_check_cold_s = 0.0
        self.cm_check_warm_s = 0.0
        self._bracket_checks = None

    # -- spans ---------------------------------------------------------

    def _enter(self, layer, key):
        frame = _Frame(layer, key)
        self.stack.append(frame)
        self._key_depth[key] += 1
        self._layer_depth[layer] += 1
        return frame

    def _exit(self, frame, dur):
        self.stack.pop()
        key, layer = frame.key, frame.layer
        self._key_depth[key] -= 1
        self._layer_depth[layer] -= 1
        self.calls[key] += 1
        if self._key_depth[key] == 0:
            self.incl_s[key] += dur
        if self._layer_depth[layer] == 0:
            self.layer_s[layer] += dur
        self.self_s[key] += dur - frame.other
        if self.stack:
            parent = self.stack[-1]
            parent.other += dur if parent.layer != layer else frame.other

    def wrap(self, layer, name, fn):
        key = "%s.%s" % (layer, name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer, key)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, perf_counter() - t0)

        if key in INTEGRALS:
            return self._wrap_integral(traced)
        if key == "cmdegree.degree_estimate":
            return self._wrap_bracket(traced)
        if key == "cmdegree.cm_check":
            return self._wrap_cm_check(traced)
        if key == "cmdegree.builtin_families":
            return self._wrap_families(traced)
        return traced

    # -- layer-specific counters -----------------------------------------

    def _wrap_integral(self, traced):
        @functools.wraps(traced)
        def integral(*args, **kwargs):
            top = self._integral_depth == 0
            self._integral_depth += 1
            t0 = perf_counter()
            try:
                result = traced(*args, **kwargs)
            finally:
                self._integral_depth -= 1
            if top:
                self.integrals += 1
                self.integrand_evals += int(result.evaluations)
                self.integral_s += perf_counter() - t0
            return result

        return integral

    def _wrap_bracket(self, traced):
        @functools.wraps(traced)
        def bracket(*args, **kwargs):
            self._bracket_checks = 0
            try:
                return traced(*args, **kwargs)
            finally:
                self._bracket_checks = None

        return bracket

    def _wrap_cm_check(self, traced):
        # the first check of a bracket fills the derivative cache (cold);
        # every later check of the same bracket reuses it (warm); a check
        # outside any bracket starts from an empty cache
        @functools.wraps(traced)
        def cm_check(*args, **kwargs):
            cold = not self._bracket_checks
            if self._bracket_checks is not None:
                self._bracket_checks += 1
            t0 = perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                if cold:
                    self.cm_check_cold_s += dur
                else:
                    self.cm_check_warm_s += dur

        return cm_check

    def _count_family(self, eval_deriv):
        @functools.wraps(eval_deriv)
        def counted(*args, **kwargs):
            self.family_evals += 1
            return eval_deriv(*args, **kwargs)

        return counted

    def _wrap_families(self, traced):
        @functools.wraps(traced)
        def builtin_families(*args, **kwargs):
            fams = traced(*args, **kwargs)
            return {
                name: dataclasses.replace(fam, eval_deriv=self._count_family(fam.eval_deriv))
                for name, fam in fams.items()
            }

        return builtin_families

    # -- installation ----------------------------------------------------

    def install(self, cmlab):
        """Patch every cmlab module namespace (and the package) so each
        public function resolves to its traced wrapper."""
        modules = [getattr(cmlab, layer) for layer in LAYERS]
        namespaces = modules + [cmlab]
        for layer, module in zip(LAYERS, modules):
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(layer, name, obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
        ctx_cls = cmlab.precision.PrecisionContext
        ctx_cls.__init__ = self.wrap("precision", "PrecisionContext", ctx_cls.__init__)

    # -- results -----------------------------------------------------------

    def metrics(self):
        integrals = self.integrals
        return {
            "precision.contexts": self.calls["precision.PrecisionContext"],
            "precision.context_s": self.incl_s["precision.PrecisionContext"],
            "combinatorics.s": self.layer_s["combinatorics"],
            "gammakit.polygamma.calls": self.calls["gammakit.polygamma"],
            "gammakit.polygamma.s": self.incl_s["gammakit.polygamma"],
            "gammakit.ln_gamma.calls": self.calls["gammakit.ln_gamma"],
            "gammakit.ln_gamma.s": self.incl_s["gammakit.ln_gamma"],
            "remainders.remainder_deriv.calls": self.calls["remainders.remainder_deriv"],
            "remainders.remainder_deriv.self_s": self.self_s["remainders.remainder_deriv"],
            "kernels.f_kernel.calls": self.calls["kernels.f_kernel"],
            "kernels.f_kernel.s": self.incl_s["kernels.f_kernel"],
            "kernels.K_kernel.calls": self.calls["kernels.K_kernel"],
            "kernels.K_kernel.s": self.incl_s["kernels.K_kernel"],
            "kernels.bose_derivative.calls": self.calls["kernels.bose_derivative"],
            "quadrature.integrals": integrals,
            "quadrature.integrand_evals": self.integrand_evals,
            "quadrature.evals_per_integral": self.integrand_evals / integrals if integrals else 0.0,
            "quadrature.cos_kernel_integral.s": self.incl_s["quadrature.cos_kernel_integral"],
            "quadrature.s": self.integral_s,
            "cmdegree.cm_check.calls": self.calls["cmdegree.cm_check"],
            "cmdegree.cm_check.cold_s": self.cm_check_cold_s,
            "cmdegree.cm_check.warm_s": self.cm_check_warm_s,
            "cmdegree.family_evals": self.family_evals,
            # cli.main is the only public cli function, so its self time is
            # argument parsing, suite bookkeeping and output formatting
            "cli.self_s": self.self_s["cli.main"],
        }

    def table(self):
        """Every traced function: calls, inclusive and self seconds."""
        return {
            key: {"calls": self.calls[key], "incl_s": self.incl_s[key], "self_s": self.self_s[key]}
            for key in sorted(self.calls)
        }
