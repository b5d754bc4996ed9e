"""Span recording for the traced benchmark run.

The tracer wraps public functions and methods of each ``maassdensity``
module from outside the package. A function is replaced under every name
any module imported it as (``density.kloosterman_sum`` and
``kuznetsov.kloosterman_sum`` are one layer), so each call records exactly
one span. Spans are kept in memory as flat lists (name, start, end, parent)
and summarised when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer name, module, attribute): functions, patched under every alias
FUNCTIONS = (
    ("fastpath.j_array", "maassdensity._fastpath", "j_array"),
    ("arithmetic.kloosterman_sum", "maassdensity.arithmetic", "kloosterman_sum"),
    ("besseltransform.dj_quadrature", "maassdensity.besseltransform", "dj_quadrature"),
    ("besseltransform.dj_residue_sum", "maassdensity.besseltransform", "dj_residue_sum"),
    ("besseltransform.dj_asymptotic", "maassdensity.besseltransform", "dj_asymptotic"),
    ("specfun.zeta_abs2_grid", "maassdensity.specfun", "zeta_abs2_grid"),
    ("specfun.scaled_bessel_j_imag", "maassdensity.specfun", "scaled_bessel_j_imag"),
    ("specfun.scaled_bessel_series_grid", "maassdensity.specfun",
     "scaled_bessel_series_grid"),
    ("specfun.log_gamma_complex", "maassdensity.specfun", "log_gamma_complex"),
    ("kuznetsov.geometric_side", "maassdensity.kuznetsov", "geometric_side"),
    ("rmt.make_test_function", "maassdensity.rmt", "make_test_function"),
    ("rmt.rmt_expected_value", "maassdensity.rmt", "rmt_expected_value"),
    ("density.explicit_formula_average", "maassdensity.density",
     "explicit_formula_average"),
)

# (layer name, module, class, method)
METHODS = (
    ("besseltransform.ResidueEvaluator.value", "maassdensity.besseltransform",
     "ResidueEvaluator", "value"),
    ("besseltransform.ResidueEvaluator.init", "maassdensity.besseltransform",
     "ResidueEvaluator", "__init__"),
    ("weights.h_T_real", "maassdensity.weights", "SpectralWeight", "h_T_real"),
    ("density.DensityEngine.init", "maassdensity.density", "DensityEngine", "__init__"),
    ("density.averaged_lambda", "maassdensity.density", "DensityEngine",
     "averaged_lambda"),
)

# the arbitrary-precision fallback of scaled_bessel_j_imag, which imports
# mpmath lazily and calls mpmath.besselj through the module attribute
MPMATH = ("specfun.mpmath_besselj", "mpmath", "besselj")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.zeta_points = 0
        self.lambda_calls = 0
        self.lambda_repeats = 0
        self._lambda_seen: set = set()

    def wrap(self, name: str, fn, hook=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _count_zeta(self, args):
        self.zeta_points += int(getattr(args[0], "size", 1))

    def _count_lambda(self, args):
        key = (id(args[0]), int(args[1]))
        self.lambda_calls += 1
        if key in self._lambda_seen:
            self.lambda_repeats += 1
        else:
            self._lambda_seen.add(key)

    def install(self):
        """Patch every layer the package has; a missing one is skipped."""
        import mpmath  # noqa: F401  (patched below; the package imports it lazily)

        hooks = {"specfun.zeta_abs2_grid": self._count_zeta,
                 "density.averaged_lambda": self._count_lambda}
        pkg = [mod for key, mod in list(sys.modules.items())
               if key == "maassdensity" or key.startswith("maassdensity.")]
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                continue
            setattr(cls, attr, self.wrap(name, fn, hooks.get(name)))
        name, modname, attr = MPMATH
        mod = sys.modules[modname]
        setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def summary(self, window_s: float) -> dict:
        """Per-layer calls, self and inclusive times, and the accounting.

        Self time is a span's duration minus the durations of its direct
        children. Inclusive time counts only the outermost span of a name,
        so recursion is not counted twice. ``unattributed_s`` is window time
        outside every root span; self times plus it must equal the window.
        """
        n = len(self.names)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        nesting_ok = True
        root_time = 0.0
        last_root_end = -float("inf")
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                if starts[i] < starts[p] or ends[i] > ends[p]:
                    nesting_ok = False
            else:
                if starts[i] < last_root_end:
                    nesting_ok = False
                last_root_end = ends[i]
                root_time += dur[i]
        layers: dict = {}
        self_total = 0.0
        for i in range(n):
            own = dur[i] - child[i]
            self_total += own
            rec = layers.setdefault(names[i], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += own
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                rec["incl_s"] += dur[i]
        unattributed = window_s - root_time
        accounting_gap = abs(self_total + unattributed - window_s)
        return {
            "layers": layers,
            "spans": n,
            "window_s": window_s,
            "self_total_s": self_total,
            "unattributed_s": unattributed,
            "nesting_ok": nesting_ok,
            "accounting_ok": nesting_ok and accounting_gap <= 1e-9 * max(1.0, window_s),
            "zeta_points": self.zeta_points,
            "lambda_calls": self.lambda_calls,
            "lambda_repeats": self.lambda_repeats,
        }
