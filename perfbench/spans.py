"""Span tracing around fracp's public functions, from outside the package.

A :class:`Tracer` replaces every public function of the traced modules by
a wrapper at every module attribute that binds it: ``fracp.operator.
weak_residual`` and the copies that ``from .operator import weak_residual``
made in ``fracp.solver``, ``fracp.verify`` and ``fracp.analysis`` each get
the wrapper, so a call is seen whichever binding the caller goes through.
Nothing in the package is edited; :meth:`Tracer.uninstall` puts every
original back.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory; :func:`layer_metrics` turns
them, and the counters the observers took from returned objects, into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("kernel", "quadrature", "operator", "solver", "analysis",
          "verify", "cli")

# full-size (M+1)^2 float64 temporaries each evaluation writes, counted from
# the array expressions of fracp.operator (p == 2 skips the power in the
# residual); the tail-coupling arrays are (M+1) x n_tail and are left out
_EVAL_TEMPORARIES = {
    "operator.energy_seminorm": lambda p: 4,
    "operator.weak_residual": lambda p: 2 if p == 2.0 else 5,
    "operator.energy_hessian": lambda p: 6,
}


def _tol_of(fn, args, kwargs) -> float:
    return inspect.signature(fn).bind(*args, **kwargs).arguments["tol"]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.quad_evals = 0
        self.assembly_error = 0.0
        self.eval_bytes = 0
        self.checks = 0
        self.checks_failed = 0
        self.unsettled = 0
        # (SolveReport, tol, is_level); the reports are read at the end,
        # after the continuation has set its final convergence flags
        self.reports: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``, with its counter."""
        observe = self._observer(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def _observer(self, name: str, fn):
        if name == "quadrature.integrate":
            def observe(args, kwargs, res):
                self.quad_evals += res.n_evals
        elif name == "operator.assemble":
            def observe(args, kwargs, K):
                self.assembly_error = max(self.assembly_error,
                                          K.assembly_error)
        elif name in _EVAL_TEMPORARIES:
            temporaries = _EVAL_TEMPORARIES[name]

            def observe(args, kwargs, res):
                K = args[1] if len(args) > 1 else kwargs["K"]
                n = K.weights.shape[0]
                self.eval_bytes += 8 * n * n * temporaries(K.p)
        elif name in ("solver.minimize_Jn", "solver.solve_full"):
            def observe(args, kwargs, res):
                self.reports.append((res[1], _tol_of(fn, args, kwargs),
                                     name == "solver.minimize_Jn"))
        elif name == "solver.solve_pure_singular":
            def observe(args, kwargs, res):
                schedule = inspect.signature(fn).bind(
                    *args, **kwargs).arguments["schedule"]
                reports = res[1]
                if len(schedule) > 1 and len(reports) == len(schedule) \
                        and not reports[-1].converged:
                    self.unsettled += 1
        elif name == "verify.run_acceptance":
            def observe(args, kwargs, report):
                self.checks += len(report.checks)
                self.checks_failed += sum(not c.passed
                                          for c in report.checks)
        else:
            observe = None
        return observe

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions at every binding.

        Every layer is imported first: a module imported while the tracer
        is installed would bind the wrappers, and keep them after
        :meth:`uninstall`.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module(f"fracp.{layer}")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "fracp" or name.startswith("fracp."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"fracp.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @property
    def bindings(self) -> list[tuple]:
        """(module, attribute, original) for each binding now wrapped."""
        return list(self._patches)


# -- arithmetic on spans ---------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so the children of one span are disjoint and
    lie inside it; subtracting their durations removes exactly the part
    of the interval they cover.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, names) -> list[int]:
    """Indices of spans in ``names`` with no ancestor in ``names``."""
    out = []
    for i, (name, parent, _, _) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for (name, _, start, end), t in zip(spans, own):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += t
    return table


# inclusive-time metrics: name -> the spans they sum (outermost only, so a
# power_profile_constant that calls power_profile_result counts once)
INCLUSIVE = {
    "kernel.phi_table": {"kernel.get_phi_table"},
    "kernel.profile_constant": {"kernel.power_profile_constant",
                                "kernel.power_profile_result"},
    "kernel.cross_check": {"kernel.cross_check_p2"},
    "operator.energy": {"operator.energy_seminorm"},
    "operator.residual": {"operator.weak_residual"},
    "operator.hessian": {"operator.energy_hessian"},
    "analysis.fundamental_residual": {"analysis.fundamental_residual"},
}
SELF = {
    "quadrature.integrate": "quadrature.integrate",
    "operator.assemble": "operator.assemble",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts from one traced stretch of work."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, _, _, _), t in zip(spans, own):
        out[name.split(".", 1)[0] + ".self_s"] += t
    for metric, names in INCLUSIVE.items():
        top = _outermost(spans, names)
        out[metric + ".s"] = sum(spans[i][3] - spans[i][2] for i in top)
        out[metric + ".calls"] = len(top)
    for metric, name in SELF.items():
        hits = [i for i, s in enumerate(spans) if s[0] == name]
        out[metric + ".self_s"] = sum(own[i] for i in hits)
        out[metric + ".calls"] = len(hits)
    out["quadrature.integrate.evals"] = tracer.quad_evals
    out["operator.assembly_error"] = tracer.assembly_error
    out["operator.eval.bytes_computed"] = tracer.eval_bytes
    out["solver.newton_iters"] = sum(r.iterations for r, _, _ in tracer.reports)
    out["solver.levels"] = sum(level for _, _, level in tracer.reports)
    out["solver.line_search_failures"] = sum(
        r.line_search_failures for r, _, _ in tracer.reports)
    out["solver.stationarity_misses"] = sum(
        r.residual_norm > tol for r, tol, _ in tracer.reports)
    out["solver.unsettled"] = tracer.unsettled
    out["verify.checks"] = tracer.checks
    out["verify.checks_failed"] = tracer.checks_failed
    return out
