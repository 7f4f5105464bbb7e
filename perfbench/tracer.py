"""Outside-in tracer: spans around calls into the package's public functions.

Nothing inside the library is changed.  The modules bind names at import
(`from .operator import eigen` in projections, resolvent and cli), so each
traced function is replaced by object identity in every `diracproj.*`
module namespace, not only where it is defined; intra-module calls go
through the module globals and are caught the same way.  `ShiftedSolve`
(construction and `solve`) and `RSequence.__call__` are patched on the
class.  After installing, the tracer checks that no original binding
survives anywhere in the package.

Each span is (id, parent id, job id, name, start, end, ok, info) and is kept
in memory until the run writes it out.  A handful of tiny leaf functions
that the program calls hundreds of thousands of times per job are counted
but get no span; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("potential", "operator", "resolvent", "projections", "decomposition", "bounds")

# Leaf helpers counted without a span: spans on them would cost more than
# the work they do.
COUNT_ONLY = {
    "potential.RSequence.call",
    "potential.dirichlet_w",
    "potential.validate_bc",
    "operator.lattice_points",
    "operator.disc_centers",
    "resolvent.circle_samples",
}

ROOT = "cli.main"


def _riesz_info(args, kwargs, result) -> dict:
    op = args[0] if args else kwargs["op"]
    contour = args[1] if len(args) > 1 else kwargs["contour"]
    return {
        "dim": op.dim,
        "contour": [contour.center.real, contour.center.imag, contour.radius, contour.nodes],
    }


def _length_info(args, kwargs, result) -> dict:
    return {"n": len(result)}


INFO = {
    "projections.riesz_projection": _riesz_info,
    "bounds.check_elementary": _length_info,
    "bounds.run_battery": _length_info,
    "bounds.violations": _length_info,
}


class Tracer:
    """Collects spans and counts while installed; restores everything on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (job, name) -> calls of count-only targets
        self.job: int = -1
        self._stack: list[int] = [-1]
        self._next = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            ok = False
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.job, name, start, end, ok, extra))

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def job_span(self, job: int, call):
        """Run `call()` as the root span of job number `job`."""
        self.job = job
        try:
            return self._span(ROOT, call)()
        finally:
            self.job = -1

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        return self._span(name, fn, INFO.get(name))

    def install(self) -> "Tracer":
        import scipy.linalg

        import diracproj
        from diracproj.potential import RSequence
        from diracproj.resolvent import ShiftedSolve

        modules = [m for n, m in sorted(sys.modules.items()) if n == "diracproj" or n.startswith("diracproj.")]
        replacements: dict[int, tuple] = {}
        for layer in LAYERS:
            module = getattr(diracproj, layer)
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._set(module, attr, replacements[id(obj)][1])

        self._set(ShiftedSolve, "__init__", self._wrap("resolvent.ShiftedSolve", ShiftedSolve.__init__))
        self._set(ShiftedSolve, "solve", self._wrap("resolvent.ShiftedSolve.solve", ShiftedSolve.solve))
        self._set(RSequence, "__call__", self._wrap("potential.RSequence.call", RSequence.__call__))
        # LAPACK eigendecompositions, i.e. misses of the eigen cache
        self._set(scipy.linalg, "eig", self._counter("operator.eig", scipy.linalg.eig))

        originals = {id(obj): obj for obj, _ in replacements.values()}
        originals.update({id(orig): orig for _, _, orig in self._restore})
        for module in modules:
            for attr, obj in vars(module).items():
                if originals.get(id(obj)) is obj:
                    self.uninstall()
                    raise RuntimeError(f"tracer left the original {module.__name__}.{attr} in place")
        return self

    def _set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- per-layer metrics ----------------------------------------------------------

SPAN_CALLS = (
    "operator.build_operator",
    "resolvent.find_threshold_n",
    "resolvent.circle_norm_profile",
    "resolvent.kvk_hs_norm",
    "resolvent.dominated_hs_norm",
    "resolvent.ShiftedSolve",
    "projections.riesz_projection",
    "potential.r_sequence",
)
COUNTED_CALLS = ("operator.eig", "potential.RSequence.call")
SELF_TIMES = (
    "operator.build_operator",
    "operator.eigen",
    "operator.eigenbasis_condition",
    "operator.eigenbasis_inverse",
    "resolvent.kvk_hs_norm",
    "resolvent.ShiftedSolve",
    "resolvent.ShiftedSolve.solve",
    "projections.riesz_projection",
    "projections.global_projection",
    "projections.deviation_report",
    "projections.localization_counts",
    "decomposition.reconstruction_curve",
    "decomposition.unconditionality_test",
    "decomposition.expand",
    "bounds.check_chain_sums",
    "bounds.check_tail_sums",
    "bounds.check_elementary",
    "bounds.check_shift_sums",
    "bounds.check_circle_double_sum",
)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover, by span id."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def riesz_routes(spans) -> dict[int, bool]:
    """For each riesz_projection span: did it build a ShiftedSolve (LU route)?"""
    parent = {s[0]: s[1] for s in spans}
    names = {s[0]: s[3] for s in spans}
    routes = {s[0]: False for s in spans if s[3] == "projections.riesz_projection"}
    for s in spans:
        if s[3] != "resolvent.ShiftedSolve":
            continue
        node = s[1]
        while node in parent:
            if names[node] == "projections.riesz_projection":
                routes[node] = True
                break
            node = parent[node]
    return routes


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass over `jobs` jobs."""
    spans = tracer.spans
    counts = Counter(s[3] for s in spans)
    for (_, name), n in tracer.counts.items():
        counts[name] += n
    own = self_times(spans)
    busy: Counter = Counter()
    for s in spans:
        busy[s[3]] += own[s[0]]

    m: dict[str, float] = {}
    for name in SPAN_CALLS + COUNTED_CALLS:
        m[f"{name}.calls"] = counts[name]
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = busy[name]
    m["operator.eig_per_job"] = counts["operator.eig"] / jobs

    m["resolvent.ShiftedSolve.refused"] = sum(
        1 for s in spans if s[3] == "resolvent.ShiftedSolve" and not s[6]
    )

    riesz = [s for s in spans if s[3] == "projections.riesz_projection"]
    contours = {(s[2], tuple(s[7]["contour"])) for s in riesz if s[7]}
    routes = riesz_routes(spans)
    m["projections.riesz_per_disc"] = len(riesz) / len(contours) if contours else 0.0
    m["projections.route_lu_frac"] = sum(routes.values()) / len(riesz) if riesz else 0.0
    m["projections.matmul_gflop_computed"] = sum(2 * 8 * s[7]["dim"] ** 3 for s in riesz if s[7]) / 1e9
    m["projections.gate_refusals"] = sum(1 for s in riesz if not s[6])

    # the CLI calls both directly; run_battery does not call check_elementary
    m["bounds.checks"] = sum(
        s[7]["n"] for s in spans if s[3] in ("bounds.check_elementary", "bounds.run_battery") and s[7]
    )
    m["bounds.violations"] = sum(s[7]["n"] for s in spans if s[7] and s[3] == "bounds.violations")
    m["cli.self_s"] = busy[ROOT]
    return m

