"""Per-layer tracing of triggaudin from outside the package.

The tracer replaces functions and methods of the loaded ``triggaudin``
modules with thin wrappers for the duration of a traced run and puts
the originals back afterwards; no file of the package is touched.  A
function that a caller bound by name at import time (``tensor`` takes
``sparse_matmul`` from ``kernels``; ``qside`` and ``pbw`` take
``ThetaContext`` from ``gaudin``) is replaced in every module namespace
that holds it, so each caller sees the wrapper where it looks it up.

Hot layers (``poly``, ``ratfun``, ``series``, ``rationals`` and the
kernels) see up to a million calls per workload, so their wrappers only
aggregate calls and self time in memory.  Algorithm-layer calls
(``gaudin``, ``qside``, the suite tasks) also keep one span each:
name, start, end and the index of the enclosing span.

Self time of a call is its duration minus the time spent in wrapped
calls made from inside it.  ``Fraction`` operations are counted but not
timed, so their cost stays in the self time of whichever layer made
them.
"""

import fractions
import sys
import time
from collections import Counter

# Methods and functions wrapped per layer.
RATFUN_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
              "__pow__", "scale")
_RATFUN_OTHER = ("derivative", "scale_var", "eval", "expand_at",
                 "residue_at", "recombine_check")
_SERIES_METHODS = ("__mul__", "__add__", "__sub__", "__neg__", "scale",
                   "shift", "derivative", "scale_var", "invert",
                   "__truediv__")
_RMATRIX_BUILDERS = ("permutation", "tc", "tc_bar", "t_of_y", "t_taylor",
                     "r_classical", "q_permutation", "r_quantum",
                     "r_quantum_scaled", "diag_shift_d", "diag_shift_rho",
                     "perm_q", "antisymmetrizer", "adjacent_q_chain",
                     "plain_cycle_chain", "tc_cycle_chain", "f_series")
# Algorithm-layer functions: span name -> (module, attribute path); a
# path with a dot is a method of a class in that module.
_SPANS = {
    "gaudin.theta_generating": ("gaudin", "ThetaContext.theta_generating"),
    "gaudin.theta_mbar": ("gaudin", "ThetaContext.theta_mbar"),
    "gaudin.explicit_theta": ("gaudin", "explicit_theta"),
    "gaudin.extract_family": ("gaudin", "extract_family"),
    "gaudin.commutators": ("gaudin", "commutativity_report"),
    "gaudin.quad_residue": ("gaudin", "quad_residue_check"),
    "qside.exchange": ("qside", "rll_check"),
    "qside.fused_commut": ("qside", "bethe_commut_check"),
    "qside.mcal": ("qside", "mcal"),
    "qside.mcal_collapsed": ("qside", "mcal_collapsed"),
    "qside.classical_limit": ("qside", "classical_limit_compare"),
    "qside.central_term": ("qside", "prop_central_term_check"),
}
_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__pow__")

# Every per-layer metric a traced run reports, with its unit and the
# direction in which it is better.  BENCHMARK.json lists the same set.
LAYER_METRICS = (
    ("rationals.fraction_ops", "count", "lower"),
    ("poly.gcd_calls", "count", "lower"),
    ("poly.gcd_self_s", "s", "lower"),
    ("poly.gcd_useful_ratio", "ratio", "higher"),
    ("poly.divmod_calls", "count", "lower"),
    ("poly.divmod_self_s", "s", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_self_s", "s", "lower"),
    ("poly.max_degree", "degree", "lower"),
    ("ratfun.ops", "count", "lower"),
    ("ratfun.self_s", "s", "lower"),
    ("ratfun.partial_fractions_s", "s", "lower"),
    ("series.mul_calls", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("kernels.matmul_calls", "count", "lower"),
    ("kernels.matmul_s", "s", "lower"),
    ("kernels.matmul_products", "count", "lower"),
    ("kernels.matmul_nnz_out", "count", "lower"),
    ("kernels.add_calls", "count", "lower"),
    ("kernels.add_s", "s", "lower"),
    ("tensor.embed_calls", "count", "lower"),
    ("tensor.embed_s", "s", "lower"),
    ("tensor.trace_calls", "count", "lower"),
    ("tensor.trace_s", "s", "lower"),
    ("tensor.peak_dim", "dim", "lower"),
    ("weyl.diffop_mul_calls", "count", "lower"),
    ("weyl.diffop_mul_s", "s", "lower"),
    ("weyl.qdiffop_mul_calls", "count", "lower"),
    ("weyl.qdiffop_mul_s", "s", "lower"),
    ("rmatrices.build_calls", "count", "lower"),
    ("rmatrices.build_s", "s", "lower"),
    ("gaudin.theta_generating_s", "s", "lower"),
    ("gaudin.theta_mbar_s", "s", "lower"),
    ("gaudin.extract_family_s", "s", "lower"),
    ("gaudin.commutators_s", "s", "lower"),
    ("qside.exchange_s", "s", "lower"),
    ("qside.fused_commut_s", "s", "lower"),
    ("qside.mcal_s", "s", "lower"),
    ("qside.mcal_collapsed_s", "s", "lower"),
    ("qside.eps_expand_calls", "count", "lower"),
    ("qside.eps_expand_s", "s", "lower"),
    ("qside.classical_limit_s", "s", "lower"),
    ("qside.central_term_s", "s", "lower"),
    ("pbw.normal_order_calls", "count", "lower"),
    ("pbw.normal_order_s", "s", "lower"),
    ("suites.tasks", "count", "lower"),
    ("suites.task_busy_s", "s", "lower"),
    ("suites.slowest_task_s", "s", "lower"),
    ("reports.report_bytes", "bytes", "lower"),
    ("reports.serialize_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("drift.ref_loop_s", "s", "lower"),
)


class Stat:
    """Aggregate of one wrapped function: calls, inclusive and self time."""

    __slots__ = ("calls", "incl", "self_s", "items", "out", "peak")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.items = 0  # work inside the calls: scalar products, bytes
        self.out = 0  # size of the results: output nonzeros
        self.peak = 0  # largest operand: polynomial degree, space dimension


class Tracer:
    """Installs wrappers on the triggaudin layers and collects their data.

    Use as a context manager; wrappers are removed on exit even when the
    traced code raises.
    """

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.fraction_ops = 0
        self.useful_gcds = 0
        self._child = [0.0]  # child time accumulated per open call
        self._open = [-1]  # index of the innermost open span
        self._undo = []
        self._clock = time.perf_counter

    # -- installation ---------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        from triggaudin import (gaudin, kernels, pbw, poly, qside, ratfun,
                                reports, rmatrices, series, suites, tensor,
                                weyl)

        self._fractions()
        self._wrap(poly.UniPoly, "gcd", "poly.gcd", after=self._after_gcd)
        self._wrap(poly.UniPoly, "divmod", "poly.divmod",
                   after=self._after_divmod)
        self._wrap(poly.UniPoly, "__mul__", "poly.mul", after=self._after_mul)
        for name in RATFUN_OPS + _RATFUN_OTHER:
            self._wrap(ratfun.RatFun, name, "ratfun." + name)
        self._wrap(ratfun.RatFun, "partial_fractions",
                   "ratfun.partial_fractions")
        for name in _SERIES_METHODS:
            self._wrap(series.TruncSeries, name, "series." + name)
        self._replace(kernels.sparse_matmul, "kernels.matmul",
                      before=self._before_matmul, after=self._after_matmul)
        self._replace(kernels.sparse_add, "kernels.add")
        self._wrap(tensor.AuxTensor, "embed", "tensor.embed",
                   before=self._before_embed)
        self._wrap(tensor.AuxTensor, "partial_trace", "tensor.trace",
                   before=self._before_trace)
        self._wrap(weyl.DiffOp, "__mul__", "weyl.diffop_mul")
        self._wrap(weyl.QDiffOp, "__mul__", "weyl.qdiffop_mul")
        for name in _RMATRIX_BUILDERS:
            self._replace(getattr(rmatrices, name), "rmatrices." + name)
        modules = {"gaudin": gaudin, "qside": qside}
        for span, (mod, path) in _SPANS.items():
            owner, attr = _resolve(modules[mod], path)
            if owner is modules[mod]:
                self._replace(getattr(owner, attr), span, span=True)
            else:
                self._wrap(owner, attr, span, span=True)
        self._replace(qside.eps_expand, "qside.eps_expand")
        self._wrap(pbw.PBWAlg, "normal_order", "pbw.normal_order")
        for name in sorted(vars(suites)):
            if name.startswith("task_"):
                self._replace(getattr(suites, name), "suites." + name,
                              span=True)
        self._replace(reports.report_bytes, "reports.report_bytes",
                      after=self._after_bytes)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, name, before=None, after=None, span=False):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, before, after, span))

    def _replace(self, original, name, before=None, after=None, span=False):
        """Swap ``original`` in every triggaudin namespace that binds it."""
        wrapper = self._wrapper(original, name, before, after, span)
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith("triggaudin") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _fractions(self):
        tracer = self

        def counting(op):
            def wrapper(*args):
                tracer.fraction_ops += 1
                return op(*args)

            return wrapper

        for attr in _FRACTION_OPS:
            original = fractions.Fraction.__dict__[attr]
            self._undo.append((fractions.Fraction, attr, original))
            setattr(fractions.Fraction, attr, counting(original))

    def _wrapper(self, fn, name, before, after, span):
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        opened = self._open
        spans = self.spans
        clock = self._clock

        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(stat, args)
                child[-1] += clock() - t  # keep the bookkeeping out of the caller
            if span:
                spans.append([name, 0.0, 0.0, opened[-1]])
                opened.append(len(spans) - 1)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.incl += dt
                stat.self_s += dt - inner
                if span:
                    rec = spans[opened.pop()]
                    rec[1] = t0
                    rec[2] = t1
            if after is not None:
                after(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-layer extras -----------------------------------------------

    def _after_gcd(self, stat, args, result):
        if len(result.coeffs) >= 2:
            self.useful_gcds += 1

    @staticmethod
    def _after_divmod(stat, args, result):
        deg = len(args[0].coeffs) - 1
        if deg > stat.peak:
            stat.peak = deg

    @staticmethod
    def _after_mul(stat, args, result):
        deg = len(result.coeffs) - 1
        if deg > stat.peak:
            stat.peak = deg

    @staticmethod
    def _before_matmul(stat, args):
        a, b = args
        rows = Counter(r for r, _ in b)
        stat.items += sum(rows.get(c, 0) for _, c in a)

    @staticmethod
    def _after_matmul(stat, args, result):
        stat.out += len(result)

    @staticmethod
    def _before_embed(stat, args):
        dim = args[1].dim
        if dim > stat.peak:
            stat.peak = dim

    @staticmethod
    def _before_trace(stat, args):
        dim = args[0].space.dim
        if dim > stat.peak:
            stat.peak = dim

    @staticmethod
    def _after_bytes(stat, args, result):
        stat.items += len(result)

    # -- results --------------------------------------------------------

    def _sum(self, prefix, field):
        return sum(getattr(s, field) for n, s in self.stats.items()
                   if n.startswith(prefix))

    def metrics(self):
        """Per-layer metrics as {name: value} (without overhead and drift)."""
        st = self.stats
        zero = Stat()

        def get(name):
            return st.get(name, zero)

        gcd = get("poly.gcd")
        tasks = [s for n, s in st.items() if n.startswith("suites.task_")]
        task_spans = [r[2] - r[1] for r in self.spans
                      if r[0].startswith("suites.task_")]
        return {
            "rationals.fraction_ops": self.fraction_ops,
            "poly.gcd_calls": gcd.calls,
            "poly.gcd_self_s": gcd.self_s,
            "poly.gcd_useful_ratio": (self.useful_gcds / gcd.calls
                                      if gcd.calls else 0.0),
            "poly.divmod_calls": get("poly.divmod").calls,
            "poly.divmod_self_s": get("poly.divmod").self_s,
            "poly.mul_calls": get("poly.mul").calls,
            "poly.mul_self_s": get("poly.mul").self_s,
            "poly.max_degree": max(get("poly.mul").peak,
                                   get("poly.divmod").peak),
            "ratfun.ops": sum(get("ratfun." + n).calls for n in RATFUN_OPS),
            "ratfun.self_s": self._sum("ratfun.", "self_s"),
            "ratfun.partial_fractions_s": get("ratfun.partial_fractions").self_s,
            "series.mul_calls": get("series.__mul__").calls,
            "series.self_s": self._sum("series.", "self_s"),
            "kernels.matmul_calls": get("kernels.matmul").calls,
            "kernels.matmul_s": get("kernels.matmul").self_s,
            "kernels.matmul_products": get("kernels.matmul").items,
            "kernels.matmul_nnz_out": get("kernels.matmul").out,
            "kernels.add_calls": get("kernels.add").calls,
            "kernels.add_s": get("kernels.add").self_s,
            "tensor.embed_calls": get("tensor.embed").calls,
            "tensor.embed_s": get("tensor.embed").self_s,
            "tensor.trace_calls": get("tensor.trace").calls,
            "tensor.trace_s": get("tensor.trace").self_s,
            "tensor.peak_dim": max(get("tensor.embed").peak,
                                   get("tensor.trace").peak),
            "weyl.diffop_mul_calls": get("weyl.diffop_mul").calls,
            "weyl.diffop_mul_s": get("weyl.diffop_mul").self_s,
            "weyl.qdiffop_mul_calls": get("weyl.qdiffop_mul").calls,
            "weyl.qdiffop_mul_s": get("weyl.qdiffop_mul").self_s,
            "rmatrices.build_calls": self._sum("rmatrices.", "calls"),
            "rmatrices.build_s": self._sum("rmatrices.", "self_s"),
            "gaudin.theta_generating_s": get("gaudin.theta_generating").incl,
            "gaudin.theta_mbar_s": get("gaudin.theta_mbar").incl,
            "gaudin.extract_family_s": get("gaudin.extract_family").incl,
            "gaudin.commutators_s": get("gaudin.commutators").incl,
            "qside.exchange_s": get("qside.exchange").incl,
            "qside.fused_commut_s": get("qside.fused_commut").incl,
            "qside.mcal_s": get("qside.mcal").incl,
            "qside.mcal_collapsed_s": get("qside.mcal_collapsed").incl,
            "qside.eps_expand_calls": get("qside.eps_expand").calls,
            "qside.eps_expand_s": get("qside.eps_expand").incl,
            "qside.classical_limit_s": get("qside.classical_limit").incl,
            "qside.central_term_s": get("qside.central_term").incl,
            "pbw.normal_order_calls": get("pbw.normal_order").calls,
            "pbw.normal_order_s": get("pbw.normal_order").self_s,
            "suites.tasks": sum(s.calls for s in tasks),
            "suites.task_busy_s": sum(s.incl for s in tasks),
            "suites.slowest_task_s": max(task_spans, default=0.0),
            "reports.report_bytes": get("reports.report_bytes").items,
            "reports.serialize_s": get("reports.report_bytes").self_s,
        }

    def span_records(self):
        """Spans as dicts, times relative to the first span's start."""
        if not self.spans:
            return []
        origin = min(r[1] for r in self.spans)
        return [
            {"id": i, "name": r[0], "start": r[1] - origin,
             "end": r[2] - origin, "parent": r[3]}
            for i, r in enumerate(self.spans)
        ]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
