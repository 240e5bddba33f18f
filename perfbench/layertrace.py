"""Per-layer tracing from outside the program.

Each layer is one module of `svj`. `Tracer.install` replaces the
layer's functions with wrappers at every place callers look them up:
the defining module for calls made through it, and each module that
bound the name at import time (`bench.price_reference`,
`jump_laws.gk15_adaptive`, the kernel table in `jump_laws`, ...).
`uninstall` restores the originals.

A wrapper opens a span with a parent link to the span that was open
when it was called. A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over its
spans. Integrands handed to the quadrature get a span of their own,
owned by the layer that supplied them, so quadrature self time is the
adaptive loop alone. Spans are aggregated as they close; the first
`keep_spans` are also kept whole for writing out.

A wrapper costs time both outside the interval it times (bookkeeping,
charged to its caller) and inside it (timer reads, the extra call).
Both are measured on a wrapped no-op, as `span_cost` and
`inner_cost`, and taken off the self times. Layers of many tiny calls
still read high under tracing; the full cost shows as trace.overhead_s.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from svj import (approx_pricer, bench, bs_kernel, heston_moments, jump_laws,
                 quadrature, reference_pricer)
from svj.errors import QuadratureError

# scalar entry points; their helpers (d_plus_minus, norm_cdf) stay unwrapped
SCALAR_KERNELS = ("bs_price", "gamma_bs", "gamma2_bs", "lambda_gamma_bs", "bs_vega")


class _Frame:
    __slots__ = ("sid", "parent", "layer", "name", "start", "child")

    def __init__(self, sid, parent, layer, name):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.child = 0.0


class Tracer:
    def __init__(self, keep_spans: int = 5000):
        self.stack = []
        self.self_s = defaultdict(float)        # layer -> s
        self.fn_self_s = defaultdict(float)     # (layer, name) -> s
        self.calls = Counter()                  # name -> calls
        self.edges = Counter()                  # (parent name, name) -> calls
        self.counts = Counter()                 # named work counters
        self.errors = Counter()                 # (name, exception type) -> n
        self.spans = []
        self.keep_spans = keep_spans
        self._ids = itertools.count()
        self._patches = []
        self.span_cost = 0.0
        self.inner_cost = 0.0

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure span_cost and inner_cost with a wrapped no-op.

        Each is the least of `repeats` measurements: a cost measured in
        a slow spell of the machine would be taken off too often and
        drive the self times of layers of many small calls below 0."""
        inner, span = [], []
        noop = lambda: None
        for _ in range(repeats):
            probe = Tracer(keep_spans=0)
            traced = probe.wrap("probe", "noop", noop)
            root = _Frame(-1, None, "root", "root")
            probe.stack.append(root)
            t0 = perf_counter()
            for _ in range(n):
                traced()
            total = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(n):
                noop()
            bare = perf_counter() - t0
            inside = probe.self_s["probe"]
            inner.append((inside - bare) / n)
            span.append((total - inside - bare) / n)
        self.inner_cost = max(0.0, min(inner))
        self.span_cost = max(0.0, min(span))

    # -- spans -------------------------------------------------------------

    def wrap(self, layer, name, fn, points_arg=None, integrand_arg=None,
             on_result=None):
        """A traced stand-in for fn.

        points_arg: index of an array argument whose size is added to the
        counter "<name>.points". integrand_arg: index of a callable to
        wrap as an integrand of the calling layer. on_result(tracer,
        result) reads counts off the return value.
        """
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if points_arg is not None:
                self.counts[name + ".points"] += np.size(args[points_arg])
            if integrand_arg is not None:
                owner = parent.layer if parent else "bench"
                args = list(args)
                args[integrand_arg] = self.wrap(owner, "integrand", args[integrand_arg])
            frame = _Frame(next(self._ids), parent, layer, name)
            self.calls[name] += 1
            self.edges[(parent.name if parent else None, name)] += 1
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _close(self, frame, end):
        dur = end - frame.start
        own = dur - frame.child - self.inner_cost
        self.self_s[frame.layer] += own
        self.fn_self_s[(frame.layer, frame.name)] += own
        if frame.parent is not None:
            frame.parent.child += dur + self.span_cost
        if len(self.spans) < self.keep_spans:
            self.spans.append({"id": frame.sid,
                               "parent": frame.parent.sid if frame.parent else None,
                               "layer": frame.layer, "name": frame.name,
                               "start": frame.start, "end": end})

    # -- installation --------------------------------------------------------

    def _patch(self, owner, key, layer, name=None, **hooks):
        """Wrap owner[key]; owner is a module or a dict of callables."""
        namespace = owner if isinstance(owner, dict) else vars(owner)
        original = namespace[key]
        namespace[key] = self.wrap(layer, name or key, original, **hooks)
        self._patches.append((namespace, key, original))

    def install(self):
        p = self._patch
        # approx_pricer
        for owner in (approx_pricer, bench):
            p(owner, "price_approx", "approx_pricer", on_result=_count_terms)
        p(approx_pricer, "price_smile", "approx_pricer")
        # heston_moments
        for key in ("avg_expected_variance_v0", "u0", "r0"):
            p(heston_moments, key, "heston_moments")
        # jump_laws
        for key in ("poisson_pmf", "truncate_series", "compensator_k",
                    "lognormal_shift", "gn_generic", "jump_support"):
            p(jump_laws, key, "jump_laws")
        for key in ("kou_convolution_density", "loguniform_convolution_density"):
            p(jump_laws, key, "jump_laws", name="convolution_density", points_arg=1)
        for kernel in list(jump_laws._KERNELS):
            p(jump_laws._KERNELS, kernel, "bs_kernel", name="bs_kernel_arr",
              points_arg=0)
        # bs_kernel scalar entry points
        for key in SCALAR_KERNELS:
            p(bs_kernel, key, "bs_kernel")
        # quadrature
        for owner in (quadrature, jump_laws):
            p(owner, "gk15_adaptive", "quadrature", integrand_arg=0,
              on_result=_count_quadrature)
        p(reference_pricer, "integrate_semi_infinite", "quadrature", integrand_arg=0)
        # reference_pricer
        p(bench, "price_reference", "reference_pricer")
        p(reference_pricer, "bates_char_fn", "reference_pricer", points_arg=0)
        p(bench, "implied_vol_invert", "reference_pricer")
        # bench
        p(bench, "run_smile", "bench")

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def __enter__(self):
        self.calibrate()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def hit(self) -> set:
        return {name for name, n in self.calls.items() if n}

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload."""
        c, e = self.calls, self.edges
        per = lambda v: v / rounds
        ratio = lambda a, b: a / b if b else 0.0
        approx_calls = c["price_approx"]
        terms = self.counts["series_terms"]
        heston_calls = sum(c[k] for k in ("avg_expected_variance_v0", "u0", "r0"))
        approx_scalar = sum(e[("price_approx", k)] for k in SCALAR_KERNELS)
        integrations = c["gk15_adaptive"]
        ref_calls = c["price_reference"]
        inversions = c["implied_vol_invert"]
        iv_evals = sum(e[("implied_vol_invert", k)] for k in SCALAR_KERNELS)
        failed_quad = sum(n for (name, kind), n in self.errors.items()
                          if name == "gk15_adaptive" and kind == QuadratureError.__name__)
        return {
            "approx_pricer.calls": (per(approx_calls), "count"),
            "approx_pricer.self_s": (per(self.self_s["approx_pricer"]), "s"),
            "heston_moments.calls": (per(heston_calls), "count"),
            "heston_moments.calls_per_option": (ratio(heston_calls, approx_calls), "count"),
            "heston_moments.self_s": (per(self.self_s["heston_moments"]), "s"),
            "jump_laws.series_terms": (per(terms), "count"),
            "jump_laws.poisson_pmf_calls": (per(c["poisson_pmf"]), "count"),
            "jump_laws.pmf_calls_per_term": (ratio(c["poisson_pmf"], terms), "count"),
            "jump_laws.truncate_series_calls": (per(c["truncate_series"]), "count"),
            "jump_laws.gn_generic_calls": (per(c["gn_generic"]), "count"),
            "jump_laws.density_points": (per(self.counts["convolution_density.points"]), "count"),
            "jump_laws.self_s": (per(self.self_s["jump_laws"]), "s"),
            "bs_kernel.scalar_calls": (per(sum(c[k] for k in SCALAR_KERNELS)), "count"),
            "bs_kernel.scalar_calls_per_term": (ratio(approx_scalar, terms), "count"),
            "bs_kernel.array_points": (per(self.counts["bs_kernel_arr.points"]), "count"),
            "bs_kernel.self_s": (per(self.self_s["bs_kernel"]), "s"),
            "quadrature.integrations": (per(integrations), "count"),
            "quadrature.evals": (per(self.counts["quadrature.evals"]), "count"),
            "quadrature.subdivisions": (per(self.counts["quadrature.subdivisions"]), "count"),
            "quadrature.evals_per_integration": (
                ratio(self.counts["quadrature.evals"], integrations - failed_quad), "count"),
            "quadrature.failed_integrations": (per(failed_quad), "count"),
            "quadrature.self_s": (per(self.self_s["quadrature"]), "s"),
            "reference_pricer.calls": (per(ref_calls), "count"),
            "reference_pricer.cf_calls": (per(c["bates_char_fn"]), "count"),
            "reference_pricer.cf_nodes": (per(self.counts["bates_char_fn.points"]), "count"),
            "reference_pricer.cf_nodes_per_option": (
                ratio(self.counts["bates_char_fn.points"], ref_calls), "count"),
            "reference_pricer.cf_self_s": (
                per(self.fn_self_s[("reference_pricer", "bates_char_fn")]), "s"),
            "reference_pricer.self_s": (per(self.self_s["reference_pricer"]), "s"),
            "reference_pricer.iv_inversions": (per(inversions), "count"),
            "reference_pricer.iv_kernel_evals_per_inversion": (
                ratio(iv_evals, inversions), "count"),
            "bench.self_s": (per(self.self_s["bench"]), "s"),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_terms(tracer, res):
    tracer.counts["series_terms"] += res.truncation.n_max + 1


def _count_quadrature(tracer, res):
    tracer.counts["quadrature.evals"] += res.n_evals
    tracer.counts["quadrature.subdivisions"] += res.n_subdivisions


# wrappers each workload must reach; a miss is reported, not read as zero
EXPECTED = {
    "bates_grid": {"price_smile", "price_approx", "avg_expected_variance_v0",
                   "u0", "r0", "poisson_pmf", "truncate_series",
                   "lognormal_shift", "bs_price", "gamma2_bs", "lambda_gamma_bs"},
    "bates_smile_iv": {"run_smile", "price_approx", "price_reference",
                       "implied_vol_invert", "bates_char_fn",
                       "integrate_semi_infinite", "gk15_adaptive", "integrand",
                       "avg_expected_variance_v0", "u0", "r0", "poisson_pmf",
                       "truncate_series", "lognormal_shift", "bs_price",
                       "gamma2_bs", "lambda_gamma_bs"},
    "generic_laws": {"price_approx", "avg_expected_variance_v0", "u0", "r0",
                     "poisson_pmf", "truncate_series", "gn_generic",
                     "jump_support", "convolution_density", "bs_kernel_arr",
                     "gk15_adaptive", "integrand"},
}
