"""Outside-in tracer: spans and counters around the program's public functions.

The program is not edited.  `Tracer.install` replaces every radwarp module
attribute bound to a traced function (``from .jets import jet_mul`` copies
the binding into other modules, so each copy is replaced), plus the method
`RadialFunction.eval_jet` and the evaluator of each `Integrand` handed to
`integrate_weighted`.  `restore` puts every original binding back.

Spans (name, start, end, parent) are kept in flat arrays and written out at
the end; `self_seconds` derives self time from them as span time minus the
time of the span's direct children, and `layer_metrics` turns self times and
counters into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

NORM_FUNCTIONS = (
    "lq_theta_norm_1d",
    "sobolev_seminorms_1d",
    "sobolev_norm_1d",
    "sobolev_norm_manifold",
    "gradient_norm_manifold",
)
CHECK_KINDS = (
    "identity",
    "gradient_inequality",
    "k1_norm_equality",
    "radial_lemma_power",
    "radial_lemma_log",
    "decay_lemma",
    "hardy",
    "embedding_ratio",
    "counterexample",
    "asymptotic_leading",
)
BUNDLE_DIMS = (2, 3, 4, 5)


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []
        self._norm_depth = 0
        self._norm_seen: set = set()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_return=None):
        """Span-recording wrapper; hooks run outside the span's own time.

        on_call(args, kwargs) -> (args, kwargs, state);
        on_return(state, result, duration_ns).
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        stack, names_, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            state = None
            if on_call is not None:
                args, kwargs, state = on_call(args, kwargs)
            idx = len(names_)
            names_.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(state, result, t1 - t0)
            return result

        return wrapper

    def _counter(self, name, fn):
        """Call-counting wrapper without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _restoring_depth(self, wrapped):
        """Resets the norm nesting depth when the norm call returns or raises."""
        def wrapper(*args, **kwargs):
            depth = self._norm_depth
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._norm_depth = depth
        return wrapper

    def _rebind(self, fn, wrapper):
        """Replace every radwarp module attribute bound to `fn`."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "radwarp" or mod_name.startswith("radwarp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))
                    hits += 1
        if not hits:
            raise RuntimeError(f"traced function {fn.__name__} is bound nowhere")

    def install(self):
        import radwarp.cli  # noqa: F401  (loads every module whose bindings are replaced)
        from radwarp import config, funcspace, geometry, jets, manifold, quadrature, verify

        c = self.counts
        comb_cache: dict = {}

        def count(name):
            def on_call(args, kwargs):
                c[name] += 1
                return args, kwargs, None
            return on_call

        def add_time(name):
            def on_return(state, result, ns):
                c[name] += ns
            return on_return

        # jets
        def mul_call(args, kwargs):
            a, b = args[0], args[1]
            batch = math.prod(np.broadcast_shapes(a.coeffs.shape[:-1], b.coeffs.shape[:-1]))
            v, d = a.num_vars, min(a.order, b.order)
            terms = comb_cache.get((v, d))
            if terms is None:
                terms = comb_cache[(v, d)] = math.comb(2 * v + d, d)
            c["jets.mul.calls"] += 1
            c["jets.mul.points"] += batch
            c["jets.mul.madds"] += batch * terms
            return args, kwargs, None

        self._rebind(jets.jet_mul, self._wrap("jets.mul", jets.jet_mul, mul_call))
        self._rebind(jets.jet_compose_univariate,
                     self._wrap("jets.compose", jets.jet_compose_univariate,
                                count("jets.compose.calls")))
        self._rebind(jets.jet_partial,
                     self._wrap("jets.partial", jets.jet_partial, count("jets.partial.calls")))

        # manifold
        self._rebind(manifold.metric_at,
                     self._wrap("manifold.metric_at", manifold.metric_at,
                                count("manifold.metric_at.calls")))
        self._rebind(manifold.warp_value,
                     self._counter("manifold.warp_value.calls", manifold.warp_value))

        # geometry
        def bundle_call(args, kwargs):
            n, points = args[1].dim, int(np.size(args[2]))
            c["geometry.covariant_bundle.calls"] += 1
            c["geometry.covariant_bundle.points"] += points
            c[f"geometry.covariant_bundle.points.N{n}"] += points
            return args, kwargs, n

        def bundle_return(n, result, ns):
            c[f"geometry.covariant_bundle.ns.N{n}"] += ns

        def profiles_call(args, kwargs):
            c["geometry.norm_profiles.calls"] += 1
            c["geometry.norm_profiles.points"] += int(np.size(args[2]))
            return args, kwargs, None

        self._rebind(geometry.covariant_bundle,
                     self._wrap("geometry.covariant_bundle", geometry.covariant_bundle,
                                bundle_call, bundle_return))
        self._rebind(geometry.christoffel_at,
                     self._wrap("geometry.christoffel_at", geometry.christoffel_at))
        self._rebind(geometry.norm_profiles,
                     self._wrap("geometry.norm_profiles", geometry.norm_profiles, profiles_call))
        self._rebind(geometry.pointwise_norm,
                     self._wrap("geometry.pointwise_norm", geometry.pointwise_norm))

        # quadrature: the evaluator is wrapped per integral
        def evaluator_call(args, kwargs):
            c["quadrature.evaluator_calls"] += 1
            c["quadrature.evaluator_points"] += int(np.size(args[0]))
            return args, kwargs, None

        def integrate_call(args, kwargs):
            c["quadrature.integrals"] += 1
            integrand = args[0]
            traced = self._wrap("quadrature.evaluator", integrand.evaluator, evaluator_call,
                                add_time("quadrature.evaluator_ns"))
            args = (dataclasses.replace(integrand, evaluator=traced),) + args[1:]
            return args, kwargs, None

        def integrate_return(state, result, ns):
            c["quadrature.subdivisions"] += result.subdivisions
            c["quadrature.nonconverged"] += not result.converged

        self._rebind(quadrature.integrate_weighted,
                     self._wrap("quadrature.integrate_weighted", quadrature.integrate_weighted,
                                integrate_call, integrate_return))

        # funcspace: only outermost norm calls are counted
        def norm_call(fname):
            def on_call(args, kwargs):
                outer = self._norm_depth == 0
                self._norm_depth += 1
                repeat = False
                if outer:
                    c["funcspace.norm_calls"] += 1
                    key = (fname, _key(args, kwargs))
                    repeat = key in self._norm_seen
                    self._norm_seen.add(key)
                    c["funcspace.repeats"] += repeat
                return args, kwargs, repeat
            return on_call

        def norm_return(repeat, result, ns):
            if repeat:
                c["funcspace.repeat_ns"] += ns

        for fname in NORM_FUNCTIONS:
            fn = getattr(funcspace, fname)
            wrapped = self._wrap(f"funcspace.{fname}", fn, norm_call(fname), norm_return)
            self._rebind(fn, self._restoring_depth(wrapped))

        eval_jet = funcspace.RadialFunction.eval_jet
        funcspace.RadialFunction.eval_jet = self._wrap(
            "funcspace.eval_jet", eval_jet, count("funcspace.eval_jet.calls"))
        self._undo.append((funcspace.RadialFunction, "eval_jet", eval_jet))

        # verify and config
        def check_call(args, kwargs):
            return args, kwargs, args[0].kind

        def check_return(kind, result, ns):
            c[f"verify.{kind}.ns"] += ns

        self._rebind(verify.run_check,
                     self._wrap("verify.run_check", verify.run_check, check_call, check_return))
        self._rebind(config.build_check_specs,
                     self._wrap("config.build_check_specs", config.build_check_specs,
                                None, add_time("config.build_check_specs.ns")))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
        )


def self_seconds(spans_path: str) -> dict[str, float]:
    """Self time per span name: span duration minus its direct children's."""
    with np.load(spans_path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = (data["end"] - data["start"]).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = np.bincount(name, weights=dur - child, minlength=len(names))
    return {n: float(own[i]) * 1e-9 for i, n in enumerate(names)}


def layer_metrics(counts: dict, self_s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sample: name -> (value, unit)."""
    c = defaultdict(float, counts)
    s = defaultdict(float, self_s)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "jets.mul.calls": (c["jets.mul.calls"], "count"),
        "jets.mul.self_s": (s["jets.mul"], "s"),
        "jets.mul.points_per_call": (ratio(c["jets.mul.points"], c["jets.mul.calls"]), "points"),
        "jets.mul.madds": (c["jets.mul.madds"], "madd"),
        "jets.compose.calls": (c["jets.compose.calls"], "count"),
        "jets.compose.self_s": (s["jets.compose"], "s"),
        "jets.partial.calls": (c["jets.partial.calls"], "count"),
        "jets.partial.self_s": (s["jets.partial"], "s"),
        "manifold.metric_at.calls": (c["manifold.metric_at.calls"], "count"),
        "manifold.metric_at.self_s": (s["manifold.metric_at"], "s"),
        "manifold.warp_value.calls": (c["manifold.warp_value.calls"], "count"),
        "geometry.covariant_bundle.calls": (c["geometry.covariant_bundle.calls"], "count"),
        "geometry.covariant_bundle.self_s": (s["geometry.covariant_bundle"], "s"),
        "geometry.covariant_bundle.points": (c["geometry.covariant_bundle.points"], "points"),
    }
    for n in BUNDLE_DIMS:
        out[f"geometry.covariant_bundle.us_per_point.N{n}"] = (
            1e-3 * ratio(c[f"geometry.covariant_bundle.ns.N{n}"],
                         c[f"geometry.covariant_bundle.points.N{n}"]),
            "us",
        )
    out.update({
        "geometry.christoffel_at.self_s": (s["geometry.christoffel_at"], "s"),
        "geometry.norm_profiles.calls": (c["geometry.norm_profiles.calls"], "count"),
        "geometry.norm_profiles.points_per_call": (
            ratio(c["geometry.norm_profiles.points"], c["geometry.norm_profiles.calls"]), "points"),
        "geometry.pointwise_norm.self_s": (s["geometry.pointwise_norm"], "s"),
        "quadrature.integrals": (c["quadrature.integrals"], "count"),
        "quadrature.self_s": (s["quadrature.integrate_weighted"], "s"),
        "quadrature.evaluator_s": (1e-9 * c["quadrature.evaluator_ns"], "s"),
        "quadrature.evaluator_calls": (c["quadrature.evaluator_calls"], "count"),
        "quadrature.evaluator_points": (c["quadrature.evaluator_points"], "points"),
        "quadrature.points_per_call": (
            ratio(c["quadrature.evaluator_points"], c["quadrature.evaluator_calls"]), "points"),
        "quadrature.segment_accept_ratio": (
            ratio(c["quadrature.subdivisions"], c["quadrature.evaluator_calls"]), "ratio"),
        "quadrature.nonconverged_frac": (
            ratio(c["quadrature.nonconverged"], c["quadrature.integrals"]), "ratio"),
        "funcspace.norm_calls": (c["funcspace.norm_calls"], "count"),
        "funcspace.repeat_frac": (ratio(c["funcspace.repeats"], c["funcspace.norm_calls"]), "ratio"),
        "funcspace.repeat_s": (1e-9 * c["funcspace.repeat_ns"], "s"),
        "funcspace.eval_jet.calls": (c["funcspace.eval_jet.calls"], "count"),
        "funcspace.eval_jet.self_s": (s["funcspace.eval_jet"], "s"),
    })
    for kind in CHECK_KINDS:
        out[f"verify.{kind}.s"] = (1e-9 * c[f"verify.{kind}.ns"], "s")
    out["config.build_check_specs.s"] = (1e-9 * c["config.build_check_specs.ns"], "s")
    return out


# Metrics that must repeat exactly between traced runs of one seed.
COUNT_METRICS = tuple(
    name for name in layer_metrics({}, {})
    if name.endswith((".calls", ".points", ".madds", ".integrals", ".points_per_call",
                      ".evaluator_calls", ".evaluator_points", ".segment_accept_ratio",
                      ".nonconverged_frac", ".norm_calls", ".repeat_frac"))
)
