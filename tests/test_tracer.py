"""The benchmark tracer (perfbench/tracer.py) still fits the package.

The tracer rebinds the package functions it times by name, so a function
that is renamed, dropped or no longer called would otherwise show only when
the benchmark runs traced.
"""

import importlib.util
import sys
from pathlib import Path

import radwarp.cli  # noqa: F401  (loads every module the tracer rebinds in)
from radwarp import geometry, verify
from radwarp.funcspace import RadialFunction
from radwarp.manifold import ManifoldSpec, WarpSpec

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """(module name, attribute) -> bound object over every radwarp module,
    plus the method the tracer wraps on its class."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "radwarp" or name.startswith("radwarp."))
        for attr, value in vars(mod).items()
    }
    out[("RadialFunction", "eval_jet")] = vars(RadialFunction)["eval_jet"]
    return out


def test_tracer_counts_a_manifold_check_and_restores_every_binding():
    tracer_module = _load_tracer()
    # a manifold Sobolev norm of order 2 runs norm functions, norm profiles
    # and quadrature; an identity check runs the metric, the Christoffel
    # symbols and the covariant tensors, and one direct call their dense norm
    m = ManifoldSpec(WarpSpec.euclidean(1.0), 3)
    checks = [verify.CheckSpec(kind="embedding_ratio", manifold=m, k=2, p=1.5, q=2.0,
                               families=(RadialFunction.gaussian(1.0),)),
              verify.CheckSpec(kind="identity", manifold=m, k=2,
                               families=(RadialFunction.gaussian(1.0),))]
    original = _bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # raises if a traced function is bound nowhere
        replaced = [key for key, value in _bindings().items()
                    if key in original and value is not original[key]]
        # through the module, whose binding the tracer replaces
        assert [verify.run_check(check).verdict for check in checks] == ["pass", "pass"]
        metric, tensors = geometry.covariant_bundle(RadialFunction.gaussian(1.0), m, 0.5, 2)
        assert geometry.pointwise_norm(tensors[2], metric) > 0.0
    finally:
        tracer.restore()
    assert ("radwarp.geometry", "christoffel_at") in replaced
    assert ("RadialFunction", "eval_jet") in replaced
    restored = _bindings()
    assert [key for key, value in original.items() if restored[key] is not value] == []

    counts = tracer.counts
    for name in ("jets.mul.calls", "jets.partial.calls", "manifold.metric_at.calls",
                 "geometry.covariant_bundle.calls", "geometry.norm_profiles.calls",
                 "quadrature.integrals", "quadrature.evaluator_calls",
                 "funcspace.norm_calls", "funcspace.eval_jet.calls",
                 "verify.embedding_ratio.ns"):
        assert counts[name] > 0, name
    spans = {tracer.names[i] for i in set(tracer.span_name)}
    assert {"geometry.christoffel_at", "geometry.pointwise_norm",
            "quadrature.integrate_weighted", "verify.run_check"} <= spans
    assert spans & {f"funcspace.{name}" for name in tracer_module.NORM_FUNCTIONS}
