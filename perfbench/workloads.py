"""Workload definitions and seeded input generation.

A workload is a list of check positions.  Each position fixes the check
(kind, manifold, orders, grid) and the family kind it runs on; the seed only
picks the family parameters, from a short list of admissible values per
position.  Because every parameter list is finite, the reference file holds
the expected result of every (position, parameter) unit, so any seed is
checked bit for bit.  The family kind of a position never depends on the
seed, so the amount of work per run stays nearly the same across seeds.

The program only sees the generated config file; `default_suite` is the
program's own built-in suite, run with `radwarp run --default-suite`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKLOADS = ("default_suite", "rank4_sweep", "interval_norms")

INF = math.inf
BUILTIN_RADII = {"euclidean": INF, "hyperbolic": INF, "spherical": math.pi, "tanh_cap": INF}


@dataclass(frozen=True)
class Family:
    """One radial family; `params` are in the program's label order."""

    kind: str
    params: tuple = ()

    @property
    def label(self) -> str:
        # mirrors RadialFunction.label, which the config uses to pick families
        inner = ",".join(f"{k}={float(v):g}" for k, v in self.params)
        return f"{self.kind}({inner})" if inner else self.kind

    def config_fields(self) -> dict:
        if self.kind != "polynomial_bump":
            return dict(self.params, kind=self.kind)
        coeffs = [v for k, v in self.params if k.startswith("c")]
        return {"kind": self.kind, "support": dict(self.params)["support"], "coeffs": coeffs}


def gaussian(a):
    return Family("gaussian", (("a", a),))


def power_decay(a):
    return Family("power_decay", (("a", a),))


def bump(support, *coeffs):
    return Family(
        "polynomial_bump", (("support", support),) + tuple((f"c{m}", c) for m, c in enumerate(coeffs))
    )


def log_profile(r_ref, delta):
    return Family("log_profile", (("r_ref", r_ref), ("delta", delta)))


@dataclass(frozen=True)
class Position:
    """A check with fixed settings and the family values a seed may pick."""

    fields: tuple  # ((config key, value), ...) of the check entry
    options: tuple  # candidate Family values

    def unit_id(self, family: Family) -> str:
        return json.dumps([dict(self.fields), family.label], sort_keys=True)


def _rank4_options(kind: str, radius: float) -> tuple:
    span = min(radius, 5.0)
    if kind == "gaussian":
        return tuple(gaussian(a) for a in (0.5, 0.75, 1.0, 1.5, 2.0))
    if kind == "power_decay":
        return tuple(power_decay(a) for a in (0.5, 1.0, 1.5, 2.0, 3.0))
    if kind == "polynomial_bump":
        return tuple(
            bump(round(f * span, 6), *c)
            for f in (0.5, 0.8)
            for c in ((1.0, -0.3, 0.2), (1.0, 0.5), (2.0, 0.0, -0.4))
        )
    ref = radius if math.isfinite(radius) else 10.0
    return tuple(log_profile(r, d) for r in (ref, 0.5 * ref) for d in (0.01, 0.03, 0.1))


def rank4_positions() -> list[Position]:
    """identity and gradient_inequality over 4 warps x N = 2..5 at k = 4."""
    kinds = ("gaussian", "power_decay", "polynomial_bump", "log_profile")
    out = []
    for warp, radius in BUILTIN_RADII.items():
        for n in (2, 3, 4, 5):
            for check in ("identity", "gradient_inequality"):
                family_kind = kinds[len(out) % len(kinds)]
                fields = (("kind", check), ("warp", warp), ("N", n), ("k", 4), ("grid", 256))
                out.append(Position(fields, _rank4_options(family_kind, radius)))
    return out


# Interval-side checks.  Bounded positions use finite R; unbounded ones use
# families whose weighted norms converge against that warp.
_GAUSS = tuple(gaussian(a) for a in (0.75, 1.0, 1.25, 1.5))
_INTERVAL_CHECKS = (
    # (check fields, family options)
    ((("kind", "radial_lemma_power"), ("warp", "euclidean"), ("R", 1.0), ("N", 3), ("k", 1), ("p", 2)),
     _GAUSS),
    ((("kind", "radial_lemma_power"), ("warp", "hyperbolic"), ("R", 2.0), ("N", 4), ("k", 1), ("p", 2)),
     tuple(bump(s, 1.0, -0.3, 0.2) for s in (1.0, 1.2, 1.4, 1.6))),
    ((("kind", "radial_lemma_power"), ("warp", "spherical"), ("R", 2.5), ("N", 5), ("k", 2), ("p", 2)),
     tuple(power_decay(a) for a in (0.5, 1.0, 1.5, 2.0))),
    ((("kind", "radial_lemma_log"), ("warp", "tanh_cap"), ("R", 2.0), ("N", 4), ("k", 2), ("p", 2)),
     tuple(log_profile(2.0, d) for d in (0.01, 0.02, 0.03, 0.05))),
    ((("kind", "radial_lemma_log"), ("warp", "euclidean"), ("R", 1.5), ("N", 2), ("k", 1), ("p", 2)),
     _GAUSS),
    ((("kind", "hardy"), ("warp", "euclidean"), ("R", 1.0), ("N", 3), ("k", 1), ("j", 1), ("p", 2)),
     tuple(power_decay(a) for a in (0.5, 1.0, 1.5, 2.0))),
    ((("kind", "hardy"), ("warp", "hyperbolic"), ("R", 1.5), ("N", 4), ("k", 2), ("j", 1), ("p", 2)),
     _GAUSS),
    ((("kind", "hardy"), ("warp", "spherical"), ("R", 2.5), ("N", 5), ("k", 2), ("j", 2), ("p", 2)),
     tuple(bump(s, 1.0, 0.5) for s in (1.5, 1.75, 2.0, 2.25))),
    ((("kind", "decay_lemma"), ("warp", "hyperbolic"), ("N", 3), ("p", 2)),
     _GAUSS),
    # power_decay would be skipped here (its tail is not certified within the
    # panel budget), and a check whose only family is skipped fails
    ((("kind", "decay_lemma"), ("warp", "euclidean"), ("N", 2), ("p", 1)),
     tuple(gaussian(a) for a in (0.5, 0.75, 1.0, 1.25))),
    ((("kind", "decay_lemma"), ("warp", "tanh_cap"), ("N", 4), ("p", 2)),
     tuple(bump(s, 1.0, -0.3, 0.2) for s in (2.0, 2.5, 3.0, 3.5))),
    ((("kind", "counterexample"), ("warp", "tanh_cap"), ("R", 2.0), ("N", 2), ("k", 3), ("p", 2)),
     (Family("linear"),)),
    ((("kind", "counterexample"), ("warp", "euclidean"), ("R", 1.0), ("N", 3), ("k", 3), ("p", 2)),
     (Family("linear"),)),
    ((("kind", "embedding_ratio"), ("variant", "interval"), ("warp", "euclidean"), ("R", 1.0),
      ("N", 3), ("k", 1), ("p", 2), ("q", 2)),
     _GAUSS),
    ((("kind", "embedding_ratio"), ("variant", "interval"), ("warp", "hyperbolic"), ("N", 4),
      ("k", 1), ("p", 2), ("theta", 2), ("q", 2.5)),
     _GAUSS),
    ((("kind", "embedding_ratio"), ("variant", "interval"), ("warp", "tanh_cap"), ("N", 3),
      ("k", 1), ("p", 2), ("q", 2)),
     tuple(bump(s, 1.0, 0.5) for s in (2.0, 2.5, 3.0, 3.5))),
)


def interval_positions() -> list[Position]:
    return [Position(fields, options) for fields, options in _INTERVAL_CHECKS]


POSITIONS = {"rank4_sweep": rank4_positions, "interval_norms": interval_positions}
# distinct families drawn per position; interval checks are cheap, so each
# position runs twice to give the quadrature more work per sample
DRAWS = {"rank4_sweep": 1, "interval_norms": 2}


def choose(name: str, seed: int) -> list[tuple[Position, Family]]:
    """The (position, family) units of one seeded run of a generated workload."""
    rng = random.Random(f"{name}:{seed}")
    return [
        (pos, fam)
        for pos in POSITIONS[name]()
        for fam in rng.sample(pos.options, min(DRAWS[name], len(pos.options)))
    ]


def all_units(name: str) -> list[tuple[Position, Family]]:
    """Every (position, family) unit any seed can produce."""
    return [(pos, fam) for pos in POSITIONS[name]() for fam in pos.options]


def config_text(name: str, seed, units) -> str:
    """Config file running `units` in order, one family per check."""
    lines = [
        f"# benchmark workload {name}, seed {seed}",
        'manifold.warp = "euclidean"',
        "manifold.N = 3",
        "quadrature.tol = 1e-10",
    ]
    families = list(dict.fromkeys(fam for _, fam in units))
    for i, fam in enumerate(families, start=1):
        for key, value in fam.config_fields().items():
            lines.append(f"family.{i}.{key} = {json.dumps(value)}")
    for i, (pos, fam) in enumerate(units, start=1):
        for key, value in pos.fields:
            lines.append(f"check.{i}.{key} = {json.dumps(value)}")
        lines.append(f"check.{i}.families = {json.dumps([fam.label])}")
    lines.append('output.report = "report.json"')
    return "\n".join(lines) + "\n"
