"""Command-line front end: configured verification runs and CSV curve dumps.

Commands::

    radwarp run <config> [--tol T] [--grid N] [--out PATH]
    radwarp run --default-suite [--out PATH]
    radwarp dump <quantity> <config> [--out PATH] [--grid N]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error.  The JSON report schema is
{run_meta, checks: [{kind, params, verdict, measured, worst_case, grid,
runtime_ms}]}; `run_meta.timestamp` and the per-check `runtime_ms` are the
only fields that vary between identical runs.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys

import numpy as np

from . import __version__, geometry
from .config import (
    DEFAULT_SUITE,
    RunConfig,
    as_float,
    as_int,
    build_check_specs,
    family_pool,
    parse_config,
    quadrature_tol,
    _resolve_manifold,
)
from .errors import ConfigError, RadwarpError
from .manifold import warp_value
from .verify import (
    CheckSpec,
    GridSpec,
    decay_ratio_profile,
    radial_lemma_ratio_profile,
    run_suite,
)

DUMP_QUANTITIES = ("norm_profile", "decay_ratio", "lemma_ratio", "integrand")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radwarp",
        description="Verification runs for radial-function analysis on "
        "spherically symmetric manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the checks of a config file")
    run_p.add_argument("config", nargs="?", help="path to a config file")
    run_p.add_argument("--default-suite", action="store_true",
                       help="run the built-in suite over the four built-in warps")
    run_p.add_argument("--tol", type=float, help="override the quadrature tolerance")
    run_p.add_argument("--grid", type=int, help="override every check's grid size")
    run_p.add_argument("--out", help="report path (default from the config)")

    dump_p = sub.add_parser("dump", help="write a two-column CSV curve")
    dump_p.add_argument("quantity", choices=DUMP_QUANTITIES)
    dump_p.add_argument("config", help="path to a config file")
    dump_p.add_argument("--out", help="CSV path (default <quantity>.csv)")
    dump_p.add_argument("--grid", type=int, help="number of radial samples")
    dump_p.add_argument("--tol", type=float, help="override the quadrature tolerance")
    return parser


def _read_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _cmd_run(args) -> int:
    if args.default_suite:
        cfg = parse_config(DEFAULT_SUITE)
    elif args.config:
        cfg = _read_config(args.config)
    else:
        raise ConfigError("run needs a config path or --default-suite")
    specs = build_check_specs(cfg, grid_override=args.grid, tol_override=args.tol)
    report = run_suite(specs)

    meta = dict(report.run_meta)
    meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta["config_sha256"] = hashlib.sha256(cfg.source_text.encode()).hexdigest()
    meta["package_version"] = __version__
    payload = {"run_meta": meta, "checks": [c.to_dict() for c in report.checks]}

    out_path = args.out or cfg.output.get("report", "report.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")

    for c in report.checks:
        label = ", ".join(f"{k}={v}" for k, v in c.params.items() if k in
                          ("warp", "N", "k", "p", "q", "j", "theta", "variant"))
        print(f"[{c.verdict}] {c.kind} ({label})")
    passed = meta["passed"]
    total = meta["check_count"]
    print(f"{passed}/{total} checks passed; report written to {out_path}")
    return 0 if report.all_passed else 1


def _dump_values(quantity: str, cfg: RunConfig, grid_n: int | None,
                 tol: float | None = None):
    entry = dict(cfg.dump)
    m = _resolve_manifold(cfg, entry)
    pool = family_pool(cfg, m)
    wanted = entry.get("family")
    family = next((f for f in pool if wanted in (None, f.family, f.label)), None)
    if family is None:
        raise ConfigError(f"dump.family {wanted!r} matches no family")
    n = grid_n if grid_n is not None else as_int(entry.get("grid", 256), "dump.grid")
    k = as_int(entry.get("k", 2), "dump.k")
    p = as_float(entry.get("p", 2.0), "dump.p")
    j = as_int(entry.get("j", 1), "dump.j")
    if not p >= 1:
        raise ConfigError(f"dump.p must be at least 1, got {p}")
    if not (0 <= k <= 4 and 0 <= j <= 4):
        raise ConfigError(f"dump.k and dump.j must be within 0..4, got k={k}, j={j}")
    grid_spec = GridSpec(n=n)
    grid = grid_spec.resolve(m.warp.radius)
    quad_tol = quadrature_tol(cfg, tol)

    params = {"warp": m.warp.kind, "N": m.dim}
    if quantity == "norm_profile":
        values = geometry.norm_profiles(family, m, grid, j)[j]
        params.update(j=j, family=family.label)
    elif quantity == "decay_ratio":
        # a ratio curve is valid where the check that plots it is
        CheckSpec("decay_lemma", m, (family,), p=p, grid=grid_spec, quad_tol=quad_tol)
        values = decay_ratio_profile(m, family, p, grid, quad_tol)
        params.update(p=p, family=family.label)
    elif quantity == "lemma_ratio":
        variant = "power" if m.dim > k * p else "log"
        CheckSpec(f"radial_lemma_{variant}", m, (family,), k=k, p=p, grid=grid_spec,
                  quad_tol=quad_tol)
        values = radial_lemma_ratio_profile(m, family, k, p, grid, variant, quad_tol)
        params.update(k=k, p=p, variant=variant, family=family.label)
    else:  # integrand: the divergence-probe weight curve
        expo = m.dim - 1.0 - (k - 1) * p
        values = warp_value(m.warp, grid) ** expo
        params.update(k=k, p=p, exponent=expo)
    if values is None:  # the ratio's norms are infinite or zero
        raise ConfigError(f"family {family.label} has no finite nonzero norms for {quantity}")
    return grid, np.asarray(values, dtype=np.float64), params


def _cmd_dump(args) -> int:
    cfg = _read_config(args.config)
    try:
        grid, values, params = _dump_values(args.quantity, cfg, args.grid, args.tol)
    except RadwarpError as exc:
        raise ConfigError(str(exc)) from exc
    inner = ";".join(f"{k}={v}" for k, v in params.items())
    out_path = args.out or cfg.output.get("csv", f"{args.quantity}.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"r,{args.quantity}{{{inner}}}\n")
        for r, v in zip(grid, values):
            fh.write(f"{float(r)!r},{float(v)!r}\n")
    print(f"{len(grid)} samples written to {out_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_dump(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RadwarpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
