"""Command-line front end: configured verification runs and CSV curve dumps.

Commands::

    radwarp run <config> [--tol T] [--grid N] [--out PATH]
    radwarp run --default-suite [--out PATH]
    radwarp dump <quantity> <config> [--out PATH] [--grid N] [--tol T]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error.  The JSON report schema is
{run_meta, checks: [{kind, params, verdict, measured, worst_case, grid,
runtime_ms}]}; `run_meta.timestamp` and the per-check `runtime_ms` are the
only fields that vary between identical runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

# CPython's own SHA-256, named _sha2 from 3.12 and _sha256 before: hashlib
# would load OpenSSL, the largest single step of the import, for one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

from . import __version__, geometry
from .config import (
    DEFAULT_SUITE,
    RunConfig,
    build_check_spec,
    build_check_specs,
    output_path,
    parse_config,
    quadrature_tol,
)
from .errors import ConfigError, RadwarpError
from .manifold import warp_value
from .verify import decay_ratio_profile, radial_lemma_ratio_profile, run_suite

# the check kind each dumped curve belongs to; a lemma_ratio dump is a
# radial_lemma_log check when N = kp and p > 1, else a radial_lemma_power one
DUMP_KINDS = {"norm_profile": "gradient_inequality", "decay_ratio": "decay_lemma",
              "lemma_ratio": "radial_lemma_log", "integrand": "counterexample"}


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
    dump_p.add_argument("quantity", choices=tuple(DUMP_KINDS))
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


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _cmd_run(args) -> int:
    if args.default_suite:
        cfg = parse_config(DEFAULT_SUITE)
    elif args.config:
        cfg = _read_config(args.config)
    else:
        raise ConfigError("run needs a config path or --default-suite")
    specs = build_check_specs(cfg, grid_override=args.grid, tol_override=args.tol)
    out_path = output_path(cfg, "report", "report.json", args.out)
    report = run_suite(specs)

    payload = report.to_dict()
    meta = payload["run_meta"]
    meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta["config_sha256"] = sha256(cfg.source_text.encode()).hexdigest()
    meta["package_version"] = __version__

    with _open_output(out_path) as fh:
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
    quad_tol = quadrature_tol(cfg, tol)

    def build(kind):
        return build_check_spec(cfg, {**cfg.dump, "kind": kind}, "dump", quad_tol, grid_n)

    try:
        spec = build(DUMP_KINDS[quantity])
    except ConfigError:
        if quantity != "lemma_ratio":
            raise
        # the lemmas share every rule but the last, so an entry that is not a
        # log lemma (N = kp, p > 1) is validated as a power lemma (N > kp)
        spec = build("radial_lemma_power")
    m, family = spec.manifold, spec.families[0]
    grid = spec.grid.resolve(m.warp.radius)
    params = {"kind": spec.kind, **spec.params_dict(), "families": family.label}
    if quantity == "norm_profile":
        values = geometry.norm_profiles(family, m, grid, spec.k)[spec.k]
    elif quantity == "decay_ratio":
        values = decay_ratio_profile(m, family, spec.p, grid, spec.quad_tol)
    elif quantity == "lemma_ratio":
        # the check takes its constant over the doubled grid
        grid = spec.grid.doubled().resolve(m.warp.radius)
        variant = "power" if spec.kind == "radial_lemma_power" else "log"
        values = radial_lemma_ratio_profile(m, family, spec.k, spec.p, grid, variant,
                                            spec.quad_tol)
    else:  # integrand: the divergence-probe weight curve, on spec.grid
        params["exponent"] = m.dim - 1.0 - (spec.k - 1) * spec.p
        values = warp_value(m.warp, grid) ** params["exponent"]
    if values is None:  # the ratio's norms are infinite or zero
        raise ConfigError(f"family {family.label} has no finite nonzero norms for {quantity}")
    return grid, np.asarray(values, dtype=np.float64), params


def _cmd_dump(args) -> int:
    cfg = _read_config(args.config)
    out_path = output_path(cfg, "csv", f"{args.quantity}.csv", args.out)
    try:
        grid, values, params = _dump_values(args.quantity, cfg, args.grid, args.tol)
    except RadwarpError as exc:
        raise ConfigError(str(exc)) from exc
    inner = ";".join(f"{k}={v}" for k, v in params.items())
    with _open_output(out_path) as fh:
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
