"""radwarp benchmark: closed-loop CLI runs, checked against reference outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each sample is a fresh interpreter
(`sample.py`) running `radwarp run` on the workload's config with one worker
(RADWARP_WORKERS unset).  Samples run one after another, a closed loop with a
single client, until S seconds have passed.

--trace 0 reports the end-to-end metrics, as medians over the samples:
  run_s        first check starting -> report written
  setup_s      interpreter start -> first check (imports, config, validation)
  peak_rss_mb  peak resident memory of a sample process
  pass_frac    1 - fail_frac: checks whose verdict equals the reference
  exact_frac   1 - drift_frac: checks whose measured and worst_case values
               are bit-identical to the reference
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones (see tracer.py) plus trace.overhead_frac.  It
also checks the benchmark itself: layer counts must repeat exactly between
traced samples, and tracing must leave the report unchanged.

run_s and setup_s are wall times scaled to a reference machine speed.  The
speed of a shared machine drifts by up to 2x within seconds, so each sample
times a fixed loop every 20 ms (sample.SpeedProbe), leaves those loops out of
its windows and multiplies the windows by PROBE_REFERENCE_S / (mean loop
time).  Scaled times repeat far better than raw wall times; both are printed.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A check that raises counts every check of its sample as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from sample import monotonic as now  # noqa: E402

SAMPLE_TIMEOUT_S = 120.0
PROBE_REFERENCE_S = 2.5e-4


def workload_input(name: str, seed: int, workdir: Path,
                   reference: dict) -> tuple[list[str], list[str]]:
    """CLI arguments of one run and the reference unit id of each check, in order."""
    if name == "default_suite":
        return ["run", "--default-suite"], reference["order"]
    units = workloads.choose(name, seed)
    cfg = workdir / "workload.cfg"
    cfg.write_text(workloads.config_text(name, seed, units), encoding="utf-8")
    return ["run", str(cfg)], [pos.unit_id(fam) for pos, fam in units]


def load_reference(name: str) -> dict:
    with open(HERE / "reference" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_sample(src: Path, workdir: Path, cli_args: list[str], trace: bool = False,
               warmup: bool = False) -> dict:
    """One fresh-interpreter sample; returns its timings, report and counters."""
    result_path = workdir / "result.json"
    report_path = workdir / "report.json"
    spans_path = workdir / "spans.npz"
    for path in (result_path, report_path, spans_path):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "sample.py"), str(src), str(result_path)]
    if trace:
        cmd += ["--trace", str(spans_path)]
    if warmup:
        cmd.append("--warmup")
    cmd += ["--", *cli_args, "--out", str(report_path)]
    env = {k: v for k, v in os.environ.items() if k != "RADWARP_WORKERS"}
    start = now()
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"sample killed after {SAMPLE_TIMEOUT_S} s"}
    if warmup:
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import the program:\n{proc.stderr}")
        return {}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": proc.stderr or f"sample exited with {proc.returncode}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if "error" in result or "first_check" not in result:
        result.setdefault("error", "the run ended before any check started")
        return result
    first, end, ticks = result["first_check"], result["end"], result["probe_ticks"]
    result["wall_setup_s"] = first - start - sum(d for t, d in ticks if t < first)
    result["wall_run_s"] = end - first - sum(d for t, d in ticks if first <= t < end)
    result["probe_s"] = statistics.fmean(d for _, d in ticks)
    result["scale"] = PROBE_REFERENCE_S / result["probe_s"]
    result["setup_s"] = result["wall_setup_s"] * result["scale"]
    result["run_s"] = result["wall_run_s"] * result["scale"]
    if report_path.exists():
        result["report"] = json.loads(report_path.read_text(encoding="utf-8"))
    if trace:
        result["self_s"] = tracer.self_seconds(str(spans_path))
    return result


def _canonical(check: dict) -> str:
    return json.dumps([check.get("measured"), check.get("worst_case")], sort_keys=True)


def _leaves(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, json.dumps(value)


def drift_fields(check: dict, ref: dict) -> int:
    """Number of measured/worst_case leaves not bit-identical to the reference."""
    ours = dict(_leaves({"m": check.get("measured"), "w": check.get("worst_case")}))
    theirs = dict(_leaves({"m": ref["measured"], "w": ref["worst_case"]}))
    return sum(ours.get(k) != theirs.get(k) for k in ours.keys() | theirs.keys())


def grade(result: dict, units: list[str], reference: dict) -> dict:
    """Failed and drifted checks of one sample against the reference."""
    checks = result.get("report", {}).get("checks") if "error" not in result else None
    if checks is None:
        return {"failed": len(units), "drifted": len(units), "drift_fields": 0}
    failed = drifted = abs(len(checks) - len(units))  # missing or extra checks
    fields = 0
    for unit, check in zip(units, checks):
        ref = reference["units"].get(unit)
        if ref is None:
            failed += 1
            drifted += 1
            continue
        failed += check["verdict"] != ref["verdict"]
        if _canonical(check) != _canonical(ref):
            drifted += 1
            fields += drift_fields(check, ref)
    return {"failed": failed, "drifted": drifted, "drift_fields": fields}


def _spread(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} over n={n} samples"
    pct = math.floor(100 * (1 - 10 / n))
    if pct > 50:
        return text + f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return text + f" (max {max(values):.6g}; under 20 samples no percentile above the median " \
        "has ten samples beyond it)"


def measure(name: str, seed: int, seconds: float, trace: bool, src: Path, workdir: Path):
    reference = load_reference(name)
    cli_args, units = workload_input(name, seed, workdir, reference)
    run_sample(src, workdir, cli_args, warmup=True)

    plain, traced = [], []
    attempted = failed = drifted = 0
    problems = []
    durations = []
    deadline = now() + seconds
    while True:
        # trace mode alternates plain and traced samples, starting plain
        use_trace = trace and len(traced) < len(plain)
        started = now()
        result = run_sample(src, workdir, cli_args, trace=use_trace)
        durations.append(now() - started)
        graded = grade(result, units, reference)
        result["graded"] = graded
        attempted += len(units)
        failed += graded["failed"]
        drifted += graded["drifted"]
        if "error" in result:
            problems.append(result["error"].strip().splitlines()[-1])
        (traced if use_trace else plain).append(result)
        enough = plain and (not trace or len(traced) >= 2)
        # start another sample only if it is expected to end before the deadline
        if enough and now() + statistics.median(durations) > deadline:
            break

    lines = [f"workload {name}, seed {seed}: {len(plain)} untraced and {len(traced)} traced "
             f"samples, {attempted} checks attempted"]
    lines += [f"error: {p}" for p in dict.fromkeys(problems)]
    lines.append(f"fail_frac: {failed / attempted:.6g} ({failed}/{attempted} checks)")
    lines.append(f"drift_frac: {drifted / attempted:.6g} ({drifted}/{attempted} checks)")
    ok_plain = [r for r in plain if "run_s" in r]
    ok_traced = [r for r in traced if "run_s" in r]
    metrics = {}
    correct = failed == 0

    if not trace:
        if ok_plain:
            for key in ("wall_run_s", "wall_setup_s", "probe_s"):
                lines.append(f"{key} (not scaled): {_spread([r[key] for r in ok_plain])}")
            for key, unit in (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
                values = [r[key] for r in ok_plain]
                lines.append(f"{key}: {_spread(values)}")
                metrics[key] = {"value": statistics.median(values), "unit": unit}
        metrics["pass_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        metrics["exact_frac"] = {"value": 1.0 - drifted / attempted, "unit": "ratio"}
    elif ok_plain and ok_traced:
        correct &= _check_tracing(ok_plain, ok_traced, lines)
        # layer times are scaled like run_s
        per_sample = [
            {k: v * r["scale"] if unit in ("s", "us") else v
             for k, (v, unit) in tracer.layer_metrics(r["counts"], r["self_s"]).items()}
            for r in ok_traced
        ]
        for key, (_, unit) in tracer.layer_metrics({}, {}).items():
            metrics[key] = {"value": statistics.median(m[key] for m in per_sample), "unit": unit}
        idle = [k for k, item in metrics.items() if item["value"] == 0]
        if idle:
            lines.append(f"zero on this workload: {', '.join(idle)}")
        metrics["verify.drift_fields"] = {
            "value": statistics.median(r["graded"]["drift_fields"] for r in ok_traced),
            "unit": "count",
        }
        plain_run = statistics.median(r["run_s"] for r in ok_plain)
        traced_run = statistics.median(r["run_s"] for r in ok_traced)
        metrics["trace.overhead_frac"] = {"value": traced_run / plain_run - 1.0, "unit": "ratio"}
        metrics["trace.samples"] = {"value": len(ok_traced), "unit": "count"}
    else:
        correct = False
    for key, item in metrics.items():
        lines.append(f"{key}: {item['value']:.6g} {item['unit']}")
    return lines, {"correct": bool(correct), "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def _check_tracing(plain: list[dict], traced: list[dict], lines: list[str]) -> bool:
    """Counts repeat exactly across traced samples; tracing leaves reports unchanged."""
    ok = True
    first = tracer.layer_metrics(traced[0]["counts"], {})
    for other in traced[1:]:
        again = tracer.layer_metrics(other["counts"], {})
        moved = [k for k in tracer.COUNT_METRICS if again[k][0] != first[k][0]]
        if moved:
            ok = False
            lines.append(f"self-check failed: counts differ between traced samples: {moved}")
    base = plain[0].get("report", {}).get("checks", [])
    for r in traced:
        checks = r.get("report", {}).get("checks", [])
        same = len(checks) == len(base) and all(
            a["verdict"] == b["verdict"] and _canonical(a) == _canonical(b)
            for a, b in zip(checks, base)
        )
        if not same:
            ok = False
            lines.append("self-check failed: the traced report differs from the untraced one")
            break
    if ok:
        lines.append("self-check: layer counts repeat exactly; traced reports equal untraced")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "radwarp" / "cli.py").is_file():
        print(f"no radwarp source under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        lines, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # left in place while another run uses it
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
