"""Capture the reference outputs the benchmark grades against.

    python3 perfbench/capture.py [WORKLOAD ...]

Run from the root of a source checkout whose outputs are accepted as the
reference.  For each workload it runs every unit any seed can produce through
the CLI once and writes reference/<workload>.json: the verdict, measured and
worst_case of each unit.  Units whose verdict is not "pass" are kept as they
are and listed on stderr.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def capture(name: str, src: Path, workdir: Path) -> dict:
    if name == "default_suite":
        cli_args = ["run", "--default-suite"]
    else:
        units = workloads.all_units(name)
        cfg = workdir / "all_units.cfg"
        cfg.write_text(workloads.config_text(name, "all", units), encoding="utf-8")
        cli_args = ["run", str(cfg)]
    result = run.run_sample(src, workdir, cli_args)
    if "report" not in result:
        raise RuntimeError(f"{name}: no report\n{result.get('error', '')}")
    checks = result["report"]["checks"]
    if name == "default_suite":
        ids = [f"default_suite/check.{i}" for i in range(1, len(checks) + 1)]
    else:
        ids = [pos.unit_id(fam) for pos, fam in units]
    entries = {
        uid: {key: check[key] for key in ("kind", "verdict", "measured", "worst_case")}
        for uid, check in zip(ids, checks)
    }
    for uid, entry in entries.items():
        if entry["verdict"] != "pass":
            print(f"{name}: unit {uid} has verdict {entry['verdict']}", file=sys.stderr)
    out = {"units": entries}
    if name == "default_suite":
        out["order"] = ids
    return out


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    root = Path.cwd()
    (run.HERE / "reference").mkdir(exist_ok=True)
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        for name in names:
            ref = capture(name, root / "src", workdir)
            path = run.HERE / "reference" / f"{name}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name}: {len(ref['units'])} units -> {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
