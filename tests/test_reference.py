"""Every interval_norms and rank4_sweep benchmark unit still reproduces its
reference, bit for bit.

The benchmark grades each run against perfbench/reference; a change that
moves a measured constant by one ulp would otherwise show only there, as a
lower exact_frac.  The units and their config come from perfbench/workloads.py,
loaded read-only.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from radwarp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# rank4_sweep runs the covariant recursion at N = 2..5, k = 4 on 256 points
@pytest.mark.parametrize("workload", ["interval_norms", "rank4_sweep"])
def test_units_match_the_reference(workload, tmp_path):
    workloads = _load_workloads()
    units = workloads.all_units(workload)
    cfg_path = tmp_path / "all_units.cfg"
    cfg_path.write_text(workloads.config_text(workload, "all", units), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["run", str(cfg_path), "--out", str(out_path)]) == 0
    checks = json.loads(out_path.read_text(encoding="utf-8"))["checks"]
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json")
                           .read_text(encoding="utf-8"))["units"]
    assert len(checks) == len(units) == len(reference)
    drifted = []
    for (pos, fam), check in zip(units, checks):
        uid = pos.unit_id(fam)
        for key in ("verdict", "measured", "worst_case"):
            # JSON text of both sides: floats compare by repr, so one ulp,
            # a sign of zero or a NaN shows
            if json.dumps(check[key], sort_keys=True) != json.dumps(reference[uid][key],
                                                                    sort_keys=True):
                drifted.append((uid, key))
    assert drifted == []
