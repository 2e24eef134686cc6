"""Config parsing, the run command's exit codes and report schema, CSV dumps."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radwarp
from radwarp.cli import main
from radwarp.config import build_check_specs, make_warp, parse_config
from radwarp.errors import ConfigError

SMALL_CONFIG = """\
# compact run over two profiles
manifold.warp = "hyperbolic"
manifold.R = "inf"
manifold.N = 3

family.1.kind = "gaussian"
family.1.a = 1.0
family.2.kind = "linear"

quadrature.tol = 1e-10

check.1.kind = "identity"
check.1.k = 2
check.1.grid = 32

check.2.kind = "asymptotic_leading"
check.2.k = 3

check.3.kind = "radial_lemma_power"
check.3.warp = "euclidean"
check.3.R = 1.0
check.3.N = 3
check.3.k = 1
check.3.p = 2
check.3.grid = 64

output.report = "report.json"
"""

# a hardy check and an out-of-range embedding check to append to SMALL_CONFIG
HARDY = """\
check.4.kind = "hardy"
check.4.warp = "euclidean"
check.4.R = 1.0
check.4.j = 1
"""
EMBEDDING_Q50 = """\
check.4.kind = "embedding_ratio"
check.4.warp = "euclidean"
check.4.R = 1.0
check.4.q = 50
"""


class TestConfigParsing:
    def test_sections_and_values(self):
        cfg = parse_config(SMALL_CONFIG)
        assert cfg.manifold["warp"] == "hyperbolic"
        assert cfg.manifold["R"] == "inf"
        assert cfg.families[1]["a"] == 1.0
        assert cfg.checks[3]["warp"] == "euclidean"
        assert cfg.output["report"] == "report.json"

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("manifold.warp euclid\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nonsense.key = 1\n")

    def test_comment_inside_string_preserved(self):
        cfg = parse_config('output.report = "a#b.json"\n')
        assert cfg.output["report"] == "a#b.json"

    def test_unknown_warp_tag(self):
        with pytest.raises(ConfigError):
            make_warp("doughnut", None)

    def test_custom_series_warp(self):
        w = make_warp([1.0, -1.0 / 6.0], 1.5)
        assert w.kind == "custom_odd_series"
        assert w.radius == 1.5

    def test_inf_radius_token(self):
        w = make_warp("euclidean", "inf")
        assert math.isinf(w.radius)

    def test_specs_build_and_validate(self):
        specs = build_check_specs(parse_config(SMALL_CONFIG))
        assert [s.kind for s in specs] == [
            "identity", "asymptotic_leading", "radial_lemma_power"
        ]
        assert specs[0].manifold.warp.kind == "hyperbolic"
        assert specs[2].manifold.warp.radius == 1.0

    def test_inadmissible_check_is_config_error(self):
        text = SMALL_CONFIG + "\ncheck.4.kind = \"radial_lemma_power\"\ncheck.4.N = 2\ncheck.4.warp = \"euclidean\"\ncheck.4.R = 1.0\ncheck.4.k = 1\ncheck.4.p = 2\n"
        with pytest.raises(ConfigError):
            build_check_specs(parse_config(text))

    def test_empty_checks_rejected(self):
        with pytest.raises(ConfigError):
            build_check_specs(parse_config("manifold.warp = \"euclidean\"\nmanifold.N = 3\n"))


class TestRunCommand:
    def test_run_passes_and_writes_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG)
        out_path = tmp_path / "report.json"
        code = main(["run", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 3
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"run_meta", "checks"}
        for entry in payload["checks"]:
            assert set(entry) == {
                "kind", "params", "verdict", "measured", "worst_case", "grid", "runtime_ms"
            }
        assert payload["run_meta"]["check_count"] == 3
        assert "timestamp" in payload["run_meta"]

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        bad = SMALL_CONFIG.replace('check.3.N = 3', 'check.3.N = 2')
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(bad)
        assert main(["run", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "check.1.grid = 0",
        "check.1.grid = 1",
        'check.1.grid_lo = "x"',
        "check.1.grid_lo = 5.0\ncheck.1.grid_hi = 1.0",
        'check.1.k = "two"',
        'quadrature.tol = "fine"',
        'quadrature.panel_budget = "lots"',
        # a custom warp on R = inf has no certified tail growth bound
        'check.4.kind = "k1_norm_equality"\ncheck.4.warp = [1.0, 0.1]',
        # keys the program does not read: typos and removed settings
        "quadrature.panel_budgt = 10",
        "check.1.tial_cap = 0.5",
        "quadrature.panel_budget = 4000",
        "check.1.tail_cap = 0.5",
        "dump.tail_cap = 5.0",
        # check fields the kind does not read, a family field its kind does not take
        "check.1.q = 4",
        "check.1.theta = 1",
        "check.2.grid = 8",
        "check.3.j = 1",
        'check.3.variant = "interval"',
        "check.1.p = 3",
        "check.1.p = 0.5",
        "check.2.p = 2",
        'check.2.families = ["gaussian"]',
        "family.1.support = 0.5",
        # tail envelopes come from the family kind alone
        "family.1.envelope = [1e4, 0.0, 2.0, -0.01]",
        "family.1.envelope = [1e12, 0.0, 0.5]",
        # check 3 runs on R = 1.0: its grid must end below R
        "check.3.grid_hi = 1.5",
        "check.3.grid_hi = 1.0",
        # integer fields take integers only
        "manifold.N = 3.5",
        'manifold.N = "three"',
        "check.1.k = 2.5",
        "check.1.k = true",
        "check.1.grid = 8.7",
        "check.3.N = 3.5",
        # custom warp coefficients must be finite numbers
        'manifold.warp = ["x"]\nmanifold.R = 1.0',
        "manifold.warp = [1.0, true]\nmanifold.R = 1.0",
        "manifold.warp = [1.0, NaN]\nmanifold.R = 1.0",
        # real fields take finite numbers only, flags take true or false only
        "check.3.p = true",
        'check.3.p = "2"',
        HARDY + "check.4.p = NaN",
        "check.1.tol = true",
        EMBEDDING_Q50 + 'check.4.diagnostic = "false"',
        EMBEDDING_Q50 + "check.4.diagnostic = no",
        "quadrature.tol = NaN",
        "check.3.p = 1" + "0" * 400,
        "manifold.R = true",
        "manifold.R = Infinity",
        "family.1.a = true",
        # integrals below the quadrature floor, directly or at the tighter
        # tolerance of a refined constant
        "quadrature.tol = 1e-14",
        HARDY + "quadrature.tol = 1e-12",
        # a first-order statement
        'check.4.kind = "k1_norm_equality"\ncheck.4.k = 3',
    ], ids=["grid_zero", "grid_one", "grid_lo_text", "grid_lo_above_hi", "k_text",
            "tol_text", "panel_budget_text", "unbounded_custom_warp_norm",
            "panel_budget_typo", "tail_cap_typo", "panel_budget_removed",
            "tail_cap_removed", "dump_tail_cap_removed", "identity_q", "identity_theta",
            "gridless_grid", "lemma_j", "lemma_variant", "identity_p", "identity_small_p",
            "asymptotic_p", "asymptotic_families", "gaussian_support", "growing_envelope",
            "false_tail_envelope", "grid_hi_past_R", "grid_hi_at_R", "N_fraction", "N_text",
            "k_fraction", "k_bool", "grid_fraction", "check_N_fraction",
            "custom_warp_text_coeff", "custom_warp_bool_coeff", "custom_warp_nan_coeff",
            "p_bool", "p_text", "hardy_p_nan", "tol_bool", "diagnostic_text",
            "diagnostic_bare_word", "quad_tol_nan", "p_beyond_float", "R_bool", "R_infinity",
            "family_param_bool", "quad_tol_below_floor", "hardy_refined_tol_below_floor",
            "k1_norm_k3"])
    def test_invalid_fields_exit_2_without_report(self, tmp_path, capsys, lines):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(SMALL_CONFIG + lines + "\n")
        out_path = tmp_path / "r.json"
        assert main(["run", str(cfg_path), "--out", str(out_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_path.exists()

    def test_unknown_warp_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(SMALL_CONFIG.replace('"hyperbolic"', '"bagel"'))
        assert main(["run", str(cfg_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_deterministic_modulo_volatile_fields(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG)

        def normalized(path):
            payload = json.loads(path.read_text())
            payload["run_meta"].pop("timestamp")
            for entry in payload["checks"]:
                entry.pop("runtime_ms")
            return json.dumps(payload, sort_keys=True)

        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
        assert normalized(out1) == normalized(out2)

    def test_all_check_kinds_through_config(self, tmp_path):
        text = """
manifold.warp = "euclidean"
manifold.R = 1.0
manifold.N = 3
quadrature.tol = 1e-9
check.1.kind = "identity"
check.1.k = 2
check.1.grid = 24
check.2.kind = "gradient_inequality"
check.2.k = 2
check.2.grid = 24
check.3.kind = "k1_norm_equality"
check.3.families = ["gaussian"]
check.4.kind = "radial_lemma_power"
check.4.k = 1
check.4.p = 2
check.4.grid = 32
check.5.kind = "radial_lemma_log"
check.5.warp = "tanh_cap"
check.5.R = 2.0
check.5.N = 4
check.5.k = 2
check.5.p = 2
check.5.grid = 32
check.6.kind = "decay_lemma"
check.6.R = "inf"
check.6.grid = 32
check.7.kind = "hardy"
check.7.k = 1
check.7.j = 1
check.7.p = 2
check.8.kind = "embedding_ratio"
check.8.k = 1
check.8.p = 2
check.8.q = 3
check.8.theta = 1
check.8.variant = "interval"
check.9.kind = "counterexample"
check.9.warp = "tanh_cap"
check.9.R = 2.0
check.9.N = 2
check.9.k = 3
check.9.p = 2
check.10.kind = "asymptotic_leading"
check.10.warp = [1.0, -0.16666666666666666, 0.008333333333333333]
check.10.R = 2.4
check.10.k = 3
"""
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text(text)
        out_path = tmp_path / "all.json"
        assert main(["run", str(cfg_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        kinds = [e["kind"] for e in payload["checks"]]
        assert len(set(kinds)) == 10
        assert all(e["verdict"] == "pass" for e in payload["checks"])

    def test_grid_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CONFIG)
        out_path = tmp_path / "r.json"
        assert main(["run", str(cfg_path), "--grid", "16", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        grids = [e["grid"] for e in payload["checks"] if e["grid"]]
        assert all(g["n"] == 16 for g in grids)


DUMP_CONFIG = """\
manifold.warp = "hyperbolic"
manifold.R = "inf"
manifold.N = 3
check.1.kind = "identity"
dump.family = "gaussian"
dump.j = 1
dump.p = 2
dump.k = 1
dump.grid = 24
"""


class TestDumpCommand:
    @pytest.mark.parametrize("quantity", ["norm_profile", "decay_ratio", "lemma_ratio"])
    def test_dump_writes_csv(self, tmp_path, quantity):
        cfg_path = tmp_path / "d.cfg"
        # the radial lemmas are checked on bounded domains only
        cfg_path.write_text(DUMP_CONFIG + ("dump.R = 2.0\n" if quantity == "lemma_ratio" else ""))
        out_path = tmp_path / "curve.csv"
        assert main(["dump", quantity, str(cfg_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith(f"r,{quantity}{{")
        assert len(lines) == 25
        r, v = lines[1].split(",")
        assert float(r) > 0 and math.isfinite(float(v))

    def test_unknown_family_exit_2_without_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(DUMP_CONFIG.replace('"gaussian"', '"no_such_family"'))
        out_path = tmp_path / "c.csv"
        assert main(["dump", "norm_profile", str(cfg_path), "--out", str(out_path)]) == 2
        assert "no_such_family" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("lines, args", [
        ('dump.grid = "many"', []),
        ('dump.k = "two"', []),
        ('dump.p = "x"', []),
        ('dump.j = "one"', []),
        ('quadrature.tol = "tight"', []),
        ("", ["--grid", "0"]),
        ("dump.p = 0", []),
        ("dump.p = 0.5", []),
        ("dump.p = -1", []),
        ("dump.k = -1", []),
        ("dump.k = 5", []),
        ("dump.j = -1", []),
        ("dump.j = 5", []),
        ("dump.grid = 24.5", []),
        ("dump.k = 1.5", []),
        ("dump.j = true", []),
        ("dump.N = 3.5", []),
        ('dump.N = "three"', []),
        ("manifold.N = 2.5", []),
        ('manifold.warp = ["x"]', []),
        ("dump.p = true", []),
        ("", ["--tol", "inf"]),
    ], ids=["grid_text", "k_text", "p_text", "j_text", "tol_text", "grid_option_zero",
            "p_zero", "p_half", "p_negative", "k_negative", "k_five", "j_negative", "j_five",
            "grid_fraction", "k_fraction", "j_bool", "N_fraction", "N_text",
            "manifold_N_fraction", "custom_warp_text_coeff", "p_bool",
            "tol_option_inf"])
    def test_malformed_numbers_exit_2_without_csv(self, tmp_path, capsys, lines, args):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(DUMP_CONFIG + lines + "\n")
        out_path = tmp_path / "c.csv"
        code = main(["dump", "norm_profile", str(cfg_path), "--out", str(out_path), *args])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("quantity, lines", [
        # radial_lemma_log needs N = kp and p > 1
        ("lemma_ratio", 'dump.warp = "euclidean"\ndump.R = 1.0\ndump.N = 2\ndump.k = 2\ndump.p = 1'),
        # radial_lemma_power needs the warp positive near the outer edge
        ("lemma_ratio", 'dump.warp = "spherical"\ndump.R = 3.141592653589793'),
        # the radial lemmas are checked on bounded domains only
        ("lemma_ratio", ""),
        # decay_lemma requires R = inf
        ("decay_ratio", 'dump.warp = "euclidean"\ndump.R = 2.0'),
    ], ids=["lemma_log_p_one", "lemma_spherical_edge", "lemma_unbounded", "decay_bounded"])
    def test_curve_outside_its_check_exit_2_without_csv(self, tmp_path, capsys, quantity,
                                                        lines):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(DUMP_CONFIG + lines + "\n")
        out_path = tmp_path / "c.csv"
        assert main(["dump", quantity, str(cfg_path), "--out", str(out_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_path.exists()

    def test_integrand_curve_matches_weight(self, tmp_path):
        text = DUMP_CONFIG.replace('"hyperbolic"', '"tanh_cap"').replace(
            'manifold.R = "inf"', "manifold.R = 2.0"
        ).replace("dump.k = 1", "dump.k = 3\ndump.N = 2")
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(text)
        out_path = tmp_path / "c.csv"
        assert main(["dump", "integrand", str(cfg_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        r, v = map(float, lines[1].split(","))
        # N=2, k=3, p=2: weight exponent is 2-1-4 = -3
        assert v == pytest.approx(math.tanh(r) ** -3, rel=1e-12)

    def test_linear_norm_profile_is_radius(self, tmp_path):
        text = DUMP_CONFIG.replace('dump.family = "gaussian"', 'dump.family = "linear"')
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(text.replace("dump.j = 1", "dump.j = 0"))
        out_path = tmp_path / "c.csv"
        assert main(["dump", "norm_profile", str(cfg_path), "--out", str(out_path)]) == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], rows[:, 0], rtol=1e-13)

    def test_decay_ratio_curve_bounded_by_one(self, tmp_path):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(DUMP_CONFIG)
        out_path = tmp_path / "c.csv"
        assert main(["dump", "decay_ratio", str(cfg_path), "--out", str(out_path)]) == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= 1.0 + 1e-6)

    def test_csv_matches_report_worst_case(self, tmp_path):
        # the dumped curve and the check report share grid and code path, so
        # the report's worst-case entry appears verbatim in the CSV
        from radwarp.funcspace import RadialFunction
        from radwarp.manifold import ManifoldSpec, WarpSpec
        from radwarp.verify import CheckSpec, GridSpec, run_check

        res = run_check(CheckSpec(
            kind="decay_lemma",
            manifold=ManifoldSpec(WarpSpec.hyperbolic(), 3),
            families=(RadialFunction.gaussian(1.0),),
            p=2.0,
            grid=GridSpec(n=24),
        ))
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(DUMP_CONFIG)
        out_path = tmp_path / "c.csv"
        assert main(["dump", "decay_ratio", str(cfg_path), "--out", str(out_path)]) == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        i = np.argmin(np.abs(rows[:, 0] - res.worst_case["r"]))
        assert rows[i, 0] == res.worst_case["r"]
        assert rows[i, 1] == res.measured["max_ratio"]


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only: the runtime depends on numpy alone
    src = str(Path(radwarp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, radwarp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
