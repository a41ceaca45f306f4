import json
import math
import os
import subprocess
import sys

import pytest

from spinorbit_bell import cli, states
from spinorbit_bell.errors import ConfigError, SimulationError
from spinorbit_bell.states import Family


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi/8", math.pi / 8),
            ("3pi/8", 3 * math.pi / 8),
            ("3*pi/8", 3 * math.pi / 8),
            ("pi", math.pi),
            ("-pi/4", -math.pi / 4),
            ("2pi", 2 * math.pi),
            ("0.5", 0.5),
        ],
    )
    def test_literals(self, text, expected):
        assert cli.parse_angle(text, "x") == pytest.approx(expected)

    def test_numbers_pass_through(self):
        assert cli.parse_angle(1.25, "x") == 1.25

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_angle("pie/8", "x")


class TestParseConfig:
    def test_minimal_chsh(self):
        cfg = cli.parse_config("state: {family: entangled_fock, n: 1}", "chsh")
        assert cfg.state.family is Family.ENTANGLED_FOCK
        assert cfg.chsh_settings.alpha == pytest.approx(math.pi / 8)
        assert cfg.format == "json"
        assert cfg.state.epsilon == 1e-10

    def test_range_error_names_field(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(
                "state: {family: werner_fock, n: 1, p: 1.5}", "chsh"
            )
        assert err.value.field == "state.p"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(
                "state: {family: entangled_fock, n: 1, gamma: 2}", "chsh"
            )
        assert "gamma" in err.value.field

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("state: {family: entangled_fock, n: 1, 7: 1, gamma: 2}", "chsh")
        assert err.value.field == "state.7"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config(
                "state: {family: entangled_fock, n: 1}\nextra: true", "chsh"
            )

    def test_complex_pair(self):
        cfg = cli.parse_config("state: {family: pure_coherent, u: [1.0, 0.5]}", "chsh")
        assert cfg.state.u == 1.0 + 0.5j

    def test_scan_requires_grid(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("state: {family: pure_coherent, u: 1}", "noise-scan")
        assert err.value.field == "scan_grid"

    def test_settings_override(self):
        text = """
state: {family: entangled_fock, n: 1}
chsh_settings: {alpha: 0, alpha_prime: pi/4, beta: 0, beta_prime: pi/8}
"""
        cfg = cli.parse_config(text, "chsh")
        assert cfg.chsh_settings.beta_prime == pytest.approx(math.pi / 8)


class TestRun:
    def test_chsh_s_value(self):
        cfg = cli.parse_config("state: {family: entangled_fock, n: 1}", "chsh")
        doc = json.loads(cli.run(cfg))
        assert doc["schema_version"] == 1
        assert doc["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_noise_scan_shot_noise(self):
        text = """
state: {family: pure_coherent, u: 2.0}
scan_grid:
  alpha: {start: 0, stop: pi, points: 3}
  beta: {start: 0, stop: pi, points: 3}
"""
        cfg = cli.parse_config(text, "noise-scan")
        out = cli.run(cfg)
        lines = out.strip().split("\n")
        assert len(lines) == 10
        for line in lines[1:]:
            var_ratio = float(line.split(",")[6])
            assert var_ratio == pytest.approx(1.0, abs=1e-6)

    def test_mode_pattern(self):
        cfg = cli.parse_config("pattern: {label: phi_minus, resolution: 4}", "mode-pattern")
        out = cli.run(cfg)
        assert out.startswith("x,y,EH_re,EH_im,EV_re,EV_im\n")
        assert len(out.strip().split("\n")) == 17

    def test_determinism(self):
        cfg = cli.parse_config("state: {family: mixed_coherent, u: 1.0, reflectivity: 0.5}", "chsh")
        assert cli.run(cfg) == cli.run(cfg)


class TestMain:
    def test_chsh_to_file(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("state: {family: entangled_fock, n: 1}\n")
        outfile = tmp_path / "out.json"
        rc = cli.main(["chsh", "--config", str(cfgfile), "--output", str(outfile)])
        assert rc == 0
        doc = json.loads(outfile.read_text())
        assert doc["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("state: {family: werner_fock, n: 1, p: 2}\n")
        assert cli.main(["chsh", "--config", str(cfgfile)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["chsh", "--config", str(tmp_path / "nope.yaml")]) == 4

    def test_unwritable_output(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("state: {family: entangled_fock, n: 1}\n")
        rc = cli.main(
            ["chsh", "--config", str(cfgfile), "--output", str(tmp_path / "no" / "dir.json")]
        )
        assert rc == 4

    def test_byte_identical_outputs(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(
            "state: {family: two_mode_squeezed_vacuum, zeta: 1.0}\n"
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(["chsh", "--config", str(cfgfile), "--output", str(out1)]) == 0
        assert cli.main(["chsh", "--config", str(cfgfile), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


_SCAN = "scan_grid: {alpha: {start: 0, stop: %s, points: 3}, beta: {start: 0, stop: 1, points: 3}}"


@pytest.mark.parametrize(
    "mode,text,field",
    [
        ("chsh", "state: {family: pure_coherent, u: .nan}", "state.u"),
        ("chsh", "state: {family: pure_coherent, u: [1.0, .inf]}", "state.u"),
        ("chsh", "state: {family: two_mode_squeezed_vacuum, zeta: .nan}", "state.zeta"),
        (
            "chsh",
            "state: {family: mixed_coherent, u: 1, reflectivity: 0.5, phi: .nan}",
            "state.phi",
        ),
        ("chsh", "state: {family: werner_fock, n: 2, p: .nan}", "state.p"),
        (
            "chsh",
            "state: {family: entangled_fock, n: 1}\n"
            "chsh_settings: {alpha: .inf, alpha_prime: 0, beta: 0, beta_prime: 0}",
            "chsh_settings.alpha",
        ),
        (
            "chsh",
            "state: {family: entangled_fock, n: 1}\n"
            "chsh_settings: {alpha: 0, alpha_prime: pi/0, beta: 0, beta_prime: 0}",
            "chsh_settings.alpha_prime",
        ),
        (
            "noise-scan",
            "state: {family: mixed_fock, n: 2}\n" + _SCAN % ".nan",
            "scan_grid.alpha.stop",
        ),
        ("mode-pattern", "pattern: {label: psi_plus, extent: .inf}", "pattern.extent"),
        # Finite grid ends whose span overflows a float.
        (
            "noise-scan",
            "state: {family: mixed_fock, n: 2}\nscan_grid:\n"
            "  alpha: {start: 1.7e308, stop: -1.7e308, points: 3}\n"
            "  beta: {start: 0, stop: 1, points: 2}",
            "scan_grid.alpha: span",
        ),
        ("mode-pattern", "pattern: {label: psi_plus, extent: 1.7e308}", "pattern.extent"),
    ],
)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, mode, text, field):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text + "\n")
    assert cli.main([mode, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_dimension_guard_is_a_truncation_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("state: {family: entangled_fock, n: 2000}\n")
    assert cli.main(["chsh", "--config", str(cfgfile)]) == 3
    err = capsys.readouterr().err
    assert "truncation error" in err
    assert "4012009" in err


def test_json_output_is_strict():
    with pytest.raises(SimulationError, match="non-finite"):
        cli._render_json({"s_value": math.nan})


def test_verify_mode_passes(tmp_path):
    outfile = tmp_path / "report.txt"
    rc = cli.main(["verify", "--output", str(outfile)])
    report = outfile.read_text()
    assert rc == 0
    assert "FAIL" not in report
    assert report.strip().split("\n")[-1].endswith("checks passed")


def test_zero_intensity_scan(tmp_path, capsys):
    # Ratios to a zero total intensity are undefined: the CSV scan, which
    # prints them, is an error; the JSON scan, which does not, succeeds.
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("state: {family: pure_coherent, u: 0}\n" + _SCAN % "1" + "\n")
    assert cli.main(["noise-scan", "--config", str(cfgfile), "--format", "csv"]) == 2
    assert "total intensity is zero" in capsys.readouterr().err
    assert cli.main(["noise-scan", "--config", str(cfgfile), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(pt["itot"] == 0.0 for pt in doc["points"])


def _chsh(tmp_path, capsys, text):
    """Exit code, stdout and stderr of ``chsh`` on a config text."""
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text + "\n")
    rc = cli.main(["chsh", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_yaml_1_2_floats(tmp_path, capsys):
    # YAML 1.1 reads 1e-12 (no dot, unsigned exponent) as a string.
    plain = _chsh(tmp_path, capsys, "state: {family: pure_coherent, u: 1.0, epsilon: 1e-12}")
    dotted = _chsh(tmp_path, capsys, "state: {family: pure_coherent, u: 1.0, epsilon: 1.0e-12}")
    assert plain[0] == 0
    assert plain == dotted
    cfg = cli.parse_config("state: {family: mixed_fock, n: 2, p: 1e-1}", "chsh")
    assert cfg.state.n == 2 and isinstance(cfg.state.n, int)
    assert cfg.state.p == 0.1


@pytest.mark.parametrize(
    "text",
    [
        "state: {family: pure_coherent, u: 1.0e200}",
        "state: {family: pure_coherent, u: 1.0e+160}",
        "state: {family: mixed_coherent, u: 1.0e+160, reflectivity: 0.5}",
    ],
)
def test_overflowing_amplitude_is_a_truncation_error(tmp_path, capsys, text):
    rc, out, err = _chsh(tmp_path, capsys, text)
    assert rc == 3
    assert out == ""
    assert err.startswith("truncation error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "state: {family: mixed_coherent, u: 1.0e-160, reflectivity: 0.5}",
        "state: {family: pure_coherent, u: 1.0e-160}",
    ],
)
def test_subnormal_intensity_is_rejected(tmp_path, capsys, text):
    rc, out, err = _chsh(tmp_path, capsys, text)
    assert rc == 2
    assert out == ""
    assert "subnormal" in err


def test_small_normal_intensity_is_accepted(tmp_path, capsys):
    rc, out, _ = _chsh(tmp_path, capsys, "state: {family: pure_coherent, u: 1.0e-150}")
    assert rc == 0
    assert json.loads(out)["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_cli_import_loads_no_scipy():
    # Neither the CLI import nor a whole verify run, the expm oracle route
    # included, loads a scipy module.
    code = (
        "import sys, spinorbit_bell.cli\n"
        "count = lambda: sum(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "after_import = count()\n"
        "spinorbit_bell.verify.run_verification()\n"
        "print(after_import, count())"
    )
    # The child imports the same package tree as this test run.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["0", "0"]


@pytest.mark.parametrize(
    "mode,text,field",
    [
        ("chsh", "state: {family: entangled_fock, n: 1}\nscan_grid: garbage", "scan_grid"),
        (
            "noise-scan",
            "state: {family: mixed_fock, n: 2}\n" + _SCAN % "1" + "\npattern: 7",
            "pattern",
        ),
        (
            "mode-pattern",
            "pattern: {label: psi_plus}\nchsh_settings: {alpha: 0}",
            "chsh_settings.alpha_prime",
        ),
        ("verify", "state: {family: werner_fock, n: 1}", "state.p"),
    ],
)
def test_every_section_present_is_validated(tmp_path, capsys, mode, text, field):
    # A section the mode does not use is still checked.
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text + "\n")
    assert cli.main([mode, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "family,given,missing",
    [
        ("entangled_fock", "", "n"),
        ("mixed_fock", "", "n"),
        ("werner_fock", ", p: 0.5", "n"),
        ("werner_fock", ", n: 1", "p"),
        ("pure_coherent", ", n: 1", "u"),
        ("mixed_coherent", ", reflectivity: 0.5", "u"),
        ("mixed_coherent", ", u: 1.0", "reflectivity"),
        ("two_mode_squeezed_vacuum", ", u: 1.0", "zeta"),
    ],
)
def test_missing_family_parameter_names_the_field(family, given, missing):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(f"state: {{family: {family}{given}}}", "chsh")
    assert err.value.field == f"state.{missing}"
    assert str(err.value) == f"state.{missing}: missing required key"


def test_far_out_pattern_grid_is_zero(tmp_path, capsys):
    # The squared radius overflows to inf, so the field is 0, not an OverflowError.
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("pattern: {label: psi_plus, extent: 1.0e300, resolution: 3}\n")
    assert cli.main(["mode-pattern", "--config", str(cfgfile)]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 9
    assert all(float(v) == 0.0 for row in rows for v in row.split(",")[2:])


def test_ensemble_guard_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(states, "MAX_ENSEMBLE_AMPLITUDES", 1000)
    rc, out, err = _chsh(tmp_path, capsys, "state: {family: mixed_fock, n: 10}")
    assert rc == 3
    assert out == ""
    assert err == (
        "truncation error: ensemble of 11 members of dimension 169 exceeds "
        "the guard MAX_ENSEMBLE_AMPLITUDES=1000\n"
    )
