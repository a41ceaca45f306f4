import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from spinorbit_bell import analysis, cli, fock, states, verify
from spinorbit_bell.apparatus import Settings
from spinorbit_bell.errors import ConfigError, SimulationError, TruncationError
from spinorbit_bell.states import Family, StateSpec


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


def test_dimension_guard_is_a_truncation_error():
    # The guard now bounds the Fock oracle only; the CLI runs on closed-form
    # moments (see test_beyond_the_oracle_caps).
    with pytest.raises(TruncationError, match="4012009 at cutoff 2002") as exc:
        states.entangled_fock(2000)
    assert exc.value.required_cutoff == 2002


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


def _zero_intensity_scan(tmp_path, capsys, state):
    # Ratios to a zero total intensity are undefined: the CSV scan, which
    # prints them, is an error; the JSON scan, which does not, succeeds.
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(f"state: {state}\n" + _SCAN % "1" + "\n")
    assert cli.main(["noise-scan", "--config", str(cfgfile), "--format", "csv"]) == 2
    assert "total intensity is zero" in capsys.readouterr().err
    assert cli.main(["noise-scan", "--config", str(cfgfile), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["points"]) == 9
    assert all(pt[key] == 0.0 for pt in doc["points"] for key in ("mean_m", "var_m", "itot"))


def test_zero_intensity_scan(tmp_path, capsys):
    _zero_intensity_scan(tmp_path, capsys, "{family: pure_coherent, u: 0}")


@pytest.mark.parametrize(
    "state", ["{family: entangled_fock, n: 0}", "{family: werner_fock, n: 0, p: 0.5}"]
)
def test_zero_intensity_scan_fock_vacuum(tmp_path, capsys, state):
    _zero_intensity_scan(tmp_path, capsys, state)


def _chsh(tmp_path, capsys, text):
    """Exit code, stdout and stderr of ``chsh`` on a config text."""
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text + "\n")
    rc = cli.main(["chsh", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_yaml_1_2_floats(tmp_path, capsys):
    # YAML 1.1 reads 1e-12 (no dot, unsigned exponent) as a string.
    state = "state: {family: mixed_coherent, u: 1.0, reflectivity: %s}"
    plain = _chsh(tmp_path, capsys, state % "1e-12")
    dotted = _chsh(tmp_path, capsys, state % "1.0e-12")
    assert plain[0] == 0
    assert plain == dotted
    cfg = cli.parse_config("state: {family: werner_fock, n: 2, p: 1e-1}", "chsh")
    assert cfg.state.n == 2 and isinstance(cfg.state.n, int)
    assert cfg.state.p == 0.1


@pytest.mark.parametrize(
    "key,state",
    [
        ("epsilon", "{family: pure_coherent, u: 1.0, epsilon: 1e-12}"),
        ("phase_points", "{family: mixed_coherent, u: 1.0, reflectivity: 0.5, phase_points: 6}"),
    ],
)
def test_fock_oracle_keys_are_unknown(tmp_path, capsys, key, state):
    # The Fock oracle's tail tolerance and phase-point count are fixed in the
    # package; no CLI output ever depended on them.
    rc, out, err = _chsh(tmp_path, capsys, f"state: {state}")
    assert (rc, out) == (2, "")
    assert f"config error: state.{key}: unknown key (strict mode)" in err


@pytest.mark.parametrize(
    "key,state",
    [
        ("reflectivity", "{family: entangled_fock, n: 2, zeta: 1.0, u: 3, reflectivity: 0.5}"),
        ("zeta", "{family: entangled_fock, n: 2, zeta: 1.0}"),
        ("p", "{family: mixed_fock, n: 2, p: 0.1}"),
        ("phi", "{family: pure_coherent, u: 1.0, phi: 0.3}"),
        ("n", "{family: two_mode_squeezed_vacuum, zeta: 1.0, n: 1}"),
        ("u", "{family: werner_fock, n: 1, p: 0.5, u: 1.0}"),
        ("zeta", "{family: mixed_coherent, u: 1.0, reflectivity: 0.5, zeta: 1.0}"),
    ],
)
def test_key_of_another_family_is_refused(tmp_path, capsys, key, state):
    # A parameter the family does not take would be ignored silently.
    family = re.search(r"family: (\w+)", state)[1]
    rc, out, err = _chsh(tmp_path, capsys, f"state: {state}")
    assert (rc, out) == (2, "")
    assert err.startswith(f"config error: state.{key}: not a parameter of {family}")


def test_phi_is_a_parameter_of_mixed_coherent():
    cfg = cli.parse_config(
        "state: {family: mixed_coherent, u: 1.0, reflectivity: 0.5, phi: pi/4}", "chsh"
    )
    assert cfg.state.phi == pytest.approx(math.pi / 4)


@pytest.mark.parametrize(
    "text",
    [
        "state: {family: pure_coherent, u: 1.0e200}",
        "state: {family: pure_coherent, u: 1.0e+160}",
        "state: {family: mixed_coherent, u: 1.0e+160, reflectivity: 0.5}",
        # sinh^2 r overflows; past r = 710, sinh r itself does.
        "state: {family: two_mode_squeezed_vacuum, zeta: 1000}",
        "state: {family: two_mode_squeezed_vacuum, zeta: [0, 1500]}",
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


def _child_stdout(*args: str) -> str:
    """Stdout of ``python *args`` in a child that imports this test run's package tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env
    ).stdout


def _modules_loaded(package: str) -> list[str]:
    """Modules of ``package`` a fresh child holds after importing the CLI, and
    after a whole verify run, the expm oracle route included."""
    code = (
        "import sys, spinorbit_bell.cli\n"
        f"count = lambda: sum((m + '.').startswith({package + '.'!r}) for m in sys.modules)\n"
        "after_import = count()\n"
        "spinorbit_bell.verify.run_verification()\n"
        "print(after_import, count())"
    )
    return _child_stdout("-c", code).split()


def test_cli_import_loads_no_scipy():
    assert _modules_loaded("scipy") == ["0", "0"]


def test_cli_import_loads_no_numpy_random():
    # verify takes its seeded draws from the standard library's random.
    assert _modules_loaded("numpy.random") == ["0", "0"]


def test_verify_report_reproducible():
    report = verify.format_report(verify.run_verification())
    assert verify.format_report(verify.run_verification()) == report
    assert _child_stdout("-m", "spinorbit_bell.cli", "verify") == report


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
    # The guard bounds the Fock oracle only: chsh, on closed-form moments,
    # succeeds while the oracle builder of the same state refuses.
    monkeypatch.setattr(states, "MAX_ENSEMBLE_AMPLITUDES", 1000)
    rc, out, err = _chsh(tmp_path, capsys, "state: {family: mixed_fock, n: 10}")
    assert rc == 0
    assert err == ""
    with pytest.raises(TruncationError) as exc:
        states.fock_ensemble(StateSpec(Family.MIXED_FOCK, n=10))
    assert str(exc.value) == (
        "ensemble of 11 members of dimension 169 at cutoff 12 exceeds "
        "the guard MAX_ENSEMBLE_AMPLITUDES=1000"
    )
    assert exc.value.required_cutoff == 12


#: States past every cap of the Fock oracle (dimension, ensemble size, Poisson
#: tail search), at which the CLI's closed-form moments still run.
_BEYOND_THE_ORACLE = [
    ("{family: entangled_fock, n: 2000}", StateSpec(Family.ENTANGLED_FOCK, n=2000)),
    ("{family: mixed_fock, n: 1000000}", StateSpec(Family.MIXED_FOCK, n=10**6)),
    (
        "{family: werner_fock, n: 1000000, p: 0.3}",
        StateSpec(Family.WERNER_FOCK, n=10**6, p=0.3),
    ),
    (
        "{family: two_mode_squeezed_vacuum, zeta: 20}",
        StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=20.0),
    ),
    # At u = 1e6 a variance formed as <M^2> - <M>^2 from the raw fourth
    # moment is off by about 4e-5 of itot.
    ("{family: pure_coherent, u: 1.0e+6}", StateSpec(Family.PURE_COHERENT, u=1e6)),
    (
        "{family: mixed_coherent, u: 1.0e+4, reflectivity: 0}",
        StateSpec(Family.MIXED_COHERENT, u=1e4, reflectivity=0.0),
    ),
    (
        "{family: mixed_coherent, u: [3.0e+5, -1.0e+5], reflectivity: 0.25, phi: 0.3}",
        StateSpec(Family.MIXED_COHERENT, u=3e5 - 1e5j, reflectivity=0.25, phi=0.3),
    ),
]


@pytest.mark.parametrize(
    "state,spec",
    _BEYOND_THE_ORACLE,
    ids=[
        spec.family.value + (f"_R={spec.reflectivity}" if spec.reflectivity else "")
        for _, spec in _BEYOND_THE_ORACLE
    ],
)
def test_beyond_the_oracle_caps(tmp_path, capsys, state, spec):
    rc, out, err = _chsh(tmp_path, capsys, f"state: {state}")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    itot = analysis.closed_form_itot(spec)
    for pt in doc["points"]:
        mean_ref, var_ref = analysis.closed_form(spec, Settings(pt["alpha"], pt["beta"]))
        assert pt["itot"] == pytest.approx(itot, rel=1e-12)
        assert abs(pt["mean_m"] / pt["itot"] - mean_ref) <= 1e-12
        assert pt["var_m"] / pt["itot"] == pytest.approx(var_ref, rel=1e-12)


_EVERY_FAMILY = [
    "{family: entangled_fock, n: 3}",
    "{family: mixed_fock, n: 3}",
    "{family: werner_fock, n: 3, p: 0.5}",
    "{family: pure_coherent, u: [1.0, 0.5]}",
    "{family: mixed_coherent, u: 1.5, reflectivity: 0.25, phi: 0.3}",
    "{family: two_mode_squeezed_vacuum, zeta: 1.0}",
]


@pytest.mark.parametrize("state", _EVERY_FAMILY)
def test_production_path_builds_no_fock_tensor(tmp_path, capsys, monkeypatch, state):
    def no_fock(*args, **kwargs):
        raise AssertionError("a Fock tensor was built")

    monkeypatch.setattr(fock.PureState, "__post_init__", no_fock)
    monkeypatch.setattr(fock, "moments", no_fock)
    rc, out, err = _chsh(tmp_path, capsys, f"state: {state}")
    assert (rc, err) == (0, "")
    cfgfile = tmp_path / "scan.yaml"
    cfgfile.write_text(f"state: {state}\n" + _SCAN % "3" + "\n")
    assert cli.main(["noise-scan", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "mode, how",
    [("mode-pattern", "config"), ("mode-pattern", "flag"), ("verify", "config"), ("verify", "flag")],
    ids=["config", "flag", "verify-config", "verify-flag"],
)
def test_mode_pattern_rejects_json(tmp_path, capsys, mode, how):
    # verify parses the pattern section too, so one config serves both modes.
    cfgfile = tmp_path / "run.yaml"
    text = "pattern: {label: psi_plus, resolution: 3}\n"
    argv = [mode, "--config", str(cfgfile)]
    if how == "config":
        text += "format: json\n"
    else:
        argv += ["--format", "json"]
    cfgfile.write_text(text)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: format: ")


@pytest.mark.parametrize("how", ["config", "flag"])
def test_empty_output_path_is_a_config_error(tmp_path, capsys, how):
    cfgfile = tmp_path / "run.yaml"
    text = "state: {family: entangled_fock, n: 1}\n"
    argv = ["chsh", "--config", str(cfgfile)]
    if how == "config":
        text += 'output: ""\n'
    else:
        argv += ["--output", ""]
    cfgfile.write_text(text)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: output: ")


def test_deeply_nested_yaml_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("state: " + "[" * 20_000 + "]" * 20_000 + "\n")
    assert cli.main(["chsh", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: config: ")
    assert "Traceback" not in captured.err



@pytest.mark.parametrize(
    "text,message",
    [
        ("state: {family: mixed_fock, n: 1" + "0" * 5000 + "}", "4300 digits"),
        ("state: {family: mixed_fock, n: 2020-13-45}", "month must be in 1..12"),
        ("state: {family: mixed_fock, n: 2}\noutput: 2020-02-30", "day is out of range"),
        ("state: {family: entangled_fock, n: 1, n: 5}", "repeated key 'n'"),
        (
            "state: {family: entangled_fock, n: 1}\nstate: {family: entangled_fock, n: 5}",
            "repeated key 'state'",
        ),
    ],
    ids=["5001-digits", "impossible-date", "impossible-output-date", "repeated-n", "repeated-state"],
)
def test_unreadable_yaml_is_a_config_error(tmp_path, capsys, text, message):
    rc, out, err = _chsh(tmp_path, capsys, text)
    assert rc == 2
    assert out == ""
    assert err.startswith("config error: config: ")
    assert message in err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_bytes(b"# caf\xe9\nstate: {family: entangled_fock, n: 1}\n")
    assert cli.main(["chsh", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: config: not UTF-8")


def test_anchors_and_merge_overrides_still_parse():
    cfg = cli.parse_config(
        "state: {family: mixed_fock, n: 2}\n"
        "scan_grid: {alpha: &ax {start: 0, stop: 1, points: 3}, beta: {<<: *ax, points: 2}}",
        "noise-scan",
    )
    assert (len(cfg.scan_grid.alphas), len(cfg.scan_grid.betas)) == (3, 2)


_CAP = cli.MAX_GRID_POINTS


def _axes(alpha_points, beta_points):
    return (
        "state: {family: mixed_fock, n: 2}\nscan_grid:\n"
        f"  alpha: {{start: 0, stop: 1, points: {alpha_points}}}\n"
        f"  beta: {{start: 0, stop: 1, points: {beta_points}}}"
    )


def _pattern(resolution):
    return f"pattern: {{label: psi_plus, resolution: {resolution}}}"


@pytest.mark.parametrize(
    "mode,text,field",
    [
        ("noise-scan", _axes(10**15, 3), "scan_grid.alpha.points"),
        ("noise-scan", _axes(3, _CAP + 1), "scan_grid.beta.points"),
        # Each axis is under the cap, their product is over it.
        ("noise-scan", _axes(2**10, 2**10 + 1), "scan_grid"),
        ("mode-pattern", _pattern(10**15), "pattern.resolution"),
        ("mode-pattern", _pattern(2**10 + 1), "pattern.resolution"),
    ],
    ids=["axis-1e15", "axis-cap+1", "product", "pattern-1e15", "pattern-1025^2"],
)
def test_oversized_grid_is_a_config_error(tmp_path, capsys, monkeypatch, mode, text, field):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text + "\n")
    assert cli.main([mode, "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field}: ")
    assert f"MAX_GRID_POINTS = {_CAP}" in captured.err


def test_grid_at_the_cap_is_accepted():
    cfg = cli.parse_config(_axes(2**10, 2**10), "noise-scan")
    assert len(cfg.scan_grid.alphas) * len(cfg.scan_grid.betas) == _CAP
    cfg = cli.parse_config(_pattern(2**10), "mode-pattern")
    assert cfg.pattern.resolution**2 == _CAP


def _csv(header, rows, digits=12):
    return header + "\n" + "".join(",".join(f"{v:.{digits}g}" for v in r) + "\n" for r in rows)


class TestOutputFormat:
    """``cli.run`` text against a rendering built here from in-process results."""

    _CHSH = (
        "state: {family: mixed_coherent, u: 4, reflectivity: 0.25}\n"
        "chsh_settings: {alpha: 0.3, alpha_prime: 1.1, beta: -0.4, beta_prime: 2.0}"
    )
    _SCAN = (
        "state: {family: pure_coherent, u: 0.5}\n"
        "scan_grid:\n"
        "  alpha: {start: 0, stop: 0, points: 1}\n"
        "  beta: {start: 0, stop: 0.3, points: 2}"
    )

    def _run(self, text, mode, fmt):
        return cli.run(dataclasses.replace(cli.parse_config(text, mode), format=fmt))

    def test_chsh(self):
        cfg = cli.parse_config(self._CHSH, "chsh")
        result = analysis.s_parameter(states.build(cfg.state), cfg.chsh_settings)
        rows = [
            (pt.settings.alpha, pt.settings.beta, pt.mean_m, pt.var_m, pt.itot, pt.var_ratio)
            for pt in result.points
        ]
        columns = ("alpha", "beta", "mean_m", "var_m", "itot", "squeezing_ratio")
        doc = {
            "schema_version": 1,
            "state_family": "mixed_coherent",
            "settings": {
                "alpha": 0.3,
                "alpha_prime": 1.1,
                "beta": -0.4,
                "beta_prime": 2.0,
            },
            "s_value": result.s_value,
            "points": [dict(zip(columns, row)) for row in rows],
        }
        assert self._run(self._CHSH, "chsh", "json") == json.dumps(doc, indent=2) + "\n"
        assert self._run(self._CHSH, "chsh", "csv") == (
            _csv(",".join(columns), rows) + f"# s_value,{result.s_value:.12g}\n"
        )

    def test_noise_scan(self):
        cfg = cli.parse_config(self._SCAN, "noise-scan")
        points = analysis.settings_scan(states.build(cfg.state), [0.0], [0.0, 0.3])
        rows = [
            (pt.settings.alpha, pt.settings.beta, pt.mean_m, pt.var_m, pt.itot)
            for pt in points
        ]
        columns = ("alpha", "beta", "mean_m", "var_m", "itot")
        doc = {"schema_version": 1, "points": [dict(zip(columns, row)) for row in rows]}
        assert self._run(self._SCAN, "noise-scan", "json") == json.dumps(doc, indent=2) + "\n"
        csv = self._run(self._SCAN, "noise-scan", "csv")
        header = "alpha,beta,mean_m,var_m,itot,mean_ratio,var_ratio"
        ratios = [(pt.mean_ratio, pt.var_ratio) for pt in points]
        assert csv == _csv(header, [r + q for r, q in zip(rows, ratios)])
        lines = csv.strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 3

    def test_mode_pattern(self):
        text = "pattern: {label: psi_plus, extent: 1.0, resolution: 2}"
        # Psi+ point by point in Python floats: E_H = psi_h / sqrt 2, E_V = psi_v / sqrt 2.
        norm, sq2 = math.sqrt(2.0 / math.pi), 1.0 / math.sqrt(2.0)
        rows = []
        for y in (-1.0, 1.0):
            for x in (-1.0, 1.0):
                envelope = float(np.exp(-(x * x + y * y) / 2.0))
                psi_h, psi_v = norm * x * envelope, norm * y * envelope
                rows.append((x, y, sq2 * psi_h + 0.0 * psi_v, 0.0, 0.0 * psi_h + sq2 * psi_v, 0.0))
        csv = self._run(text, "mode-pattern", "csv")
        header = "x,y,EH_re,EH_im,EV_re,EV_im"
        assert csv == _csv(header, rows, digits=9)
        lines = csv.strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 5
        # x varies fastest
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[1] == second[1]
        assert first[0] != second[0]
