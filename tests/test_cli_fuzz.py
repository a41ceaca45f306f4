"""Fuzz test from the YAML config to the exit code of ``cli.main``.

Every generated ``chsh``, ``noise-scan`` or ``mode-pattern`` config must end
in one of two ways: exit 0 with strict, finite output, or exit 2, 3 or 4 with
a classified message and no traceback. An uncaught exception, or a warning
(pytest turns warnings into errors), fails the test.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinorbit_bell import cli

# Values of the wrong kind or out of range: NaN, infinities, 1e300-scale and
# subnormal floats, and wrong types. Huge values fail fast, by design.
_WRONG = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -1, 0, "", "pi/0", "x"]
    ),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 1), max_size=2),
)


def _one_in(draw, n: int) -> bool:
    """True about once in ``n`` draws; shrinks to False."""
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def _mostly(draw, strategy):
    """The strategy's value, about once in ten draws a wrong one."""
    return draw(_WRONG if _one_in(draw, 10) else strategy)


def _amplitude(bound: float):
    """A real number or an [re, im] pair of modulus at most ``bound``."""
    half = bound / math.sqrt(2.0)
    return st.one_of(
        st.floats(-bound, bound), st.lists(st.floats(-half, half), min_size=2, max_size=2)
    )


_ANGLE = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from(["pi/8", "3pi/4", "-pi", "2*pi/3", "0.5"])
)

_STATE_KEYS = {
    "n": st.integers(0, 40),
    "p": st.floats(0.0, 1.0),
    "u": _amplitude(6.0),
    "reflectivity": st.floats(0.0, 1.0),
    "phi": _ANGLE,
    "phase_points": st.integers(5, 40),
    "zeta": _amplitude(3.0),
    "epsilon": st.floats(1e-14, 1e-3),
}

#: The keys a config for each family usually carries.
_FAMILY_KEYS = {
    "entangled_fock": ("n",),
    "mixed_fock": ("n",),
    "werner_fock": ("n", "p"),
    "pure_coherent": ("u", "epsilon"),
    "mixed_coherent": ("u", "reflectivity", "phi", "phase_points", "epsilon"),
    "two_mode_squeezed_vacuum": ("zeta", "epsilon"),
}


@st.composite
def _mapping(draw, keys: dict):
    """A section from ``keys`` (key -> value strategy): each key now and then
    dropped or wrong, now and then an unknown key, rarely no mapping at all."""
    if _one_in(draw, 20):
        return draw(_WRONG)
    doc = {k: draw(_mostly(v)) for k, v in keys.items() if not _one_in(draw, 20)}
    if _one_in(draw, 20):
        doc[draw(st.sampled_from(["bogus", 7]))] = 1
    return doc


@st.composite
def _state(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    keys = {k: _STATE_KEYS[k] for k in _FAMILY_KEYS[family]}
    doc = draw(_mapping({"family": st.just(family), **keys}))
    if isinstance(doc, dict) and _one_in(draw, 10):
        doc["family"] = draw(st.sampled_from(["", "fock", 3]))
    return doc


_AXIS = _mapping({"start": _ANGLE, "stop": _ANGLE, "points": st.integers(1, 7)})

_SECTIONS = {
    "state": _state(),
    "chsh_settings": _mapping(
        {k: _ANGLE for k in ("alpha", "alpha_prime", "beta", "beta_prime")}
    ),
    "scan_grid": _mapping({"alpha": _AXIS, "beta": _AXIS}),
    "pattern": _mapping(
        {
            "label": st.sampled_from(["psi_plus", "psi_minus", "phi_plus", "phi_minus"]),
            "extent": st.floats(0.01, 5.0),
            "resolution": st.integers(1, 9),
        }
    ),
    "format": _mostly(st.sampled_from(["csv", "json"])),
}

_MODE_SECTIONS = {
    "chsh": ("state", "chsh_settings"),
    "noise-scan": ("state", "scan_grid"),
    "mode-pattern": ("pattern",),
}


@st.composite
def _run(draw):
    """A mode and its config document; never with ``output``."""
    mode = draw(st.sampled_from(sorted(_MODE_SECTIONS)))
    doc = {}
    for name, strategy in _SECTIONS.items():
        # The mode's own sections mostly appear, the others now and then.
        usual = name in _MODE_SECTIONS[mode] or name == "format"
        if (not _one_in(draw, 10)) if usual else _one_in(draw, 4):
            doc[name] = draw(strategy)
    if _one_in(draw, 20):
        doc["bogus"] = 1
    return mode, doc


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _assert_finite_output(text: str, fmt: str) -> None:
    numbers = []
    if fmt == "json":
        json.loads(text, parse_constant=_reject_constant, parse_float=numbers.append)
        numbers = [float(x) for x in numbers]
    else:
        for line in text.strip().split("\n")[1:]:
            numbers.extend(float(v) for v in line.removeprefix("# s_value,").split(","))
    assert numbers
    assert all(math.isfinite(x) for x in numbers)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_run())
def test_every_config_ends_classified(run):
    mode, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "run.yaml"
        cfgfile.write_text(yaml.safe_dump(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([mode, "--config", str(cfgfile)])
    if rc == 0:
        fmt = doc.get("format", "json" if mode == "chsh" else "csv")
        # mode-pattern writes CSV whatever the format.
        _assert_finite_output(out.getvalue(), "csv" if mode == "mode-pattern" else fmt)
        assert err.getvalue() == ""
    else:
        assert rc in (2, 3, 4), err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            ("config error: ", "truncation error: ", "error: ", "i/o error: ")
        )
        assert "Traceback" not in err.getvalue()
