"""Fuzz test from the YAML config to the exit code of ``cli.main``.

Every generated ``chsh``, ``noise-scan`` or ``mode-pattern`` config must end
in one of two ways: exit 0 with strict, finite output, or exit 2, 3 or 4 with
a classified message and no traceback. Now and then the config's bytes are
spoiled before ``cli.main`` reads them, or the state carries a key of another
family; either must be a config error. An
uncaught exception, or a warning (pytest turns warnings into errors), fails
the test.
"""

import contextlib
import io
import json
import math
import re
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
    """True about once in ``n`` draws; shrinks to False (the seed shrinks to 0,
    whose first draw is 0.84). A seeded ``random.Random`` gives the rate: an
    ``integers(0, n - 1)`` event fires well below it, as hypothesis favours
    some integers over others."""
    return draw(st.randoms(use_true_random=True)).random() < 1 / n


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

# The CLI evaluates closed-form moments, so no state size is capped: the
# ranges reach far past what a Fock tensor could hold.
_STATE_KEYS = {
    "n": st.integers(0, 10**6),
    "p": st.floats(0.0, 1.0),
    "u": _amplitude(1e6),
    "reflectivity": st.floats(0.0, 1.0),
    "phi": _ANGLE,
    "zeta": _amplitude(40.0),
}

#: The keys a config for each family usually carries: all that it takes.
_FAMILY_KEYS = {
    "entangled_fock": ("n",),
    "mixed_fock": ("n",),
    "werner_fock": ("n", "p"),
    "pure_coherent": ("u",),
    "mixed_coherent": ("u", "reflectivity", "phi"),
    "two_mode_squeezed_vacuum": ("zeta",),
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
    elif isinstance(doc, dict) and _one_in(draw, 5):
        key = draw(st.sampled_from(sorted(set(_STATE_KEYS) - set(_FAMILY_KEYS[family]))))
        doc[key] = draw(_STATE_KEYS[key])
    return doc


def _foreign_state_key(doc: dict) -> bool:
    """Whether the config's state names a family and a key that the family does not take."""
    state = doc.get("state")
    family = state.get("family") if isinstance(state, dict) else None
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        return False
    return bool(set(state) - {"family", *_FAMILY_KEYS[family]})


@st.composite
def _grid_size(draw, largest: int, over_cap: int):
    """A size up to ``largest``, now and then one from ``over_cap`` on, which
    the CLI must refuse; never a large valid size, which would run for minutes."""
    if _one_in(draw, 20):
        return draw(st.integers(over_cap, 10**18))
    return draw(st.integers(1, largest))


_POINTS = _grid_size(7, cli.MAX_GRID_POINTS + 1)
_AXIS = _mapping({"start": _ANGLE, "stop": _ANGLE, "points": _POINTS})

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
            "resolution": _grid_size(9, math.isqrt(cli.MAX_GRID_POINTS) + 1),
        }
    ),
    "format": _mostly(st.sampled_from(["csv", "json"])),
}

_MODE_SECTIONS = {
    "chsh": ("state", "chsh_settings"),
    "noise-scan": ("state", "scan_grid"),
    "mode-pattern": ("pattern",),
}


#: A line of a block mapping: a key, then ": " or the end of the line.
_KEY_LINE = re.compile(r" *[^ \-\n][^\n]*:(?: |\n)")
#: A number written as a mapping value or a sequence item.
_NUMBER = re.compile(r"(?<=[:-] )[-+.\d][-+.\deE]*$", re.M)


@st.composite
def _config_bytes(draw, text: str):
    """``text`` encoded, and whether it was spoiled first, about once in ten
    draws: a key line repeated, a number turned into a 5 001-digit integer or
    an impossible date, or a byte that is not UTF-8 inserted."""
    how = draw(st.sampled_from(["repeat", "number", "byte"])) if _one_in(draw, 10) else None
    lines = text.splitlines(keepends=True)
    keys = [i for i, line in enumerate(lines) if _KEY_LINE.match(line)]
    numbers = [m.span() for m in _NUMBER.finditer(text)]
    if how == "repeat" and keys:
        i = draw(st.sampled_from(keys))
        return "".join(lines[: i + 1] + lines[i:]).encode(), True
    if how == "number" and numbers:
        start, end = draw(st.sampled_from(numbers))
        bad = draw(st.sampled_from(["1" + "0" * 5000, "2020-13-45"]))
        return (text[:start] + bad + text[end:]).encode(), True
    if how == "byte":
        data = text.encode()
        i = draw(st.integers(0, len(data)))
        return data[:i] + bytes([draw(st.integers(0x80, 0xFF))]) + data[i:], True
    return text.encode(), False


@st.composite
def _run(draw):
    """A mode, its config document, and the config's bytes with whether they
    were spoiled; never with ``output``."""
    mode = draw(st.sampled_from(sorted(_MODE_SECTIONS)))
    doc = {}
    for name, strategy in _SECTIONS.items():
        # The mode's own sections mostly appear, the others now and then.
        usual = name in _MODE_SECTIONS[mode] or name == "format"
        if (not _one_in(draw, 10)) if usual else _one_in(draw, 4):
            doc[name] = draw(strategy)
    if _one_in(draw, 20):
        doc["bogus"] = 1
    return (mode, doc, *draw(_config_bytes(yaml.safe_dump(doc))))


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
    mode, doc, data, spoiled = run
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "run.yaml"
        cfgfile.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([mode, "--config", str(cfgfile)])
    if spoiled or _foreign_state_key(doc):
        assert rc == 2, err.getvalue()
        assert err.getvalue().startswith("config error: ")
    if rc == 0:
        fmt = doc.get("format", "json" if mode == "chsh" else "csv")
        _assert_finite_output(out.getvalue(), fmt)
        assert err.getvalue() == ""
    else:
        assert rc in (2, 3, 4), err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            ("config error: ", "truncation error: ", "error: ", "i/o error: ")
        )
        assert "Traceback" not in err.getvalue()
