"""Every state parameter's domain, walked from ``errors.DOMAINS``: each refused
value is refused alike by ``StateSpec``, by the Fock builders that take the
parameter, and by the CLI; the edges of each interval are accepted."""

import dataclasses
import math
import numbers

import pytest
import yaml

from spinorbit_bell import cli, partitions, states
from spinorbit_bell.errors import DOMAINS, SimulationError
from spinorbit_bell.fock import BasisConfig
from spinorbit_bell.partitions import BellModeLabel
from spinorbit_bell.states import Family, StateSpec

STATE_KEYS = [f.name for f in dataclasses.fields(StateSpec) if f.name in DOMAINS]

_WERNER = (Family.WERNER_FOCK, {"n": 2, "p": 0.5})
_MIXED_COHERENT = (Family.MIXED_COHERENT, {"u": 1.0, "reflectivity": 0.5, "phi": 0.3})

#: A family that takes each key, with in-domain values of all its keys.
_SPECS = {
    "n": _WERNER,
    "p": _WERNER,
    "u": _MIXED_COHERENT,
    "reflectivity": _MIXED_COHERENT,
    "phi": _MIXED_COHERENT,
    "zeta": (Family.TWO_MODE_SQUEEZED_VACUUM, {"zeta": 1.0}),
}

_BASIS = BasisConfig((3, 0, 0, 3))

#: Each key's Fock builders, as (the argument's name, a call with the value).
_BUILDERS = {
    "n": [
        ("n_photons", states.entangled_fock),
        ("n_photons", states.mixed_fock),
        ("n_photons", lambda v: states.werner_fock(v, 0.5)),
        ("n_photons", lambda v: partitions.fock_on_bell_mode(v, BellModeLabel.PSI_PLUS, _BASIS)),
    ],
    "p": [("p", lambda v: states.werner_fock(2, v))],
    "u": [
        ("u", states.pure_coherent),
        ("u", lambda v: states.mixed_coherent(v, 0.5)),
        ("u", lambda v: partitions.coherent_on_bell_mode(v, BellModeLabel.PSI_PLUS, _BASIS)),
    ],
    "reflectivity": [("reflectivity", lambda v: states.mixed_coherent(1.0, v))],
    "phi": [("phi", lambda v: states.mixed_coherent(1.0, 0.5, v))],
    "zeta": [("zeta", states.two_mode_squeezed)],
}


def _refused(key: str) -> dict:
    """A value of each kind the key's domain refuses: text, a bool, NaN and the
    infinities, an int beyond the float range (not for an integer key, where
    it is in the domain), and values either side of a bounded interval."""
    domain = DOMAINS[key]
    values = {"str": "one", "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    if domain.kind is not numbers.Integral:
        values["huge-int"] = 10**400
    if domain.low > -math.inf:
        values["below"] = domain.low - 1
    if domain.high < math.inf:
        values["above"] = domain.high + 0.5
    return values


_CASES = [(key, value) for key in STATE_KEYS for value in _refused(key).values()]
_IDS = [f"{key}-{kind}" for key in STATE_KEYS for kind in _refused(key)]


def _write_state(tmp_path, key, value, **sections) -> str:
    family, params = _SPECS[key]
    cfgfile = tmp_path / "run.yaml"
    doc = {"state": {"family": family.value, **params, key: value}, **sections}
    cfgfile.write_text(yaml.safe_dump(doc))
    return str(cfgfile)


def test_every_state_parameter_has_a_domain():
    assert {f.name for f in dataclasses.fields(StateSpec)} - set(STATE_KEYS) == {"family"}
    assert set(_SPECS) == set(_BUILDERS) == set(STATE_KEYS)


@pytest.mark.parametrize("key,value", _CASES, ids=_IDS)
def test_state_spec_refuses(key, value):
    family, params = _SPECS[key]
    with pytest.raises(SimulationError, match=f"^{key}="):
        StateSpec(family, **{**params, key: value})


@pytest.mark.parametrize("key,value", _CASES, ids=_IDS)
def test_builders_refuse(key, value):
    for name, build in _BUILDERS[key]:
        with pytest.raises(SimulationError, match=f"^{name}="):
            build(value)


@pytest.mark.parametrize("key,value", _CASES, ids=_IDS)
def test_cli_refuses(tmp_path, capsys, key, value):
    assert cli.main(["chsh", "--config", _write_state(tmp_path, key, value)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: state.{key}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "key,value", [("n", 0), ("p", 0), ("p", 1), ("reflectivity", 0.0), ("reflectivity", 1)]
)
def test_interval_edges_are_accepted(tmp_path, capsys, key, value):
    family, params = _SPECS[key]
    assert getattr(StateSpec(family, **{**params, key: value}), key) == value
    for _, build in _BUILDERS[key]:
        build(value)
    # A JSON scan renders at zero total intensity too (n = 0), where ratios are undefined.
    axis = {"start": 0, "stop": 1, "points": 2}
    grid = {"alpha": axis, "beta": axis}
    path = _write_state(tmp_path, key, value, scan_grid=grid, format="json")
    assert cli.main(["noise-scan", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out


def test_a_photon_number_beyond_the_float_range_reaches_the_build(tmp_path, capsys):
    # An int has no float limit: n is in its domain, and its moments overflow later.
    assert StateSpec(Family.MIXED_FOCK, n=10**400).n == 10**400
    assert cli.main(["chsh", "--config", _write_state(tmp_path, "n", 10**400)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("truncation error: ")
    assert captured.out == ""


def test_a_missing_required_parameter_is_refused():
    with pytest.raises(SimulationError, match="^family werner_fock requires parameter 'p'$"):
        StateSpec(Family.WERNER_FOCK, n=1)
