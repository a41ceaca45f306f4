"""Every YAML example in README.md runs through ``cli.main`` and exits 0, and
the README's list of state-parameter domains is ``errors.DOMAINS``."""

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from spinorbit_bell import cli
from spinorbit_bell.errors import DOMAINS
from spinorbit_bell.states import StateSpec

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```yaml\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _mode(text: str) -> str:
    """The mode whose required sections are exactly the example's sections."""
    required = {mode: set(sections) for mode, sections in cli._MODES.items()}
    present = set(yaml.safe_load(text)) & set().union(*required.values())
    return next(mode for mode, sections in required.items() if sections == present)


def test_readme_documents_every_output_mode():
    assert {_mode(text) for text in EXAMPLES} == {"chsh", "noise-scan", "mode-pattern"}


@pytest.mark.parametrize("text", EXAMPLES, ids=[_mode(text) for text in EXAMPLES])
def test_readme_example_runs(tmp_path, capsys, text):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text)
    assert cli.main([_mode(text), "--config", str(cfgfile)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out


def test_readme_lists_each_state_parameter_domain():
    # The README's list of state parameters, as "- `key` (what it is): domain".
    section = README.read_text(encoding="utf-8").split("State-family parameters:")[1]
    listed = dict(re.findall(r"^- `(\w+)` \([^)]*\): (.+)$", section.split("\n\n")[1], re.M))
    fields = {f.name for f in dataclasses.fields(StateSpec)} - {"family"}
    assert listed == {key: DOMAINS[key].wording for key in fields}
