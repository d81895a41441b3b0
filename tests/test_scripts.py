"""The bundled scripts run end to end and exit 0."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [("run_worked_examples", []), ("flatness_survey", ["--samples", "50"])],
)
def test_script_main_returns_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
