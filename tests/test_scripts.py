"""The bundled script runs end to end and exits 0."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_flatness_survey_main_returns_zero(capsys):
    spec = importlib.util.spec_from_file_location(
        "flatness_survey", os.path.join(SCRIPTS, "flatness_survey.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--samples", "50"]) == 0
    assert capsys.readouterr().out
