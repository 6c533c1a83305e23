"""Every demo imports only names the package still has, and the quick one runs.

``run_name="demo"`` executes a script's imports and definitions but not
its ``main()``, so the slow demos cost only their imports here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports(path):
    assert "main" in runpy.run_path(str(path), run_name="demo")


def test_features_walkthrough_runs(capsys):
    runpy.run_path(str(DEMOS / "01_features_walkthrough.py"), run_name="__main__")
    assert "feature map: 98 frames x 40 bins" in capsys.readouterr().out
