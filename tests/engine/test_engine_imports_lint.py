"""The engine import lint: repro.engine stays free of SymBIST imports."""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
LINT_PATH = os.path.join(REPO_ROOT, "tools", "engine_imports_lint.py")


def _lint_module():
    spec = importlib.util.spec_from_file_location("engine_imports_lint",
                                                  LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_has_no_offences():
    completed = subprocess.run([sys.executable, LINT_PATH],
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert "files ok" in completed.stdout


def test_planted_module_is_flagged(tmp_path):
    engine = tmp_path / "src" / "repro" / "engine"
    engine.mkdir(parents=True)
    (engine / "planted.py").write_text(
        "from ..circuit.errors import EngineError\n"
        "from .. import __version__\n"
        "from . import task\n"
        "import numpy as np\n"
        "from ..core.calibration import windows_from_pools\n"
        "\n"
        "def worker():\n"
        "    from ..defects import simulator\n"
        "    import repro.adc\n"
        "    from ..studies import build_study\n")
    (engine / "__init__.py").write_text(
        "def __getattr__(name):\n"
        "    from .. import studies\n"
        "    from ..dut import DutSpec\n")
    (engine / "cli.py").write_text("from ..studies import study_payload\n")

    problems, checked = _lint_module().lint_tree(str(tmp_path))
    assert checked == 2  # cli.py is exempt
    flagged = sorted(problem.split(": ")[0] for problem in problems)
    assert flagged == [
        os.path.join("src", "repro", "engine", "__init__.py:3"),
        os.path.join("src", "repro", "engine", "planted.py:10"),
        os.path.join("src", "repro", "engine", "planted.py:5"),
        os.path.join("src", "repro", "engine", "planted.py:8"),
        os.path.join("src", "repro", "engine", "planted.py:9"),
    ]
    assert any("repro.core.calibration.windows_from_pools" in problem
               for problem in problems)
