"""The layer import lint: repro.engine stays free of SymBIST imports, and
the domain layers stay free of engine and study imports."""

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
    assert checked == 2  # cli.py is exempt; no domain package planted
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


def _plant_domain(tmp_path, files):
    """A tree with a clean engine package plus the given domain modules."""
    engine = tmp_path / "src" / "repro" / "engine"
    engine.mkdir(parents=True)
    (engine / "__init__.py").write_text("from .task import Task\n")
    for rel_path, text in files.items():
        path = tmp_path / "src" / "repro" / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_clean_domain_tree_passes(tmp_path):
    _plant_domain(tmp_path, {
        "defects/__init__.py": "from .simulator import DefectCampaign\n",
        "defects/simulator.py": (
            "import numpy as np\n"
            "from ..circuit.errors import CoverageError\n"
            "from ..core.calibration import calibrate_windows\n"
            "from .sampling import SamplingPlan\n"),
        "analysis/yield_loss.py": "from ..core import WindowCalibration\n",
        "studies/stages.py": "from ..engine import Task\n",
    })
    problems, checked = _lint_module().lint_tree(str(tmp_path))
    assert problems == []
    assert checked == 4  # engine/__init__.py + three domain modules


def test_planted_domain_offence_is_flagged(tmp_path):
    _plant_domain(tmp_path, {
        "defects/simulator.py": (
            "import numpy as np\n"
            "from .sampling import SamplingPlan\n"
            "from ..engine import TaskGraph\n"
            "\n"
            "def run():\n"
            "    from ..studies.stages import RECORD_CODEC\n"),
        "analysis/__init__.py": "from .. import engine\n",
        "functional_test/ramp.py": "\n\nimport repro.engine.cache\n",
        "core/sub/deep.py": "from ...engine.telemetry import TelemetryBus\n",
    })
    problems, checked = _lint_module().lint_tree(str(tmp_path))
    assert checked == 5
    flagged = sorted(problem.split(": ")[0] for problem in problems)
    src = os.path.join("src", "repro")
    assert flagged == [
        os.path.join(src, "analysis", "__init__.py:1"),
        os.path.join(src, "core", "sub", "deep.py:1"),
        os.path.join(src, "defects", "simulator.py:3"),
        os.path.join(src, "defects", "simulator.py:6"),
        os.path.join(src, "functional_test", "ramp.py:3"),
    ]
    assert any("repro.studies.stages.RECORD_CODEC" in problem
               for problem in problems)


def test_import_repro_loads_no_engine_module():
    """The domain layers run without the engine: importing them loads no
    ``repro.engine`` (or ``repro.studies``) module."""
    code = ("import sys, repro, repro.core, repro.defects, repro.analysis\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['repro', 'engine'],\n"
            "                                     ['repro', 'studies'])))\n")
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
