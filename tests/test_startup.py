"""Start-up: importing the package and running the exact subcommands
load no numpy; the float layers load it on their first float call.
Each check runs in a fresh interpreter, since a module once loaded
stays in sys.modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import korncert

_SRC = str(Path(korncert.__file__).resolve().parent.parent)
_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(stderr: str) -> set[str]:
    """Module names in -X importtime output, one line per import:
    'import time: <self> | <cumulative> | <indented name>'."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--op", "sym_grad", "--n", "3", "--K", "2", "--profile", "3"],
        ["probe", "--op", "dev_sym_grad", "--n", "2"],
    ],
    ids=["kernel", "probe"],
)
def test_exact_subcommands_load_no_numpy(tmp_path, argv):
    out = tmp_path / "out.json"
    proc = _python("-X", "importtime", "-m", "korncert.cli", *argv, "--json", str(out))
    modules = _imported(proc.stderr)
    assert {"korncert.geometry", "korncert.normtest"} <= modules  # the trace sees every import
    assert sorted(m for m in modules if m.split(".")[0] == "numpy") == []
    assert out.stat().st_size > 0


def test_package_import_loads_every_module_but_not_numpy():
    # perfbench's Tracer looks its targets up in sys.modules after
    # importing korncert.cli, so the eager re-exports stay.
    _python(
        "-c",
        "import sys, korncert, korncert.cli; "
        "assert {'korncert.geometry', 'korncert.normtest'} <= set(sys.modules); "
        "assert 'numpy' not in sys.modules",
    )


def test_classify_loads_numpy_on_first_use():
    _python(
        "-c",
        """
import sys
import korncert
assert "numpy" not in sys.modules
dom = korncert.StarDomain.ball(2)
kb = korncert.kernel_basis(korncert.builtin_operator("sym_grad", 2), 1)
assert "numpy" not in sys.modules
verdict = korncert.classify(kb, dom, "normal", korncert.sample_grid(dom, 6), korncert.sample_grid(dom, 48))
assert verdict.tag == "A2" and len(verdict.certificates) == 1, verdict
assert "numpy" in sys.modules
""",
    )


@pytest.mark.parametrize("command,stem", [("check", "disk_symgrad_normal"), ("points", "axis_line_points")])
def test_float_subcommands_load_numpy_on_first_use(command, stem):
    config = str(_CONFIG_DIR / f"{stem}.json")
    proc = _python(
        "-c",
        f"""
import sys
import korncert.cli
assert "numpy" not in sys.modules
assert korncert.cli.main([{command!r}, "--config", {config!r}]) == 0
assert "numpy" in sys.modules
""",
    )
    assert "[expected A2: match]" in proc.stdout
