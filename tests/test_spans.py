"""The benchmark's traced names still exist.

perfbench/spans.py wraps korncert functions by module and attribute name
when the benchmark runs with --trace 1.  A name that a refactor removes
would otherwise surface only in such a run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPANS = _ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = [(mod, attr) for mod, attr, _ in _load_spans().TARGETS]
    targets.append(("korncert.geometry", "StarDomain"))
    missing = [
        f"{mod}.{attr}" for mod, attr in targets if getattr(importlib.import_module(mod), attr, None) is None
    ]
    assert not missing


def test_tracer_installs_after_the_workers_imports():
    # The benchmark worker imports only korncert and korncert.cli before
    # Tracer.install() looks its targets up in sys.modules, so a module
    # that korncert.cli no longer loads breaks a traced run.  A fresh
    # process sees exactly what the worker sees.
    code = (
        f"import sys; sys.path[:0] = [{str(_ROOT / 'src')!r}, {str(_ROOT / 'perfbench')!r}]\n"
        "import korncert, korncert.cli\n"
        "from spans import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
