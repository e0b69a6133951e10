"""The benchmark's traced names still exist.

perfbench/spans.py wraps korncert functions by module and attribute name
when the benchmark runs with --trace 1.  A name that a refactor removes
would otherwise surface only in such a run.
"""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
