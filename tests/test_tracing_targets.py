"""The benchmark's traced run wraps names bound in bnfit's modules.

`perfbench/run.py --trace 1` fails if one of them is renamed or removed;
its own selftest runs outside this suite, so the names are checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert tracing.TARGETS and not missing
