"""The benchmark's span probes name functions that exist.

``tqbench/spans.py`` wraps public tquant functions by module attribute, so
a rename or deletion under ``src/`` breaks every traced benchmark run.
The module is only imported here; no probe is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "tqbench" / "spans.py"


def test_every_probe_names_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("tqbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = []
    for probe in spans.PROBES:
        owner = importlib.import_module(f"tquant.{probe.module}")
        for part in probe.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"tquant.{probe.module}.{probe.attr}")
    assert spans.PROBES and missing == []
