"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="session")
def fingerprint():
    """``tools/fingerprint.py``, loaded by path: the tools are scripts, not a
    package."""
    spec = importlib.util.spec_from_file_location("tools_fingerprint",
                                                  TOOLS / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
