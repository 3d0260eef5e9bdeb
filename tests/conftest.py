"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    """``tools/<name>.py``, loaded by path: the tools are scripts, not a
    package."""
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fingerprint():
    return _tool("fingerprint")


@pytest.fixture(scope="session")
def step_memory():
    return _tool("step_memory")
