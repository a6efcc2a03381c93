"""Fixtures shared by the test modules."""

import sys

import pytest
from hypothesis import settings

import epkit.groups

# every property runs the same examples on every run, keeps no example
# database and has no per-example deadline; a property sets only its count
settings.register_profile("epkit", derandomize=True, database=None, deadline=None)
settings.load_profile("epkit")


@pytest.fixture
def multiplications(monkeypatch):
    """A one-item list counting the group multiplications made through any
    epkit module from the moment the fixture is requested."""
    calls = [0]
    real = epkit.groups.multiply

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("epkit") and getattr(module, "multiply", None) is real:
            monkeypatch.setattr(module, "multiply", counted)
    return calls
