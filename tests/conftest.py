"""Fixtures shared by the test modules."""

import sys

import pytest
from hypothesis import settings

import epkit.groups
import epkit.oracle

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


@pytest.fixture
def cycle_enumerations(monkeypatch):
    """A one-item list counting the calls of `oracle.enumerate_cycles` from
    the moment the fixture is requested. Every caller reaches it through
    that module attribute, by way of `enumerate_non_null_cycles`."""
    calls = [0]
    real = epkit.oracle.enumerate_cycles

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(epkit.oracle, "enumerate_cycles", counted)
    return calls
