"""Fixtures shared by the test modules."""

import sys

import pytest


class _Missing(LookupError):
    pass


def _kept(ctx, key) -> bool:
    def missing():
        raise _Missing(key)
    try:
        ctx.table(key, missing)
    except _Missing:
        return False
    return True


@pytest.fixture
def kept():
    """kept(ctx, key): whether the tower ctx keeps a table under key,
    read through ctx.table with a build that raises, which keeps
    nothing."""
    return _kept


@pytest.fixture
def rebind_everywhere(monkeypatch):
    """rebind_everywhere(real, replacement): rebind every module-level
    reference to real in the package, so that a module that imported it
    by name sees the replacement too; undone after the test."""
    def rebind(real, replacement):
        for mod in [m for name, m in sys.modules.items()
                    if name == "ffverify" or name.startswith("ffverify.")]:
            for name, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, name, replacement)
    return rebind
