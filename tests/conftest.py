"""Fixtures shared by the test modules."""

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
