"""Fixtures shared by the test modules."""
import pytest

from loopcs import quadrature


@pytest.fixture
def pool_starts(monkeypatch):
    """The ``max_workers`` of each process pool ``quadrature`` starts."""
    starts = []

    class Counted(quadrature.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(quadrature, "ProcessPoolExecutor", Counted)
    return starts


@pytest.fixture
def pool_maps(pool_starts, monkeypatch):
    """The chunk count of each ``map`` over a pool ``quadrature`` starts, so
    that an idle pool can be told from a used one; starts are counted too."""
    maps = []

    class Mapped(quadrature.ProcessPoolExecutor):
        def map(self, fn, chunks, **kwargs):
            chunks = list(chunks)
            maps.append(len(chunks))
            return super().map(fn, chunks, **kwargs)

    monkeypatch.setattr(quadrature, "ProcessPoolExecutor", Mapped)
    return maps
