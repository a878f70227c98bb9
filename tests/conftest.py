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
