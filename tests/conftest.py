import functools

import pytest

from braidpi import pipeline
from braidpi.pipeline import Pipeline


class _SessionPipeline(Pipeline):
    """Keeps the k-dependent stages, which many tests ask for with the same k."""

    @functools.cache
    def orbifold(self, k):
        return super().orbifold(k)

    @functools.cache
    def quotient(self, k, max_cosets=10**6):
        return super().quotient(k, max_cosets)


@pytest.fixture(scope="session")
def pipe():
    """One Pipeline for the session, so each stage is built once."""
    return _SessionPipeline()


@pytest.fixture
def shared_pipeline(monkeypatch, pipe):
    """Make the CLI's pipeline commands reuse the session Pipeline."""
    monkeypatch.setattr(pipeline, "Pipeline", lambda: pipe)
    return pipe
