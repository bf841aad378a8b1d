from pathlib import Path

import pytest

from shortlinks import _bijections, metric, symmetry

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def chain_builds(monkeypatch) -> list:
    """The facet families passed to ``_stabilizer_chain``, one per call,
    counted in every module that calls it."""
    calls = []
    build = _bijections._stabilizer_chain

    def counted(facets):
        calls.append(facets)
        return build(facets)

    for module in (_bijections, metric, symmetry):
        monkeypatch.setattr(module, "_stabilizer_chain", counted, raising=False)
    return calls


@pytest.fixture
def searches(monkeypatch) -> list:
    """The candidate lists passed to ``_Search.first``, one snapshot per
    first-solution search."""
    calls = []
    first = _bijections._Search.first

    def counted(self, cands):
        calls.append([tuple(c) for c in cands])
        return first(self, cands)

    monkeypatch.setattr(_bijections._Search, "first", counted)
    return calls
