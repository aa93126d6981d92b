import pytest

from capelli import isjp, partitions
from capelli.partitions import validate_partition


@pytest.fixture
def validations(monkeypatch) -> list:
    """The argument of every `validate_partition` call, in call order."""
    calls = []

    def counting(parts):
        calls.append(parts)
        return validate_partition(parts)

    monkeypatch.setattr(partitions, "validate_partition", counting)
    return calls


@pytest.fixture
def cold_cache():
    """An empty polynomial cache for the test, emptied again after it, so no
    size built by one test serves another."""
    isjp._polynomials_of_size.cache_clear()
    yield
    isjp._polynomials_of_size.cache_clear()
