import pytest

from capelli import partitions
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
