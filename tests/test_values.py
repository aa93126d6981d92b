"""The library's value classes. Equal inputs give equal objects, with equal
hashes where the class is hashable, and other inputs give unequal ones; the
frozen classes refuse assignment. Importing the sweep engine and the command
line loads neither `dataclasses` nor the `inspect` it pulls in, since every
run pays for what the import loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import capelli
from capelli.borel import BorelDescriptor
from capelli.equivalence import OrbitResult, orbit
from capelli.tau import family_map
from capelli.verify import SweepConfig, SweepReport

HALF = Fraction(1, 2)


def _config(**options):
    return SweepConfig(pair="glm2n", m=2, n=1, lambda_max=2, mu_max=2, **options)


# name: (make, make something unequal, a field, hashable, frozen)
VALUES = {
    "BorelDescriptor": (
        lambda: BorelDescriptor(2, 1, [1, 1]),
        lambda: BorelDescriptor(2, 1, (0, 1)),
        "ell",
        True,
        True,
    ),
    "AffineMap": (
        lambda: family_map(BorelDescriptor(2, 1, (1, 1)), "full"),
        lambda: family_map(BorelDescriptor(2, 1, (0, 1)), "full"),
        "offset",
        True,
        True,
    ),
    "SweepConfig": (
        lambda: _config(),
        lambda: _config(map_choice="releven"),
        "m",
        True,
        True,
    ),
    "OrbitResult": (
        lambda: orbit((Fraction(3, 4), Fraction(-3, 4), 1), 2, 1, HALF),
        lambda: orbit((Fraction(7, 4), Fraction(-3, 4), 1), 2, 1, HALF),
        "status",
        True,
        True,
    ),
    "SweepReport": (
        lambda: SweepReport(_config(), cases=3, failures=[{"kind": "x"}]),
        lambda: SweepReport(_config(), cases=3, failures=[{"kind": "y"}]),
        "cases",
        False,
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_inputs_give_equal_values(name):
    make, make_other, _, hashable, _ = VALUES[name]
    first, second, other = make(), make(), make_other()
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_frozen_values_refuse_assignment(name):
    make, _, field, _, frozen = VALUES[name]
    value = make()
    before = getattr(value, field)
    if not frozen:
        setattr(value, field, before)
        return
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == make()


def test_orbit_with_a_witness_is_equal_but_unhashable():
    # the witness is a dict, so such a result has no hash
    point = (Fraction(-1, 4), Fraction(-3, 4), 1)
    first, second = orbit(point, 2, 1, HALF), orbit(point, 2, 1, HALF)
    assert first.status == OrbitResult.INFINITE
    assert first == second
    with pytest.raises(TypeError):
        hash(first)


def test_sweep_and_cli_imports_load_no_dataclasses():
    src = str(Path(capelli.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import capelli.verify, capelli.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
