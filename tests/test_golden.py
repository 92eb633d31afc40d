"""Every golden report is reproduced byte for byte (see ``tests/golden.py``)."""

import pytest

import golden


@pytest.mark.parametrize("name", golden.NAMES)
def test_golden_report(name):
    with open(golden.path_of(name)) as fh:
        expected = fh.read()
    assert golden.render(name) == expected
