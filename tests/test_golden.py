import pytest

from golden import PINNED, TABLE, check


@pytest.mark.parametrize("name", [name for name in TABLE if name not in PINNED])
def test_row(name):
    check(name)
