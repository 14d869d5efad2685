import pytest

from kummer.arith import vp
from kummer.errors import InputError


def test_vp_values():
    assert vp(8, 2) == 3
    assert vp(-18, 3) == 2
    assert vp(7, 5) == 0


@pytest.mark.parametrize("p", [1, 0, -2])
def test_vp_rejects_bases_below_two(p):
    with pytest.raises(InputError):
        vp(8, p)
