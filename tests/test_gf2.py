import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftprep import gf2


def identity(n):
    return [1 << i for i in range(n)]


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)), cols


def test_rref_identity():
    basis: list[int] = []
    assert all(gf2.extend(basis, row) for row in identity(3))
    assert basis == identity(3)[::-1]
    assert gf2.transpose(identity(3), 3) == identity(3)


def test_rref_zero_matrix():
    basis: list[int] = []
    assert not any(gf2.extend(basis, row) for row in (0, 0))
    assert basis == []
    assert gf2.transpose([0, 0], 4) == [0, 0, 0, 0]


def test_rref_hand_elimination():
    # [[1, 1], [1, 0]]: both rows are independent, so every vector reduces to 0.
    basis: list[int] = []
    assert gf2.extend(basis, 0b11) and gf2.extend(basis, 0b01)
    assert basis == [0b11, 0b01]
    assert all(gf2.reduce(v, basis) == 0 for v in range(4))
    steane: list[int] = []
    for row in (0b1111000, 0b1100110, 0b1010101):
        assert gf2.extend(steane, row)
    assert gf2.reduce(0b1111000 ^ 0b1010101, steane) == 0
    assert gf2.reduce(0b0000001, steane) != 0


def test_invert_identity():
    assert gf2.invert(identity(4)) == identity(4)
    assert gf2.invert([]) == []


def test_invert_self_inverse():
    # [[1, 1], [0, 1]]: row 0 has bits 0 and 1, row 1 has bit 1.
    m = [0b11, 0b10]
    assert gf2.invert(m) == m
    assert gf2.matmul(m, gf2.invert(m)) == identity(2)


def test_invert_singular_raises():
    with pytest.raises(gf2.SingularMatrixError):
        gf2.invert([0b11, 0b11])
    with pytest.raises(gf2.SingularMatrixError):
        gf2.invert([0b101, 0b010])  # 2 rows, 3 columns: not square


def test_rank_examples():
    assert gf2.rank(identity(3)) == 3
    assert gf2.rank([0, 0, 0]) == 0
    assert gf2.rank([]) == 0
    assert gf2.rank([0b1111000, 0b1100110, 0b1010101]) == 3
    assert gf2.rank([0b1111000, 0b1100110, 0b0011110]) == 2


@given(matrices())
def test_rank_equals_transpose_rank(mc):
    m, cols = mc
    assert gf2.rank(m) == gf2.rank(gf2.transpose(m, cols))


@settings(max_examples=200)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_inverse_round_trip_random(m):
    n = len(m)
    if gf2.rank(m) < n:
        with pytest.raises(gf2.SingularMatrixError):
            gf2.invert(m)
        return
    inv = gf2.invert(m)
    assert gf2.matmul(m, inv) == identity(n)
    assert gf2.matmul(inv, m) == identity(n)


@given(matrices())
def test_basis_grows_exactly_when_rank_does(mc):
    m, _ = mc
    basis: list[int] = []
    for i, row in enumerate(m):
        grew = gf2.extend(basis, row)
        assert grew == (gf2.rank(m[: i + 1]) > gf2.rank(m[:i]))
        assert len(basis) == gf2.rank(m[: i + 1])
        assert gf2.reduce(row, basis) == 0
        leaders = [b.bit_length() for b in basis]
        assert leaders == sorted(set(leaders), reverse=True)
