from hypothesis import given
from hypothesis import strategies as st

from ftprep import gf2

from _reference import transpose

STEANE = [0b1111000, 0b1100110, 0b1010101]


def identity(n):
    return [1 << i for i in range(n)]


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)), cols


@st.composite
def ordered_matrices(draw):
    """A matrix and a column order covering all of its columns."""
    m, cols = draw(matrices())
    return m, cols, draw(st.permutations(range(cols)))


def test_rref_identity():
    assert gf2.standard_form(identity(3), range(3)) == ([0, 1, 2], identity(3))
    assert gf2.standard_form(identity(3), [2, 1, 0]) == ([2, 1, 0], identity(3)[::-1])
    assert transpose(identity(3), 3) == identity(3)


def test_rref_zero_matrix():
    assert gf2.standard_form([0, 0], range(4)) == ([], [0, 0])
    assert gf2.standard_form([], range(4)) == ([], [])
    assert transpose([0, 0], 4) == [0, 0, 0, 0]


def test_rref_hand_elimination():
    # [[1, 1], [1, 0]]: column 0 pivots on row 0, which then clears row 1's
    # bit 0, so row 1 pivots on column 1 and clears row 0's bit 1.
    assert gf2.standard_form([0b11, 0b01], [0, 1]) == ([0, 1], [0b01, 0b10])
    # Steane's generators are already in standard form on qubits 0, 1, 3;
    # column 2 lies in the span of columns 0 and 1.
    assert gf2.standard_form(STEANE, range(7)) == ([0, 1, 3], [0b1010101, 0b1100110, 0b1111000])
    assert gf2.standard_form(STEANE, range(6, -1, -1)) == (
        [6, 5, 4], [0b1001011, 0b0101101, 0b0011110]
    )
    # The scan stops once every row has a pivot.
    assert gf2.standard_form([0b10], [1, 5]) == ([1], [0b10])


def test_rank_examples():
    assert gf2.rank(identity(3)) == 3
    assert gf2.rank([0, 0, 0]) == 0
    assert gf2.rank([]) == 0
    assert gf2.rank(STEANE) == 3
    assert gf2.rank([0b1111000, 0b1100110, 0b0011110]) == 2


@given(matrices())
def test_rank_equals_transpose_rank(mc):
    m, cols = mc
    assert gf2.rank(m) == gf2.rank(transpose(m, cols))


@given(ordered_matrices())
def test_standard_form_rows(mco):
    m, _, order = mco
    pivots, reduced = gf2.standard_form(m, order)
    assert len(reduced) == len(m)
    for i, row in enumerate(reduced[: len(pivots)]):
        assert [(row >> p) & 1 for p in pivots] == [int(j == i) for j in range(len(pivots))]
    assert not any(reduced[len(pivots):])
    assert gf2.rank(m + reduced) == len(pivots) == gf2.rank(m)


@given(ordered_matrices())
def test_basis_grows_exactly_when_rank_does(mco):
    # A column is a pivot exactly when it is independent of the pivot
    # columns before it in the given order.
    m, cols, order = mco
    pivots, _ = gf2.standard_form(m, order)
    columns = transpose(m, cols)
    earlier: list[int] = []
    for c in order:
        grows = gf2.rank([columns[p] for p in earlier] + [columns[c]]) > len(earlier)
        assert (c in pivots) == grows
        if grows:
            earlier.append(c)
    assert earlier == pivots
