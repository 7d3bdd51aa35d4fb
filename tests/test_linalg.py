"""Exact linear solver: agreement with Fraction Gauss-Jordan, and the
failures it reports for inconsistent and singular systems."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsjack.linalg import solve_exact


def fraction_gauss_jordan(rows, rhs):
    """Reference: textbook Gauss-Jordan on Fraction entries."""
    m = len(rows[0])
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(m):
        pivot = next((k for k in range(col, len(aug)) if aug[k][col]), None)
        if pivot is None:
            raise ArithmeticError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for k in range(len(aug)):
            if k != col and aug[k][col]:
                f = aug[k][col]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[col])]
    if any(row[m] for row in aug[m:]):
        raise ArithmeticError("inconsistent")
    return [aug[col][m] for col in range(m)]


entries = st.fractions(min_value=-9, max_value=9, max_denominator=8)


@st.composite
def consistent_systems(draw):
    m = draw(st.integers(1, 5))
    extra = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         min_size=m + extra, max_size=m + extra))
    x = draw(st.lists(entries, min_size=m, max_size=m))
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    return rows, rhs, x


@settings(max_examples=120, deadline=None)
@given(consistent_systems())
def test_matches_fraction_gauss_jordan(system):
    rows, rhs, x = system
    try:
        want = fraction_gauss_jordan(rows, rhs)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            solve_exact(rows, rhs)
        return
    got = solve_exact(rows, rhs)
    assert got == want == x
    assert all(type(v) is F for v in got)


def test_inconsistent_system_raises():
    with pytest.raises(ArithmeticError, match="inconsistent"):
        solve_exact([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    with pytest.raises(ArithmeticError, match="inconsistent"):
        solve_exact([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)], [1, 0]],
                    [1, 1, 0])


def test_singular_system_raises():
    with pytest.raises(ArithmeticError, match="singular"):
        solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ArithmeticError, match="singular"):
        solve_exact([[0, 1], [0, F(2, 3)], [0, 5]], [1, F(2, 3), 5])


def test_rational_solution_over_integer_rows():
    assert solve_exact([[3, 1], [1, 2]], [1, 0]) == [F(2, 5), F(-1, 5)]
    assert solve_exact([[F(1, 3)]], [F(1, 7)]) == [F(3, 7)]
