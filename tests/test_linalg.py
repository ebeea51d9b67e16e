"""Exact linear algebra: elimination over Q, kernels and solves over Z."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec import linalg

ints = st.integers(min_value=-6, max_value=6)


def small_matrix(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda rows: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(ints, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


def _nullspace_rational(a):
    """Basis of {x in Q^n : A x = 0} read off the rref: the independent
    oracle for the integer kernel's rank and saturation."""
    cols = len(a[0])
    r, pivots = linalg.rref(a)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, c in zip(r, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def test_rref_fixed():
    r, pivots = linalg.rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert r[0] == [Fraction(1), Fraction(2)]
    assert r[1] == [Fraction(0), Fraction(0)]


def test_rank_fixed():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0]]) == 0


def test_solve_rational_fixed():
    x = linalg.solve_rational([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_in_span():
    assert linalg.in_span([[1, 0, 0], [0, 1, 0]], [3, -2, 0])
    assert not linalg.in_span([[1, 0, 0], [0, 1, 0]], [0, 0, 1])
    assert linalg.in_span([], [0, 0])
    assert not linalg.in_span([], [1, 0])


def test_kernel_integer_fixed():
    # x + y + z = 0 over Z
    basis = linalg.kernel_integer([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # saturation: (1, -1, 0) must be an integer combination of the basis
    coords = linalg.solve_integer([list(col) for col in zip(*basis)], [1, -1, 0])
    assert coords is not None


def test_kernel_integer_saturated_nontrivial():
    # kernel of [2, 2] is generated by (1, -1), not (2, -2)
    basis = linalg.kernel_integer([[2, 2]])
    assert len(basis) == 1
    assert sorted(map(abs, basis[0])) == [1, 1]
    # rational rows are scaled by the lcm of their denominators first
    basis = linalg.kernel_integer([[Fraction(1, 2), Fraction(1, 3)]])
    assert basis in ([[2, -3]], [[-2, 3]])


def test_solve_integer_fixed():
    assert linalg.solve_integer([[2]], [1]) is None
    x = linalg.solve_integer([[2]], [6])
    assert x == [3]
    x = linalg.solve_integer([[1, 2], [0, 3]], [5, 3])
    assert x is not None
    assert linalg.mat_vec([[1, 2], [0, 3]], x) == [5, 3]


@settings(max_examples=150)
@given(small_matrix())
def test_rational_nullspace_annihilates(a):
    for v in _nullspace_rational(a):
        assert all(x == 0 for x in linalg.mat_vec(a, v))


@settings(max_examples=150)
@given(small_matrix())
def test_rank_nullity(a):
    cols = len(a[0])
    assert linalg.rank(a) + len(_nullspace_rational(a)) == cols


@settings(max_examples=150)
@given(small_matrix())
def test_integer_kernel_annihilates_and_matches_rank(a):
    kernel = linalg.kernel_integer(a)
    for v in kernel:
        assert all(x == 0 for x in linalg.mat_vec(a, v))
    assert len(kernel) == len(a[0]) - linalg.rank(a)


@settings(max_examples=150)
@given(small_matrix(), st.data())
def test_integer_kernel_is_saturated(a, data):
    """Any integer solution of A x = 0 has integer coordinates in the basis."""
    rational = _nullspace_rational(a)
    if not rational:
        return
    coeffs = data.draw(
        st.lists(ints, min_size=len(rational), max_size=len(rational))
    )
    combo = [
        sum((c * v[i] for c, v in zip(coeffs, rational)), Fraction(0))
        for i in range(len(a[0]))
    ]
    scale = lcm(*(entry.denominator for entry in combo))
    x = [int(entry * scale) for entry in combo]
    kernel = linalg.kernel_integer(a)
    coords = linalg.solve_integer([list(col) for col in zip(*kernel)], x)
    assert coords is not None


@settings(max_examples=150)
@given(small_matrix(), st.data())
def test_solve_integer_roundtrip(a, data):
    cols = len(a[0])
    x0 = data.draw(st.lists(ints, min_size=cols, max_size=cols))
    b = [int(v) for v in linalg.mat_vec(a, x0)]
    x = linalg.solve_integer(a, b)
    assert x is not None
    assert [int(v) for v in linalg.mat_vec(a, x)] == b


@settings(max_examples=100)
@given(small_matrix(), st.data())
def test_solve_rational_roundtrip(a, data):
    cols = len(a[0])
    x0 = data.draw(st.lists(ints, min_size=cols, max_size=cols))
    b = linalg.mat_vec(a, x0)
    x = linalg.solve_rational(a, b)
    assert x is not None
    assert linalg.mat_vec(a, x) == b


def test_empty_matrices():
    assert linalg.rref([]) == ([], [])
    assert linalg.solve_rational([], []) is None
    assert linalg.column_echelon_integer([]) == ([], [], [])
    assert linalg.kernel_integer([]) == []
    assert linalg.solve_integer([], []) is None


def test_solve_integer_inconsistent_rows():
    assert linalg.solve_integer([[1], [1]], [1, 2]) is None
