"""Character lattice and its lambda representation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellspec import characters, linalg
from ellspec.characters import (
    LAMBDA_COLUMNS,
    SPANNING_CHARACTERS,
    chi_in_lattice,
    component_image,
    full_lattice_rank,
    lambda_rank,
    lambda_representation,
)

EXPECTED_LAMBDA_MATRIX = [
    (1, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, -1),
    (1, 0, 0, 0, -1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, -1, 0),
    (0, -1, 0, 1, 0, -1, 0, 1),
]


def test_all_spanning_characters_in_lattice():
    assert len(SPANNING_CHARACTERS) == 7
    for chi in SPANNING_CHARACTERS:
        assert chi_in_lattice(chi)


@given(st.lists(st.integers() | st.integers(-(10**200), 10**200), min_size=12, max_size=12))
def test_component_image_matches_the_rational_product(chi):
    image = component_image(chi)
    assert image == tuple(linalg.mat_vec(characters._COMPONENT_MATRIX, chi))
    assert all(type(v) is int for v in image)


def test_single_point_not_in_lattice():
    eps11 = (1,) + (0,) * 11
    assert not chi_in_lattice(eps11)
    image = component_image(eps11)
    assert image != (0,) * 6


@pytest.mark.parametrize("function", [chi_in_lattice, component_image, lambda_representation])
@pytest.mark.parametrize("chi", [
    [0.5] * 12, [Fraction(1, 3)] + [0] * 11, list(SPANNING_CHARACTERS[0][:11]) + [0.25],
    [float("inf")] + [0] * 11, [0] * 11 + [float("-inf")], [float("nan")] * 12,
])
def test_non_integral_characters_are_rejected_not_truncated(function, chi):
    with pytest.raises(ValueError, match="character coefficients must be integers"):
        function(chi)


def test_integral_characters_of_any_number_type_are_read_as_ints():
    chi = SPANNING_CHARACTERS[0]
    assert lambda_representation([float(x) for x in chi]) == lambda_representation(chi)
    assert lambda_representation([Fraction(x) for x in chi]) == lambda_representation(chi)


def test_lambda_matrix_frozen():
    matrix = [lambda_representation(chi) for chi in SPANNING_CHARACTERS]
    assert matrix == EXPECTED_LAMBDA_MATRIX
    assert len(LAMBDA_COLUMNS) == 8


def test_lambda_representation_is_linear():
    chi = SPANNING_CHARACTERS[0]
    doubled = tuple(2 * x for x in chi)
    assert lambda_representation(doubled) == tuple(
        2 * x for x in lambda_representation(chi)
    )
    chi_b = SPANNING_CHARACTERS[2]
    summed = tuple(a + b for a, b in zip(chi, chi_b))
    assert lambda_representation(summed) == tuple(
        a + b
        for a, b in zip(lambda_representation(chi), lambda_representation(chi_b))
    )


def test_lambda_representation_requires_lattice_membership():
    with pytest.raises(ValueError):
        lambda_representation((1,) + (0,) * 11)
    with pytest.raises(ValueError):
        lambda_representation((1, 2, 3))


def test_lambda_rank_is_seven():
    matrix = [lambda_representation(chi) for chi in SPANNING_CHARACTERS]
    assert lambda_rank(matrix) == 7


def test_first_six_have_rank_six():
    matrix = [lambda_representation(chi) for chi in SPANNING_CHARACTERS[:6]]
    assert lambda_rank(matrix) == 6


def test_duplicates_do_not_raise_rank():
    matrix = [lambda_representation(chi) for chi in SPANNING_CHARACTERS]
    matrix.append(matrix[0])
    assert lambda_rank(matrix) == 7


def test_full_lattice_rank_reported():
    assert full_lattice_rank() == 7
