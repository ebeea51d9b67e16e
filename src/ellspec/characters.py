"""Degree-zero character lattice on the four-curve configuration.

Formal differences of the twelve marked points s_ij (i = 1..4, j = 1..3)
map to the divisor components they lie on: the j = 1, 2 points sit over the
double-section curve, the j = 3 points over the section copy, so

    e_ij  |->  phi_i - c2bar   (j = 1, 2),      e_ij  |->  phi_i - e   (j = 3).

The lattice of interest is the kernel of that map; a kernel character acts
on each component Jacobian factor through a pair of coordinates, giving the
8-column lambda representation whose rank measures how much of the
deformation space the characters cut out.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import linalg

POINTS = tuple((i, j) for i in range(1, 5) for j in range(1, 4))
COMPONENTS = ("phi1", "phi2", "phi3", "phi4", "c2bar", "e")

# column order of the lambda representation: each factor phi_i contributes
# its (a, c) coordinates for odd i and (b, d) coordinates for even i
LAMBDA_COLUMNS = (
    "phi1:a", "phi1:c", "phi2:b", "phi2:d",
    "phi3:a", "phi3:c", "phi4:b", "phi4:d",
)


def _index(i: int, j: int) -> int:
    return 3 * (i - 1) + (j - 1)


def _epsilon(*terms: tuple[int, int, int]) -> tuple[int, ...]:
    chi = [0] * 12
    for i, j, coeff in terms:
        chi[_index(i, j)] += coeff
    return tuple(chi)


SPANNING_CHARACTERS = (
    _epsilon((1, 1, 1), (3, 1, 1), (1, 2, -1), (3, 2, -1)),
    _epsilon((2, 1, 1), (4, 1, 1), (2, 2, -1), (4, 2, -1)),
    _epsilon((1, 1, 1), (3, 3, 1), (1, 3, -1), (3, 1, -1)),
    _epsilon((2, 1, 1), (4, 3, 1), (2, 3, -1), (4, 1, -1)),
    _epsilon((1, 1, 1), (3, 2, 1), (1, 2, -1), (3, 1, -1)),
    _epsilon((2, 1, 1), (4, 2, 1), (2, 2, -1), (4, 1, -1)),
    _epsilon(
        (2, 1, 1), (4, 1, 1), (1, 1, -1), (3, 1, -1),
        (1, 3, 1), (3, 3, 1), (2, 3, -1), (4, 3, -1),
    ),
)


def _component_matrix() -> list[list[int]]:
    """Rows indexed by COMPONENTS, columns by POINTS."""
    rows = [[0] * 12 for _ in COMPONENTS]
    comp_idx = {name: n for n, name in enumerate(COMPONENTS)}
    for col, (i, j) in enumerate(POINTS):
        rows[comp_idx[f"phi{i}"]][col] += 1
        sink = "e" if j == 3 else "c2bar"
        rows[comp_idx[sink]][col] -= 1
    return rows


_COMPONENT_MATRIX = _component_matrix()


def _validate(chi: Sequence[int]) -> tuple[int, ...]:
    ints = linalg.integers(chi, "character coefficients")
    if len(ints) != 12:
        raise ValueError("a character needs one coefficient per marked point (12)")
    return ints


def component_image(chi: Sequence[int]) -> tuple[int, ...]:
    """Image of the character under the component map, over COMPONENTS."""
    chi = _validate(chi)
    return tuple(sum(map(mul, row, chi)) for row in _COMPONENT_MATRIX)


def chi_in_lattice(chi: Sequence[int]) -> bool:
    """Whether the character has degree zero on every component."""
    return all(v == 0 for v in component_image(chi))


def lambda_representation(chi: Sequence[int]) -> tuple[int, ...]:
    """Action coordinates of a kernel character on the Jacobian factors.

    On factor i the character acts through -n_i2 on the first coordinate and
    -n_i3 on the second, where n_ij is the coefficient at s_ij.
    """
    chi = _validate(chi)
    if not chi_in_lattice(chi):
        raise ValueError("character is outside the degree-zero lattice")
    out = []
    for i in range(1, 5):
        out.append(-chi[_index(i, 2)])
        out.append(-chi[_index(i, 3)])
    return tuple(out)


def lambda_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a family of lambda vectors."""
    return linalg.rank([list(v) for v in vectors])


def full_lattice_rank() -> int:
    """Rank of the whole degree-zero lattice, via a saturated integer kernel.

    Reported for context only: it says nothing about whether a given family
    of characters spans the lattice.
    """
    return len(linalg.kernel_integer(_COMPONENT_MATRIX))
