"""Small exact linear algebra over Q and Z.

Everything here works on plain lists of ``fractions.Fraction`` (or ints for
the integer routines).  Matrices are row-major lists of rows.  The sizes that
show up in practice are at most 12x12, so clarity beats asymptotics.

The integer routines maintain a unimodular column transform, which is what
makes the kernel basis *saturated*: the returned vectors are part of a basis
of Z^n, so every integer kernel element is an integer combination of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def mat_vec(a: Sequence[Sequence], x: Sequence) -> Vector:
    return [sum((Fraction(aij) * Fraction(xj) for aij, xj in zip(row, x)), Fraction(0)) for row in a]


def dot(x: Sequence, y: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))


# === rational elimination ===


def rref(a: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Q.

    Returns (R, pivot_columns).
    """
    m = [[Fraction(x) for x in row] for row in a]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Sequence[Sequence]) -> int:
    return len(rref(a)[1])


def solve_rational(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One solution of A x = b over Q, or None if inconsistent."""
    if not a:
        return None
    cols = len(a[0])
    augmented = [list(row) + [bi] for row, bi in zip(a, b)]
    r, pivots = rref(augmented)
    if cols in pivots:  # pivot in the constant column: 0 = 1
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(r, pivots):
        x[c] = row[cols]
    return x


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """Whether target lies in the rational span of the given vectors."""
    if not vectors:
        return all(Fraction(t) == 0 for t in target)
    columns = [list(col) for col in zip(*vectors)]
    return solve_rational(columns, list(target)) is not None


# === integer elimination ===


def integers(values: Sequence, what: str) -> tuple[int, ...]:
    """values as ints; an entry that is no integer is the ValueError
    "<what> must be integers"."""
    try:
        ints = tuple(map(int, values))
        if ints != tuple(values):
            raise ValueError
    except (OverflowError, ValueError):  # also inf and nan, which int() refuses
        raise ValueError(f"{what} must be integers") from None
    return ints


def _clear_denominators(row: Sequence) -> list[int]:
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def column_echelon_integer(a: Sequence[Sequence]) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Column echelon form of an integer matrix with its transform.

    Returns (E, U, pivots) with E = A @ U, U unimodular, and pivots a list of
    (row, column) positions.  Columns beyond the last pivot are zero.
    Rational input rows are scaled to integers first (kernels are unchanged).
    """
    e = [_clear_denominators(row) for row in a]
    if not e:
        return [], [], []
    rows, cols = len(e), len(e[0])
    u = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap(j1: int, j2: int) -> None:
        for mat in (e, u):
            for row in mat:
                row[j1], row[j2] = row[j2], row[j1]

    def axpy(j_dst: int, j_src: int, q: int) -> None:
        # column j_dst -= q * column j_src
        for mat in (e, u):
            for row in mat:
                row[j_dst] -= q * row[j_src]

    pivots: list[tuple[int, int]] = []
    frontier = 0
    for i in range(rows):
        if frontier == cols:
            break
        while True:
            nonzero = [j for j in range(frontier, cols) if e[i][j] != 0]
            if not nonzero:
                break
            jmin = min(nonzero, key=lambda j: abs(e[i][j]))
            if jmin != frontier:
                swap(jmin, frontier)
            done = True
            for j in range(frontier + 1, cols):
                if e[i][j] != 0:
                    q = e[i][j] // e[i][frontier]
                    if q:
                        axpy(j, frontier, q)
                    if e[i][j] != 0:
                        done = False
            if done:
                break
        if e[i][frontier] != 0:
            if e[i][frontier] < 0:
                for mat in (e, u):
                    for row in mat:
                        row[frontier] = -row[frontier]
            pivots.append((i, frontier))
            frontier += 1
    return e, u, pivots


def kernel_integer(a: Sequence[Sequence]) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : A x = 0}.

    The basis is saturated: every integer solution is an integer combination
    of the returned vectors.
    """
    e, u, pivots = column_echelon_integer(a)
    if not e:
        return []
    cols = len(e[0])
    first_free = pivots[-1][1] + 1 if pivots else 0
    return [[u[i][j] for i in range(cols)] for j in range(first_free, cols)]


def solve_integer(a: Sequence[Sequence], b: Sequence[int]) -> list[int] | None:
    """One x in Z^n with A x = b, or None if no integer solution exists."""
    e, u, pivots = column_echelon_integer(a)
    if not e:
        return None
    cols = len(e[0])
    residual = [int(x) for x in b]
    y = [0] * cols
    for i, c in pivots:
        q, r = divmod(residual[i], e[i][c])
        if r:
            return None
        y[c] = q
        for row_idx in range(len(e)):
            residual[row_idx] -= q * e[row_idx][c]
    if any(residual):
        return None
    return [sum(u[i][j] * y[j] for j in range(cols)) for i in range(cols)]
