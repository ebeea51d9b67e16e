"""Intersection lattice: named classes, pairings, ampleness, descent,
integral points, and the m-class subspace."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec.errors import SpanError, SurfaceMismatchError
from ellspec.lattice import (
    BASIS,
    COMPONENT_SUM,
    EF_FRAME,
    FXI_FRAME,
    GRAM_DIAG,
    INCONCLUSIVE,
    M_FRAME,
    NOT_EFFECTIVE,
    RANK,
    SECTION_SUM,
    DivisorClass,
    Surface,
    combination,
    descent_not_effective,
    fxi_coordinates,
    intersect,
    invariant_subspace_has_integral_point,
    is_ample_fxi,
    m_space_check,
    named_class,
    named_combination,
    pairing_table,
    zero_class,
)
from ellspec.linalg import solve_rational

B = Surface.B
BP = Surface.BPRIME


def n(name, surface=BP):
    return named_class(surface, name)


# === named classes and their pinned identities ===


def test_fiber_identities():
    f, e = n("f"), n("e")
    assert intersect(f, f) == 0
    assert intersect(e, f) == 1
    assert intersect(e, e) == -1


def test_section_classes():
    assert n("e") == n("e9")
    assert n("zeta") == n("e1")
    assert intersect(n("zeta"), n("f")) == 1


def test_i2_component_identities():
    for i in ("1", "2"):
        ni, oi = n("n" + i), n("o" + i)
        assert intersect(ni, ni) == -2
        assert intersect(oi, oi) == -2
        assert intersect(ni, oi) == 2
        assert ni + oi == n("f")


def test_xi_identities():
    xi = n("xi")
    assert intersect(xi, xi) == -1
    assert intersect(xi, n("f")) == 1
    assert intersect(n("e1"), xi) == 1
    assert intersect(xi, n("e9")) == 0
    assert intersect(xi, n("e4") - n("e5")) == -2


def test_m_classes_pair_to_zero_with_fixed_part():
    """The implication m_space_check relies on: each of m1, m2, m3, and so by
    bilinearity every class of their span, pairs to zero with e' + zeta', f'
    and n1' + o2', the classes SECTION_SUM and COMPONENT_SUM hold."""
    esum = named_combination(BP, {"e": 1, "zeta": 1})
    comps = named_combination(BP, {"n1": 1, "o2": 1})
    assert (esum, comps) == (SECTION_SUM, COMPONENT_SUM)
    for name in ("m1", "m2", "m3"):
        m = n(name)
        assert intersect(m, esum) == 0
        assert intersect(m, n("f")) == 0
        assert intersect(m, comps) == 0


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_class(B, "e10")


def test_surface_mismatch_rejected():
    with pytest.raises(SurfaceMismatchError):
        intersect(named_class(B, "f"), named_class(BP, "f"))


def test_intersect_examples():
    assert intersect(n("f"), n("f")) == 0
    a = named_combination(BP, {"e": 1, "zeta": 1})
    b = named_combination(BP, {"n1": 1, "o2": 1})
    assert intersect(a, b) == 2
    assert intersect(n("xi"), n("xi")) == -1


# === pairing tables ===


def test_pairing_table_for_fixed_part_frame():
    classes = [
        named_combination(BP, {"e": 1, "zeta": 1}),
        n("f"),
        named_combination(BP, {"n1": 1, "o2": 1}),
    ]
    expected = (
        (Fraction(-2), Fraction(2), Fraction(2)),
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0), Fraction(-4)),
    )
    assert pairing_table(classes) == expected


def test_pairing_table_small():
    table = pairing_table([named_class(B, "l"), named_class(B, "e1")])
    assert table == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["l", "e1", "f", "xi", "n1", "o2", "m3"]), min_size=1, max_size=4))
def test_pairing_table_symmetric(names):
    classes = [n(x) for x in names]
    table = pairing_table(classes)
    size = len(classes)
    for i in range(size):
        for j in range(size):
            assert table[i][j] == table[j][i]


# === ampleness in the (f, e1, xi) frame ===


def test_ample_witnesses_frozen():
    cert = is_ample_fxi(25, 144, 168)
    assert cert.ample
    assert cert.witnesses() == (49, 1, 312, 168, 144, 15024)


def test_not_ample_example():
    cert = is_ample_fxi(1, 3, 1)
    assert not cert.ample
    # a > |b - c| fails: pairing with e1 is 1 - 3 + 1 < 0
    assert cert.pairing_e1 < 0


def test_ample_witnesses_match_intersections():
    a, b, c = 25, 144, 168
    h = named_combination(BP, {"f": a, "e1": b, "xi": c})
    cert = is_ample_fxi(a, b, c)
    assert intersect(h, n("e1")) == cert.pairing_e1
    assert intersect(h, n("xi")) == cert.pairing_xi
    assert intersect(h, n("f")) == cert.pairing_f
    for i in ("1", "2"):
        assert intersect(h, n("n" + i)) == cert.pairing_n
        assert intersect(h, n("o" + i)) == cert.pairing_o
    assert intersect(h, h) == cert.self_intersection


@settings(max_examples=200)
@given(
    st.integers(min_value=-5, max_value=30),
    st.integers(min_value=-5, max_value=30),
    st.integers(min_value=-5, max_value=30),
)
def test_ample_criterion_equals_witness_positivity(a, b, c):
    cert = is_ample_fxi(a, b, c)
    assert cert.ample == (a > 0 and b > 0 and c > 0 and a > abs(b - c))
    assert cert.ample == all(w > 0 for w in cert.witnesses())
    h = named_combination(BP, {"f": a, "e1": b, "xi": c})
    assert intersect(h, h) == cert.self_intersection
    assert intersect(h, n("e1")) == cert.pairing_e1


def test_fxi_coordinates_roundtrip():
    h = named_combination(BP, {"f": 25, "e1": 144, "xi": 168})
    assert fxi_coordinates(h) == (25, 144, 168)
    assert fxi_coordinates(named_class(BP, "e2")) is None


# === effectivity descent ===


def mu_class():
    return named_combination(BP, {"e1": 6, "xi": 6, "f": -1})


def test_descent_on_obstruction_class():
    cert = descent_not_effective(mu_class())
    assert cert.verdict == NOT_EFFECTIVE
    assert len(cert.steps) > 0
    assert intersect(cert.terminal, n("f")) < 0


def test_descent_subtracts_against_negative_pairing():
    cert = descent_not_effective(mu_class())
    current = cert.start
    for step in cert.steps:
        subtracted = n(step.subtracted)
        assert intersect(current, subtracted) < 0
        assert step.result == current - subtracted
        current = step.result
    assert current == cert.terminal


def test_descent_zero_steps():
    d = named_combination(BP, {"xi": -1, "f": -1})
    cert = descent_not_effective(d)
    assert cert.verdict == NOT_EFFECTIVE
    assert cert.steps == ()


def test_descent_inconclusive_on_fiber():
    cert = descent_not_effective(n("f"))
    assert cert.verdict == INCONCLUSIVE


def test_descent_rejects_outside_span():
    with pytest.raises(SpanError, match=r"^divisor e2 lies outside span\{f, e1, xi\}$"):
        descent_not_effective(n("e2"))


def test_descent_rejects_fractional_coordinates():
    with pytest.raises(ValueError):
        descent_not_effective(Fraction(1, 2) * n("f"))


@settings(max_examples=100)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)
def test_descent_always_terminates_consistently(a, b, c):
    d = named_combination(BP, {"e1": a, "xi": b, "f": c})
    cert = descent_not_effective(d)
    if cert.verdict == NOT_EFFECTIVE:
        assert intersect(cert.terminal, n("f")) < 0
    else:
        assert intersect(cert.terminal, n("f")) >= 0
        assert intersect(cert.terminal, n("e1")) >= 0
        assert intersect(cert.terminal, n("xi")) >= 0


# === integral points on affine subspaces ===


def test_default_obstruction_subspace_has_no_integral_point():
    result = invariant_subspace_has_integral_point()
    assert not result.exists
    assert result.obstruction is not None
    assert result.obstruction_value.denominator != 1


def test_obstruction_functional_annihilates_span():
    from ellspec.lattice import _default_obstruction_span
    from ellspec.linalg import dot

    result = invariant_subspace_has_integral_point()
    w = result.obstruction
    for v in _default_obstruction_span():
        assert dot(w, v.coeffs) == 0


def test_integral_offset_gives_point():
    offset = -1 * named_class(B, "e1")
    result = invariant_subspace_has_integral_point(offset=offset)
    assert result.exists
    assert result.point is not None
    assert result.point.is_integral
    # the point must lie on the affine subspace
    from ellspec.lattice import _default_obstruction_span

    columns = [list(col) for col in zip(*(v.coeffs for v in _default_obstruction_span()))]
    diff = result.point - offset
    assert solve_rational(columns, list(diff.coeffs)) is not None


def test_half_offset_with_tiny_span_fails():
    offset = Fraction(-1, 2) * named_class(B, "e1")
    result = invariant_subspace_has_integral_point(offset=offset, span=[named_class(B, "e9")])
    assert not result.exists


def test_full_span_gives_an_integral_point():
    """The span of all ten basis classes meets every offset at an integral class."""
    offset = Fraction(-1, 2) * named_class(B, "e1")
    result = invariant_subspace_has_integral_point(offset=offset, span=[n(name, B) for name in BASIS])
    assert result.exists
    assert result.point.is_integral
    assert result.point.surface is B


def test_empty_span_obstruction_is_the_fractional_coordinate():
    offset = Fraction(-1, 2) * named_class(B, "e1")
    result = invariant_subspace_has_integral_point(offset=offset, span=[])
    assert not result.exists
    assert result.obstruction == (0, 1) + (0,) * (RANK - 2)
    assert result.obstruction_value == Fraction(-1, 2)


def test_span_on_the_other_surface_rejected():
    offset = Fraction(-1, 2) * named_class(B, "e1")
    with pytest.raises(SurfaceMismatchError):
        invariant_subspace_has_integral_point(offset=offset, span=[n("f")])


# === the m-class subspace ===


def test_m_space_membership():
    assert m_space_check(n("e4") - n("e5"))
    assert m_space_check(zero_class(BP))
    assert not m_space_check(n("f"))
    assert m_space_check(Fraction(1, 3) * n("m3") - 2 * n("m2"))


def test_m_space_requires_second_surface():
    with pytest.raises(SurfaceMismatchError):
        m_space_check(named_class(B, "m1"))


# === algebra of DivisorClass ===


@settings(max_examples=100)
@given(
    st.sampled_from(["l", "e1", "f", "xi", "n1", "o2", "m3", "e"]),
    st.sampled_from(["l", "e1", "f", "xi", "n1", "o2", "m3", "e"]),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_intersect_bilinear(name_a, name_b, s, t):
    a, b = n(name_a), n(name_b)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(s * a + t * b, b) == s * intersect(a, b) + t * intersect(b, b)


def test_str_rendering():
    assert str(zero_class(B)) == "0"
    assert str(n("f")) == "3*l - e1 - e2 - e3 - e4 - e5 - e6 - e7 - e8 - e9"
    assert str(n("n1")) == "e8 - e9"


def test_repr_lists_the_fraction_coefficients():
    zero, one = "Fraction(0, 1)", "Fraction(1, 1)"
    coeffs = [zero] * 4 + [one, "Fraction(-1, 1)"] + [zero] * 4
    assert repr(n("m1")) == (
        f"DivisorClass(surface=<Surface.BPRIME: 'Bprime'>, coeffs=({', '.join(coeffs)}))"
    )


# === the int core against a plain Fraction-tuple oracle ===

# Entries as unreduced (numerator, denominator) pairs, so that the
# constructor sees negative, zero and non-canonical spellings like 4/-6.
_entries = st.tuples(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-12, max_value=12).filter(bool),
)
_vectors = st.lists(_entries, min_size=RANK, max_size=RANK)
_scalars = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


def _oracle(pairs):
    return tuple(Fraction(p, q) for p, q in pairs)


def _oracle_str(coeffs):
    terms = []
    for name, c in zip(("l",) + tuple(f"e{i}" for i in range(1, 10)), coeffs):
        if c:
            mag = abs(c)
            terms.append(("- " if c < 0 else "+ ") + (name if mag == 1 else f"{mag}*{name}"))
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


@settings(max_examples=200)
@given(_vectors, _vectors, _scalars)
def test_int_core_matches_fraction_oracle(pa, pb, s):
    ra, rb = _oracle(pa), _oracle(pb)
    a = DivisorClass(BP, [Fraction(p, q) for p, q in pa])
    b = DivisorClass(BP, [f"{p}/{q}" if q > 0 else Fraction(p, q) for p, q in pb])
    assert a.coeffs == ra and b.coeffs == rb
    assert all(type(c) is Fraction for c in a.coeffs + (a + b).coeffs + (s * a).coeffs)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ra, rb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ra, rb))
    assert (-a).coeffs == tuple(-x for x in ra)
    assert (s * a).coeffs == (a * s).coeffs == tuple(Fraction(s) * x for x in ra)
    pairing = sum((g * x * y for g, x, y in zip(GRAM_DIAG, ra, rb)), Fraction(0))
    assert intersect(a, b) == pairing and type(intersect(a, b)) is Fraction
    assert (a == b) == (ra == rb)
    assert a - a == zero_class(BP) and (a - a).is_zero
    assert a.is_zero == all(x == 0 for x in ra)
    assert a.is_integral == all(x.denominator == 1 for x in ra)
    assert (s * a).is_integral == all((Fraction(s) * x).denominator == 1 for x in ra)
    assert str(a) == _oracle_str(ra)
    # equal classes built from different spellings are equal and hash alike
    twin = DivisorClass(BP, [Fraction(2 * p, 2 * q) for p, q in pa])
    assert twin == a and hash(twin) == hash(a)
    assert a != DivisorClass(B, ra)
    assert twin.den > 0 and all(type(x) is int for x in twin.num)


def _fold(terms):
    """The combination's coefficients as a plain Fraction-tuple sum; the
    class operators are the kernel itself, so they cannot be its oracle."""
    acc = (Fraction(0),) * RANK
    for coeff, cls in terms:
        acc = tuple(a + Fraction(coeff) * c for a, c in zip(acc, cls.coeffs))
    return acc


@settings(max_examples=200)
@given(st.lists(st.tuples(_scalars, _vectors), max_size=5))
def test_combination_matches_the_fold(raw):
    terms = [(s, DivisorClass(BP, _oracle(v))) for s, v in raw]
    got = combination(BP, terms)
    assert got.coeffs == _fold(terms)
    assert got.surface is BP and got.den > 0 and all(type(x) is int for x in got.num)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_combination_edge_cases():
    assert combination(BP, []) == zero_class(BP)
    assert combination(B, []) == zero_class(B)
    assert combination(BP, [("1/2", n("f")), (0.5, n("f"))]) == n("f")
    with pytest.raises(SurfaceMismatchError):
        combination(BP, [(1, n("f")), (2, n("f", B))])
    with pytest.raises(SurfaceMismatchError):
        combination(B, [(0, n("f"))])
    terms = {"f": 25, "e1": "144", "xi": Fraction(336, 2)}
    expected = _fold([(Fraction(c), n(name)) for name, c in terms.items()])
    assert named_combination(BP, terms).coeffs == expected


def test_divisor_class_is_immutable():
    d = n("f")
    with pytest.raises(FrozenInstanceError):
        d.num = (0,) * RANK
    with pytest.raises(FrozenInstanceError):
        del d.den
    hash(d)  # the hash, kept once computed, is frozen too
    with pytest.raises(FrozenInstanceError):
        d._hash = 0
    assert hash(d) == hash(DivisorClass(d.surface, d.coeffs))
    with pytest.raises(ValueError):
        DivisorClass(BP, (1,) * (RANK - 1))


def test_constructor_reads_any_rational_as_fraction_does():
    """ints and Fractions are taken as they are, anything else through Fraction."""
    coeffs = ("1/2", 0.5, True, 3, Fraction(2, 3), Fraction(4), -7, "5", 0.25, False)
    d = DivisorClass(BP, coeffs)
    oracle = DivisorClass(BP, [Fraction(c) for c in coeffs])
    assert (d.num, d.den) == (oracle.num, oracle.den)
    assert all(type(x) is int for x in (*d.num, d.den))


def _solve_in_frame(names, d):
    frame = [n(name, d.surface) for name in names]
    columns = [list(col) for col in zip(*(v.coeffs for v in frame))]
    sol = solve_rational(columns, list(d.coeffs))
    return None if sol is None else tuple(sol)


@pytest.mark.parametrize(
    "frame, names",
    [(FXI_FRAME, ("f", "e1", "xi")), (EF_FRAME, ("e", "f")), (M_FRAME, ("m1", "m2", "m3"))],
)
@settings(max_examples=60)
@given(data=st.data())
def test_dual_basis_coordinates_match_rref(frame, names, data):
    surface = data.draw(st.sampled_from([B, BP]))
    coords = data.draw(st.lists(_scalars, min_size=len(names), max_size=len(names)))
    inside = sum(
        (Fraction(c) * n(name, surface) for c, name in zip(coords, names)), zero_class(surface)
    )
    outside = DivisorClass(surface, _oracle(data.draw(_vectors)))
    for d in (inside, outside):
        assert frame.coordinates(d) == _solve_in_frame(names, d)
    assert frame.coordinates(inside) == tuple(Fraction(c) for c in coords)
    # a class off the span stays off it whatever is added from the span
    assert frame.coordinates(inside + n("l", surface) - 4 * n("e2", surface)) is None


_thirds = st.integers(min_value=-12, max_value=12).map(lambda k: Fraction(k, 3))


@settings(max_examples=200)
@given(
    st.lists(_thirds, min_size=3, max_size=3),
    st.sampled_from([n("e2"), n("f"), n("e2") - n("e3")]),
    _thirds,
)
def test_m_space_check_matches_the_two_clause_oracle(coords, perturbation, t):
    """The frame alone against the old test: in span{m1, m2, m3} and pairing
    to zero with the section sum, the fiber and the component sum.  e2' is
    off the span and fails a pairing, f' is off it and fails one too, and
    e2' - e3' is off it but pairs to zero with all three."""
    inside = combination(BP, zip(coords, (n("m1"), n("m2"), n("m3"))))
    for m in (inside, inside + t * perturbation):
        oracle = _solve_in_frame(("m1", "m2", "m3"), m) is not None and all(
            intersect(m, other) == 0 for other in (SECTION_SUM, n("f"), COMPONENT_SUM)
        )
        assert m_space_check(m) == oracle
    assert m_space_check(inside)
    assert m_space_check(inside + t * perturbation) == (t == 0)
