"""Certificate search: the table, the parametrization, the gates, the scan."""

import copy
import dataclasses
import functools
import hashlib
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellspec.solver as solver_module
from ellspec.assembly import (
    CONGRUENCES,
    DEFAULT_HPRIME,
    BundleParams,
    ConstraintEntry,
    ConstraintReport,
    congruence_check,
    default_polarization,
    evaluate_constraints,
    polarization_class,
)
from ellspec.certificates import dumps_certificates, loads_certificates
from ellspec.errors import PolarizationError, SurfaceMismatchError, TamperError
from ellspec.hecke import means_gap
from ellspec.lattice import (
    DivisorClass,
    Surface,
    combination,
    intersect,
    m_space_check,
    named_class,
    named_combination,
)
from ellspec.solver import (
    SearchBounds,
    Table1Row,
    _clear_verify_memos,
    _x_window,
    build_l_classes_m,
    consistency_check,
    enumerate_table1,
    feasibility_check_m,
    integrality_check,
    solve,
    verify_certificate,
)
from ellspec.threefold import ChernX

BP = Surface.BPRIME
M1 = named_class(BP, "m1")
FP = named_class(BP, "f")
E4 = named_class(BP, "e4")
SMALL_BOUNDS = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=12, a_max=1)


# === the admissible table ===


def test_table_rows_frozen():
    rows = enumerate_table1()
    assert [(r.k2, r.k3, r.l2f, r.l3f) for r in rows] == [
        (2, 4, 9, -6),
        (2, 6, 3, -2),
        (3, 5, 18, -12),
        (3, 6, 6, -4),
        (4, 7, 9, -6),
    ]


def test_table_row_invariants():
    for row in enumerate_table1():
        assert 2 * row.l2f + 3 * row.l3f == 0
        assert row.k2 * row.l2f + row.k3 * row.l3f == -6
        assert row.l2f > row.l3f
    with pytest.raises(ValueError):
        Table1Row(3, 6, 6, -5)
    with pytest.raises(ValueError):
        Table1Row(1, 6, 6, -4)


def test_every_constructible_row_has_positive_k():
    """The invariants force l3f = -2t, l2f = 3t with t > 0 and t k = 6."""
    built = []
    for k2, k3, l2f, l3f in product(range(13), range(13), range(-24, 25), range(-24, 25)):
        try:
            built.append(Table1Row(k2, k3, l2f, l3f))
        except ValueError:
            continue
    assert len(built) == 5 and all(row.k > 0 for row in built)


def test_no_sixth_row_by_independent_brute_force():
    found = []
    for k2 in range(2, 11):
        for k3 in range(3, 11):
            if k2 + k3 > 12:
                continue
            k = 2 * k3 - 3 * k2
            if k <= 0:
                continue
            l2f = Fraction(18, k)
            l3f = Fraction(-12, k)
            if l2f.denominator == 1 and l3f.denominator == 1:
                found.append((k2, k3, int(l2f), int(l3f)))
    assert found == [(r.k2, r.k3, r.l2f, r.l3f) for r in enumerate_table1()]
    assert len(found) == 5


# === the twist-class parametrization ===


def test_build_l_classes_golden():
    l2, l3 = build_l_classes_m(3, 6, -3, 5, 1 * M1, 10, 10, 0, 0)
    assert l2 == named_combination(BP, {"e": 3, "zeta": 3, "m1": 3})
    assert l3 == named_combination(BP, {"e": -2, "zeta": -2, "m1": -2})


def test_build_l_classes_requires_positive_k():
    with pytest.raises(ValueError):
        build_l_classes_m(4, 3, 0, 0, 0 * M1, 0, 0, 0, 0)


@settings(max_examples=200)
@given(
    st.sampled_from([(2, 4), (2, 6), (3, 5), (3, 6), (4, 7)]),
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=9),
)
def test_c1_identity_holds_for_all_parameters(row, u, x, z, d2, d3, s21, s31):
    """2 L2 + 3 L3 always equals the forced combination, so C1 holds by
    construction whenever the components are assembled from these twists."""
    k2, k3 = row
    l2, l3 = build_l_classes_m(k2, k3, u, x, z * M1, d2, d3, s21, s31)
    fp = named_class(BP, "f")
    comps = named_combination(BP, {"n1": 1, "o2": 1})
    forced = (s21 + s31) * comps - (d2 + d3 - 2 * k2 - 3 * k3 + 4) * fp
    assert 2 * l2 + 3 * l3 == forced


def _twists_by_fold(k2, k3, u, x, m_class, d2, d3, s21, s31):
    """The twist parametrization by + and * on Fraction coefficients."""
    k = 2 * k3 - 3 * k2
    u, x, s21, s31 = Fraction(u), Fraction(x), Fraction(s21), Fraction(s31)
    nine_k = Fraction(9, k)
    sections = named_combination(BP, {"e": 1, "zeta": 1})
    components = named_combination(BP, {"n1": 1, "o2": 1})
    fp = named_class(BP, "f")
    l2 = (
        nine_k * sections
        + Fraction(1, 2) * (x - d2 + 2 * k2 - 1) * fp
        + Fraction(1, 2) * (u + nine_k + s21) * components
        + 3 * m_class
    )
    l3 = (
        Fraction(-6, k) * sections
        + Fraction(1, 3) * (-x - d3 + 3 * k3 - 3) * fp
        + Fraction(1, 3) * (-u - nine_k + s31) * components
        - 2 * m_class
    )
    return l2, l3


_small_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@settings(max_examples=200)
@given(
    st.sampled_from([(2, 4), (2, 6), (3, 5), (3, 6), (4, 7), (2, 5), (3, 7)]),
    _small_rationals,
    _small_rationals,
    st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 3),
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=-15, max_value=15),
    _small_rationals,
    _small_rationals,
)
def test_build_l_classes_matches_the_fold(row, u, x, mc, d2, d3, s21, s31):
    m_class = mc[0] * M1 + mc[1] * named_class(BP, "m2") + mc[2] * named_class(BP, "m3")
    k2, k3 = row
    got = build_l_classes_m(k2, k3, u, x, m_class, d2, d3, s21, s31)
    assert got == _twists_by_fold(k2, k3, u, x, m_class, d2, d3, s21, s31)
    ints = (int(u), int(x), int(s21), int(s31))
    assert build_l_classes_m(k2, k3, ints[0], ints[1], m_class, d2, d3, *ints[2:]) == (
        _twists_by_fold(k2, k3, ints[0], ints[1], m_class, d2, d3, *ints[2:])
    )


def test_build_l_classes_rejects_an_m_class_on_b():
    with pytest.raises(SurfaceMismatchError):
        build_l_classes_m(3, 6, -3, 5, named_class(Surface.B, "m1"), 10, 10, 0, 0)


# === the scalar gates ===


def test_consistency_values():
    assert consistency_check(3, -3, 1).value == -12
    assert consistency_check(3, -3, 1).passes
    result = consistency_check(3, 3, 1)
    assert result.value == 48
    assert not result.passes


def test_consistency_center_is_minus_12_for_each_k():
    for k in (1, 2, 3, 6):
        result = consistency_check(k, Fraction(-9, k), Fraction(3, k))
        assert result.value == -12
        assert result.passes


def test_consistency_requires_positive_k():
    with pytest.raises(ValueError):
        consistency_check(0, 0, 0)


def test_feasibility_golden_point():
    result = feasibility_check_m(3, -3, 5, 1 * M1, 0)
    assert result.c2_ok and result.ss_ok
    assert result.gamma_exit == -1


def test_feasibility_failures():
    result = feasibility_check_m(3, 3, -1, 1 * M1, 0)
    assert not result.c2_ok
    assert result.ss_ok
    result = feasibility_check_m(3, -3, 5, 1 * M1, -3)
    assert not result.c2_ok


def _thirds(bound):
    return st.integers(min_value=-3 * bound, max_value=3 * bound).map(lambda n: Fraction(n, 3))


def _disk_oracle(k, u, m_class):
    """Consistency as first derived: x eliminated by hand between the c2
    window at zero gaps and the slope inequality, leaving value <= 0."""
    return (Fraction(5, 3) * (u + Fraction(9, k)) ** 2 - 15 * intersect(m_class, m_class)
            + Fraction(180, k) * intersect(m_class, E4) + Fraction(270, k * k) - 12)


def _c2_oracle(k, u, x, m_class):
    """The c2 polynomial that c2_ok compares with the multiplicity gaps."""
    return (Fraction(5, 3) * u * u - 15 * intersect(m_class, m_class) - Fraction(30, k) * x
            + Fraction(135, k * k) - 12)


def _gamma_oracle(k, u, x, m_class):
    """The witness class gamma = (x + u + 9/k) f' + 6 m: its pairing with e4'
    and the slope test with both of its clauses."""
    gamma = (x + u + Fraction(9, k)) * FP + 6 * m_class
    exit_ = intersect(gamma, E4)
    return exit_, exit_ < 0 and intersect(gamma - E4, FP) == -1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 6]),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.tuples(_thirds(3), _thirds(3), _thirds(3)),
    st.fractions(min_value=-12, max_value=0, max_denominator=6),
)
def test_x_window_gates_match_the_hand_derived_oracles(k, u, x, z, m, gaps):
    """Every field of both gates, read off the x-window, equals the formula
    it replaced: the disk polynomial, the c2 polynomial and the gamma
    witness.  On m-space classes in thirds, off the m1 ray, with rational u
    and x and nonpositive gaps."""
    m_class = named_combination(BP, dict(zip(("m1", "m2", "m3"), m)))
    lo, hi = _x_window(k, u, m_class)
    assert (lo <= hi) == (_disk_oracle(k, u, m_class) <= 0)
    disk = _disk_oracle(k, u, z * M1)
    assert consistency_check(k, u, z) == solver_module.ConsistencyResult(disk <= 0, disk)
    c2_value = _c2_oracle(k, u, x, m_class)
    gamma_exit, ss_ok = _gamma_oracle(k, u, x, m_class)
    assert feasibility_check_m(k, u, x, m_class, gaps) == solver_module.FeasibilityResult(
        c2_ok=c2_value <= gaps, ss_ok=ss_ok, c2_value=c2_value, gamma_exit=gamma_exit
    )


def test_feasibility_fails_a_class_outside_m_space():
    """e4' pairs to 1 with f', so gamma's second clause fails though its
    exit is negative; the window's x < hi alone would pass."""
    assert not m_space_check(E4)
    result = feasibility_check_m(3, -3, -100, E4, 0)
    assert result.gamma_exit == _gamma_oracle(3, -3, -100, E4)[0] < 0
    assert not result.ss_ok
    assert -100 < _x_window(3, -3, E4)[1]


def test_integrality_golden():
    assert integrality_check(3, -3, 5, 1, 10, 10, 0, 0).passes


def test_integrality_bad_d3():
    report = integrality_check(3, -3, 5, 1, 10, 11, 0, 0)
    assert not report.passes
    assert dict(report.checks)["d3_mod_3_is_1"] is False


def test_integrality_bad_k():
    report = integrality_check(2, -3, 5, 1, 10, 10, 0, 0)
    assert not report.passes
    assert dict(report.checks)["k_divides_3"] is False


def _integrality_oracle(k, u, x, z, d2, d3, s21, s31):
    """Integrality as first derived: each section, fiber, component and m
    coefficient of the built twists has denominator 1, plus the congruences."""
    u, x, s21, s31 = Fraction(u), Fraction(x), Fraction(s21), Fraction(s31)
    checks = [("k_divides_3", k > 0 and 3 % k == 0)]
    if k > 0:
        checks += [
            ("section_coeff_l2", Fraction(9, k).denominator == 1),
            ("section_coeff_l3", Fraction(6, k).denominator == 1),
            ("fiber_coeff_l2", ((x - d2 - 1) / 2).denominator == 1),
            ("fiber_coeff_l3", ((x + d3) / 3).denominator == 1),
            ("component_coeff_l2", ((u + Fraction(9, k) + s21) / 2).denominator == 1),
            ("component_coeff_l3", ((u + Fraction(9, k) - s31) / 3).denominator == 1),
            ("m_coeff", Fraction(z).denominator == 1),
        ]
    checks += [
        ("d2_even", d2 % 2 == 0),
        ("d3_mod_3_is_1", d3 % 3 == 1),
        ("s21_even", s21 % 2 == 0),
        ("s31_mod_3_is_0", s31 % 3 == 0),
    ]
    return all(ok for _, ok in checks), dict(checks)


_SURVIVING_CHECKS = ("k_divides_3", "m_coeff", "d2_even", "d3_mod_3_is_1", "s21_even", "s31_mod_3_is_0")


def _assert_integrality_matches_oracle(*args):
    """integrality_check, and with nonnegative integral sums the report of
    the twists built on each table row with the oracle's k, give the
    oracle's verdict and congruence details."""
    passes, oracle_checks = _integrality_oracle(*args)
    report = integrality_check(*args)
    assert report.passes == passes, args
    checks = dict(report.checks)
    for name in _SURVIVING_CHECKS:
        if name in oracle_checks:
            assert checks[name] == oracle_checks[name], (name, args)
    k, u, x, z, d2, d3, s21, s31 = args
    if not all(Fraction(s).denominator == 1 and s >= 0 for s in (s21, s31)):
        return
    s21, s31 = int(s21), int(s31)
    for row in (r for r in enumerate_table1() if r.k == k):
        l2, l3 = build_l_classes_m(row.k2, row.k3, u, x, z * M1, d2, d3, s21, s31)
        params = BundleParams(row.k2, row.k3, d2, d3, (s21, 0), (s31, 0, 0), l2, l3)
        entry = evaluate_constraints(params, default_polarization()).entry("integrality")
        assert entry.passes == passes, (row, args)
        detail = dict(entry.detail)
        for name, _, _ in CONGRUENCES:
            assert detail[name] == oracle_checks[name], (name, row, args)


_INTEGRALITY_KS = (-3, 0, 1, 2, 3, 6, 9)


def test_integrality_matches_the_coefficient_oracle_on_a_grid():
    """Both verdicts on every integral point of a box that covers each
    residue of u and x (mod 6), d2 (mod 2), d3 and the sums (mod 3), and a
    half-integral z."""
    for point in product(_INTEGRALITY_KS, range(6), range(6), (0, 1, Fraction(1, 2)),
                         range(2), range(3), range(2), range(3)):
        _assert_integrality_matches_oracle(*point)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_INTEGRALITY_KS),
    *[st.fractions(min_value=-30, max_value=30, max_denominator=6)] * 3,
    *[st.integers(min_value=-30, max_value=30)] * 2,
    *[st.fractions(min_value=-30, max_value=30, max_denominator=6)] * 2,
)
def test_integrality_matches_the_coefficient_oracle(k, u, x, z, d2, d3, s21, s31):
    """The residue classes give the oracle's verdict at rational u, x, z and
    sums, on rows with and without k | 3, and k <= 0 raises nothing."""
    _assert_integrality_matches_oracle(k, u, x, z, d2, d3, s21, s31)


def test_report_integrality_detail_is_the_congruence_table():
    """After the twists' own integrality, the report's integrality detail
    names exactly the CONGRUENCES that solve enumerates, in their order."""
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    names = [name for name, _ in cert.report.entry("integrality").detail]
    assert names == ["l2_integral", "l3_integral", *(name for name, _, _ in CONGRUENCES)]


# === the certificate scan ===


def test_solve_rejects_off_table_rows():
    with pytest.raises(ValueError):
        solve(3, 4)


def test_solve_finds_the_worked_certificate():
    certs = solve(3, 6, SMALL_BOUNDS)
    assert certs
    golden = [
        c
        for c in certs
        if (c.u, c.x, c.z, c.params.d2, c.params.d3) == (-3, 5, 1, 10, 10)
        and c.params.a2 == (0, 0)
        and c.params.a3 == (0, 0, 0)
    ]
    assert len(golden) == 1
    cert = golden[0]
    assert cert.params.l2 == named_combination(BP, {"e": 3, "zeta": 3, "m1": 3})
    assert cert.params.l3 == named_combination(BP, {"e": -2, "zeta": -2, "m1": -2})
    assert cert.report.all_pass
    assert cert.report.entry("S_s").value == -12


def test_solve_certificates_all_share_the_forced_shape():
    # on the k = 3 row the gates force (u, x, z) = (-3, 5, 1) and constant lists
    for cert in solve(3, 6, SMALL_BOUNDS):
        assert (cert.u, cert.x, cert.z) == (-3, 5, 1)
        assert len(set(cert.params.a2)) == 1
        assert len(set(cert.params.a3)) == 1
        assert cert.params.d2 % 2 == 0
        assert cert.params.d3 % 3 == 1


def test_solve_k2_row_is_empty():
    assert solve(2, 4, SMALL_BOUNDS) == []
    assert solve(2, 6, SMALL_BOUNDS) == []
    assert solve(4, 7) == []
    assert solve(4, 7, allow_nonconstant_lists=True) == []


def test_solve_k1_row_is_empty_even_at_wide_bounds():
    # the c2 window and the slope inequality are incompatible over integers
    bounds = SearchBounds(u_abs=14, x_abs=24, z_min=0, z_max=5, d_abs=6, a_max=2)
    assert solve(3, 5, bounds) == []


def test_solve_deterministic_and_parallel_agrees():
    serial = solve(3, 6, SMALL_BOUNDS)
    again = solve(3, 6, SMALL_BOUNDS)
    assert serial == again


def _assert_twists_built_at_their_own_d(certs):
    """An oracle apart from the coset rule: each certificate's twists are
    build_l_classes_m at its own (d2, d3)."""
    for c in certs:
        p = c.params
        built = build_l_classes_m(c.row.k2, c.row.k3, c.u, c.x, c.m_class, p.d2, p.d3, sum(p.a2), sum(p.a3))
        assert (p.l2, p.l3) == built


def test_every_certificate_passes_verification():
    certs = solve(3, 6, SMALL_BOUNDS)
    assert len(certs) == 416
    _assert_twists_built_at_their_own_d(certs)
    for cert in certs:
        fresh = verify_certificate(cert)
        assert fresh.all_pass


def test_verify_detects_tampered_twist():
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    bad_params = dataclasses.replace(
        cert.params, l2=cert.params.l2 + named_class(BP, "f")
    )
    tampered = dataclasses.replace(cert, params=bad_params)
    with pytest.raises(TamperError):
        verify_certificate(tampered)


def test_verify_detects_tampered_report():
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    entries = list(cert.report.entries)
    entries[1] = ConstraintEntry("S_s", True, value=Fraction(-999))
    doctored = dataclasses.replace(cert.report, entries=tuple(entries))
    tampered = dataclasses.replace(cert, report=doctored)
    with pytest.raises(TamperError):
        verify_certificate(tampered)


def test_verify_detects_a_forged_report_note():
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    assert cert.report.notes == cert.notes == ()
    doctored = dataclasses.replace(cert.report, notes=("forged note",))
    with pytest.raises(TamperError) as exc:
        verify_certificate(dataclasses.replace(cert, report=doctored))
    assert str(exc.value) == (
        "stored constraint report disagrees with recomputation at"
        ' notes: stored ("forged note"), recomputed ()'
    )


def _genuine(row, u, x, m_class, d2, d3, a2, a3, hprime=DEFAULT_HPRIME, z=None):
    """A certificate whose stored twists and report are those of its point,
    whatever the report says."""
    l2, l3 = build_l_classes_m(row.k2, row.k3, u, x, m_class, d2, d3, sum(a2), sum(a3))
    params = BundleParams(row.k2, row.k3, d2, d3, a2, a3, l2, l3)
    report = evaluate_constraints(params, polarization_class(hprime))
    return solver_module.SolutionCertificate(
        row=row, k=row.k, u=u, x=x, z=z, m_class=m_class, params=params,
        hprime=hprime, report=report, notes=report.notes,
    )


def _certificate_on(row):
    """A certificate at one fixed point of a row, whatever its report says;
    on the k = 1 row, (3, 5), solve finds none."""
    return _genuine(row, -3, 5, M1, 0, 1, (0, 0), (0, 0, 0), z=1)


@pytest.mark.parametrize("row", enumerate_table1(), ids=lambda r: f"{r.k2},{r.k3}")
def test_evaluate_constraints_notes_the_k1_row_only(row):
    cert = _certificate_on(row)
    k1_note = "k = 1 row: geometric side conditions not certified by this search"
    assert cert.report.notes == ((k1_note,) if row.k == 1 else ())
    assert verify_certificate(cert) == cert.report


@functools.cache
def _quick_cert():
    """The first certificate solve finds on the quick box, computed on first
    use so that a solve that finds none fails only the tests that need it."""
    return solve(3, 6, SMALL_BOUNDS)[0]


@pytest.mark.parametrize(
    "make_cert, notes",
    [(_quick_cert, ("forged",)), (lambda: _certificate_on(Table1Row(3, 5, 18, -12)), ())],
    ids=["note-added", "k1-caveat-stripped"],
)
def test_verify_detects_notes_forged_in_both_places(make_cert, notes):
    """Notes are recomputed, not copied from the certificate: forging them in
    the certificate alone, or in it and its report alike, is caught."""
    cert = make_cert()
    recomputed = _shown(cert.notes)
    forged = dataclasses.replace(cert, notes=notes)
    with pytest.raises(TamperError) as exc:
        verify_certificate(forged)
    assert str(exc.value) == (
        f"stored notes disagree with recomputation: stored {_shown(notes)}, recomputed {recomputed}"
    )
    forged = dataclasses.replace(forged, report=dataclasses.replace(cert.report, notes=notes))
    with pytest.raises(TamperError) as exc:
        verify_certificate(forged)
    assert str(exc.value) == (
        "stored constraint report disagrees with recomputation at"
        f" notes: stored {_shown(notes)}, recomputed {recomputed}"
    )


# (entry name or None for the report itself, field): every field after the
# name; the entry names are those of any report, here one built without solve
_FORGEABLE = [(None, f.name) for f in dataclasses.fields(ConstraintReport)[1:]] + [
    (e.name, f.name)
    for e in _certificate_on(Table1Row(3, 6, 6, -4)).report.entries
    for f in dataclasses.fields(ConstraintEntry)[1:]
]
_FORGED_FOR_NONE = {
    "value": Fraction(1), "residual": named_class(BP, "f"), "detail": (("forged", True),),
}


def _shown(value):
    if isinstance(value, tuple):
        return "(" + ", ".join(_shown(v) for v in value) + ")"
    return json.dumps(value) if isinstance(value, str) else str(value)


def _forged(field, value):
    """A value of the field's kind that differs from value."""
    if value is None:
        return _FORGED_FOR_NONE[field]
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return value + ("forged",)
    return value + (named_class(BP, "f") if field == "residual" else 1)


@pytest.mark.parametrize("entry, field", _FORGEABLE)
def test_verify_names_every_forged_report_field(entry, field):
    """Each field of a genuine report, changed on its own, fails verify with
    a message that names it and shows the stored and recomputed values."""
    cert = _quick_cert()
    report = cert.report
    if entry is None:
        stored = getattr(report, field)
        doctored = dataclasses.replace(report, **{field: _forged(field, stored)})
    else:
        entries = list(report.entries)
        i = [e.name for e in entries].index(entry)
        stored = getattr(entries[i], field)
        entries[i] = dataclasses.replace(entries[i], **{field: _forged(field, stored)})
        doctored = dataclasses.replace(report, entries=tuple(entries))
    where = field if entry is None else f"{entry}.{field}"
    with pytest.raises(TamperError) as exc:
        verify_certificate(dataclasses.replace(cert, report=doctored))
    assert str(exc.value) == (
        "stored constraint report disagrees with recomputation at"
        f" {where}: stored {_shown(_forged(field, stored))}, recomputed {_shown(stored)}"
    )


def test_stored_polarization_cache_stays_bounded():
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    for j in range(200):
        hprime = (25, 144 + j, 168 + j)
        report = evaluate_constraints(cert.params, polarization_class(hprime))
        verify_certificate(dataclasses.replace(cert, hprime=hprime, report=report))
    info = solver_module._verified_coset.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 200


def test_verify_detects_mismatched_m_class():
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    tampered = dataclasses.replace(cert, m_class=2 * named_class(BP, "m1"))
    with pytest.raises(TamperError):
        verify_certificate(tampered)


def test_solve_with_explicit_m_candidates():
    m1 = named_class(BP, "m1")
    certs = solve(3, 6, SMALL_BOUNDS, m_candidates=[m1])
    golden = [c for c in certs if (c.params.d2, c.params.d3) == (10, 10)]
    assert golden
    assert all(c.z is None for c in certs)
    with pytest.raises(ValueError):
        solve(3, 6, SMALL_BOUNDS, m_candidates=[named_class(BP, "f")])


# === emission order: the loops nest in certificate order ===


def _certificate_sort_key(cert):
    """The order solve promises, as the global sort it once applied."""
    return (
        cert.u,
        cert.x,
        cert.z if cert.z is not None else 10**9,
        cert.m_class.coeffs,
        cert.params.d2,
        cert.params.d3,
        cert.params.a2,
        cert.params.a3,
    )


def _assert_in_order(certs):
    assert certs and certs == sorted(certs, key=_certificate_sort_key)


CANDIDATES = [named_combination(BP, coeffs) for coeffs in (
    {"m1": 1}, {"m1": 2}, {"m1": -1}, {"m2": 1}, {"m3": 1}, {"m1": 1, "m2": -1},
    {"m1": 1, "m3": 1}, {"m2": 1, "m3": -2},
)]


def test_solve_emits_in_order_on_the_quick_box():
    _assert_in_order(solve(3, 6, SMALL_BOUNDS))


@pytest.mark.parametrize("row", enumerate_table1(), ids=lambda r: f"{r.k2},{r.k3}")
def test_solve_emits_in_order_with_nonconstant_lists(row):
    bounds = SearchBounds(u_abs=12, x_abs=20, z_min=0, z_max=4, d_abs=3, a_max=2)
    certs = solve(row.k2, row.k3, bounds, allow_nonconstant_lists=True)
    assert certs == sorted(certs, key=_certificate_sort_key)
    assert len(certs) == (54 if (row.k2, row.k3) == (3, 6) else 0)


def _filtered_lists(length, a_max, nonconstant, congruence):
    """The multiplicity lists by the plain rule: every list of the box, kept
    if its sum meets the congruence and, unless nonconstant, it is constant."""
    return [a for a in product(range(a_max + 1), repeat=length)
            if congruence_check(congruence, sum(a))[1] and (nonconstant or len(set(a)) == 1)]


@pytest.mark.parametrize("a_max", range(7))
@pytest.mark.parametrize("nonconstant", [False, True])
def test_multiplicity_lists_are_the_filtered_box(a_max, nonconstant):
    for length, congruence in zip((2, 3), CONGRUENCES[2:]):
        assert (solver_module._multiplicity_lists(length, a_max, nonconstant, congruence)
                == _filtered_lists(length, a_max, nonconstant, congruence))


def test_constant_multiplicity_lists_are_built_without_the_box(monkeypatch):
    """The a_max + 1 constant lists are generated directly, not filtered out
    of the (a_max + 1) ** length lists of the box."""
    def refuse(*args, **kwargs):
        raise AssertionError("the whole box was enumerated")

    monkeypatch.setattr(solver_module, "product", refuse)
    for length, congruence in zip((2, 3), CONGRUENCES[2:]):
        lists = solver_module._multiplicity_lists(length, 200, False, congruence)
        assert lists == [(v,) * length for v in range(201) if congruence_check(congruence, length * v)[1]]
        assert lists


def test_solve_emits_in_order_whatever_the_candidate_order():
    bounds = dataclasses.replace(SMALL_BOUNDS, d_abs=4, a_max=2)
    ordered = solve(3, 6, bounds, m_candidates=CANDIDATES, allow_nonconstant_lists=True)
    _assert_in_order(ordered)
    for seed in range(3):
        shuffled = CANDIDATES[:]
        random.Random(seed).shuffle(shuffled)
        assert solve(3, 6, bounds, m_candidates=shuffled, allow_nonconstant_lists=True) == ordered


def test_solve_emits_in_order_when_every_gate_passes(monkeypatch):
    """With the gates and the report forced to pass, every (u, x, m, d2, d3,
    a2, a3) point of the box is emitted, so the order is tested across every
    loop, for the z grid and for shuffled candidates."""
    passing = solve(3, 6, SMALL_BOUNDS)[0].report
    feasible = solver_module.FeasibilityResult(True, True, Fraction(0), Fraction(-1))
    monkeypatch.setattr(solver_module, "_x_window", lambda *a: (Fraction(0), Fraction(0)))
    monkeypatch.setattr(solver_module, "feasibility_check_m", lambda *a: feasible)
    monkeypatch.setattr(solver_module, "evaluate_constraints", lambda *a, **kw: passing)
    bounds = SearchBounds(u_abs=6, x_abs=6, z_min=-1, z_max=1, d_abs=3, a_max=1)
    # u in {-3, 3}, x in {-1, 5}, d2 in {-2, 0, 2}, d3 in {-2, 1}, 4 list pairs
    certs = solve(3, 6, bounds, allow_nonconstant_lists=True)
    assert len(certs) == 2 * 2 * 3 * 3 * 2 * 4
    _assert_in_order(certs)
    shuffled = CANDIDATES[::-1]
    certs = solve(3, 6, bounds, m_candidates=shuffled, allow_nonconstant_lists=True)
    assert len(certs) == 2 * 2 * len(CANDIDATES) * 3 * 2 * 4
    _assert_in_order(certs)


def test_solve_rejects_a_candidate_listed_twice():
    with pytest.raises(ValueError, match="twice"):
        solve(3, 6, SMALL_BOUNDS, m_candidates=[M1, named_class(BP, "m2"), M1])


# === one scan path: enumerated integrality, one consistency test ===

SCAN_BOUNDS = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=3, a_max=1)


def _point(cert):
    return (cert.params.a2, cert.params.a3, cert.u, cert.x, cert.m_class.coeffs,
            cert.params.d2, cert.params.d3)


def _scan(monkeypatch, bounds, **kwargs):
    """solve's certificates, the number of twist builds (one per scanned
    shape), and the evaluate_constraints calls per scanned (a2, a3, u, x, m)
    shape, keyed through the twists built just before."""
    built = []
    evaluations = Counter()
    build, evaluate = solver_module.build_l_classes_m, solver_module.evaluate_constraints

    def recording_build(k2, k3, u, x, m_class, *rest):
        built.append((u, x, m_class.coeffs))
        return build(k2, k3, u, x, m_class, *rest)

    def recording_evaluate(params, *args, **kw):
        evaluations[(params.a2, params.a3, *built[-1])] += 1
        return evaluate(params, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "build_l_classes_m", recording_build)
        patch.setattr(solver_module, "evaluate_constraints", recording_evaluate)
        certs = solve(3, 6, bounds, allow_nonconstant_lists=True, **kwargs)
    return certs, len(built), evaluations


def _passing_integral_points_by_brute_force(zs):
    """The same set tested point by point: every feasible point of the box
    on the m1 ray where both twists are integral and d2, d3, s21, s31 meet
    their congruences, with its own report, kept when that report passes.
    Since {e+zeta, f, n1+o2, m1} is saturated, this is independent of the
    residue classes the scan enumerates."""
    b = SCAN_BOUNDS
    hp_class = default_polarization()
    lists = list(product(product(range(b.a_max + 1), repeat=2),
                         product(range(b.a_max + 1), repeat=3)))
    expected = []
    for gaps in {means_gap(2, a2) + means_gap(3, a3) for a2, a3 in lists}:
        for u, z, x in product(range(-b.u_abs, b.u_abs + 1), zs, range(-b.x_abs, b.x_abs + 1)):
            feas = feasibility_check_m(3, u, x, z * M1, gaps)
            if not (feas.c2_ok and feas.ss_ok):
                continue
            for a2, a3 in lists:
                if means_gap(2, a2) + means_gap(3, a3) != gaps:
                    continue
                s21, s31 = sum(a2), sum(a3)
                for d2, d3 in product(range(-b.d_abs, b.d_abs + 1), repeat=2):
                    if d2 % 2 or d3 % 3 != 1 or s21 % 2 or s31 % 3:
                        continue
                    l2, l3 = build_l_classes_m(3, 6, u, x, z * M1, d2, d3, s21, s31)
                    if not (l2.is_integral and l3.is_integral):
                        continue
                    params = BundleParams(3, 6, d2, d3, a2, a3, l2, l3)
                    report = evaluate_constraints(params, hp_class)
                    if report.all_pass:
                        expected.append(((a2, a3, u, x, (z * M1).coeffs, d2, d3), report))
    return expected


def _check_scan_against_brute_force(monkeypatch, zs, **kwargs):
    certs, builds, evaluations = _scan(monkeypatch, SCAN_BOUNDS, **kwargs)
    emitted = Counter(_point(c) for c in certs)
    expected = _passing_integral_points_by_brute_force(zs)
    assert expected and max(emitted.values()) == 1
    assert emitted == Counter(point for point, _ in expected)
    emitted_reports = {_point(c): c.report for c in certs}
    assert all(emitted_reports[point] == report for point, report in expected)
    # each scanned shape is built and evaluated exactly once, whatever its d-grid
    assert evaluations and set(evaluations.values()) == {1}
    assert builds == sum(evaluations.values())


def test_scan_evaluates_exactly_the_integral_points_of_the_grid(monkeypatch):
    zs = range(SCAN_BOUNDS.z_min, SCAN_BOUNDS.z_max + 1)
    _check_scan_against_brute_force(monkeypatch, zs)


def test_scan_evaluates_exactly_the_integral_points_of_a_candidate(monkeypatch):
    _check_scan_against_brute_force(monkeypatch, [1], m_candidates=[named_class(BP, "m1")])


# === one report per shape: a d-grid step changes no report value ===


def test_default_bounds_solve_shares_one_report():
    """solve(3, 6) over the default box: 39,852 certificates from 36 shapes,
    one report object per shape and all of them equal."""
    certs = solve(3, 6)
    assert len(certs) == 39852
    reports = list({id(c.report): c.report for c in certs}.values())
    assert len(reports) == 36
    assert reports[0].all_pass and all(r == reports[0] for r in reports)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(enumerate_table1()),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.tuples(_thirds(2), _thirds(2), _thirds(2)),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 2),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.lists(st.tuples(*[st.integers(min_value=-20, max_value=20)] * 2), min_size=1, max_size=6),
    st.sampled_from([(25, 144, 168), (3, 21, 21), (7, 2, 3)]),
)
def test_shape_report_holds_off_the_triangle(row, u, x, m, a2, a3, d2, d3, steps, hprime):
    """The report solve evaluates once per shape is the report of every point
    of its d-grid: i steps along d2 and j along d3, i.e. (d2 + 2i, d3 + 3j),
    subtract i f' from l2 and j f' from l3 and leave every report value
    unchanged.  Checked on every row, for rational u and x, m-classes in
    thirds off the m1 ray, non-constant lists, d off its congruences and
    certified-ample polarizations besides the default."""
    m_class = named_combination(BP, dict(zip(("m1", "m2", "m3"), m)))
    hp_class = polarization_class(hprime)
    s21, s31 = sum(a2), sum(a3)

    def twists_and_report(d2, d3):
        l2, l3 = build_l_classes_m(row.k2, row.k3, u, x, m_class, d2, d3, s21, s31)
        params = BundleParams(row.k2, row.k3, d2, d3, a2, a3, l2, l3)
        return l2, l3, evaluate_constraints(params, hp_class)

    l2, l3, report = twists_and_report(d2, d3)
    for i, j in steps:
        l2_at, l3_at, report_at = twists_and_report(d2 + 2 * i, d3 + 3 * j)
        assert (l2_at, l3_at) == (l2 - i * FP, l3 - j * FP)
        assert report_at == report


def test_consistency_m_on_the_m1_ray_is_the_disk():
    """The x-window's (30/k)(lo - hi) on the m1 ray is the (u, z) disk."""
    for k in (1, 2, 3, 6):
        for u in [*range(-6, 7), Fraction(-9, k), Fraction(1, 2)]:
            for z in [*range(-2, 5), Fraction(3, k), Fraction(-1, 3)]:
                lo, hi = _x_window(k, u, z * M1)
                disk = Fraction(5, 3) * (u + Fraction(9, k)) ** 2 + 30 * (z - Fraction(3, k)) ** 2 - 12
                assert Fraction(30, k) * (lo - hi) == disk
                assert consistency_check(k, u, z) == solver_module.ConsistencyResult(disk <= 0, disk)


def test_consistency_m_rejects_only_infeasible_shapes():
    n = lambda name: named_class(BP, name)
    m_classes = [n("m1"), 2 * n("m1"), -n("m1"), n("m3"), n("m1") - n("m2")]
    rejected = passed = 0
    for k, m_class, u in product((1, 3), m_classes, range(-6, 7)):
        lo, hi = _x_window(k, u, m_class)
        if lo <= hi:
            passed += 1
            continue
        rejected += 1
        for x in range(-20, 21):
            # gaps = 0 is the loosest c2 window any multiplicity lists give
            feas = feasibility_check_m(k, u, x, m_class, 0)
            assert not (feas.c2_ok and feas.ss_ok), (k, str(m_class), u, x)
    assert rejected and passed
    lo, hi = _x_window(3, -3, n("m1"))
    assert lo <= hi


def test_consistency_m_requires_positive_k():
    for k in (0, -3):
        with pytest.raises(ValueError):
            _x_window(k, 0, named_class(BP, "m1"))
        with pytest.raises(ValueError):
            feasibility_check_m(k, 0, 5, named_class(BP, "m1"), 0)


# === the gates against the report they stand in for ===

_POLARIZATIONS = [(25, 144, 168), (3, 21, 21), (7, 2, 3)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(enumerate_table1()),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.tuples(_thirds(2), _thirds(2), _thirds(2)),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 2),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from(_POLARIZATIONS),
)
def test_report_c2_slack_is_the_distance_past_the_window_plus_the_gaps(
    row, u, x, m, a2, a3, d2, d3, hprime
):
    """The report's C2_fprime value is (30/k)(x - lo) plus the lists'
    means_gap sum, lo the x-window's c2 end, so the feasibility gate's c2_ok
    is that entry's pass.  Every row, rational u and x, m-classes in thirds,
    non-constant lists, d off its congruences, three polarizations."""
    m_class = named_combination(BP, dict(zip(("m1", "m2", "m3"), m)))
    report = _genuine(row, u, x, m_class, d2, d3, a2, a3, hprime).report
    lo, _ = _x_window(row.k, u, m_class)
    gaps = means_gap(2, a2) + means_gap(3, a3)
    assert report.entry("C2_fprime").value == Fraction(30, row.k) * (x - lo) + gaps


def test_no_report_passes_where_the_feasibility_gate_rejects():
    """Brute force over a box of the k | 3 rows (3, 5) and (3, 6): u in
    [-6, 6], x in [-1, 7], the z grid and CANDIDATES, lists up to 2 and the
    three polarizations.  Every all-pass report lies in the feasibility
    window of its point and lists, so the gate solve runs first drops no
    certificate.  The report's integrality entry fails unless both twists
    are integral and the list sums meet CONGRUENCES, so only those points
    are evaluated, at the d on the congruences nearest 0."""
    _, _, s21c, s31c = CONGRUENCES
    lists = [
        (a2, a3) for a2, a3 in product(product(range(3), repeat=2), product(range(3), repeat=3))
        if congruence_check(s21c, sum(a2))[1] and congruence_check(s31c, sum(a3))[1]
    ]
    rows = [row for row in enumerate_table1() if (row.k2, row.k3) in ((3, 5), (3, 6))]
    m_classes = {m.coeffs: m for m in [*(z * M1 for z in range(3)), *CANDIDATES]}.values()
    passed = []
    for row, m_class, u, x in product(rows, m_classes, range(-6, 7), range(-1, 8)):
        twists = {}
        for a2, a3 in lists:
            sums = sum(a2), sum(a3)
            if sums not in twists:
                twists[sums] = build_l_classes_m(row.k2, row.k3, u, x, m_class, 0, 1, *sums)
            l2, l3 = twists[sums]
            if not (l2.is_integral and l3.is_integral):
                continue
            params = BundleParams(row.k2, row.k3, 0, 1, a2, a3, l2, l3)
            feas = feasibility_check_m(row.k, u, x, m_class, means_gap(2, a2) + means_gap(3, a3))
            for hprime in _POLARIZATIONS:
                if evaluate_constraints(params, polarization_class(hprime)).all_pass:
                    passed.append((row.k, u, x, m_class.coeffs, a2, a3, hprime))
                    assert feas.c2_ok and feas.ss_ok, passed[-1]
    # the nine pairs of constant lists pass at (-3, 5, m1) on (3, 6), at the
    # first two polarizations; every non-constant pair there fails C2_fprime
    assert len(passed) == 18
    assert {point[:4] for point in passed} == {(3, -3, 5, M1.coeffs)}


def test_solve_rejects_non_integral_candidates():
    n = lambda name: named_class(BP, name)
    half = Fraction(1, 2)
    for m_class in (half * n("m1"), half * n("m3"), n("m1") + half * n("m3")):
        assert m_space_check(m_class)
        with pytest.raises(ValueError, match="not integral"):
            solve(3, 6, SCAN_BOUNDS, m_candidates=[m_class])


def test_solve_candidate_pins_the_nonconstant_box():
    bounds = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=6, a_max=1)
    certs = solve(3, 6, bounds, m_candidates=[named_class(BP, "m1")], allow_nonconstant_lists=True)
    assert len(certs) == 112
    _assert_twists_built_at_their_own_d(certs)
    text = dumps_certificates(certs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "beba872487bd9b10872d743a2d5d258f9a4828d8c26eb4f0e09999c540cceaa1"
    )


# === verify reads one report per shape and d-residues ===


def _stepped(cert, i, j):
    """The genuine certificate i steps along d2 and j along d3 from cert."""
    p = cert.params
    return _genuine(
        cert.row, cert.u, cert.x, cert.m_class, p.d2 + 2 * i, p.d3 + 3 * j, p.a2, p.a3,
        cert.hprime, cert.z,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(enumerate_table1()),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.tuples(_thirds(2), _thirds(2), _thirds(2)),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 2),
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-1, 1]),
    st.sampled_from([-1, 1]),
    st.sampled_from([(25, 144, 168), (3, 21, 21), (7, 2, 3)]),
)
def test_verify_memo_equals_direct_evaluation(row, u, x, m, a2, a3, d2, d3, i, j, hprime):
    """The report verify returns is the report evaluated at the certificate
    itself: from a cleared memo, and from the entry a sibling one step away
    in d2 (+-2) and in d3 (+-3) left behind.  Every row, rational u and x,
    m-classes in thirds, non-constant lists, d on and off its congruences."""
    m_class = named_combination(BP, dict(zip(("m1", "m2", "m3"), m)))
    cert = _genuine(row, u, x, m_class, d2, d3, a2, a3, hprime)
    direct = evaluate_constraints(cert.params, polarization_class(hprime))
    _clear_verify_memos()
    assert verify_certificate(cert) == direct
    _clear_verify_memos()
    verify_certificate(_stepped(cert, i, j))
    hits = solver_module._verified_coset.cache_info().hits
    assert verify_certificate(cert) == direct
    assert solver_module._verified_coset.cache_info().hits == hits + 1


def _bump_entry(report, name):
    entries = tuple(
        dataclasses.replace(e, value=e.value + 1) if e.name == name else e for e in report.entries
    )
    return dataclasses.replace(report, entries=entries)


def _with_d(c, d2=None, d3=None):
    """c with its stored d2 or d3 replaced and its twists kept."""
    p = c.params
    return dataclasses.replace(c, params=dataclasses.replace(
        p, d2=p.d2 if d2 is None else d2, d3=p.d3 if d3 is None else d3,
    ))


_TWIST_MESSAGE = "stored twist classes disagree with the parametrization"
_REPORT_MESSAGE = "stored constraint report disagrees with recomputation at "
# field -> (doctoring, the start of the TamperError message it must raise);
# the quick certificate sits at (d2, d3) = (-12, -11), so every d doctor
# lands at a negative d, and all but d2 + 2 move it off its residue (and
# off its memo key): the steps are floor divisions, d // 2 and d // 3
_DOCTORS = {
    "u": (lambda c: dataclasses.replace(c, u=c.u + 1), _TWIST_MESSAGE),
    "x": (lambda c: dataclasses.replace(c, x=c.x + 1), _TWIST_MESSAGE),
    "z": (lambda c: dataclasses.replace(c, z=c.z + 1), "stored m-space class disagrees with z"),
    "m_class": (
        lambda c: dataclasses.replace(c, m_class=E4), "stored m-space class fails the m-space check"
    ),
    "params.d2": (lambda c: _with_d(c, d2=c.params.d2 + 2), _TWIST_MESSAGE),
    "params.d2+1": (lambda c: _with_d(c, d2=c.params.d2 + 1), _TWIST_MESSAGE),
    "params.d2=-7": (lambda c: _with_d(c, d2=-7), _TWIST_MESSAGE),
    "params.d3+1": (lambda c: _with_d(c, d3=c.params.d3 + 1), _TWIST_MESSAGE),
    "params.d3+2": (lambda c: _with_d(c, d3=c.params.d3 + 2), _TWIST_MESSAGE),
    "params.l2": (
        lambda c: dataclasses.replace(
            c, params=dataclasses.replace(c.params, l2=c.params.l2 + named_class(BP, "l"))
        ),
        _TWIST_MESSAGE,
    ),
    "report.c3": (
        lambda c: dataclasses.replace(c, report=dataclasses.replace(c.report, c3=c.report.c3 + 1)),
        _REPORT_MESSAGE + "c3:",
    ),
    "report.S_s": (
        lambda c: dataclasses.replace(c, report=_bump_entry(c.report, "S_s")),
        _REPORT_MESSAGE + "S_s.value:",
    ),
    "report.notes": (
        lambda c: dataclasses.replace(c, report=dataclasses.replace(c.report, notes=("forged",))),
        _REPORT_MESSAGE + "notes:",
    ),
    "notes": (
        lambda c: dataclasses.replace(c, notes=("forged",)),
        "stored notes disagree with recomputation:",
    ),
}


@pytest.mark.parametrize("field", sorted(_DOCTORS))
def test_verify_tamper_message_does_not_depend_on_the_memo(field):
    """A doctored certificate raises the same TamperError from cleared memos
    and after its genuine self and a d-grid sibling filled them."""
    cert = _quick_cert()
    doctor, start = _DOCTORS[field]
    doctored = doctor(cert)
    messages = []
    for genuine in ((), (cert, _stepped(cert, 1, -1))):
        _clear_verify_memos()
        for sibling in genuine:
            verify_certificate(sibling)
        with pytest.raises(TamperError) as exc:
            verify_certificate(doctored)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(start)


_QUICK_POINT = (Table1Row(3, 6, 6, -4), -3, 5, M1)
# pairs of genuine certificates that differ only where the memo key does:
# d2 mod 2, d3 mod 3, the polarization and the lists (same sums, so the
# same twists); the first of each pair is all-pass
_KEPT_APART = {
    "d2-odd": ((0, 1, (0, 0), (0, 0, 0)), (1, 1, (0, 0), (0, 0, 0))),
    "d3-mod-3-is-0": ((0, 1, (0, 0), (0, 0, 0)), (0, 0, (0, 0), (0, 0, 0))),
    "d3-mod-3-is-2": ((0, 1, (0, 0), (0, 0, 0)), (0, -1, (0, 0), (0, 0, 0))),
    "polarization": ((0, 1, (0, 0), (0, 0, 0), DEFAULT_HPRIME), (0, 1, (0, 0), (0, 0, 0), (3, 21, 21))),
    "lists": ((0, 1, (1, 1), (0, 0, 0)), (0, 1, (0, 2), (0, 0, 0))),
}


@pytest.mark.parametrize("name", sorted(_KEPT_APART))
def test_verify_keeps_apart_what_the_memo_key_separates(name):
    """Each certificate verifies with its own report before and after its
    partner, in either order; an off-congruence d stores its honest, failing
    integrality entry."""
    first, second = (_genuine(*_QUICK_POINT, *point) for point in _KEPT_APART[name])
    assert first.report.all_pass and first.report != second.report
    if name.startswith("d"):
        assert not second.report.entry("integrality").passes
    for order in ((first, second, first), (second, first, second)):
        _clear_verify_memos()
        for cert in order:
            assert verify_certificate(cert) == cert.report


def test_verify_reports_a_tampered_twist_before_a_non_ample_polarization():
    """The twist check runs before the report is looked up, and a
    PolarizationError from the lookup is raised again, not remembered."""
    cert = dataclasses.replace(_quick_cert(), hprime=(0, 1, 1))
    for _ in range(2):
        with pytest.raises(PolarizationError):
            verify_certificate(cert)
    tampered = _DOCTORS["params.l2"][0](cert)
    with pytest.raises(TamperError) as exc:
        verify_certificate(tampered)
    assert str(exc.value) == _TWIST_MESSAGE


def test_verify_evaluates_each_quick_box_shape_once(monkeypatch):
    """The 416 quick-box certificates come from 4 (u, x, z, m, a2, a3)
    shapes on one d-residue, and verify evaluates one report for each."""
    certs = solve(3, 6, SMALL_BOUNDS)
    shapes = {(c.u, c.x, c.z, c.m_class, c.params.a2, c.params.a3) for c in certs}
    assert (len(certs), len(shapes)) == (416, 4)
    calls = []

    def counted(params, hprime):
        calls.append(params)
        return evaluate_constraints(params, hprime)

    monkeypatch.setattr(solver_module, "evaluate_constraints", counted)
    _clear_verify_memos()
    for cert in certs:
        assert verify_certificate(cert).all_pass
    assert len(calls) == 4


def _verify_memos():
    """The coset and step memos' counters and the report memo's entries."""
    return (
        solver_module._verified_coset.cache_info(), solver_module._stepped.cache_info(),
        dict(solver_module._equal_reports),
    )


def test_solve_leaves_the_verify_memo_alone():
    """solve runs the coset rule and the step uncached: it neither reads nor
    fills the memos verify reads, so a report patched in for one solve
    cannot reach a later verify."""
    verify_certificate(_quick_cert())
    before = _verify_memos()
    assert solve(3, 6, SMALL_BOUNDS)
    assert _verify_memos() == before


def test_clear_verify_memos_clears_every_verify_memo():
    _clear_verify_memos()
    verify_certificate(_quick_cert())
    coset, step, reports = _verify_memos()
    assert (coset.currsize, step.currsize, len(reports)) == (1, 2, 1)
    _clear_verify_memos()
    coset, step, reports = _verify_memos()
    assert (coset.currsize, step.currsize, len(reports)) == (0, 0, 0)


def test_step_and_report_memos_stay_bounded():
    """1,100 genuine certificates, each one d2-step further along the grid
    and each with its own copy of the report: one coset, but 1,101 stepped
    twists and 1,100 pairs of report objects."""
    cert = _quick_cert()
    p = cert.params
    _clear_verify_memos()
    for i in range(1100):
        params = dataclasses.replace(p, d2=p.d2 + 2 * i, l2=p.l2 - i * FP)
        stepped = dataclasses.replace(cert, params=params, report=dataclasses.replace(cert.report))
        assert verify_certificate(stepped) == cert.report
    coset, step, reports = _verify_memos()
    assert coset.currsize == 1
    assert step.maxsize is not None
    assert step.currsize <= step.maxsize < 1100
    assert len(reports) < 1100


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=10, max_size=10),
    st.integers(min_value=-10**12, max_value=10**12),
)
def test_memoized_step_is_the_combination(coeffs, steps):
    """The step memo's twist is the representative's minus steps * f', for
    rational twists, on a miss and on a hit by an equal twist."""
    expected = combination(BP, ((1, DivisorClass(BP, coeffs)), (-steps, FP)))
    assert list(expected.coeffs) == [c - steps * f for c, f in zip(coeffs, FP.coeffs)]
    for _ in range(2):
        assert solver_module._stepped(DivisorClass(BP, coeffs), steps) == expected


def test_a_report_found_equal_is_compared_again_under_another_polarization():
    """The report memo keys on the pair of stored and fresh report objects:
    the quick certificate's report, already found equal under the default
    polarization, kept by a copy with h' = (3, 21, 21) fails there, on every
    call, and the genuine certificate still verifies."""
    cert = _quick_cert()
    _clear_verify_memos()
    verify_certificate(cert)
    assert len(solver_module._equal_reports) == 1
    moved = dataclasses.replace(cert, hprime=(3, 21, 21))
    assert moved.report is cert.report
    for _ in range(2):
        with pytest.raises(TamperError) as exc:
            verify_certificate(moved)
        assert str(exc.value) == _REPORT_MESSAGE + "S_s.value: stored -12, recomputed -6"
    assert verify_certificate(cert) == cert.report


# === search inputs are checked before any work starts ===


@pytest.mark.parametrize("workers", [0, -1, 2])
def test_solve_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        solve(3, 6, SCAN_BOUNDS, workers=workers)


@pytest.mark.parametrize(
    "hprime",
    [(25.5, 144, 168), (25.0, 144, 168), (Fraction(25), 144, 168), (True, 144, 168),
     [25, 144.0, 168], (25, 144), (25, 144, 168, 0), "abc", None],
)
def test_solve_rejects_a_polarization_that_is_not_three_ints(hprime):
    with pytest.raises(ValueError, match="hprime must be three ints"):
        solve(3, 6, SMALL_BOUNDS, hprime=hprime)


def test_solve_stores_a_list_polarization_as_a_tuple():
    """A list of three ints is taken, and stored as the tuple a loaded
    certificate holds, so each certificate equals its own loaded copy."""
    certs = solve(3, 6, SMALL_BOUNDS, hprime=list(DEFAULT_HPRIME))
    assert {type(c.hprime) for c in certs} == {tuple}
    assert certs == solve(3, 6, SMALL_BOUNDS)
    assert loads_certificates(dumps_certificates(certs)) == certs


@pytest.mark.parametrize("field", ["u_abs", "x_abs", "d_abs", "a_max"])
def test_search_bounds_reject_negative_windows(field):
    with pytest.raises(ValueError, match=field):
        SearchBounds(**{field: -1})
    assert getattr(SearchBounds(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SearchBounds)])
@pytest.mark.parametrize("value", [2.5, "0", True, Fraction(1), None])
def test_search_bounds_reject_values_that_are_not_ints(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        SearchBounds(**{field: value})


def test_search_bounds_reject_an_empty_z_window():
    with pytest.raises(ValueError, match="z_min"):
        SearchBounds(z_min=3, z_max=2)
    assert SearchBounds(z_min=-2, z_max=-2).z_min == -2


# === pickling and copying ===


def test_core_values_round_trip_through_pickle():
    """DivisorClass is frozen and slotted, so its __reduce__ is what lets it,
    and every value holding one, pickle or copy at all."""
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    l2 = cert.params.l2
    half = Fraction(1, 2) * l2
    hash(half)  # pickle a class whose hash is kept
    chern = ChernX(5, named_class(Surface.B, "e"), half, Fraction(1, 3), 0, -2)
    for value in (l2, half, cert.params, chern, cert):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert clone == value and clone is not value
        assert copy.deepcopy(value) == value and copy.copy(value) == value
    clone = pickle.loads(pickle.dumps(half))
    assert (clone.num, clone.den) == (half.num, half.den) and hash(clone) == hash(half)
    assert verify_certificate(pickle.loads(pickle.dumps(cert))).all_pass
