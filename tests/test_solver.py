"""Certificate search: the table, the parametrization, the gates, the scan."""

import dataclasses
import hashlib
import pickle
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellspec.solver as solver_module
from ellspec.assembly import ConstraintEntry
from ellspec.certificates import dumps_certificates
from ellspec.errors import TamperError
from ellspec.hecke import means_gap
from ellspec.lattice import Surface, intersect, m_space_check, named_class, named_combination
from ellspec.solver import (
    SearchBounds,
    Table1Row,
    build_l_classes_m,
    consistency_check,
    consistency_check_m,
    enumerate_table1,
    feasibility_check_m,
    integrality_check,
    solve,
    verify_certificate,
)
from ellspec.threefold import ChernX

BP = Surface.BPRIME
M1 = named_class(BP, "m1")
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


def test_solve_k1_row_is_empty_even_at_wide_bounds():
    # the c2 window and the slope inequality are incompatible over integers
    bounds = SearchBounds(u_abs=14, x_abs=24, z_min=0, z_max=5, d_abs=6, a_max=2)
    assert solve(3, 5, bounds) == []


def test_solve_deterministic_and_parallel_agrees():
    serial = solve(3, 6, SMALL_BOUNDS)
    again = solve(3, 6, SMALL_BOUNDS)
    parallel = solve(3, 6, SMALL_BOUNDS, workers=2)
    assert serial == again == parallel


def test_every_certificate_passes_verification():
    for cert in solve(3, 6, SMALL_BOUNDS):
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


# === one scan path: enumerated integrality, one consistency test ===

SCAN_BOUNDS = SearchBounds(u_abs=4, x_abs=8, z_min=0, z_max=2, d_abs=3, a_max=1)


def _evaluated_points(monkeypatch, **kwargs):
    """Every (a2, a3, u, x, m, d2, d3) that the scan hands to
    evaluate_constraints, recorded through the shape being scanned."""
    shape = {}
    seen = []
    scan, evaluate = solver_module._scan_shape, solver_module.evaluate_constraints

    def recording_scan(task):
        _, a2, a3, u, _, m_class, x = task[:7]
        shape["current"] = (a2, a3, u, x, m_class.coeffs)
        return scan(task)

    def recording_evaluate(params, *args, **kw):
        seen.append(shape["current"] + (params.d2, params.d3))
        return evaluate(params, *args, **kw)

    monkeypatch.setattr(solver_module, "_scan_shape", recording_scan)
    monkeypatch.setattr(solver_module, "evaluate_constraints", recording_evaluate)
    solve(3, 6, SCAN_BOUNDS, allow_nonconstant_lists=True, **kwargs)
    return Counter(seen)


def _integral_points_by_brute_force(zs):
    """The same set tested point by point: every feasible point of the box
    on the m1 ray where both twists are integral and d2, d3, s21, s31 meet
    their congruences.  Since {e+zeta, f, n1+o2, m1} is saturated, this is
    independent of the residue classes the scan enumerates."""
    b = SCAN_BOUNDS
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
                    if l2.is_integral and l3.is_integral:
                        expected.append((a2, a3, u, x, (z * M1).coeffs, d2, d3))
    return Counter(expected)


def test_scan_evaluates_exactly_the_integral_points_of_the_grid(monkeypatch):
    seen = _evaluated_points(monkeypatch)
    expected = _integral_points_by_brute_force(range(SCAN_BOUNDS.z_min, SCAN_BOUNDS.z_max + 1))
    assert expected and max(seen.values()) == 1
    assert seen == expected


def test_scan_evaluates_exactly_the_integral_points_of_a_candidate(monkeypatch):
    seen = _evaluated_points(monkeypatch, m_candidates=[named_class(BP, "m1")])
    expected = _integral_points_by_brute_force([1])
    assert expected and max(seen.values()) == 1
    assert seen == expected


def test_consistency_m_on_the_m1_ray_is_the_disk():
    m1 = named_class(BP, "m1")
    for k in (1, 2, 3, 6):
        for u in [*range(-6, 7), Fraction(-9, k), Fraction(1, 2)]:
            for z in [*range(-2, 5), Fraction(3, k), Fraction(-1, 3)]:
                result = consistency_check_m(k, u, z * m1)
                assert result == consistency_check(k, u, z)
                disk = Fraction(5, 3) * (u + Fraction(9, k)) ** 2 + 30 * (z - Fraction(3, k)) ** 2 - 12
                assert result.value == disk


def test_consistency_m_rejects_only_infeasible_shapes():
    n = lambda name: named_class(BP, name)
    m_classes = [n("m1"), 2 * n("m1"), -n("m1"), n("m3"), n("m1") - n("m2")]
    rejected = passed = 0
    for k, m_class, u in product((1, 3), m_classes, range(-6, 7)):
        if consistency_check_m(k, u, m_class).passes:
            passed += 1
            continue
        rejected += 1
        for x in range(-20, 21):
            # gaps = 0 is the loosest c2 window any multiplicity lists give
            feas = feasibility_check_m(k, u, x, m_class, 0)
            assert not (feas.c2_ok and feas.ss_ok), (k, str(m_class), u, x)
    assert rejected and passed
    assert consistency_check_m(3, -3, n("m1")).passes


def test_consistency_m_requires_positive_k():
    with pytest.raises(ValueError):
        consistency_check_m(0, 0, named_class(BP, "m1"))


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
    text = dumps_certificates(certs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "beba872487bd9b10872d743a2d5d258f9a4828d8c26eb4f0e09999c540cceaa1"
    )


# === search inputs are checked before any work starts ===


@pytest.mark.parametrize("workers", [0, -1])
def test_solve_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        solve(3, 6, SCAN_BOUNDS, workers=workers)


def test_pool_is_sized_by_the_task_count(monkeypatch):
    sizes, task_counts = [], []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            task_counts.append(len(tasks))
            return [fn(task) for task in tasks]

    monkeypatch.setattr(solver_module.multiprocessing, "Pool", RecordingPool)
    bounds = dataclasses.replace(SCAN_BOUNDS, d_abs=1)
    serial = solve(3, 6, bounds)
    assert sizes == []
    assert solve(3, 6, bounds, workers=64) == serial
    assert solve(3, 6, bounds, workers=2) == serial
    tasks = task_counts[0]
    assert 2 < tasks < 64
    assert sizes == [tasks, 2] and task_counts == [tasks, tasks]
    # a single task never starts a pool
    assert solve(3, 6, dataclasses.replace(bounds, a_max=0), workers=64)
    assert sizes == [tasks, 2]


@pytest.mark.parametrize("field", ["u_abs", "x_abs", "d_abs", "a_max"])
def test_search_bounds_reject_negative_windows(field):
    with pytest.raises(ValueError, match=field):
        SearchBounds(**{field: -1})
    assert getattr(SearchBounds(**{field: 0}), field) == 0


def test_search_bounds_reject_an_empty_z_window():
    with pytest.raises(ValueError, match="z_min"):
        SearchBounds(z_min=3, z_max=2)
    assert SearchBounds(z_min=-2, z_max=-2).z_min == -2


# === pickling, as a worker pool sends tasks and results ===


def test_core_values_round_trip_through_pickle():
    """Pool workers pickle m-classes in and certificates out; a class that
    cannot be unpickled would hang a pool instead of failing, so check here."""
    cert = solve(3, 6, SMALL_BOUNDS)[0]
    l2 = cert.params.l2
    half = Fraction(1, 2) * l2
    half.coeffs  # pickle a class whose Fraction cache is filled
    chern = ChernX(5, named_class(Surface.B, "e"), half, Fraction(1, 3), 0, -2)
    for value in (l2, half, cert.params, chern, cert):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert clone == value and clone is not value
    clone = pickle.loads(pickle.dumps(half))
    assert (clone.num, clone.den) == (half.num, half.den) and hash(clone) == hash(half)
    assert verify_certificate(pickle.loads(pickle.dumps(cert))).all_pass
