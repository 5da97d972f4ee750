import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from entkit import states as st
from entkit import stellar as sl


def _sorted_stars(con):
    return sorted(con.all_stars(), key=lambda z: (not sl.is_inf(z), z.real, z.imag))


def _match_distance(con_a, con_b):
    a, b = _sorted_stars(con_a), _sorted_stars(con_b)
    assert len(a) == len(b)
    return max(sl.chordal_distance(x, y) for x, y in zip(a, b))


def _random_sym(num_qubits, rng):
    d = rng.standard_normal(num_qubits + 1) + 1j * rng.standard_normal(num_qubits + 1)
    return sl.SymmetricState(num_qubits, d / np.linalg.norm(d))


@settings(max_examples=40, deadline=None, database=None)
@given(hs.integers(1, 10).flatmap(lambda K: hs.lists(
    hs.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    min_size=K + 1, max_size=K + 1)))
def test_symmetric_round_trip(coeffs):
    d = np.array(coeffs, dtype=complex)
    if np.linalg.norm(d) < 1e-3:
        d[0] = 1.0
    sym = sl.SymmetricState(len(d) - 1, d / np.linalg.norm(d))
    back = sl.symmetric_from_pure(sl.symmetric_to_pure(sym))
    assert back.num_qubits == sym.num_qubits
    assert np.abs(back.dicke_coeffs - sym.dicke_coeffs).max() < 1e-12


def test_symmetric_to_pure_matches_loop_reference():
    rng = np.random.default_rng(4)
    for K in (1, 3, 6):
        sym = _random_sym(K, rng)
        v = np.zeros(2 ** K, dtype=complex)
        for idx in range(2 ** K):
            k = bin(idx).count("1")
            v[idx] = sym.dicke_coeffs[k] / math.sqrt(math.comb(K, k))
        assert np.array_equal(sl.symmetric_to_pure(sym).amps, st.new_state((2,) * K, v).amps)


def test_ghz3_is_regular_triangle():
    con = sl.to_constellation(sl.symmetric_from_pure(st.ghz_state(3)))
    assert con.inf_count == 0
    roots = np.sort_complex(con.finite_stars)
    expected = np.sort_complex(np.array([1, np.exp(2j * np.pi / 3),
                                         np.exp(-2j * np.pi / 3)]))
    assert np.abs(roots - expected).max() < 1e-10
    assert np.abs(np.abs(con.finite_stars) - 1).max() < 1e-10  # great circle


def test_w3_has_double_star_plus_pole():
    con = sl.to_constellation(sl.symmetric_from_pure(st.w_state(3)))
    assert con.inf_count == 1
    assert np.abs(con.finite_stars).max() < 1e-12
    assert sl.degeneracy_type(con) == (2, 1)


def test_coherent_state_all_stars_coincide():
    con = sl.to_constellation(sl.symmetric_from_pure(st.basis_state((2,) * 4, "0000")))
    assert sl.degeneracy_type(con) == (4,)
    assert con.inf_count == 0 and np.abs(con.finite_stars).max() < 1e-12


def test_from_constellation_w3():
    sym = sl.from_constellation([0, 0, sl.INF])
    expect = np.zeros(4)
    expect[1] = 1.0
    assert np.abs(sym.dicke_coeffs - expect).max() < 1e-12


def test_from_constellation_single_star():
    sym = sl.from_constellation([0])
    assert np.abs(sym.dicke_coeffs - np.array([1, 0])).max() < 1e-12


def test_round_trip_random_constellations():
    rng = np.random.default_rng(4)
    for _ in range(50):
        stars = list(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        if rng.random() < 0.3:
            stars[0] = sl.INF
        sym = sl.from_constellation(stars)
        back = sl.to_constellation(sym)
        probe = sl.Constellation(
            finite_stars=np.array([z for z in stars if not sl.is_inf(z)]),
            inf_count=sum(1 for z in stars if sl.is_inf(z)))
        assert _match_distance(back, probe) < 1e-8


def test_round_trip_phase_convention():
    rng = np.random.default_rng(6)
    for _ in range(20):
        sym = _random_sym(4, rng)
        back = sl.from_constellation(sl.to_constellation(sym).all_stars())
        # equality up to the fixed global-phase convention
        overlap = abs(np.vdot(back.dicke_coeffs, sym.dicke_coeffs))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_mobius_map_rejects_singular():
    with pytest.raises(ValueError):
        sl.MobiusMap(1, 2, 2, 4)


def test_apply_mobius_identity():
    con = sl.to_constellation(sl.symmetric_from_pure(st.ghz_state(3)))
    out = sl.apply_mobius(con, sl.MobiusMap(1, 0, 0, 1))
    assert _match_distance(con, out) < 1e-15


def test_rotation_preserves_chordal_distances():
    rng = np.random.default_rng(7)
    stars = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = st.haar_unitary(2, rng)
    m = sl.mobius_from_local_operator(u)
    out = sl.apply_mobius(sl.Constellation(finite_stars=np.array(stars), inf_count=0), m)
    before = [sl.chordal_distance(a, b) for a in stars for b in stars]
    after = [sl.chordal_distance(a, b) for a in out.all_stars() for b in out.all_stars()]
    assert np.abs(np.sort(before) - np.sort(after)).max() < 1e-10


def test_boost_moves_stars_toward_north_pole():
    rng = np.random.default_rng(8)
    stars = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    boost = sl.MobiusMap(0.5, 0, 0, 2.0)   # z -> z/4, contracts toward 0 (north)
    out = sl.apply_mobius(sl.Constellation(finite_stars=np.array(stars), inf_count=0),
                          boost)
    north = 0j
    for before, after in zip(sorted(stars, key=abs), sorted(out.all_stars(), key=abs)):
        assert sl.chordal_distance(after, north) < sl.chordal_distance(before, north)


def test_degeneracy_types_via_rotated_states():
    rng = np.random.default_rng(9)
    for make, expected in [(lambda: st.ghz_state(3), (1, 1, 1)),
                           (lambda: st.w_state(3), (2, 1)),
                           (lambda: st.dicke_state(4, 1), (3, 1)),
                           (lambda: st.dicke_state(4, 2), (2, 2))]:
        u = st.haar_unitary(2, rng)
        K = make().num_sites
        rotated = st.apply_local(make(), [u] * K, mode="unitary")
        con = sl.to_constellation(sl.symmetric_from_pure(rotated))
        assert sl.degeneracy_type(con) == expected


def test_close_but_distinct_stars_not_merged():
    for sep in (1e-4, 1e-5, 3e-6):
        stars = [0.3 + 0.2j, 0.3 + 0.2j + sep, -1.0j, 2.0 + 0j]
        con = sl.to_constellation(sl.from_constellation(stars))
        assert sl.degeneracy_type(con) == (1, 1, 1, 1)


def test_close_stars_degeneracy_and_discriminant_agree():
    # one rule decides coincidence: the snapped roots set both report lines
    z = 0.3 + 0.2j
    for sep in (1e-4, 3e-5, 1e-5, 6e-6, 3e-6, 2e-6, 1.5e-6, 1e-6, 7e-7, 5e-7, 3e-7):
        sym = sl.from_constellation([z, z + sep, -1j])
        dtype = sl.degeneracy_type(sl.to_constellation(sym))
        delta = sl.form_invariants(sl.form_from_sym(sym), 3).discriminant
        assert (dtype == (1, 1, 1)) == (delta != 0)
        assert dtype == ((2, 1) if sep <= 1e-6 else (1, 1, 1))
    # Dicke (0, e, 1, 0): stars 0, 1/e and inf, with 1/e about 2e from inf
    for e in (1e-4, 1e-6, 1e-7, 3e-8, 1e-8, 1e-10, 1e-12, 1e-13):
        sym = sl.SymmetricState(3, np.array([0, e, 1, 0]) / math.hypot(e, 1))
        dtype = sl.degeneracy_type(sl.to_constellation(sym))
        delta = sl.form_invariants(sl.form_from_sym(sym), 3).discriminant
        assert (dtype == (1, 1, 1)) == (delta != 0)
        assert dtype == ((2, 1) if e <= 5e-8 else (1, 1, 1))


def _haar_rotated(sym, rng):
    u = st.haar_unitary(2, rng)
    pure = st.apply_local(sl.symmetric_to_pure(sym), [u] * sym.num_qubits)
    return sl.symmetric_from_pure(pure)


@settings(max_examples=60, deadline=None, database=None)
@given(family=hs.sampled_from(["random", "repeated", "near infinity"]),
       K=hs.integers(2, 4), seed=hs.integers(0, 2 ** 32 - 1), u=hs.floats(2, 14))
@example(family="near infinity", K=3, seed=0, u=10.0)
def test_degeneracy_is_all_ones_exactly_when_discriminant_is_not_zero(family, K, seed, u):
    rng = np.random.default_rng(seed)
    pool = list(rng.standard_normal(K) + 1j * rng.standard_normal(K))
    if family == "random":
        sym = _random_sym(K, rng)
    elif family == "repeated":
        stars = [pool[i] for i in rng.integers(0, K, K)]
        sym = _haar_rotated(sl.from_constellation(stars), rng)
    else:
        # a star at 10^u is about 2 10^-u from infinity on the sphere, so it
        # coincides with the star there from u = 7.3; past u = 12 its leading
        # coefficient is below COEFF_RTOL and it is at infinity itself
        sym = sl.from_constellation([sl.INF, 10.0 ** u, *pool[:K - 2]])
    dtype = sl.degeneracy_type(sl.to_constellation(sym))
    delta = sl.form_invariants(sl.form_from_sym(sym), K).discriminant
    assert (dtype == (1,) * K) == (delta != 0)


@pytest.mark.parametrize("off", [1e-3, 5e-4, 1e-4, 3e-5])
def test_multiple_star_beside_a_close_star_is_found(off):
    # the close star joins the multiple star's candidate cluster, which then
    # fails validation as a whole and must be split to find the multiple star
    z = 0.3 + 0.2j
    rng = np.random.default_rng(41)
    cases = [([z, z, z + off], (2, 1), "W"), ([z, z, z + off, -1j], (2, 1, 1), "Degenerate")]
    if off >= 5e-4:
        cases.append(([z, z, z, z + off], (3, 1), "Degenerate"))
    for stars, dtype, label in cases:
        K = len(stars)
        sym = sl.from_constellation(stars)
        u = st.haar_unitary(2, rng)
        rotated = sl.symmetric_from_pure(st.apply_local(sl.symmetric_to_pure(sym), [u] * K))
        for s in (sym, rotated):
            cls = sl.classify_sym(s)
            assert (cls.degeneracy, cls.label) == (dtype, label)
            assert sl.form_invariants(sl.form_from_sym(s), K).discriminant == 0


def test_degeneracy_type_invariant_under_mobius():
    rng = np.random.default_rng(10)
    base = [0.3 + 0.1j, 0.3 + 0.1j, -1.2j, 2.0 + 0j, 2.0 + 0j, 2.0 + 0j]
    con = sl.Constellation(finite_stars=np.array(base), inf_count=1)
    assert sl.degeneracy_type(con) == (3, 2, 1, 1)
    for _ in range(100):
        m = sl.MobiusMap(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        assert sl.degeneracy_type(sl.apply_mobius(con, m)) == (3, 2, 1, 1)


def test_cross_ratio_square_is_minus_one():
    lam = sl.cross_ratio(1, -1, 1j, -1j)
    assert abs(lam - (-1)) < 1e-12
    assert abs(sl.orbit_canonical(lam) - (-1)) < 1e-12


def test_cross_ratio_with_infinity():
    # three finite points plus infinity: (z1-z3)(z2-z4)/((z2-z3)(z1-z4)) -> (z1-z3)/(z2-z3)
    lam = sl.cross_ratio(2, 1, 0, sl.INF)
    assert abs(lam - 2) < 1e-12


def test_cross_ratio_degenerate_pairs():
    lam = sl.cross_ratio(0, 0, 1, sl.INF)
    orbit = {0.0, 1.0, "inf"}
    val = "inf" if sl.is_inf(lam) else round(abs(lam), 9)
    assert val in orbit


def test_cross_ratio_indeterminate():
    with pytest.raises(ValueError):
        sl.cross_ratio(0, 0, 0, 1)


def test_orbit_six_values_share_canonical():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        canon = sl.orbit_canonical(lam)
        for other in sl.cross_ratio_orbit(lam):
            assert abs(sl.orbit_canonical(other) - canon) < 1e-11


def test_canonical_cross_ratio_mobius_invariant():
    rng = np.random.default_rng(12)
    stars = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    canon = sl.orbit_canonical(sl.cross_ratio(*stars))
    worst = 0.0
    for _ in range(1000):
        m = sl.MobiusMap(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        moved = [m(z) for z in stars]
        worst = max(worst, abs(sl.orbit_canonical(sl.cross_ratio(*moved)) - canon))
    assert worst < 1e-9


def test_classify_ghz4():
    cls = sl.classify_sym(sl.symmetric_from_pure(st.ghz_state(4)))
    assert cls.degeneracy == (1, 1, 1, 1)
    assert cls.ghz_equivalent and cls.concyclic and not cls.tetrahedral
    orbit = sl.cross_ratio_orbit(cls.cross_ratio)
    assert any(abs(z - 2) < 1e-9 for z in orbit if not sl.is_inf(z))


def test_classify_dicke22():
    cls = sl.classify_sym(sl.symmetric_from_pure(st.dicke_state(4, 2)))
    assert cls.degeneracy == (2, 2)


def test_classify_separable4():
    cls = sl.classify_sym(sl.symmetric_from_pure(st.basis_state((2,) * 4, "1111")))
    assert cls.degeneracy == (4,)
    assert cls.label == "Separable"


def test_classify_k3_labels():
    for make, label in [(lambda: st.basis_state((2, 2, 2), "000"), "Separable"),
                        (lambda: st.w_state(3), "W"),
                        (lambda: st.ghz_state(3), "GHZ")]:
        assert sl.classify_sym(sl.symmetric_from_pure(make())).label == label


def _tetrahedral_sym():
    r = math.sqrt(2.0)
    return sl.from_constellation(
        [0, r, r * cmath.exp(2j * math.pi / 3), r * cmath.exp(-2j * math.pi / 3)])


def test_classify_tetrahedral():
    cls = sl.classify_sym(_tetrahedral_sym())
    assert cls.tetrahedral and not cls.ghz_equivalent and not cls.concyclic
    assert abs(cls.cross_ratio - cmath.exp(1j * math.pi / 3)) < 1e-9


def test_resultant_simple():
    assert abs(sl.resultant([1, -1], [1, 1]) - 2) < 1e-14
    assert abs(sl.resultant([1, -1], [1, -1])) < 1e-14


def test_resultant_detects_common_roots():
    rng = np.random.default_rng(13)
    for _ in range(50):
        shared = complex(rng.standard_normal(), rng.standard_normal())
        p = np.poly([shared, rng.standard_normal() + 1j * rng.standard_normal()])
        q = np.poly([shared, rng.standard_normal() + 1j * rng.standard_normal(),
                     rng.standard_normal()])
        assert abs(sl.resultant(p, q)) < 1e-9
        q2 = np.poly([rng.standard_normal() + 2j, rng.standard_normal() - 1j])
        assert abs(sl.resultant(p, q2)) > 1e-9


def test_resultant_cubic_derivative_matches_discriminant():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = sl.form_polynomial_coeffs(a, 3)
        res = sl.resultant(p, np.polyder(p))
        delta = sl.form_invariants(a, 3).discriminant
        assert abs(res - 27 * p[0] * delta) < 1e-9 * max(1.0, abs(res))


def test_quadratic_double_root():
    fi = sl.form_invariants([1, -1, 1], 2)   # (z-1)^2 in the binomial convention
    assert abs(fi.discriminant) < 1e-14


def test_cubic_triple_root_kills_hessian():
    c = 0.7 - 0.2j
    a = np.array([1, -c, c ** 2, -c ** 3])   # (z - c)^3
    fi = sl.form_invariants(a, 3)
    assert max(abs(h) for h in fi.hessian_coeffs) < 1e-12
    assert abs(fi.discriminant) < 1e-12


def test_cubic_discriminant_vanishes_to_second_order_at_triple_root():
    rng = np.random.default_rng(31)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        a = sl.form_from_sym(sl.from_constellation([z] * 3))
        assert abs(sl.form_invariants(a, 3).discriminant) < 1e-28 * np.abs(a).max() ** 4


def test_cubic_hessian_discriminant_proportional():
    # the quadratic discriminant of the (unnormalized) Hessian is -324 Delta
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fi = sl.form_invariants(a, 3)
        c20, c11, c02 = fi.hessian_coeffs
        disc_h = c20 * c02 - (c11 / 2) ** 2
        assert abs(disc_h + 324 * fi.discriminant) < 1e-9 * max(1.0, abs(disc_h))


def test_quartic_tetrahedral_invariants():
    fi = sl.form_invariants(sl.form_from_sym(_tetrahedral_sym()), 4)
    assert abs(fi.i1) < 1e-10
    assert abs(fi.i2) > 1e-3


def test_quartic_discriminant_identity():
    rng = np.random.default_rng(16)
    for _ in range(50):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        fi = sl.form_invariants(a, 4)
        assert abs(fi.discriminant - (fi.i1 ** 3 - 27 * fi.i2 ** 2)) \
            < 1e-9 * max(1.0, abs(fi.discriminant))


def test_discriminant_vanishes_iff_repeated_root():
    rng = np.random.default_rng(17)
    for degree in (2, 3, 4):
        for _ in range(200):
            a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            fi = sl.form_invariants(a, degree)
            roots = np.roots(sl.form_polynomial_coeffs(a, degree))
            gaps = [abs(x - y) for i, x in enumerate(roots)
                    for y in roots[i + 1:]]
            repeated = bool(gaps) and min(gaps) < 1e-7
            assert (abs(fi.discriminant) < 1e-10) == repeated
        # planted double root
        shared = complex(rng.standard_normal(), rng.standard_normal())
        other = [rng.standard_normal() for _ in range(degree - 2)]
        poly = np.poly([shared, shared] + other)
        a = np.array([poly[k] / math.comb(degree, k) for k in range(degree + 1)])
        assert abs(sl.form_invariants(a, degree).discriminant) < 1e-9


@settings(max_examples=30, deadline=None, database=None)
@given(mults=hs.sampled_from([(2, 1), (3,), (2, 1, 1), (2, 2), (3, 1), (4,)]),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_repeated_stars_have_zero_discriminant(mults, seed):
    rng = np.random.default_rng(seed)
    stars = [z for m in mults for z in [complex(*rng.standard_normal(2))] * m]
    K = len(stars)
    u = st.haar_unitary(2, rng)
    pure = st.apply_local(sl.symmetric_to_pure(sl.from_constellation(stars)), [u] * K)
    a = sl.form_from_sym(sl.symmetric_from_pure(pure))
    assert sl.form_invariants(a, K).discriminant == 0


def test_cubic_discriminant_weight_six():
    rng = np.random.default_rng(18)
    for _ in range(100):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        before = sl.form_invariants(a, 3).discriminant
        after = sl.form_invariants(sl.transform_form(a, 3, g), 3).discriminant
        expect = np.linalg.det(g) ** 6 * before
        assert abs(after - expect) < 1e-8 * abs(after)


def test_syzygy_residual_random_cubics():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(1000):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        worst = max(worst, sl.form_invariants(a, 3).syzygy_residual)
    assert worst < 1e-8


def test_partition_counts():
    assert sl.partition_count(3) == 3
    assert sl.partition_count(4) == 5
    assert sl.partition_count(100) == 190569292
    ratio = sl.hardy_ramanujan(100) / sl.partition_count(100)
    assert 0.9 < ratio < 1.1


def test_rotation_equivariance():
    rng = np.random.default_rng(20)
    for trial in range(25):
        sym = _random_sym(5, rng)
        u = st.haar_unitary(2, rng)
        rotated = st.apply_local(sl.symmetric_to_pure(sym), [u] * 5, mode="unitary")
        via_state = sl.to_constellation(sl.symmetric_from_pure(rotated))
        via_sphere = sl.apply_mobius(sl.to_constellation(sym),
                                     sl.mobius_from_local_operator(u))
        assert _match_distance(via_state, via_sphere) < 1e-8


def test_slocc_equivariance_with_shared_invertible_operator():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sym = _random_sym(4, rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        moved = st.apply_local(sl.symmetric_to_pure(sym), [g] * 4, mode="slocc")
        via_state = sl.to_constellation(sl.symmetric_from_pure(moved))
        via_sphere = sl.apply_mobius(sl.to_constellation(sym),
                                     sl.mobius_from_local_operator(g))
        assert _match_distance(via_state, via_sphere) < 1e-7


def test_transform_form_matches_root_mapping():
    # roots z' of the substituted form map to roots z = (a z' + b)/(c z' + d)
    rng = np.random.default_rng(24)
    for degree in (2, 3, 4):
        for _ in range(20):
            a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            transformed = sl.transform_form(a, degree, g)
            orig_roots = np.roots(sl.form_polynomial_coeffs(a, degree))
            new_roots = np.roots(sl.form_polynomial_coeffs(transformed, degree))
            mapped = [(g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])
                      for z in new_roots]
            d = max(sl.chordal_distance(x, y) for x, y in zip(
                sorted(orig_roots, key=lambda z: (z.real, z.imag)),
                sorted(mapped, key=lambda z: (z.real, z.imag))))
            assert d < 1e-7


def test_constellation_file_round_trip(tmp_path):
    con = sl.Constellation(finite_stars=np.array([1 + 2j, -0.5j]), inf_count=2)
    path = tmp_path / "c.stars"
    sl.write_constellation_file(path, con)
    back = sl.read_constellation_file(path, expected_count=4)
    assert _match_distance(con, back) < 1e-15
    with pytest.raises(ValueError):
        sl.read_constellation_file(path, expected_count=5)


def test_symmetric_from_pure_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sl.symmetric_from_pure(st.new_state((2, 2), [0, 1, 0, 0]))
    with pytest.raises(ValueError, match=r"not permutation symmetric \(residual 6.67e-01\)"):
        sl.symmetric_from_pure(st.basis_state((2,) * 3, "001"))


def test_symmetric_from_pure_bound():
    # amplitudes of one Hamming weight may spread by 1e-10 at most
    amps = st.w_state(3).amps.copy()
    amps[1] += 1e-11
    sl.symmetric_from_pure(st.new_state((2,) * 3, amps))
    amps[1] += 1e-9
    with pytest.raises(ValueError, match="not permutation symmetric"):
        sl.symmetric_from_pure(st.new_state((2,) * 3, amps))


def test_from_constellation_needs_a_star():
    with pytest.raises(ValueError, match="need at least one star"):
        sl.from_constellation([])


def test_constellation_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.stars"
    for body, match in [("star 1 0\nstar 1 oops\n", "line 2: non-numeric"),
                        ("# stars\nplanet 1 0\n", "line 2: expected 'star"),
                        ("star inf 0\n", "line 1: non-numeric or non-finite field .inf.")]:
        path.write_text(body)
        with pytest.raises(st.FormatError, match=match):
            sl.read_constellation_file(path)
