from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from entkit import codes as cd
from entkit import states as st
from entkit import uniformity as un


def _ghz_q(k):
    return 2 ** (k - 1) / (2 ** k - 1)


def _w_q(K, k):
    return 2 ** (k + 1) * (K - k) * k / ((2 ** k - 1) * K ** 2)


def test_q_measure_closed_forms():
    for K in range(2, 11):
        ghz = st.ghz_state(K)
        w = st.w_state(K)
        for k in range(1, min(5, K // 2) + 1):
            assert abs(un.q_measure(ghz, k) - _ghz_q(k)) < 1e-10
            assert abs(un.q_measure(w, k) - _w_q(K, k)) < 1e-10


def test_w3_q1():
    assert un.q_measure(st.w_state(3), 1) == pytest.approx(8 / 9, abs=1e-10)


def test_q1_is_twice_mean_linear_entropy():
    # independent route through the spectra report
    for seed in range(20):
        s = st.random_state((2,) * 5, seed)
        lin = [st.spectra_report(st.partial_trace(s, (k,))).linear_entropy
               for k in range(5)]
        assert un.q_measure(s, 1) == pytest.approx(2 * np.mean(lin), abs=1e-12)


def test_w6_ordering():
    w6 = st.w_state(6)
    q1, q2, q3 = (un.q_measure(w6, k) for k in (1, 2, 3))
    assert q1 < q3 < q2


def test_q_measure_range_errors():
    with pytest.raises(ValueError):
        un.q_measure(st.ghz_state(4), 3)
    with pytest.raises(ValueError):
        un.q_measure(st.ghz_state(4), 0)


def test_q_zero_iff_product():
    prod = st.product_state([[1, 1], [1, -1], [0.3, 1j]])
    for k in (1,):
        assert un.q_measure(prod, k) == pytest.approx(0.0, abs=1e-12)
    # forward direction for k >= 2 on a 4-site product state
    prod4 = st.product_state([[1, 1], [1, -1], [0.3, 1j], [2, 1]])
    assert un.q_measure(prod4, 2) == pytest.approx(0.0, abs=1e-12)
    # Q_1 = 0 forces unit single-site purity
    for site in range(3):
        assert st.partial_trace(prod, (site,)).purity() == pytest.approx(1.0, abs=1e-12)


def test_k_uniform_levels():
    for K in (3, 4, 5, 6):
        assert un.k_uniform_level(st.ghz_state(K)) == 1
    assert un.k_uniform_level(st.basis_state((2,) * 5, "00000")) == 0
    assert un.k_uniform_level(un.ame52_state()) == 2
    assert un.k_uniform_level(un.ame43_state()) == 2


def test_nesting_two_uniform_implies_one_uniform():
    s = un.ame52_state()
    for site in range(5):
        rho = st.partial_trace(s, (site,))
        assert np.abs(rho.entries - np.eye(2) / 2).max() < 1e-12


def test_q_equals_one_iff_max_mixed():
    s = un.ame52_state()
    assert un.q_measure(s, 1) == pytest.approx(1.0, abs=1e-12)
    assert un.q_measure(s, 2) == pytest.approx(1.0, abs=1e-12)
    g = st.ghz_state(5)
    assert un.q_measure(g, 2) < 1 - 1e-6
    assert un.k_uniform_level(g) == 1


def test_ame52_passes_all_stabilizers():
    vals = un.stabilizer_check(un.ame52_state(), un.AME52_GENERATORS)
    for v in vals:
        assert abs(v - 1) < 1e-10


def test_ghz_stabilizers():
    vals = un.stabilizer_check(st.ghz_state(3), ["IZZ", "ZIZ", "ZZI", "XXX"])
    for v in vals:
        assert abs(v - 1) < 1e-10
    assert abs(un.stabilizer_check(st.ghz_state(3), ["XII"])[0]) < 1e-12
    assert abs(un.stabilizer_check(st.ghz_state(3), ["III"])[0] - 1) < 1e-12


def test_stabilizer_length_mismatch():
    with pytest.raises(ValueError):
        un.stabilizer_check(st.ghz_state(3), ["ZZ"])


def test_pauli_string_parsing():
    p = un.PauliString.from_letters("XYZI")
    assert p.x_powers == (1, 1, 0, 0)
    assert p.z_powers == (0, 1, 1, 0)
    assert p.phase == pytest.approx(1j)
    assert p.weight() == 3
    with pytest.raises(ValueError):
        un.PauliString.from_letters("Q")


def test_pauli_y_matches_matrix():
    y = np.array([[0, -1j], [1j, 0]])
    s = st.random_state((2,), 3)
    out = un.apply_pauli_string(un.PauliString.from_letters("Y"), s)
    assert np.abs(out.amps - y @ s.amps).max() < 1e-14


def test_qutrit_shift_clock():
    s = st.basis_state((3,), "1")
    shifted = un.apply_pauli_string(un.PauliString((1,), (0,)), s)
    assert abs(shifted.amps[2] - 1) < 1e-14
    clocked = un.apply_pauli_string(un.PauliString((0,), (1,)), s)
    assert abs(clocked.amps[1] - np.exp(2j * np.pi / 3)) < 1e-14


def test_catalog_states():
    assert un.catalog_state("ghz", 3).fidelity(st.ghz_state(3)) == pytest.approx(1.0)
    assert un.catalog_state("w", 4).fidelity(st.w_state(4)) == pytest.approx(1.0)
    assert un.catalog_state("dicke", 4, 2).fidelity(st.dicke_state(4, 2)) == \
        pytest.approx(1.0)
    a43 = un.catalog_state("ame43")
    assert a43.dims == (3, 3, 3, 3)
    nine = np.sort(np.abs(a43.amps))[::-1]
    assert np.allclose(nine[:9], 1 / 3) and np.allclose(nine[9:], 0)
    with pytest.raises(ValueError):
        un.catalog_state("bell")
    with pytest.raises(ValueError):
        un.catalog_state("ame43", 2)


def test_no_four_qubit_ame():
    for s in (st.ghz_state(4), st.w_state(4), st.dicke_state(4, 2)):
        assert not un.uniformity_report(s).is_ame
    for i in range(300):
        s = st.random_state((2,) * 4, 60_000 + i)
        assert not un.uniformity_report(s).is_ame


def test_uniformity_report_fields():
    rep = un.uniformity_report(un.ame52_state())
    assert rep.k_uniform_level == 2 and rep.is_ame
    assert len(rep.q_values) == 2
    rep = un.uniformity_report(st.ghz_state(4))
    assert rep.k_uniform_level == 1 and not rep.is_ame


def test_isometry_equivalence():
    # maximal mixedness of a k-site reduction is exactly the isometry property
    # of sqrt(d_X) times the matricized amplitudes
    for seed in (0, 1):
        s = st.random_state((2,) * 4, seed)
        for sites in [(0,), (0, 1), (1, 3)]:
            rho = st.partial_trace(s, sites)
            d = rho.dim
            iso_resid = np.abs(d * rho.entries - np.eye(d)).max()
            mixed = np.abs(rho.entries - np.eye(d) / d).max() < 1e-9
            assert (iso_resid <= d * 1e-9) == mixed
    s = un.ame52_state()
    rho = st.partial_trace(s, (1, 3))
    assert np.abs(4 * rho.entries - np.eye(4)).max() < 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(source=hs.sampled_from(["qubits", "qutrits", "ame43", "ame52"]),
       sites=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1))
def test_uniformity_is_lu_invariant(source, sites, seed):
    # the KL worst violation is not checked: it is the largest Pauli
    # expectation, and local unitaries rotate Pauli expectations into each other
    ame = {"ame43": un.ame43_state, "ame52": un.ame52_state}.get(source)
    if ame is not None:
        s = ame()
    elif source == "qubits":
        s = st.random_state((2,) * sites, seed)
    else:
        s = st.random_state((3,) * min(sites, 4), seed)
    rng = np.random.default_rng(seed)
    rotated = st.apply_local(s, [st.haar_unitary(d, rng) for d in s.dims])
    for k in range(1, s.num_sites // 2 + 1):
        assert abs(un.q_measure(rotated, k) - un.q_measure(s, k)) < 1e-10
    assert un.k_uniform_level(rotated) == un.k_uniform_level(s)
    if ame is not None:
        assert cd.knill_laflamme_check(rotated, 1).passed


# The per-measure subset loops that uniformity_report replaced, kept verbatim
# as references for its one scan.
def _subset_gram(state, sites):
    M = st._matricize(state, sites)
    return M @ M.conj().T


def _reference_q_measure(state, k):
    K = state.num_sites
    if not 1 <= k <= K // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {K // 2}")
    if len(set(state.dims)) != 1:
        raise ValueError("Q_k needs equal local dimensions")
    n = state.dims[0]
    purities = [float(np.sum(np.abs(_subset_gram(state, sub)) ** 2))
                for sub in combinations(range(K), k)]
    nk = float(n) ** k
    return float(nk / (nk - 1.0) * (1.0 - np.mean(purities)))


def _reference_k_uniform_level(state, tol=un.KUNIFORM_TOL):
    K = state.num_sites
    level = 0
    for k in range(1, K // 2 + 1):
        for sub in combinations(range(K), k):
            G = _subset_gram(state, sub)
            d = G.shape[0]
            if np.abs(d * G - np.eye(d)).max() > tol:
                return level
        level = k
    return level


@settings(max_examples=60, deadline=None, database=None)
@given(source=hs.sampled_from(["qubits", "qutrits", "ame43", "ame52"]),
       sites=hs.integers(1, 7), max_k=hs.integers(0, 7),
       tol=hs.sampled_from([0.0, 1e-9, 1e-3, 0.5]), seed=hs.integers(0, 2 ** 32 - 1))
def test_uniformity_report_equals_the_reference_loops(source, sites, max_k, tol, seed):
    ame = {"ame43": un.ame43_state, "ame52": un.ame52_state}.get(source)
    if ame is not None:
        rng = np.random.default_rng(seed)
        s = ame()
        s = st.apply_local(s, [st.haar_unitary(d, rng) for d in s.dims])
    else:
        s = st.random_state(((2,) if source == "qubits" else (3,)) * sites, seed)
    K = s.num_sites
    rep = un.uniformity_report(s, tol, max_k)
    level = _reference_k_uniform_level(s, tol)
    assert rep.q_values == tuple(_reference_q_measure(s, k)
                                 for k in range(1, min(max_k, K // 2) + 1))
    assert rep.k_uniform_level == level
    assert rep.is_ame == (K >= 2 and level == K // 2)
    if max_k == K // 2:
        assert rep == un.uniformity_report(s, tol)
    for k in range(1, K // 2 + 1):
        assert un.q_measure(s, k) == _reference_q_measure(s, k)
    assert un.k_uniform_level(s, tol) == level


def test_uniformity_report_refuses_a_scan_over_the_work_budget():
    s = st.random_state((2,) * 16, 0)
    with pytest.raises(ValueError) as refusal:
        un.uniformity_report(s)
    message = str(refusal.value)
    assert "\n" not in message
    assert message == ("the subset scan needs 3.6e+11 multiply-adds, over the budget "
                       "of 1e+11; lower --max-k")
    rep = un.uniformity_report(s, max_k=3)
    assert len(rep.q_values) == 3 and rep.k_uniform_level == 0
