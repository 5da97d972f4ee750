import math

import numpy as np
import pytest

from entkit import states as st

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
BELL_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_new_state_ghz():
    s = st.new_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1])
    assert abs(s.amps[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(s.amps[7] - 1 / np.sqrt(2)) < 1e-15
    assert abs(s.norm_factor - np.sqrt(2)) < 1e-15


def test_new_state_already_normalized():
    s = st.new_state((2,), [1, 0])
    assert np.allclose(s.amps, [1, 0])
    assert s.norm_factor == 1.0


def test_new_state_scaling():
    s = st.new_state((2, 2), [2, 0, 0, 2])
    assert np.allclose(s.amps, BELL_PHI_PLUS)


def test_new_state_errors():
    with pytest.raises(ValueError):
        st.new_state((2, 2), [1, 0, 0])
    with pytest.raises(ValueError):
        st.new_state((2, 2), [0, 0, 0, 0])


def test_new_state_rejects_overflowing_norm():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1e308
    with pytest.raises(ValueError, match="norm overflows"):
        st.new_state((2, 2, 2), amps)


def test_hamming_weights_count_ones():
    for K in range(6):
        assert list(st._hamming_weights(K)) == [bin(i).count("1") for i in range(2 ** K)]


@pytest.mark.parametrize("K, k", [(1, 0), (1, 1), (4, 2), (7, 3), (10, 10)])
def test_dicke_state_has_binomial_support(K, k):
    amps = st.dicke_state(K, k).amps
    support = amps[amps != 0]
    assert support.size == math.comb(K, k)
    assert np.all(support == support[0])


def test_apply_local_z_swaps_phi_states():
    phi_plus = st.new_state((2, 2), BELL_PHI_PLUS)
    out = st.apply_local(phi_plus, [I2, Z])
    assert np.abs(out.amps - BELL_PHI_MINUS).max() < 1e-14


def test_apply_local_x_swaps_diagonals():
    phi_plus = st.new_state((2, 2), BELL_PHI_PLUS)
    out = st.apply_local(phi_plus, [I2, X])
    assert np.abs(out.amps - BELL_PSI_PLUS).max() < 1e-14


def test_apply_local_identity():
    s = st.random_state((2, 3, 2), 7)
    out = st.apply_local(s, [np.eye(2), np.eye(3), np.eye(2)])
    assert np.abs(out.amps - s.amps).max() < 1e-14


def test_apply_local_rejects_nonunitary():
    s = st.ghz_state(2)
    with pytest.raises(ValueError, match="not unitary"):
        st.apply_local(s, [I2, 2 * I2], mode="unitary")


def test_apply_local_rejects_singular_slocc():
    s = st.ghz_state(2)
    with pytest.raises(ValueError, match="singular"):
        st.apply_local(s, [I2, np.array([[1, 1], [1, 1]], dtype=complex)], mode="slocc")


def test_apply_local_unitary_norm_preserved():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(1000):
        s = st.random_state((2, 2, 2), 10_000 + i)
        ops = [st.haar_unitary(2, rng) for _ in range(3)]
        out = st.apply_local(s, ops, mode="unitary")
        worst = max(worst, abs(np.linalg.norm(out.amps) - 1.0))
    assert worst < 1e-12


def test_partial_trace_ghz_pair_is_separable_mixture():
    rho = st.partial_trace(st.ghz_state(3), (0, 1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(rho.entries - expected).max() < 1e-14


def test_partial_trace_ghz_single_site_maximally_mixed():
    rho = st.partial_trace(st.ghz_state(3), (0,))
    assert np.abs(rho.entries - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_product_state_is_rank_one():
    s = st.product_state([[1, 1j], [2, 1], [1, 0]])
    for site in range(3):
        rho = st.partial_trace(s, (site,))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_subsets():
    s = st.ghz_state(3)
    with pytest.raises(ValueError):
        st.partial_trace(s, ())
    with pytest.raises(ValueError):
        st.partial_trace(s, (0, 1, 2))


def test_partial_trace_output_valid_density_matrix():
    for seed in range(20):
        s = st.random_state((2, 3, 2), seed)
        for keep in [(0,), (1,), (0, 2)]:
            st.validate_density_matrix(st.partial_trace(s, keep))


@pytest.mark.parametrize("entries, message", [
    ([[0.5, 1e-13], [0.0, 0.5]], None),
    ([[0.5, 1e-11], [0.0, 0.5]], "matrix is not Hermitian"),
    ([[0.5, 0.0], [0.0, 0.5 + 1e-13]], None),
    ([[0.5, 0.0], [0.0, 0.5 + 1e-11]], "trace is not 1"),
    ([[1.0 + 1e-11, 0.0], [0.0, -1e-11]], None),
    ([[1.0 + 1e-9, 0.0], [0.0, -1e-9]], "matrix has a negative eigenvalue"),
])
def test_validate_density_matrix_bounds(entries, message):
    # Hermiticity and trace hold to 1e-12, eigenvalues down to -1e-10
    dm = st.DensityMatrix(dim=2, entries=np.array(entries, dtype=complex))
    if message is None:
        st.validate_density_matrix(dm)
    else:
        with pytest.raises(ValueError, match=message):
            st.validate_density_matrix(dm)


def test_schmidt_bell():
    dec = st.schmidt(st.new_state((2, 2), BELL_PHI_PLUS),
                     st.Bipartition.of([0], 2))
    assert np.allclose(dec.lambdas, [0.5, 0.5])
    assert dec.rank == 2


def test_schmidt_product():
    s = st.product_state([[1, 0], [1, 1]])
    dec = st.schmidt(s, st.Bipartition.of([0], 2))
    assert dec.lambdas[0] == pytest.approx(1.0, abs=1e-12)
    assert dec.rank == 1


def test_schmidt_ghz_one_vs_two():
    dec = st.schmidt(st.ghz_state(3), st.Bipartition.of([0], 3))
    assert np.allclose(dec.lambdas, [0.5, 0.5])


def test_schmidt_matches_reduction_spectra():
    for seed in range(10):
        s = st.random_state((2, 2, 2, 2), seed)
        for left in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]:
            bp = st.Bipartition.of(left, 4)
            dec = st.schmidt(s, bp)
            lam_l = st.partial_trace(s, bp.left_sites).eigenvalues()
            lam_r = st.partial_trace(s, bp.right_sites).eigenvalues()
            r = len(dec.lambdas)
            assert np.abs(dec.lambdas - lam_l[:r]).max() < 1e-10
            assert np.abs(dec.lambdas - lam_r[:r]).max() < 1e-10
            for basis in (dec.left_basis, dec.right_basis):
                gram = basis.conj().T @ basis
                assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10
            # reconstruct |psi> = sum_i sqrt(l_i) |u_i>|v_i>
            rebuilt = np.zeros(16, dtype=complex)
            perm = bp.left_sites + bp.right_sites
            for i in range(r):
                prod = np.outer(dec.left_basis[:, i], dec.right_basis[:, i]).ravel()
                rebuilt += np.sqrt(dec.lambdas[i]) * prod
            t = rebuilt.reshape([2] * 4)
            t = np.transpose(t, np.argsort(perm)).ravel()
            assert np.abs(t - s.amps).max() < 1e-10


def test_bipartition_validation():
    with pytest.raises(ValueError):
        st.Bipartition.of([], 3)
    with pytest.raises(ValueError):
        st.Bipartition.of([0, 1, 2], 3)
    with pytest.raises(ValueError):
        st.Bipartition.of([3], 3)


def test_spectra_report_maximally_mixed_qubit():
    dm = st.DensityMatrix(dim=2, entries=np.eye(2, dtype=complex) / 2)
    rep = st.spectra_report(dm)
    assert rep.von_neumann_entropy == pytest.approx(math.log(2), abs=1e-12)
    assert rep.purity == pytest.approx(0.5, abs=1e-12)


def test_spectra_report_pure_projector():
    v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    dm = st.DensityMatrix(dim=2, entries=np.outer(v, v.conj()))
    rep = st.spectra_report(dm)
    assert rep.von_neumann_entropy == pytest.approx(0.0, abs=1e-12)
    assert rep.purity == pytest.approx(1.0, abs=1e-12)


def test_spectra_report_w_reduction_purity():
    rho = st.partial_trace(st.w_state(3), (0,))
    rep = st.spectra_report(rho)
    assert rep.purity == pytest.approx(5 / 9, abs=1e-12)
    assert np.allclose(rep.eigenvalues, [2 / 3, 1 / 3])


def test_spectra_report_bounds():
    for seed in range(20):
        s = st.random_state((2, 2, 3), seed)
        rep = st.spectra_report(st.partial_trace(s, (2,)))
        assert -1e-12 <= rep.linear_entropy <= 1 - 1 / 3 + 1e-12
        assert rep.von_neumann_entropy <= math.log(3) + 1e-12


def test_random_state_deterministic():
    a = st.random_state((2, 2, 2), 123)
    b = st.random_state((2, 2, 2), 123)
    assert np.array_equal(a.amps, b.amps)
    c = st.random_state((2, 2, 2), 124)
    assert not np.array_equal(a.amps, c.amps)


def test_random_state_unit_norm():
    for seed in range(50):
        s = st.random_state((3, 2, 2), seed)
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def _exact_page_mean(m: int, n: int) -> float:
    return sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)


def test_random_state_single_site_entropy_tracks_page():
    # Fubini-Study sampler oracle: the mean 1-site reduction entropy of
    # 10-qubit samples must match the exact Page mean within 3 standard
    # errors, and sit within the asymptotic formula's own truncation gap
    # of 0.5 * N^-K (plus sampling noise) from page_expected_entropy.
    rng = np.random.default_rng(2024)
    samples = 10_000
    ent = np.empty(samples)
    for i in range(samples):
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        v /= np.linalg.norm(v)
        m = v.reshape(2, 512)
        lam = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0, None)
        lam = lam[lam > 0]
        ent[i] = -(lam * np.log(lam)).sum()
    se = ent.std(ddof=1) / np.sqrt(samples)
    assert abs(ent.mean() - _exact_page_mean(2, 512)) < 3 * se
    gap = abs(ent.mean() - st.page_expected_entropy(1, 9, 2))
    assert gap < 0.5 * 2.0 ** -10 + 5 * se + 1e-4


def test_page_expected_entropy_values():
    # |X| ln N - 0.5 N^(|X|-|Xbar|) evaluated literally
    assert st.page_expected_entropy(1, 9, 2) == pytest.approx(
        math.log(2) - 0.5 * 2.0 ** -8, abs=1e-15)
    for k, n in [(2, 2), (3, 4)]:
        assert st.page_expected_entropy(k, k, n) == pytest.approx(
            k * math.log(n) - 0.5, abs=1e-15)
    val = st.page_expected_entropy(3, 20, 2)
    assert val == pytest.approx(3 * math.log(2), abs=1e-4)  # correction negligible
    assert val < 3 * math.log(2)


def test_page_expected_entropy_rejects_bad_split():
    with pytest.raises(ValueError):
        st.page_expected_entropy(9, 1, 2)


def test_state_file_ghz(tmp_path):
    path = tmp_path / "ghz.state"
    path.write_text("dims 2 2 2\n000 1 0\n111 1 0\n")
    s = st.read_state_file(path)
    assert s.fidelity(st.ghz_state(3)) == pytest.approx(1.0, abs=1e-12)


def test_state_file_comments_only_is_zero_vector(tmp_path):
    path = tmp_path / "empty.state"
    path.write_text("dims 2 2\n# nothing here\n")
    with pytest.raises(st.FormatError, match="zero vector"):
        st.read_state_file(path)


def test_state_file_digit_out_of_range(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text("dims 2 2 2\n112 1 0\n")
    with pytest.raises(st.FormatError, match="line 2"):
        st.read_state_file(path)


def test_state_file_duplicate_basis_string(tmp_path):
    path = tmp_path / "dup.state"
    path.write_text("dims 2 2\n00 1 0\n00 0 1\n")
    with pytest.raises(st.FormatError, match="duplicate"):
        st.read_state_file(path)


def test_state_file_scientific_notation_and_inline_comments(tmp_path):
    path = tmp_path / "sci.state"
    path.write_text("dims 2 2\n00 1e-3 -2.5E-4   # tiny\n11 0.5 0\n")
    s = st.read_state_file(path)
    raw = np.array([1e-3 - 2.5e-4j, 0, 0, 0.5])
    assert np.abs(s.amps - raw / np.linalg.norm(raw)).max() < 1e-15


def test_state_file_rejects_garbage(tmp_path):
    for body, match in [("dims 2 x\n", "non-integer"),
                        ("dims 2 2\n00 1\n", "fields"),
                        ("dims 2 2\nzz 1 0\n", "digits"),
                        ("00 1 0\n", "dims"),
                        ("dims 1 2\n00 1 0\n", ">= 2")]:
        path = tmp_path / "bad.state"
        path.write_text(body)
        with pytest.raises(st.FormatError, match=match):
            st.read_state_file(path)


def test_state_file_round_trip(tmp_path):
    s = st.random_state((2, 3, 2), 5)
    path = tmp_path / "rt.state"
    st.write_state_file(path, s)
    back = st.read_state_file(path)
    assert np.abs(back.amps - s.amps).max() < 1e-15


def test_state_file_writer_refuses_threshold_that_keeps_nothing(tmp_path):
    path = tmp_path / "kept.state"
    path.write_text("dims 2\n1 1 0\n")
    with pytest.raises(ValueError, match="threshold 2.0 keeps no amplitude"):
        st.write_state_file(path, st.random_state((2, 2, 2), 1), threshold=2.0)
    assert path.read_text() == "dims 2\n1 1 0\n"


@pytest.mark.parametrize("dims", [(11, 2), (12, 3)])
def test_state_file_round_trip_large_local_dims(tmp_path, dims):
    s = st.random_state(dims, 3)
    path = tmp_path / "big.state"
    st.write_state_file(path, s)
    assert "10,1 " in path.read_text()
    back = st.read_state_file(path)
    assert back.dims == dims
    assert np.abs(back.amps - s.amps).max() < 1e-15


def test_state_file_compact_labels_up_to_ten(tmp_path):
    path = tmp_path / "ten.state"
    st.write_state_file(path, st.basis_state((10, 2), [9, 1]))
    assert path.read_text() == "dims 10 2\n91 1.0 0.0\n"


def test_state_file_accepts_both_label_forms(tmp_path):
    path = tmp_path / "mixed.state"
    path.write_text("dims 11 2\n01 1 0\n10,1 1 0\n")
    s = st.read_state_file(path)
    assert np.abs(s.amps[[1, 21]] - 1 / np.sqrt(2)).max() < 1e-15
    path.write_text("dims 11 2\n01 1 0\n0,1 1 0\n")
    with pytest.raises(st.FormatError, match="line 3: duplicate"):
        st.read_state_file(path)


def test_state_file_rejects_non_ascii_digits_and_non_finite(tmp_path):
    for body, match in [("dims 2 2\n0² 1 0\n", "line 2: basis string"),
                        ("dims 2 ²\n", "line 1: non-integer"),
                        ("dims 2 2\n00 nan 0\n", "line 2: non-numeric or non-finite field .nan."),
                        ("dims 2 2\n00 1 x\n", "line 2: non-numeric")]:
        path = tmp_path / "bad.state"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(st.FormatError, match=match):
            st.read_state_file(path)


def test_state_file_rejects_huge_dims_and_binary(tmp_path):
    path = tmp_path / "huge.state"
    path.write_text("dims 1000 1000 1000\n")
    with pytest.raises(st.FormatError, match="line 1: dims"):
        st.read_state_file(path)
    path.write_bytes(b"dims 2\n\xff\xfe 1 0\n")
    with pytest.raises(st.FormatError, match="UTF-8"):
        st.read_state_file(path)
