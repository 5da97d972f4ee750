import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from entkit import states as st
from entkit import mps as mp


def test_from_dense_ghz_w_bond_ranks():
    for K in (4, 8, 12):
        assert mp.from_dense(st.ghz_state(K)).bond_dims == (2,) * (K - 1)
        assert mp.from_dense(st.w_state(K)).bond_dims == (2,) * (K - 1)


def test_from_dense_product_state_rank_one():
    s = st.product_state([[1, 1j], [2, 1], [1, -1], [0, 1]])
    assert mp.from_dense(s).bond_dims == (1, 1, 1)


def test_rank_bound_and_exactness():
    for seed in range(5):
        s = st.random_state((2,) * 9, seed)
        m = mp.from_dense(s)
        K = 9
        for k, r in enumerate(m.bond_dims, start=1):
            assert r <= 2 ** (K // 2)
            assert r == min(2 ** k, 2 ** (K - k))


def test_canonical_conditions_hold():
    for seed in range(10):
        m = mp.from_dense(st.random_state((2,) * 8, seed))
        assert mp.check_canonical(m).max_residual < 1e-10


def test_spectra_match_schmidt():
    s = st.random_state((2,) * 8, 5)
    m = mp.from_dense(s)
    for bond in range(7):
        dec = st.schmidt(s, st.Bipartition.of(range(bond + 1), 8))
        lam = np.asarray(m.spectra[bond])
        assert np.abs(lam - dec.lambdas[:len(lam)]).max() < 1e-10


def test_round_trip_fidelity():
    for seed in range(100):
        s = st.random_state((2,) * 8, 70_000 + seed)
        back = mp.to_dense(mp.from_dense(s))
        assert abs(s.overlap(back)) ** 2 >= 1 - 1e-10


def test_round_trip_qutrits():
    s = st.random_state((3, 3, 3, 3), 1)
    assert mp.to_dense(mp.from_dense(s)).fidelity(s) >= 1 - 1e-12


def test_round_trip_mixed_local_dims():
    s = st.random_state((2, 3, 2, 4), 2)
    m = mp.from_dense(s)
    assert m.dims == (2, 3, 2, 4)
    assert mp.check_canonical(m).max_residual < 1e-10
    assert mp.to_dense(m).fidelity(s) >= 1 - 1e-12
    t, _ = mp.truncate(m, 2)
    kept = abs(mp.to_dense(t).overlap(s)) ** 2
    assert 0 < kept <= 1 + 1e-12


def test_dmrg_qutrit_chain():
    rng = np.random.default_rng(55)
    bonds = []
    for _ in range(4):
        h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        bonds.append((h + h.conj().T) / 2)
    ham = mp.NnHamiltonian(num_sites=5, local_dim=3, bond_ops=tuple(bonds))
    res = mp.dmrg_ground_state(ham, 9, tol=1e-12, seed=3)
    exact = float(np.linalg.eigvalsh(mp.dense_hamiltonian(ham))[0])
    assert abs(res.energy - exact) < 1e-8


def test_to_dense_guard():
    tensors = tuple(np.zeros((1, 2, 1), dtype=complex) for _ in range(30))
    m = mp.MpsState(tensors=tensors, boundary="open")
    with pytest.raises(ValueError, match="guard"):
        mp.to_dense(m)


def test_periodic_ghz_matrices():
    for K in (3, 6):
        dense = mp.to_dense(mp.ghz_periodic_mps(K))
        assert dense.fidelity(st.ghz_state(K)) == pytest.approx(1.0, abs=1e-12)


def test_periodic_single_site_trace():
    a = np.arange(8, dtype=complex).reshape(2, 2, 2)
    m = mp.MpsState(tensors=(np.moveaxis(a, 0, 1),), boundary="periodic")
    dense = mp.to_dense(m)
    traces = np.array([np.trace(a[i]) for i in range(2)])
    traces /= np.linalg.norm(traces)
    assert np.abs(dense.amps - traces).max() < 1e-12


def test_gauge_insertion_breaks_canonical_not_state():
    s = st.random_state((2,) * 6, 9)
    m = mp.from_dense(s)
    rng = np.random.default_rng(0)
    bond = 2
    g = rng.standard_normal((m.bond_dims[bond], m.bond_dims[bond])) + \
        1j * rng.standard_normal((m.bond_dims[bond], m.bond_dims[bond]))
    tensors = list(m.tensors)
    tensors[bond] = np.tensordot(tensors[bond], g, axes=([2], [0]))
    tensors[bond + 1] = np.tensordot(np.linalg.inv(g), tensors[bond + 1],
                                     axes=([1], [0]))
    gauged = mp.MpsState(tensors=tuple(tensors), boundary="open",
                         spectra=m.spectra)
    assert mp.check_canonical(gauged).max_residual > 1e-3
    assert abs(mp.overlap(m, gauged) - 1) < 1e-10


def test_product_mps_residual_exact_zero():
    s = st.product_state([[1, 0], [0, 1], [1, 0]])
    m = mp.from_dense(s)
    res = mp.check_canonical(m)
    assert res.max_residual == 0.0


def test_truncate_ghz_to_product():
    m = mp.from_dense(st.ghz_state(8))
    t, discarded = mp.truncate(m, 1)
    assert t.bond_dims == (1,) * 7
    assert abs(mp.to_dense(t).overlap(st.ghz_state(8))) ** 2 == \
        pytest.approx(0.5, abs=1e-10)
    assert discarded[0] == pytest.approx(0.5, abs=1e-12)


def test_truncated_state_is_exactly_canonical():
    m = mp.from_dense(st.random_state((2,) * 9, 21))
    for D in (2, 4):
        t, discarded = mp.truncate(m, D)
        assert max(t.bond_dims) <= D
        assert max(discarded) > 1e-3        # genuinely lossy
        assert mp.check_canonical(t).max_residual < 1e-10


def test_truncate_noop_when_bond_sufficient():
    s = st.random_state((2,) * 8, 11)
    m = mp.from_dense(s)
    t, discarded = mp.truncate(m, 16)
    assert max(discarded) == 0.0
    # identical including the global phase
    assert abs(mp.to_dense(t).overlap(s) - 1) < 1e-10


def test_truncate_single_central_bond_optimal():
    rng = np.random.default_rng(13)
    s = st.random_state((2,) * 8, 13)
    m = mp.from_dense(s)
    D = 8
    t, _ = mp.truncate(m, D)
    kept = float(np.sort(np.asarray(m.spectra[3]))[::-1][:D].sum())
    got = abs(mp.to_dense(t).overlap(s)) ** 2
    assert got == pytest.approx(kept, abs=1e-9)
    # Eckart-Young: no random rank-D state across the same cut beats it
    left = s.amps.reshape(16, 16)
    for _ in range(1000):
        a = rng.standard_normal((16, D)) + 1j * rng.standard_normal((16, D))
        b = rng.standard_normal((D, 16)) + 1j * rng.standard_normal((D, 16))
        cand = a @ b
        cand /= np.linalg.norm(cand)
        assert abs(np.vdot(cand, left)) ** 2 <= got + 1e-12


def test_overlap_rejects_shape_mismatch():
    a = mp.random_mps(5, 2, 3, 0)
    b = mp.random_mps(6, 2, 3, 0)
    with pytest.raises(ValueError, match="mismatch"):
        mp.overlap(a, b)


def test_overlap_ghz_w_disjoint():
    a = mp.from_dense(st.ghz_state(7))
    b = mp.from_dense(st.w_state(7))
    assert abs(mp.overlap(a, b)) < 1e-14


def test_norm_of_canonical_is_one():
    m = mp.random_mps(10, 2, 4, 3)
    assert mp.norm(m) == pytest.approx(1.0, abs=1e-12)


def test_overlap_matches_dense():
    a = mp.random_mps(8, 2, 5, 1)
    b = mp.random_mps(8, 2, 6, 2)
    dense = np.vdot(mp.to_dense(a).amps, mp.to_dense(b).amps)
    assert abs(mp.overlap(a, b) - dense) < 1e-10


def test_periodic_overlap_matches_dense():
    a = mp.random_mps(6, 2, 3, 8, boundary="periodic")
    b = mp.random_mps(6, 2, 4, 9, boundary="periodic")
    dense = np.vdot(mp.to_dense(a).amps, mp.to_dense(b).amps)
    got = mp.overlap(a, b) / (mp.norm(a) * mp.norm(b))
    assert abs(got - dense) < 1e-10


@settings(max_examples=30, deadline=None, database=None)
@given(data=hs.data(), sites=hs.integers(1, 6), boundary=hs.sampled_from(["open", "periodic"]),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_overlap_matches_dense_property(data, sites, boundary, seed):
    dims = data.draw(hs.lists(hs.integers(2, 3), min_size=sites, max_size=sites))
    states = []
    for _ in range(2):       # bra and ket bonds are drawn independently
        bonds = data.draw(hs.lists(hs.integers(1, 4), min_size=sites + 1, max_size=sites + 1))
        if boundary == "open":
            bonds[0] = bonds[-1] = 1
        else:
            bonds[-1] = bonds[0]
        rng = np.random.default_rng([seed, len(states)])
        shapes = [(bonds[k], n, bonds[k + 1]) for k, n in enumerate(dims)]
        tensors = tuple(rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
        states.append(mp.MpsState(tensors=tensors, boundary=boundary))
    a, b = states
    dense = np.vdot(mp.to_dense(a).amps, mp.to_dense(b).amps)
    assert abs(mp.overlap(a, b) / (mp.norm(a) * mp.norm(b)) - dense) < 1e-10


def test_scaling_experiment_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        mp.scaling_experiment(30, 2, "random", 1, seed=0)


def test_overlap_memory_contract():
    # K = 24 qubits: the dense amplitudes alone would take 256 MiB; only the
    # environment and one site-sized temporary may ever be alive
    for boundary, (d_bra, d_ket) in [("open", (5, 7)), ("periodic", (3, 4))]:
        a = mp.random_mps(24, 2, d_bra, 4, boundary=boundary)
        b = mp.random_mps(24, 2, d_ket, 5, boundary=boundary)
        tracemalloc.start()
        try:
            mp.overlap(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024, boundary


def test_entropy_ghz_and_product():
    g = mp.from_dense(st.ghz_state(9))
    for bond in range(8):
        assert mp.entanglement_entropy(g, bond) == pytest.approx(np.log(2), abs=1e-12)
    p = mp.from_dense(st.product_state([[1, 1], [1, -1], [1, 1j]]))
    assert mp.entanglement_entropy(p, 1) == pytest.approx(0.0, abs=1e-12)


def test_entropy_autocanonicalizes():
    tensors = []
    rng = np.random.default_rng(7)
    dims = [1, 3, 3, 1]
    for k in range(3):
        shape = (dims[k], 2, dims[k + 1])
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    raw = mp.MpsState(tensors=tuple(tensors), boundary="open")
    s = mp.entanglement_entropy(raw, 1)
    dense = mp.to_dense(raw)
    dec = st.schmidt(dense, st.Bipartition.of([0, 1], 3))
    lam = dec.lambdas[dec.lambdas > 1e-15]
    assert s == pytest.approx(float(-(lam * np.log(lam)).sum()), abs=1e-10)


def test_peps_ghz_site_maps():
    maps = [mp.ghz_periodic_mps(1).tensors[0].transpose(1, 0, 2)] * 5
    psi = mp.peps_1d(maps, 2)
    assert psi.fidelity(st.ghz_state(5)) == pytest.approx(1.0, abs=1e-12)


def test_peps_bond_one_gives_product():
    rng = np.random.default_rng(2)
    maps = [rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
            for _ in range(4)]
    psi = mp.peps_1d(maps, 1)
    m = mp.from_dense(psi)
    assert m.bond_dims == (1, 1, 1)


def test_peps_matches_periodic_evaluation():
    rng = np.random.default_rng(3)
    maps = [rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
            for _ in range(6)]
    psi = mp.peps_1d(maps, 3)
    per = mp.MpsState(tensors=tuple(np.moveaxis(m, 0, 1) for m in maps),
                      boundary="periodic")
    assert psi.fidelity(mp.to_dense(per)) == pytest.approx(1.0, abs=1e-10)


def test_dmrg_ising_zero_field():
    res = mp.dmrg_ground_state(mp.ising_hamiltonian(8, 0.0), 4, seed=1)
    assert res.energy == pytest.approx(-7.0, abs=1e-9)
    assert res.converged


def test_dmrg_matches_exact_diagonalization():
    for g in (0.5, 1.0):
        ham = mp.ising_hamiltonian(8, g)
        res = mp.dmrg_ground_state(ham, 16, tol=1e-12, seed=2)
        exact = float(np.linalg.eigvalsh(mp.dense_hamiltonian(ham))[0])
        assert abs(res.energy - exact) < 1e-8
        diffs = np.diff(res.rayleigh_history)
        assert np.all(diffs <= 1e-12)


def test_dmrg_heisenberg():
    ham = mp.heisenberg_hamiltonian(8)
    res = mp.dmrg_ground_state(ham, 16, tol=1e-12, seed=4)
    exact = float(np.linalg.eigvalsh(mp.dense_hamiltonian(ham))[0])
    assert abs(res.energy - exact) < 1e-8


def test_dmrg_larger_bond_never_worse():
    ham = mp.ising_hamiltonian(10, 1.0)
    e2 = mp.dmrg_ground_state(ham, 2, tol=1e-12, seed=5).energy
    e4 = mp.dmrg_ground_state(ham, 4, tol=1e-12, seed=5).energy
    assert e4 <= e2 + 1e-12


def test_nn_hamiltonian_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        mp.NnHamiltonian(num_sites=3, local_dim=2,
                         bond_ops=(np.eye(4), np.ones((4, 4)) * 1j))


def test_scaling_experiment_random_branch():
    table = mp.scaling_experiment(8, 2, "random", 60, seed=6)
    assert [r.size_x for r in table.rows] == [1, 2, 3, 4]
    for r in table.rows:
        assert abs(r.mean_entropy - r.reference) < 0.05
    means = [r.mean_entropy for r in table.rows]
    assert all(a < b for a, b in zip(means, means[1:]))  # volume-law growth


def test_scaling_experiment_mps_branch():
    table = mp.scaling_experiment(20, 2, 4, 10, seed=7)
    for r in table.rows:
        assert r.max_entropy <= np.log(4) + 1e-12
        assert r.reference == pytest.approx(np.log(4))


def test_mps_file_round_trip(tmp_path):
    m = mp.from_dense(st.random_state((2,) * 7, 8))
    path = tmp_path / "state.mps"
    mp.write_mps_file(path, m)
    back = mp.read_mps_file(path)
    assert back.boundary == "open"
    assert abs(abs(mp.overlap(m, back)) - 1) < 1e-10
    assert back.spectra is not None
    assert np.abs(np.asarray(back.spectra[3]) - np.asarray(m.spectra[3])).max() < 1e-15


def _mps_lines(tmp_path, num_sites=4):
    m = mp.from_dense(st.random_state((2,) * num_sites, 8))
    path = tmp_path / "state.mps"
    mp.write_mps_file(path, m)
    return path, path.read_text().splitlines(keepends=True)


def test_mps_file_rejects_bonds_out_of_order(tmp_path):
    path, lines = _mps_lines(tmp_path)   # bond ranks 2, 4, 2
    b1, b3 = lines.index("bond 1\n"), lines.index("bond 3\n")
    lines[b1], lines[b3] = "bond 3\n", "bond 1\n"
    path.write_text("".join(lines))
    with pytest.raises(st.FormatError, match=f"line {b1 + 1}: expected 'bond 1'"):
        mp.read_mps_file(path)


def test_mps_file_rejects_duplicate_bond(tmp_path):
    path, lines = _mps_lines(tmp_path)
    b3 = lines.index("bond 3\n")
    lines[b3] = "bond 1\n"
    path.write_text("".join(lines))
    with pytest.raises(st.FormatError, match=f"line {b3 + 1}: expected 'bond 3'"):
        mp.read_mps_file(path)


def test_mps_file_rejects_missing_bonds(tmp_path):
    path, lines = _mps_lines(tmp_path)
    path.write_text("".join(lines[:lines.index("bond 2\n")]))
    with pytest.raises(st.FormatError, match="^missing bond records: expected 3, found 1$"):
        mp.read_mps_file(path)


def test_mps_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.mps"
    for body, match in [("mps 2 2 open\nsite 1 two 2\n", "line 2: non-integer"),
                        ("mps 2 2 open\nsite 1 1 1\n1 0\n0 x\n", "line 4: non-numeric"),
                        ("mps 1 2 open\nsite 1 1 1\n1 0\n", "^file ends before"),
                        ("mps 2 2 open\nsite 1 1 2\n" + "1 0\n" * 4 + "site 2 1 1\n",
                         "line 7: site 2 bonds"),
                        ("mps 1 2 sideways\n", "line 1: expected 'mps K N"),
                        ("mps 1 2 open\nsite 1 1 1\n1 0\n0 0\nbond 1\n", "line 5: unexpected")]:
        path.write_text(body)
        with pytest.raises(st.FormatError, match=match):
            mp.read_mps_file(path)
