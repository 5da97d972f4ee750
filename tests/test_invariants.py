from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from entkit import states as st
from entkit import invariants as inv
from entkit import polytope as poly


def _rand3(seed):
    return st.random_state((2, 2, 2), seed)


def _bounded_sl2(rng):
    """Random unit-determinant 2x2 with singular values in [1/2, 2]."""
    u = st.haar_unitary(2, rng)
    v = st.haar_unitary(2, rng)
    s = rng.uniform(0.5, 2.0)
    m = u @ np.diag([s, 1.0 / s]) @ v
    return m / np.sqrt(np.linalg.det(m))


def _ivec(li):
    return np.array([li.i1, li.i2, li.i3, li.i4, li.i5, li.i6])


TABLE_ROWS = [
    ("separable", lambda: st.basis_state((2, 2, 2), "000"), (1, 1, 1, 1, 0)),
    ("bisep_a", lambda: st.new_state((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0]),
     (1, 0.5, 0.5, 0.25, 0)),
    ("bisep_b", lambda: st.new_state((2, 2, 2), [1, 0, 0, 0, 0, 1, 0, 0]),
     (0.5, 1, 0.5, 0.25, 0)),
    ("bisep_c", lambda: st.new_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 1, 0]),
     (0.5, 0.5, 1, 0.25, 0)),
    ("w", lambda: st.w_state(3), (5 / 9, 5 / 9, 5 / 9, 2 / 9, 0)),
    ("ghz", lambda: st.ghz_state(3), (0.5, 0.5, 0.5, 0.25, 0.25)),
]


@pytest.mark.parametrize("name,make,expected", TABLE_ROWS)
def test_lu_invariant_table(name, make, expected):
    li = inv.lu_invariants(make())
    got = (li.i2, li.i3, li.i4, li.i5, li.i6)
    assert np.abs(np.array(got) - np.array(expected)).max() < 1e-10
    assert li.i1 == pytest.approx(1.0, abs=1e-12)


def test_lu_invariance_under_local_unitaries():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(1000):
        s = _rand3(20_000 + i)
        li = inv.lu_invariants(s)
        assert 0.5 - 1e-9 <= min(li.i2, li.i3, li.i4) <= max(li.i2, li.i3, li.i4) <= 1 + 1e-9
        assert 2 / 9 - 1e-9 <= li.i5 <= 1 + 1e-9
        assert -1e-9 <= li.i6 <= 0.25 + 1e-9
        before = _ivec(li)
        rotated = st.apply_local(s, [st.haar_unitary(2, rng) for _ in range(3)])
        after = _ivec(inv.lu_invariants(rotated))
        worst = max(worst, np.abs(before - after).max())
    assert worst < 1e-9


def test_conjugation_blindness():
    for seed in range(50):
        s = _rand3(seed)
        conj = st.new_state((2, 2, 2), s.amps.conj())
        a, b = _ivec(inv.lu_invariants(s)), _ivec(inv.lu_invariants(conj))
        assert np.abs(a - b).max() < 1e-12


def test_kempe_equals_partial_transpose_cube():
    for seed in range(200):
        s = _rand3(seed)
        rho_bc = st.partial_trace(s, (1, 2)).entries
        pt = rho_bc.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        oracle = np.trace(np.linalg.matrix_power(pt, 3)).real
        assert abs(inv.kempe_invariant(s) - oracle) < 1e-9


def test_kempe_splitting_identities():
    for seed in range(200):
        s = _rand3(seed)
        i5 = inv.kempe_invariant(s)
        for pair, single_a, single_b in [((0, 1), 0, 1), ((0, 2), 0, 2), ((1, 2), 1, 2)]:
            rho_ab = st.partial_trace(s, pair).entries
            ra = st.partial_trace(s, (single_a,)).entries
            rb = st.partial_trace(s, (single_b,)).entries
            mixed = 3 * np.trace(np.kron(ra, rb) @ rho_ab).real
            cubes = (np.trace(np.linalg.matrix_power(ra, 3)).real
                     + np.trace(np.linalg.matrix_power(rb, 3)).real)
            assert abs(i5 - (mixed - cubes)) < 1e-9


def test_two_by_two_trace_syzygy():
    for seed in range(100):
        s = _rand3(seed)
        for site in range(3):
            rho = st.partial_trace(s, (site,)).entries
            t1 = np.trace(rho).real
            t2 = np.trace(rho @ rho).real
            t3 = np.trace(rho @ rho @ rho).real
            assert abs(2 * t3 - (3 * t1 * t2 - t1 ** 3)) < 1e-10


def test_hyperdeterminant_slocc_relative_invariance():
    rng = np.random.default_rng(5)
    for seed in range(200):
        s = _rand3(seed)
        d_before = inv.hyperdeterminant3(s.amps)
        ops = [_bounded_sl2(rng) for _ in range(3)]
        out = st.apply_local(s, ops, mode="slocc")
        # unit determinants: Det3 changes only through the renormalization
        d_after = inv.hyperdeterminant3(out.amps) * out.norm_factor ** 4
        assert abs(d_before - d_after) < 1e-9


def test_kempe_lower_bound_and_w_attains():
    assert inv.kempe_invariant(st.w_state(3)) == pytest.approx(2 / 9, abs=1e-12)
    rng = np.random.default_rng(1)
    lo, hi = np.inf, -np.inf
    for _ in range(10):     # 10 chunks of 1e4 samples
        v = rng.standard_normal((10_000, 8)) + 1j * rng.standard_normal((10_000, 8))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        g = v.reshape(-1, 2, 2, 2)
        vals = np.einsum("rabc,rdef,rghi,raei,rdhc,rgbf->r",
                         g, g, g, g.conj(), g.conj(), g.conj(),
                         optimize=True).real
        lo, hi = min(lo, vals.min()), max(hi, vals.max())
        # the batched contraction agrees with the scalar operation
        probe = int(np.argmin(vals))
        assert abs(vals[probe]
                   - inv.kempe_invariant(st.new_state((2, 2, 2), v[probe]))) < 1e-12
    assert lo >= 2 / 9 - 1e-9
    assert hi <= 1 + 1e-9


def test_concurrence_bell():
    bell = st.new_state((2, 2), [1, 0, 0, 1]).amps
    dm = st.DensityMatrix(dim=4, entries=np.outer(bell, bell.conj()))
    c, tau = inv.concurrence_tangle_mixed(dm)
    assert c == pytest.approx(1.0, abs=1e-10)
    assert tau == pytest.approx(1.0, abs=1e-10)


def test_concurrence_maximally_mixed():
    dm = st.DensityMatrix(dim=4, entries=np.eye(4, dtype=complex) / 4)
    c, tau = inv.concurrence_tangle_mixed(dm)
    assert c == 0.0 and tau == 0.0


def test_concurrence_w_pair():
    dm = st.partial_trace(st.w_state(3), (0, 1))
    _, tau = inv.concurrence_tangle_mixed(dm)
    assert tau == pytest.approx(4 / 9, abs=1e-10)


def test_wootters_route_matches_textbook_eigenvalues():
    # production route: singular values of Psi^T (YY) Psi for rho = Psi Psi^dag;
    # oracle: sqrt eigenvalues of rho (YY) rho* (YY)
    yy = np.kron(inv.SIGMA_Y, inv.SIGMA_Y)
    rng = np.random.default_rng(77)
    for _ in range(200):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = b @ b.conj().T
        rho /= np.trace(rho).real
        oracle = np.sqrt(np.clip(np.sort(
            np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real)[::-1], 0, None))
        ours = inv.wootters_sqrt_eigenvalues(rho)
        assert np.abs(ours - oracle).max() < 1e-10


def test_concurrence_rejects_non_psd():
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        inv.concurrence_tangle_mixed(st.DensityMatrix(dim=4, entries=bad))


def test_tangle_pure2_values():
    bell = st.new_state((2, 2), [1, 0, 0, 1])
    assert inv.tangle_pure2(bell) == pytest.approx(1.0, abs=1e-12)
    assert inv.tangle_pure2(st.basis_state((2, 2), "00")) == 0.0
    theta = np.pi / 8
    s = st.new_state((2, 2), [np.cos(theta), 0, 0, np.sin(theta)])
    assert inv.tangle_pure2(s) == pytest.approx(0.5, abs=1e-12)


def _tangle_pure2_spinflip(state):
    """Two-qubit tangle through |<psi| sigma_y x sigma_y |psi*>|^2, the cross-check form."""
    yy = np.kron(inv.SIGMA_Y, inv.SIGMA_Y)
    return float(abs(np.vdot(state.amps, yy @ state.amps.conj())) ** 2)


def test_tangle_pure2_matches_spin_flip_form():
    for seed in range(100):
        s = st.random_state((2, 2), seed)
        assert abs(inv.tangle_pure2(s) - _tangle_pure2_spinflip(s)) < 1e-10


def test_tangle_report_ghz():
    tr = inv.tangle_report(st.ghz_state(3))
    assert tr.tau1 == pytest.approx(1.0, abs=1e-10)
    assert tr.tau2 == pytest.approx(0.0, abs=1e-10)
    assert tr.tau3 == pytest.approx(1.0, abs=1e-10)


def test_tangle_report_w():
    tr = inv.tangle_report(st.w_state(3))
    assert tr.tau2 == pytest.approx(4 / 9, abs=1e-10)
    assert tr.tau3 == pytest.approx(0.0, abs=1e-9)
    assert tr.tau_a_bc == pytest.approx(8 / 9, abs=1e-10)


def test_tangle_report_monogamy_and_cross_check():
    for seed in range(500):
        s = _rand3(seed)
        tr = inv.tangle_report(s)
        assert min(tr.monogamy_residuals) >= -1e-9
        assert tr.tau1 >= tr.tau2 - 1e-12
        assert abs(tr.tau3 - 4 * abs(inv.hyperdeterminant3(s.amps))) < 1e-7


def test_four_tangle_values():
    assert inv.four_tangle(st.ghz_state(4)) == pytest.approx(1.0, abs=1e-12)
    assert inv.four_tangle(st.basis_state((2,) * 4, "0000")) == 0.0
    assert inv.four_tangle(st.w_state(4)) == pytest.approx(0.0, abs=1e-12)


def test_four_tangle_permutation_invariant():
    rng = np.random.default_rng(3)
    for seed in range(20):
        s = st.random_state((2,) * 4, seed)
        base = inv.four_tangle(s)
        perm = rng.permutation(4)
        t = np.transpose(s.tensor, perm).ravel()
        assert abs(inv.four_tangle(st.new_state((2,) * 4, t)) - base) < 1e-12


def test_slocc_classify_representatives():
    cases = [
        (st.basis_state((2, 2, 2), "000"), "Separable", (1, 1, 1)),
        (st.new_state((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0]), "BisepA", (1, 2, 2)),
        (st.new_state((2, 2, 2), [1, 0, 0, 0, 0, 1, 0, 0]), "BisepB", (2, 1, 2)),
        (st.new_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 1, 0]), "BisepC", (2, 2, 1)),
        (st.w_state(3), "W", (2, 2, 2)),
        (st.ghz_state(3), "GHZ", (2, 2, 2)),
    ]
    for state, label, ranks in cases:
        cls = inv.slocc_classify3(state)
        assert cls.label == label
        assert cls.local_ranks == ranks
    assert inv.slocc_classify3(st.w_state(3)).det3_abs < 1e-12


def test_slocc_singular_values_give_local_ranks():
    rng = np.random.default_rng(12)
    states = [st.basis_state((2, 2, 2), "000"), st.w_state(3), st.ghz_state(3),
              st.new_state((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0])]
    states += [st.random_state((2, 2, 2), int(seed)) for seed in rng.integers(1 << 30, size=5)]
    for state in states:
        cls = inv.slocc_classify3(state)
        assert len(cls.singular_values) == 3
        for svals, rank in zip(cls.singular_values, cls.local_ranks):
            assert all(type(x) is float for x in svals)
            assert abs(sum(x * x for x in svals) - 1.0) < 1e-12
            assert sum(x > inv.DET3_CLASS_TOL for x in svals) == rank


def test_slocc_class_stable_under_unit_det_maps():
    rng = np.random.default_rng(8)
    for state, label in [(st.ghz_state(3), "GHZ"), (st.w_state(3), "W")]:
        for _ in range(25):
            ops = [_bounded_sl2(rng) for _ in range(3)]
            out = st.apply_local(state, ops, mode="slocc")
            assert inv.slocc_classify3(out).label == label


def test_canonical_form_basis_state():
    cf = inv.canonical_form3(st.basis_state((2, 2, 2), "111"))
    assert cf.r4 == pytest.approx(1.0, abs=1e-10)
    assert max(cf.r0, cf.r1, cf.r2, cf.r3) < 1e-10


def test_canonical_form_ghz_matches_grid_oracle():
    # closest symmetric product state by exhaustive (theta, phi) grid search
    thetas = np.linspace(0, np.pi, 181)
    phis = np.linspace(0, 2 * np.pi, 181)
    tt, pp = np.meshgrid(thetas, phis)
    overlap = np.abs(np.cos(tt / 2) ** 3 + np.exp(-3j * pp) * np.sin(tt / 2) ** 3)
    grid_best = overlap.max() / np.sqrt(2)
    cf = inv.canonical_form3(st.ghz_state(3))
    assert cf.r0 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert cf.r4 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert max(cf.r1, cf.r2, cf.r3) < 1e-9
    assert cf.phi == pytest.approx(0.0, abs=1e-9)
    assert cf.overlap >= grid_best - 1e-3


def test_canonical_form_preserves_lu_invariants():
    # the canonical amplitudes are LU-equivalent to the input by construction
    for seed in range(25):
        s = _rand3(seed)
        cf = inv.canonical_form3(s)
        canon = np.zeros(8, dtype=complex)
        canon[0b000] = cf.r0 * np.exp(1j * cf.phi)
        canon[0b100], canon[0b010], canon[0b001] = cf.r1, cf.r2, cf.r3
        canon[0b111] = cf.r4
        a = _ivec(inv.lu_invariants(s))
        b = _ivec(inv.lu_invariants(st.new_state((2, 2, 2), canon)))
        assert np.abs(a - b).max() < 1e-9


def test_canonical_form_zero_pattern_and_reconstruction():
    worst_zero = worst_rec = 0.0
    for seed in range(1000):
        s = _rand3(seed)
        cf = inv.canonical_form3(s)
        out = st.apply_local(s, cf.local_unitaries, mode="unitary")
        f = out.amps
        worst_zero = max(worst_zero, abs(f[0b110]), abs(f[0b101]), abs(f[0b011]))
        target = np.zeros(8, dtype=complex)
        target[0b000] = cf.r0 * np.exp(1j * cf.phi)
        target[0b100], target[0b010], target[0b001] = cf.r1, cf.r2, cf.r3
        target[0b111] = cf.r4
        worst_rec = max(worst_rec, float(np.abs(f - target).max()))
        norm = cf.r0 ** 2 + cf.r1 ** 2 + cf.r2 ** 2 + cf.r3 ** 2 + cf.r4 ** 2
        assert abs(norm - 1.0) < 1e-9
    assert worst_zero < 1e-8
    assert worst_rec < 1e-7


def _canonical_params(cf):
    return np.array([cf.r0, cf.r1, cf.r2, cf.r3, cf.r4]), cf.phi


def _canonical_state(r, phi):
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = r[0] * np.exp(1j * phi)
    amps[0b100], amps[0b010], amps[0b001], amps[0b111] = r[1:]
    return st.new_state((2, 2, 2), amps)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), lu_seed=hs.integers(0, 2 ** 32 - 1))
# two grid maxima: a search from the grid's argmax alone ends on the lower one
# in one of the two frames (overlaps 0.70932 and 0.70876, 0.70588 and 0.70589)
@example(seed=4011443365, lu_seed=3414250896)
@example(seed=972331553, lu_seed=3174537163)
def test_canonical_form_is_lu_invariant(seed, lu_seed):
    s = _rand3(seed)
    rng = np.random.default_rng(lu_seed)
    r, phi = _canonical_params(inv.canonical_form3(s))
    r_lu, phi_lu = _canonical_params(inv.canonical_form3(
        st.apply_local(s, [st.haar_unitary(2, rng) for _ in range(3)])))
    r_re, phi_re = _canonical_params(inv.canonical_form3(_canonical_state(r, phi)))
    for other_r, other_phi in [(r_lu, phi_lu), (r_re, phi_re)]:
        assert np.abs(r - other_r).max() < 1e-10
        gap = (phi - other_phi) % np.pi
        assert min(gap, np.pi - gap) < 1e-10
    assert 0.0 <= phi < np.pi


def test_canonical_phase_is_zero_with_a_zero_amplitude():
    # a state on |000>, |100>, |111> has canonical amplitudes at rounding
    # level, which are reported as 0 and must not set phi in any frame
    for seed in (0, 4, 6, 7, 9):
        rng = np.random.default_rng(seed)
        amps = np.zeros(8, dtype=complex)
        amps[[0b000, 0b100, 0b111]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = st.new_state((2, 2, 2), amps)
        for _ in range(5):
            rotated = st.apply_local(s, [st.haar_unitary(2, rng) for _ in range(3)])
            cf = inv.canonical_form3(rotated)
            assert cf.phi == 0.0
            assert cf.r2 == cf.r3 == 0.0
    rng = np.random.default_rng(1)
    ghz = st.apply_local(st.ghz_state(3), [st.haar_unitary(2, rng) for _ in range(3)])
    cf = inv.canonical_form3(ghz)
    assert cf.r1 == cf.r2 == cf.r3 == 0.0


def _reference_closest_product_state(T):
    """The einsum formulation of the closest-product-state search, kept as the reference.

    32 seeded restarts iterated in lockstep for at most 512 sweeps until no
    overlap gains 1e-12, the earliest of the tied best restarts, then a polish
    of the winner; each contraction is a general einsum and the polish stops
    on a step below 1e-13.
    """
    subs = ("abc,rb,rc->ra", "abc,ra,rc->rb", "abc,ra,rb->rc")
    rng = np.random.default_rng(0x5EED)
    vecs = []
    for d in T.shape:
        x = rng.standard_normal((32, d)) + 1j * rng.standard_normal((32, d))
        vecs.append(x / np.linalg.norm(x, axis=1, keepdims=True))
    prev = np.zeros(32)
    for _ in range(512):
        for k in range(3):
            others = [vecs[j].conj() for j in range(3) if j != k]
            w = np.einsum(subs[k], T, *others, optimize=True)
            nw = np.linalg.norm(w, axis=1, keepdims=True)
            np.divide(w, nw, out=w, where=nw > 0)
            vecs[k] = w
        ov = np.abs(np.einsum("abc,ra,rb,rc->r", T, vecs[0].conj(),
                              vecs[1].conj(), vecs[2].conj(), optimize=True))
        done = np.all(ov - prev < 1e-12)
        prev = ov
        if done:
            break
    near_best = np.nonzero(prev >= prev.max() - 1e-15)[0]
    winner = int(near_best[0])
    vecs = [v[winner] for v in vecs]
    for _ in range(4096):
        vecs, step = _reference_sweep(T, vecs)
        if step < 1e-13:
            break
    ov = abs(np.einsum("abc,a,b,c->", T,
                       vecs[0].conj(), vecs[1].conj(), vecs[2].conj()))
    return vecs, ov


def _reference_sweep(T, vecs):
    """One phase-aligned polish sweep; returns the new vectors and the largest step."""
    single_subs = ("abc,b,c->a", "abc,a,c->b", "abc,a,b->c")
    vecs = list(vecs)
    step = 0.0
    for k in range(3):
        others = [vecs[j].conj() for j in range(3) if j != k]
        w = np.einsum(single_subs[k], T, *others)
        nw = np.linalg.norm(w)
        if nw > 0.0:
            w = w / nw
            w = w * np.exp(-1j * np.angle(np.vdot(vecs[k], w)))
            step = max(step, float(np.linalg.norm(w - vecs[k])))
            vecs[k] = w
    return vecs, step


_REPRESENTATIVES = {name: make for name, make, _ in TABLE_ROWS}
_STATE_KINDS = ("haar", *_REPRESENTATIVES)


def _kind_state(kind, seed):
    """A Haar-random state, or the SLOCC representative of TABLE_ROWS named kind."""
    return _rand3(seed) if kind == "haar" else _REPRESENTATIVES[kind]()


@settings(max_examples=40, deadline=None, database=None)
@given(kind=hs.sampled_from(_STATE_KINDS), seed=hs.integers(0, 2 ** 32 - 1),
       lu_seed=hs.integers(0, 2 ** 32 - 1))
def test_closest_product_state_matches_einsum_reference(kind, seed, lu_seed):
    # vectors are not compared: GHZ has two tied maxima and W a circle of them
    rng = np.random.default_rng(lu_seed)
    s = st.apply_local(_kind_state(kind, seed), [st.haar_unitary(2, rng) for _ in range(3)])
    _, ov = inv._closest_product_state(s.tensor)
    _, ov_ref = _reference_closest_product_state(s.tensor)
    assert abs(ov - ov_ref) < 1e-13
    r, phi = _canonical_params(inv.canonical_form3(s))
    with mock.patch.object(inv, "_closest_product_state", _reference_closest_product_state):
        r_ref, phi_ref = _canonical_params(inv.canonical_form3(s))
    assert np.abs(r - r_ref).max() < 1e-10
    gap = (phi - phi_ref) % np.pi
    assert min(gap, np.pi - gap) < 1e-10


def _known_optimum(kind, rng):
    """A three-qubit state and its largest overlap with a product state."""
    if kind == "ghz":
        return st.ghz_state(3), 1 / np.sqrt(2)
    if kind == "w":
        return st.w_state(3), 2 / 3
    if kind == "000":
        return st.basis_state((2, 2, 2), "000"), 1.0
    if kind == "0_bell":
        return st.new_state((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0]), 1 / np.sqrt(2)
    t, chi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b111]] = np.cos(t), np.sin(t) * np.exp(1j * chi)
    return st.new_state((2, 2, 2), amps), max(np.cos(t), np.sin(t))


def _alternating_closest_product_state(T):
    """The alternating closest-product-state search, kept as a reference.

    It starts at the first maximum of 2 sigma_max^2 = F + sqrt(F^2 - 4|det M|^2)
    over the 24x48 (theta, phi) grid of x on site A, with M(x) = sum_i x_i* T[i]
    and F = ||M||_F^2.  Each step takes the top singular pair (y, z) of M(x) and
    sets x to T contracted with y*, z*, normalized.  It stops when the
    a-posteriori distance to the fixed point of the linearly converging steps,
    s^2 / (s_prev - s) for successive steps s_prev > s (s_prev = inf before the
    first), is below 1e-14 and the last step is below 1e-12 (at most 4096 steps).
    """
    theta = ((np.arange(24) + 0.5) * np.pi / 24)[:, None]
    phi = np.arange(48) * np.pi / 24
    grid = np.stack(np.broadcast_arrays(np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)),
                    axis=-1).reshape(-1, 2)
    M = np.einsum("gi,ijk->gjk", grid.conj(), T)
    F = np.sum(np.abs(M) ** 2, axis=(1, 2))
    det = np.abs(M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0])
    x = grid[np.argmax(F + np.sqrt(np.maximum(F * F - 4 * det * det, 0.0)))]
    last = np.inf
    for _ in range(4096):
        U, _, Vh = np.linalg.svd(np.tensordot(x.conj(), T, 1))
        w = np.einsum("ijk,j,k->i", T, U[:, 0].conj(), Vh[0].conj())
        w /= np.linalg.norm(w)
        step = float(np.linalg.norm(w - x))
        x = w
        if step < 1e-12 and step * step < 1e-14 * (last - step):
            break
        last = step
    U, S, Vh = np.linalg.svd(np.tensordot(x.conj(), T, 1))
    return [x, U[:, 0], Vh[0]], float(S[0])


@settings(max_examples=40, deadline=None, database=None)
@given(kind=hs.sampled_from(_STATE_KINDS), seed=hs.integers(0, 2 ** 32 - 1),
       lu_seed=hs.integers(0, 2 ** 32 - 1))
def test_closest_product_state_is_a_stationary_point_no_worse_than_the_alternating_search(
        kind, seed, lu_seed):
    rng = np.random.default_rng(lu_seed)
    T = st.apply_local(_kind_state(kind, seed), [st.haar_unitary(2, rng) for _ in range(3)]).tensor
    (x, y, z), ov = inv._closest_product_state(T)
    _, ov_alt = _alternating_closest_product_state(T)
    assert ov >= ov_alt - 1e-15
    # the Riemannian gradient of 2 sigma_max(M(x))^2 over site A's Bloch vector
    # is 2 |<x|w>| |w - <x|w> x| with w = T contracted with y*, z*
    w = np.einsum("ijk,j,k->i", T, y.conj(), z.conj())
    overlap = np.vdot(x, w)
    assert 2 * abs(overlap) * np.linalg.norm(w - overlap * x) <= 1e-10


@settings(max_examples=40, deadline=None, database=None)
@given(kind=hs.sampled_from(("ghz", "w", "000", "0_bell", "a000_b111")),
       lu_seed=hs.integers(0, 2 ** 32 - 1))
def test_closest_product_state_reaches_a_known_optimum(kind, lu_seed):
    # tied or degenerate maxima: the grid may start near any of them
    rng = np.random.default_rng(lu_seed)
    s, best = _known_optimum(kind, rng)
    s = st.apply_local(s, [st.haar_unitary(2, rng) for _ in range(3)])
    _, ov = inv._closest_product_state(s.tensor)
    assert abs(ov - best) < 1e-12


@pytest.mark.parametrize("seed", [27, 140, 159, 244, 1901])
def test_closest_product_state_reaches_the_fixed_point(seed):
    # on these seeds a polish stopped by a 1e-13 step ends 6e-13 to 1.2e-12 from
    # the fixed point, because the sweeps converge only linearly; seed 1901 is
    # the slow tail of seeds 0-1999, 2816 steps against a median of 20
    T = _rand3(seed).tensor
    vecs, _ = inv._closest_product_state(T)
    ref, _ = _reference_closest_product_state(T)
    for _ in range(4096):
        ref, step = _reference_sweep(T, ref)
        if step < 1e-15:
            break
    for v, r in zip(vecs, ref):
        aligned = v * np.exp(1j * np.angle(np.vdot(v, r)))
        assert np.linalg.norm(aligned - r) < 5e-13


def _lu_fields(s):
    return _ivec(inv.lu_invariants(s))


def _tangle_fields(s):
    tr = inv.tangle_report(s)
    return np.array([tr.tau_a_bc, tr.tau_b_ac, tr.tau_c_ab, tr.tau_ab, tr.tau_bc, tr.tau_ac,
                     tr.tau1, tr.tau2, tr.tau3, *tr.monogamy_residuals])


def _spectra_fields(s):
    return np.array(poly.local_spectra(s).lambdas)


@pytest.mark.parametrize("fields", [_lu_fields, _tangle_fields, _spectra_fields],
                         ids=["lu_invariants", "tangle_report", "local_spectra"])
@settings(max_examples=30, deadline=None, database=None)
@given(kind=hs.sampled_from(_STATE_KINDS), seed=hs.integers(0, 2 ** 32 - 1),
       lu_seed=hs.integers(0, 2 ** 32 - 1))
def test_analyze_quantities_are_lu_invariant(fields, kind, seed, lu_seed):
    rng = np.random.default_rng(lu_seed)
    s = _kind_state(kind, seed)
    rotated = st.apply_local(s, [st.haar_unitary(2, rng) for _ in range(3)])
    assert np.abs(fields(s) - fields(rotated)).max() < 1e-10
