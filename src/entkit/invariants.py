"""Local-unitary invariants, tangles and SLOCC classification for three qubits.

The six LU invariants are: the norm, the three single-site purities, the
order-six Kempe invariant and I6 = |2 Det3|^2 built from the degree-4
hyperdeterminant of the amplitude tensor.  Tangles follow the Wootters
normalization in which Bell pairs have tangle 1.

Equal invariants do not certify LU equivalence: all six are blind to
complex conjugation (and a seventh, order-12 invariant would be needed to
close the gap), so nothing here claims to decide LU orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (PureState, DensityMatrix, _hamming_weights, _matricize, partial_trace,
                     validate_density_matrix)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)

DET3_CLASS_TOL = 1e-8     # |Det3| above this counts as GHZ class
TANGLE_CROSS_CHECK_TOL = 1e-7

SLOCC_LABELS = ("Separable", "BisepA", "BisepB", "BisepC", "W", "GHZ")


@dataclass(frozen=True)
class LuInvariants:
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float
    det3: complex


@dataclass(frozen=True)
class TangleReport:
    tau_a_bc: float
    tau_b_ac: float
    tau_c_ab: float
    tau_ab: float
    tau_bc: float
    tau_ac: float
    tau1: float
    tau2: float
    tau3: float
    monogamy_residuals: tuple


@dataclass(frozen=True)
class SloccClass:
    label: str
    local_ranks: tuple
    det3_abs: float
    singular_values: tuple   # per site, the singular values of its 2x4 site|rest matrix


@dataclass(frozen=True)
class CanonicalForm3:
    r0: float
    r1: float
    r2: float
    r3: float
    r4: float
    phi: float
    local_unitaries: tuple
    overlap: float   # |<product|psi>| achieved by the closest product state


def _require_qubits(state: PureState, count: int) -> None:
    if state.dims != (2,) * count:
        raise ValueError(f"expected {count} qubits, got dims {state.dims}")


def hyperdeterminant3(amps) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 amplitude tensor.

    Accepts an array whose last axis (length 8) holds the amplitudes in
    basis order 000..111; leading axes are broadcast.
    """
    g = np.asarray(amps, dtype=complex)
    if g.shape[-1] != 8:
        raise ValueError("last axis must hold 8 amplitudes")
    g = np.moveaxis(g, -1, 0)
    sq = (g[0b000] ** 2 * g[0b111] ** 2 + g[0b001] ** 2 * g[0b110] ** 2
          + g[0b010] ** 2 * g[0b101] ** 2 + g[0b100] ** 2 * g[0b011] ** 2)
    cross = (g[0b000] * g[0b111] * (g[0b011] * g[0b100] + g[0b101] * g[0b010]
                                    + g[0b110] * g[0b001])
             + g[0b011] * g[0b100] * (g[0b101] * g[0b010] + g[0b110] * g[0b001])
             + g[0b101] * g[0b010] * g[0b110] * g[0b001])
    quad = (g[0b000] * g[0b110] * g[0b101] * g[0b011]
            + g[0b111] * g[0b001] * g[0b010] * g[0b100])
    out = sq - 2 * cross + 4 * quad
    return complex(out) if out.ndim == 0 else out


def kempe_invariant(state: PureState) -> float:
    """Order-six invariant, symmetric under subsystem exchange; minimum 2/9."""
    _require_qubits(state, 3)
    G = state.tensor
    val = np.einsum("abc,def,ghi,aei,dhc,gbf->",
                    G, G, G, G.conj(), G.conj(), G.conj(), optimize=True)
    return float(val.real)


def lu_invariants(state: PureState) -> LuInvariants:
    """The six LU invariants of a normalized three-qubit state."""
    _require_qubits(state, 3)
    i1 = float(np.vdot(state.amps, state.amps).real)
    purities = []
    for site in range(3):
        rho = partial_trace(state, (site,))
        purities.append(rho.purity())
    det3 = hyperdeterminant3(state.amps)
    return LuInvariants(i1=i1, i2=purities[0], i3=purities[1], i4=purities[2],
                        i5=kempe_invariant(state), i6=abs(2 * det3) ** 2, det3=det3)


def wootters_sqrt_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho (YY) rho* (YY).

    Computed through a factorization rho = Psi Psi^dagger: the values equal
    the singular values of the complex symmetric matrix Psi^T (YY) Psi,
    which is numerically exact also for rank-deficient rho.
    """
    lam, vec = np.linalg.eigh(rho)
    keep = lam > 1e-14 * max(lam.max(), 1.0)
    psi = vec[:, keep] * np.sqrt(np.clip(lam[keep], 0, None))
    a = psi.T @ _YY @ psi
    s = np.linalg.svd(a, compute_uv=False)
    out = np.zeros(4)
    out[:s.size] = s
    return out


def concurrence_tangle_mixed(dm: DensityMatrix):
    """Wootters concurrence and tangle of a two-qubit mixed state."""
    if dm.dim != 4:
        raise ValueError("expected a 4x4 two-qubit density matrix")
    validate_density_matrix(dm)
    m = wootters_sqrt_eigenvalues(dm.entries)
    c = max(0.0, m[0] - m[1] - m[2] - m[3])
    return c, c * c


def tangle_pure2(state: PureState) -> float:
    """Tangle of a pure two-qubit state, 4 |det Gamma|^2 (Bell states give 1)."""
    _require_qubits(state, 2)
    return float(4.0 * abs(np.linalg.det(state.tensor)) ** 2)


def tangle_pure2_spinflip(state: PureState) -> float:
    """Same tangle through |<psi| sigma_y x sigma_y |psi*>|^2."""
    _require_qubits(state, 2)
    return float(abs(np.vdot(state.amps, _YY @ state.amps.conj())) ** 2)


def one_vs_rest_tangle(state: PureState, site: int) -> float:
    """Tangle across site|rest for a qubit site: 4 det rho_site."""
    rho = partial_trace(state, (site,))
    if rho.dim != 2:
        raise ValueError("one-vs-rest tangle needs a qubit site")
    return float(4.0 * np.linalg.det(rho.entries).real)


def tangle_report(state: PureState) -> TangleReport:
    """All tangles, their averages, the residual 3-tangle and monogamy slacks.

    The 3-tangle from the subtraction formula is cross-checked against
    4 |Det3| within 1e-7; a mismatch raises ArithmeticError.
    """
    _require_qubits(state, 3)
    t_one = [one_vs_rest_tangle(state, k) for k in range(3)]
    pair_sites = {(0, 1): None, (1, 2): None, (0, 2): None}
    for sites in pair_sites:
        _, tau = concurrence_tangle_mixed(partial_trace(state, sites))
        pair_sites[sites] = tau
    tau_ab, tau_bc, tau_ac = pair_sites[(0, 1)], pair_sites[(1, 2)], pair_sites[(0, 2)]
    tau1 = sum(t_one) / 3.0
    tau2 = (tau_ab + tau_bc + tau_ac) / 3.0
    tau3 = t_one[0] - tau_ab - tau_ac
    hyper = 4.0 * abs(hyperdeterminant3(state.amps))
    if abs(tau3 - hyper) > TANGLE_CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"3-tangle routes disagree: subtraction {tau3!r} vs 4|Det3| {hyper!r}")
    residuals = (t_one[0] - tau_ab - tau_ac,
                 t_one[1] - tau_ab - tau_bc,
                 t_one[2] - tau_ac - tau_bc)
    return TangleReport(tau_a_bc=t_one[0], tau_b_ac=t_one[1], tau_c_ab=t_one[2],
                        tau_ab=tau_ab, tau_bc=tau_bc, tau_ac=tau_ac,
                        tau1=tau1, tau2=tau2, tau3=tau3,
                        monogamy_residuals=residuals)


def four_tangle(state: PureState) -> float:
    """|<psi| sigma_y^x4 |psi*>|^2 for a four-qubit pure state."""
    _require_qubits(state, 4)
    v = state.amps
    idx = np.arange(16)
    flipped = idx ^ 0b1111
    # sigma_y^x4 |b> = i^(#zeros) (-i)^(#ones) |~b>; for 4 qubits the phase is
    # i^4 (-1)^(#ones) = (-1)^popcount(b)
    signs = (-1.0) ** _hamming_weights(4)
    image = np.zeros(16, dtype=complex)
    image[flipped] = signs * v.conj()
    return float(abs(np.dot(v.conj(), image)) ** 2)


def slocc_classify3(state: PureState, tol: float = DET3_CLASS_TOL) -> SloccClass:
    """SLOCC class of a three-qubit state from local ranks and |Det3|.

    A site's local rank counts its site|rest singular values above tol.
    """
    _require_qubits(state, 3)
    svals = tuple(tuple(map(float, np.linalg.svd(_matricize(state, (site,)), compute_uv=False)))
                  for site in range(3))
    ranks = tuple(sum(x > tol for x in s) for s in svals)
    det3_abs = float(abs(hyperdeterminant3(state.amps)))
    ones = ranks.count(1)
    if ones >= 2:
        # two rank-1 reductions force the third to be rank 1 as well: by the
        # polygon inequality its second singular value is at most sqrt(2) tol
        label, ranks = "Separable", (1, 1, 1)
    elif ones == 1:
        label = "Bisep" + "ABC"[ranks.index(1)]
    else:
        label = "GHZ" if det3_abs > tol else "W"
    return SloccClass(label=label, local_ranks=ranks, det3_abs=det3_abs,
                      singular_values=svals)


def _closest_product_state(T: np.ndarray, restarts: int = 32,
                           max_iter: int = 512, gain_tol: float = 1e-12):
    """Alternating power iteration for the rank-one approximation of a 3-tensor.

    Returns (local unit vectors, |overlap|).  Restarts are seeded
    deterministically; ties resolve to the earliest restart.
    """
    subs = ("abc,rb,rc->ra", "abc,ra,rc->rb", "abc,ra,rb->rc")
    single_subs = ("abc,b,c->a", "abc,a,c->b", "abc,a,b->c")
    rng = np.random.default_rng(0x5EED)
    # all restarts iterate in lockstep as one batched power iteration
    vecs = []
    for d in T.shape:
        x = rng.standard_normal((restarts, d)) + 1j * rng.standard_normal((restarts, d))
        vecs.append(x / np.linalg.norm(x, axis=1, keepdims=True))
    prev = np.zeros(restarts)
    for _ in range(max_iter):
        for k in range(3):
            others = [vecs[j].conj() for j in range(3) if j != k]
            w = np.einsum(subs[k], T, *others, optimize=True)
            nw = np.linalg.norm(w, axis=1, keepdims=True)
            np.divide(w, nw, out=w, where=nw > 0)
            vecs[k] = w
        ov = np.abs(np.einsum("abc,ra,rb,rc->r", T, vecs[0].conj(),
                              vecs[1].conj(), vecs[2].conj(), optimize=True))
        done = np.all(ov - prev < gain_tol)
        prev = ov
        if done:
            break
    near_best = np.nonzero(prev >= prev.max() - 1e-15)[0]
    winner = int(near_best[0])      # ties resolve to the earliest restart
    vecs = [v[winner] for v in vecs]
    # polish the winning restart to a numerical fixed point; the overlap gain
    # criterion alone leaves O(sqrt(gain)) slack in the amplitudes
    for _ in range(4096):
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
        if step < 1e-13:
            break
    ov = abs(np.einsum("abc,a,b,c->", T,
                       vecs[0].conj(), vecs[1].conj(), vecs[2].conj()))
    return vecs, ov


def _unitary_sending_to_one(x: np.ndarray) -> np.ndarray:
    """2x2 unitary U with U x = |1>."""
    y = np.array([-np.conj(x[1]), np.conj(x[0])])
    return np.array([y.conj(), x.conj()])


def canonical_form3(state: PureState) -> CanonicalForm3:
    """Five-parameter canonical form of a three-qubit state.

    Rotates the closest product state to |111>, which zeroes the amplitudes
    on 110, 101 and 011, then strips phases so that the amplitudes on 111,
    100, 010, 001 are real non-negative, leaving one phase on |000>.
    Returns the parameters together with the realizing local unitaries.
    """
    _require_qubits(state, 3)
    vecs, _ = _closest_product_state(state.tensor)
    base = [_unitary_sending_to_one(x) for x in vecs]
    rotated = state.tensor
    for k, u in enumerate(base):
        rotated = np.moveaxis(np.tensordot(u, rotated, axes=([1], [k])), 0, k)
    c = rotated.ravel()

    # Diagonal phase gates diag(e^{i p_0}, e^{i p_1}) per site multiply the
    # amplitude on bitstring b by exp(i sum_k p_{b_k}^{(k)}).  Strip the phases
    # of the nonzero amplitudes in the order 111, 100, 010, 001, then also 000
    # whenever the remaining gauge freedom allows (it does unless all five are
    # nonzero, in which case the residual phase on 000 is the parameter phi).
    rows, rhs = [], []
    basis_rows = {
        0b111: (0, 1, 0, 1, 0, 1),
        0b100: (0, 1, 1, 0, 1, 0),
        0b010: (1, 0, 0, 1, 1, 0),
        0b001: (1, 0, 1, 0, 0, 1),
        0b000: (1, 0, 1, 0, 1, 0),
    }
    for idx in (0b111, 0b100, 0b010, 0b001, 0b000):
        if abs(c[idx]) <= 1e-15:
            continue
        row = np.array(basis_rows[idx], dtype=float)
        if rows:
            A = np.array(rows)
            coef, res = np.linalg.lstsq(A.T, row, rcond=None)[:2]
            in_span = np.linalg.norm(row - coef @ A) < 1e-9
        else:
            in_span = False
        if not in_span:
            rows.append(row)
            rhs.append(-float(np.angle(c[idx])))
    if rows:
        p = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    else:
        p = np.zeros(6)
    phases = ((p[0], p[1]), (p[2], p[3]), (p[4], p[5]))
    unitaries = tuple(np.diag([np.exp(1j * p0), np.exp(1j * p1)]) @ u
                      for (p0, p1), u in zip(phases, base))
    final = state.tensor
    for k, u in enumerate(unitaries):
        final = np.moveaxis(np.tensordot(u, final, axes=([1], [k])), 0, k)
    f = final.ravel()
    residual = max(abs(f[0b110]), abs(f[0b101]), abs(f[0b011]))
    if residual > 1e-8:
        raise ArithmeticError(
            f"canonical-form search did not converge (zero-pattern residual {residual:.2e})")
    phi = float(np.angle(f[0b000])) % (2 * np.pi) if abs(f[0b000]) > 1e-15 else 0.0
    if 2 * np.pi - phi < 1e-12:
        phi = 0.0
    return CanonicalForm3(
        r0=float(abs(f[0b000])), r1=float(abs(f[0b100])), r2=float(abs(f[0b010])),
        r3=float(abs(f[0b001])), r4=float(abs(f[0b111])), phi=phi,
        local_unitaries=unitaries, overlap=float(abs(f[0b111])))
