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

import math
from dataclasses import dataclass

import numpy as np

from .states import (PureState, DensityMatrix, _hamming_weights, _matricize, apply_local,
                     partial_trace, validate_density_matrix)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)

DET3_CLASS_TOL = 1e-8     # |Det3| above this counts as GHZ class
TANGLE_CROSS_CHECK_TOL = 1e-7

CANONICAL_ZERO_TOL = 1e-10  # canonical amplitudes at or below this count as zero


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
    """r4|111> + r1|100> + r2|010> + r3|001> + r0 e^{i phi}|000> with all r >= 0.

    phi lies in [0, pi), since diag(-1, 1) on all three qubits maps phi to
    phi + pi.  An r at or below CANONICAL_ZERO_TOL is reported as 0, and
    then so is phi.
    local_unitaries map the input state onto this form.
    """

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
    val = np.einsum("abc,def,ghi,aei,dhc,gbf->", G, G, G, G.conj(), G.conj(), G.conj())
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

    A site's local rank counts its site|rest singular values above tol and is
    at least 1, since the largest of them is at least 1/sqrt(2).
    """
    _require_qubits(state, 3)
    svals = tuple(tuple(map(float, np.linalg.svd(_matricize(state, (site,)), compute_uv=False)))
                  for site in range(3))
    ranks = tuple(max(1, sum(x > tol for x in s)) for s in svals)
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


def _sphere_grid():
    """Bloch vectors of a 24x48 (theta, phi) grid, row by row, and the 8 neighbours of each.

    phi wraps around; a neighbour beyond the first or last theta row is given
    as the point itself.
    """
    theta = (np.arange(24) + 0.5) * np.pi / 24
    phi = np.arange(48) * np.pi / 24
    sin = np.sin(theta)[:, None]
    n = np.stack(np.broadcast_arrays(sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)[:, None]),
                 axis=-1).reshape(-1, 3)
    rows, cols = np.divmod(np.arange(24 * 48), 48)
    neighbours = np.stack([np.where((rows + di >= 0) & (rows + di < 24),
                                    (rows + di) * 48 + (cols + dj) % 48, rows * 48 + cols)
                           for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj], axis=1)
    return n, neighbours


_GRID_N, _GRID_NEIGHBOURS = _sphere_grid()
# n and its quadratic monomials xx, yy, zz, 2xy, 2xz, 2yz: |det M|^2 over the grid is one product
_GRID_MONOMIALS = np.column_stack([_GRID_N, _GRID_N ** 2,
                                   2 * _GRID_N[:, [0, 0, 1]] * _GRID_N[:, [1, 2, 2]]])
# F^2 - 4|det M|^2 at or below this times F^2 is rounding: the singular values of M coincide
_ROOT_ZERO_TOL = 1e-14


def _bloch_coefficients(T: np.ndarray):
    """F = f0 + f.n and |det M|^2 = g0 + g.n + n.G.n over site A's Bloch vector n.

    M(x) = x0* T[0] + x1* T[1] and x x^dag = (1 + n.sigma) / 2.  F = ||M||_F^2 =
    x^dag A x with A = T_A T_A^dag for the 2x4 matrix T_A, so f0 = tr A / 2 and
    f_k = tr(A sigma_k) / 2.  det M = d0 x0*^2 + c x0* x1* + d1 x1*^2 with
    d_i = det T[i] and c = det(T[0] + T[1]) - d0 - d1, and |det M|^2 is linear in
    the products of two entries of x x^dag, hence quadratic in n.  Returns python
    floats f0, (fx, fy, fz), g0, (gx, gy, gz), (Gxx, Gyy, Gzz, Gxy, Gxz, Gyz).
    """
    a0, a1, a2, a3, b0, b1, b2, b3 = T.ravel().tolist()
    A0 = abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2
    A1 = abs(b0) ** 2 + abs(b1) ** 2 + abs(b2) ** 2 + abs(b3) ** 2
    A01 = (a0 * b0.conjugate() + a1 * b1.conjugate() + a2 * b2.conjugate()
           + a3 * b3.conjugate())
    d0, d1 = a0 * a3 - a1 * a2, b0 * b3 - b1 * b2
    c = a0 * b3 + b0 * a3 - a1 * b2 - b1 * a2
    p, q, r = abs(d0) ** 2, abs(c) ** 2, abs(d1) ** 2
    u, v, w = d0 * c.conjugate(), d0 * d1.conjugate(), c * d1.conjugate()
    # |det M|^2 = p s^2 + q s t + r t^2 + 2 Re(u s z + v z^2 + w t z) with
    # s, t = (1 +- nz) / 2 and z = (nx + i ny) / 2, expanded in n
    return ((A0 + A1) / 2, (A01.real, -A01.imag, (A0 - A1) / 2),
            (p + q + r) / 4, ((u.real + w.real) / 2, -(u.imag + w.imag) / 2, (p - r) / 2),
            (v.real / 2, -v.real / 2, (p - q + r) / 4, -v.imag / 2,
             (u.real - w.real) / 4, (w.imag - u.imag) / 4))


def _newton_on_sphere(n, f0, f, g0, g, G):
    """A local maximum of h = F + sqrt(F^2 - 4|det M|^2) over unit n, from n.

    Riemannian Newton steps in the tangent plane with the closed-form gradient
    and Hessian of h, retracted by normalizing (Absil, Mahony and Sepulchre,
    Optimization Algorithms on Matrix Manifolds (2008), ch. 6).  Where the 2x2
    Hessian is not negative definite (its larger eigenvalue is above -1e-9 f0),
    the step is Newton's across the other eigenvector if h is flat along this
    one, as along W's circle of maxima, and otherwise a gradient step halved
    until h gains (Armijo).  A root at rounding level (_ROOT_ZERO_TOL) counts as
    0, so that h = F there.  Stops on a step below 1e-15, or on one below 1e-10
    that is no shorter than the step before: rounding sets it.  At most 100
    steps.  Returns (n, h), in python floats.
    """
    fx, fy, fz = f
    gx, gy, gz = g
    Gxx, Gyy, Gzz, Gxy, Gxz, Gyz = G

    def terms(x, y, z):
        Gn = (Gxx * x + Gxy * y + Gxz * z, Gxy * x + Gyy * y + Gyz * z,
              Gxz * x + Gyz * y + Gzz * z)
        F = f0 + fx * x + fy * y + fz * z
        disc = F * F - 4 * (g0 + gx * x + gy * y + gz * z + x * Gn[0] + y * Gn[1] + z * Gn[2])
        return F, (math.sqrt(disc) if disc > _ROOT_ZERO_TOL * F * F else 0.0), Gn

    def retract(x, y, z):
        norm = math.sqrt(x * x + y * y + z * z)
        return x / norm, y / norm, z / norm

    nx, ny, nz = n
    last = math.inf
    for _ in range(100):
        F, root, Gn = terms(nx, ny, nz)
        h = F + root
        # orthonormal tangent basis e, e' = n x e
        if nx * nx + ny * ny >= 0.5:
            rho = math.hypot(nx, ny)
            ex, ey, ez = -ny / rho, nx / rho, 0.0
        else:
            rho = math.hypot(nx, nz)
            ex, ey, ez = nz / rho, 0.0, -nx / rho
        kx, ky, kz = ny * ez - nz * ey, nz * ex - nx * ez, nx * ey - ny * ex
        fe, fk = fx * ex + fy * ey + fz * ez, fx * kx + fy * ky + fz * kz
        radial = fx * nx + fy * ny + fz * nz
        if root:
            # grad root = (F f - 2 grad D) / root with grad D = g + 2 G n, and
            # Hess root = (f f^T - 4 G - grad root grad root^T) / root
            sx = (F * fx - 2 * (gx + 2 * Gn[0])) / root
            sy = (F * fy - 2 * (gy + 2 * Gn[1])) / root
            sz = (F * fz - 2 * (gz + 2 * Gn[2])) / root
            se, sk = sx * ex + sy * ey + sz * ez, sx * kx + sy * ky + sz * kz
            radial += sx * nx + sy * ny + sz * nz
            Ge = (Gxx * ex + Gxy * ey + Gxz * ez, Gxy * ex + Gyy * ey + Gyz * ez,
                  Gxz * ex + Gyz * ey + Gzz * ez)
            Gk = (Gxx * kx + Gxy * ky + Gxz * kz, Gxy * kx + Gyy * ky + Gyz * kz,
                  Gxz * kx + Gyz * ky + Gzz * kz)
            Gee = Ge[0] * ex + Ge[1] * ey + Ge[2] * ez
            Gek = Ge[0] * kx + Ge[1] * ky + Ge[2] * kz
            Gkk = Gk[0] * kx + Gk[1] * ky + Gk[2] * kz
            g1, g2 = fe + se, fk + sk
            h11 = (fe * fe - 4 * Gee - se * se) / root - radial
            h12 = (fe * fk - 4 * Gek - se * sk) / root
            h22 = (fk * fk - 4 * Gkk - sk * sk) / root - radial
        else:
            g1, g2, h11, h12, h22 = fe, fk, -radial, 0.0, -radial
        mean, radius = (h11 + h22) / 2, math.hypot((h11 - h22) / 2, h12)
        # (c, s): the eigenvector of the larger Hessian eigenvalue mean + radius
        angle = math.atan2(2 * h12, h11 - h22) / 2
        c, s = math.cos(angle), math.sin(angle)
        if mean + radius < -1e-9 * f0:
            det = h11 * h22 - h12 * h12
            v1, v2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
        elif abs(g1 * c + g2 * s) <= 1e-14 * f0 and mean - radius < -1e-9 * f0:
            # flat along (c, s), as along a circle of maxima: Newton across it alone
            across = (g2 * c - g1 * s) / (radius - mean)
            v1, v2 = -across * s, across * c
        else:
            v1 = v2 = 0.0
            slope = math.hypot(g1, g2)
            t = np.pi / 24 / slope if slope > 1e-14 * f0 else 0.0
            while t * slope >= 1e-15:
                trial = terms(*retract(nx + t * (g1 * ex + g2 * kx), ny + t * (g1 * ey + g2 * ky),
                                       nz + t * (g1 * ez + g2 * kz)))
                if trial[0] + trial[1] >= h + 1e-4 * t * slope * slope:
                    v1, v2 = t * g1, t * g2
                    break
                t /= 2
        nx, ny, nz = retract(nx + v1 * ex + v2 * kx, ny + v1 * ey + v2 * ky, nz + v1 * ez + v2 * kz)
        step = math.hypot(v1, v2)
        if step < 1e-15 or last <= step < 1e-10:
            break
        last = step
    return (nx, ny, nz), h


def _closest_product_state(T: np.ndarray):
    """Rank-one approximation of a 2x2x2 tensor as a search over site A's Bloch sphere.

    Returns (local unit vectors, |overlap|).  For a unit vector x on site A
    the best y, z give |<x y z|T>| = sigma_max(M(x)) with M(x) = sum_i x_i* T[i]
    (Wei and Goldbart, PRA 68, 042307 (2003)), and 2 sigma_max^2 = F +
    sqrt(F^2 - 4|det M|^2) with F = ||M||_F^2 is an explicit function of the
    Bloch vector n of x (_bloch_coefficients).  It is evaluated on a fixed 24x48
    (theta, phi) grid, and a Newton search on the sphere (_newton_on_sphere)
    starts from every grid point at or above its 8 neighbours; on a plateau of
    equal values, only from its earliest point.  The largest result wins, the
    earliest one within 1e-15.  One SVD of M(x) then gives y and z.
    """
    f0, f, g0, g, G = _bloch_coefficients(T)
    F = f0 + _GRID_N @ f
    grid = F + np.sqrt(np.maximum(F * F - 4 * (g0 + _GRID_MONOMIALS @ (*g, *G)), 0.0))
    # 3x3 maximum around every point: along phi with wrap-around, then along theta
    rows = grid.reshape(24, 48)
    wrapped = np.concatenate([rows[:, -1:], rows, rows[:, :1]], axis=1)
    across = np.maximum(np.maximum(wrapped[:, :-2], wrapped[:, 1:-1]), wrapped[:, 2:])
    around = across.copy()
    np.maximum(around[1:], across[:-1], out=around[1:])
    np.maximum(around[:-1], across[1:], out=around[:-1])
    starts = np.flatnonzero(rows == around)
    if len(starts) > 1:
        neighbours = _GRID_NEIGHBOURS[starts]
        tied_earlier = (grid[neighbours] == grid[starts, None]) & (neighbours < starts[:, None])
        starts = starts[~tied_earlier.any(axis=1)]
    best, best_h = None, -math.inf
    for start in starts:
        n, h = _newton_on_sphere(_GRID_N[start].tolist(), f0, f, g0, g, G)
        if h > best_h + 1e-15:
            best, best_h = n, h
    # x with x x^dag = (1 + n.sigma) / 2, from its larger component
    nx, ny, nz = best
    if nz >= 0:
        x0 = math.sqrt((1 + nz) / 2)
        x = np.array([x0, complex(nx, ny) / (2 * x0)])
    else:
        x1 = math.sqrt((1 - nz) / 2)
        x = np.array([complex(nx, -ny) / (2 * x1), x1])
    U, S, Vh = np.linalg.svd(np.tensordot(x.conj(), T, 1))
    return [x, U[:, 0], Vh[0]], float(S[0])


def _unitary_sending_to_one(x: np.ndarray) -> np.ndarray:
    """2x2 unitary U with U x = |1>."""
    y = np.array([-np.conj(x[1]), np.conj(x[0])])
    return np.array([y.conj(), x.conj()])


def canonical_form3(state: PureState) -> CanonicalForm3:
    """Canonical form r4|111> + r1|100> + r2|010> + r3|001> + r0 e^{i phi}|000>.

    Rotates the closest product state to |111>, which zeroes the amplitudes
    on 110, 101 and 011 (Carteret, Higuchi and Sudbery, J. Math. Phys. 41,
    7932 (2000)), then applies site phase gates that make those on 111, 100,
    010 and 001 real and non-negative.  The sign gate diag(-1, 1) on all three
    qubits flips only the sign of |000>, so phi is reported in [0, pi) (Acin
    et al., PRL 85, 1560 (2000)).  An r at or below CANONICAL_ZERO_TOL is
    reported as 0, and then phi = 0: the phase gates make every amplitude real.
    Returns the parameters together with the realizing local unitaries.
    """
    _require_qubits(state, 3)
    vecs, _ = _closest_product_state(state.tensor)
    base = [_unitary_sending_to_one(x) for x in vecs]
    c = apply_local(state, base).amps
    theta = np.angle(c)
    nonzero = np.abs(c) > CANONICAL_ZERO_TOL
    singles = [0b100, 0b010, 0b001]
    # The gate diag(e^{i a_k}, e^{i(a_k + x_k)}) on each site k multiplies the
    # amplitude on bits b by exp(i(s + b.x)) with s = a_0 + a_1 + a_2.  |c_111|
    # is the closest-product overlap, never below 2/3 (the W state's).
    phi = 0.0
    if nonzero[singles].all():
        # real 111 and singles fix 2s, hence s only mod pi: the sign gate
        s = (theta[0b111] - theta[singles].sum()) / 2
        if nonzero[0b000]:
            phi = (theta[0b000] + s) % np.pi
            if np.pi - phi < 1e-12:   # within rounding of pi: snap to 0
                phi -= np.pi
            s = phi - theta[0b000]
            phi = max(phi, 0.0)
        x = -theta[singles] - s
    else:
        s = -theta[0b000] if nonzero[0b000] else 0.0
        x = np.where(nonzero[singles], -theta[singles] - s, 0.0)
        free = int(np.argmin(nonzero[singles]))   # a zero single absorbs 111's phase
        x[free] = -theta[0b111] - s - x.sum()
    unitaries = tuple(np.diag(np.exp(1j * np.array([a, a + xk]))) @ u
                      for a, xk, u in zip((s, 0.0, 0.0), x, base))
    f = apply_local(state, unitaries).amps
    residual = max(abs(f[0b110]), abs(f[0b101]), abs(f[0b011]))
    if residual > 1e-8:
        raise ArithmeticError(
            f"canonical-form search did not converge (zero-pattern residual {residual:.2e})")
    r = np.where(nonzero, np.abs(f), 0.0)
    return CanonicalForm3(
        r0=float(r[0b000]), r1=float(r[0b100]), r2=float(r[0b010]),
        r3=float(r[0b001]), r4=float(r[0b111]), phi=float(phi),
        local_unitaries=unitaries, overlap=float(r[0b111]))
