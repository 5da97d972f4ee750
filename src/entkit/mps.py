"""Matrix product states: canonical form, truncation, contraction, DMRG.

Open-boundary states are kept in the left-isometric canonical form

    Gamma^{i_1...i_K} = A^{i_1} A^{i_2} ... A^{i_K} ,
    sum_i (A^{i_k})^dag A^{i_k} = 1 ,
    sum_i A^{i_k} Lambda_k (A^{i_k})^dag = Lambda_{k-1} ,

where Lambda_k is the diagonal (descending) Schmidt spectrum at bond k.
Periodic states store uniform-shape tensors contracted with a trace; no
canonical form is attempted for them, they support evaluation and overlap
only.

Bond k (0-based, k = 0..K-2) sits between sites k and k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .states import (DENSE_GUARD, FormatError, PureState, _float, _int, _records,
                     new_state, page_expected_entropy)

CANONICAL_TOL = 1e-10
RANK_RTOL = 1e-12          # relative singular-value cutoff for exact ranks


@dataclass(frozen=True, eq=False)
class MpsState:
    """Matrix product state; tensors[k] has shape (r_{k-1}, N_k, r_k)."""

    tensors: tuple
    boundary: str = "open"                # "open" | "periodic"
    spectra: tuple | None = None          # per-bond descending probabilities

    def __post_init__(self):
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        shapes = [t.shape for t in self.tensors]
        if any(len(s) != 3 for s in shapes):
            raise ValueError("site tensors must have three indices")
        for a, b in zip(shapes[:-1], shapes[1:]):
            if a[2] != b[0]:
                raise ValueError("mismatched bond dimensions")
        if self.boundary == "open":
            if shapes[0][0] != 1 or shapes[-1][2] != 1:
                raise ValueError("open boundary requires r_0 = r_K = 1")
        else:
            if shapes[0][0] != shapes[-1][2]:
                raise ValueError("periodic boundary requires matching edge bonds")

    @property
    def num_sites(self) -> int:
        return len(self.tensors)

    @property
    def dims(self) -> tuple:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple:
        """Internal bond dimensions r_1 .. r_{K-1} (open boundary)."""
        return tuple(t.shape[2] for t in self.tensors[:-1])


@dataclass
class ContractionStats:
    """Instrumentation hook: peak element count of overlap intermediates."""

    peak_elements: int = 0

    def record(self, *arrays) -> None:
        for a in arrays:
            if a.size > self.peak_elements:
                self.peak_elements = a.size


def _freeze(arrays):
    out = []
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=complex)
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


def from_dense(state: PureState) -> MpsState:
    """Canonical open-boundary MPS by stepwise singular value decomposition."""
    dims = state.dims
    K = len(dims)
    tensors = []
    spectra = []
    rest = state.amps.reshape(1, -1)
    r_prev = 1
    for k in range(K - 1):
        m = rest.reshape(r_prev * dims[k], -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        rank = max(1, int(np.sum(s > RANK_RTOL * s[0])))
        u, s, vh = u[:, :rank], s[:rank], vh[:rank]
        tensors.append(u.reshape(r_prev, dims[k], rank))
        probs = s ** 2
        spectra.append(probs / probs.sum())
        rest = (s[:, None] * vh)
        r_prev = rank
    tensors.append(rest.reshape(r_prev, dims[-1], 1))
    return MpsState(tensors=_freeze(tensors), boundary="open",
                    spectra=tuple(np.asarray(p) for p in spectra))


def to_dense(mps: MpsState) -> PureState:
    """Contract all site tensors into a normalized dense PureState."""
    dims = mps.dims
    total = int(np.prod(dims))
    if total > DENSE_GUARD:
        raise ValueError(f"{total} amplitudes exceed the densification guard")
    if mps.boundary == "open":
        acc = mps.tensors[0].reshape(dims[0], -1)
        for t in mps.tensors[1:]:
            acc = np.tensordot(acc, t, axes=([-1], [0]))
            acc = acc.reshape(-1, t.shape[2])
        return new_state(dims, acc.reshape(-1))
    acc = np.moveaxis(mps.tensors[0], 1, 0)               # (N, D, D)
    for t in mps.tensors[1:]:
        grown = np.tensordot(acc, t, axes=([-1], [0]))    # (M, D, N, D)
        acc = np.moveaxis(grown, -2, 1).reshape(-1, grown.shape[1], t.shape[2])
    amps = np.trace(acc, axis1=1, axis2=2)
    return new_state(dims, amps)


@dataclass(frozen=True)
class CanonicalResiduals:
    left_isometry: tuple     # per site: || sum_i A^dag A - 1 ||_max
    spectrum_recursion: tuple  # per site: || sum_i A Lambda_k A^dag - Lambda_{k-1} ||_max
    max_residual: float


def check_canonical(mps: MpsState) -> CanonicalResiduals:
    """Residuals of the two canonical conditions at every site."""
    if mps.boundary != "open":
        raise ValueError("canonical form is defined for open boundaries")
    if mps.spectra is None:
        raise ValueError("state carries no bond spectra; canonicalize first")
    K = mps.num_sites
    lams = [np.array([1.0])] + [np.asarray(p) for p in mps.spectra] + [np.array([1.0])]
    left, rec = [], []
    for k, t in enumerate(mps.tensors):
        rl, n, rr = t.shape
        acc = np.zeros((rr, rr), dtype=complex)
        for i in range(n):
            acc += t[:, i, :].conj().T @ t[:, i, :]
        left.append(float(np.abs(acc - np.eye(rr)).max()))
        acc2 = np.zeros((rl, rl), dtype=complex)
        for i in range(n):
            acc2 += t[:, i, :] @ np.diag(lams[k + 1]) @ t[:, i, :].conj().T
        rec.append(float(np.abs(acc2 - np.diag(lams[k])).max()))
    worst = max(max(left), max(rec))
    return CanonicalResiduals(left_isometry=tuple(left),
                              spectrum_recursion=tuple(rec),
                              max_residual=worst)


def _right_normalize(tensors):
    """LQ sweep from the right; returns right-isometric tensors (norm dropped)."""
    out = [None] * len(tensors)
    carry = np.eye(tensors[-1].shape[2], dtype=complex)
    for k in range(len(tensors) - 1, -1, -1):
        t = np.tensordot(tensors[k], carry, axes=([2], [0]))
        rl, n, rr = t.shape
        m = t.reshape(rl, n * rr)
        q, r = np.linalg.qr(m.conj().T)
        out[k] = q.conj().T.reshape(-1, n, rr)
        carry = r.conj().T
    return out, carry


def _compress_sweep(tensors, max_bond=None):
    """Left-to-right SVD sweep over right-isometric tensors.

    Returns left-isometric tensors, per-bond spectra and per-bond discarded
    weight; the state is renormalized after every cut.
    """
    K = len(tensors)
    out = []
    spectra = []
    discarded = []
    carry = np.eye(tensors[0].shape[0], dtype=complex)
    for k in range(K):
        t = np.tensordot(carry, tensors[k], axes=([1], [0]))
        rl, n, rr = t.shape
        if k == K - 1:
            nrm = np.linalg.norm(t)
            out.append(t / nrm)
            break
        u, s, vh = np.linalg.svd(t.reshape(rl * n, rr), full_matrices=False)
        total = float(np.sum(s ** 2))
        rank = max(1, int(np.sum(s > RANK_RTOL * s[0])))
        if max_bond is not None:
            rank = min(rank, int(max_bond))
        kept = float(np.sum(s[:rank] ** 2))
        discarded.append(max(0.0, 1.0 - kept / total))
        u, s, vh = u[:, :rank], s[:rank], vh[:rank]
        s = s / np.linalg.norm(s)
        out.append(u.reshape(rl, n, rank))
        spectra.append(s ** 2)
        carry = s[:, None] * vh
    return out, spectra, discarded


def _right_canonical_with_phase(tensors):
    right, carry = _right_normalize(tensors)
    scale = carry[0, 0]
    if scale != 0:
        right[0] = right[0] * (scale / abs(scale))   # keep the global phase
    return right


def canonicalize(mps: MpsState) -> MpsState:
    """Normalized canonical form of an open-boundary MPS (gauge + spectra)."""
    if mps.boundary != "open":
        raise ValueError("periodic states have no canonical form here")
    right = _right_canonical_with_phase(mps.tensors)
    tensors, spectra, _ = _compress_sweep(right, max_bond=None)
    return MpsState(tensors=_freeze(tensors), boundary="open",
                    spectra=tuple(spectra))


def truncate(mps: MpsState, max_bond: int):
    """Cap every bond at max_bond, keeping the largest Schmidt coefficients.

    Returns (truncated canonical MpsState, per-bond discarded weight).  Each
    cut keeps the top Schmidt coefficients at that bond (descending order,
    ties by index) and renormalizes, so a single-bond cut realizes the
    best rank-max_bond approximation across that bipartition.
    """
    if max_bond < 1:
        raise ValueError("max_bond must be >= 1")
    if mps.boundary != "open":
        raise ValueError("truncation is implemented for open boundaries")
    right = _right_canonical_with_phase(mps.tensors)
    tensors, _, discarded = _compress_sweep(right, max_bond=max_bond)
    # lossy cuts leave the recorded spectra at earlier bonds stale by
    # O(discarded weight); an exact-rank pass restores the canonical form
    # of the (unchanged) truncated state
    recanon = canonicalize(MpsState(tensors=_freeze(tensors), boundary="open"))
    return recanon, tuple(discarded)


def overlap(bra: MpsState, ket: MpsState, stats: ContractionStats | None = None) -> complex:
    """<bra|ket> by site-by-site contraction.

    Open boundaries keep one (r_bra x r_ket) environment plus one
    (r_bra x N x r_ket) temporary alive, never the dense amplitudes.
    """
    if bra.dims != ket.dims:
        raise ValueError(f"dimension mismatch: {bra.dims} vs {ket.dims}")
    if bra.boundary != ket.boundary:
        raise ValueError("boundary mismatch")
    if bra.boundary == "open":
        env = np.ones((1, 1), dtype=complex)
        for tb, tk in zip(bra.tensors, ket.tensors):
            tmp = np.tensordot(env, tk, axes=([1], [0]))      # (rb, N, rk')
            env = np.tensordot(tb.conj(), tmp, axes=([0, 1], [0, 1]))
            if stats is not None:
                stats.record(tmp, env)
        return complex(env[0, 0])
    # periodic: multiply (D_bra D_ket)^2 transfer matrices and take the trace
    env = None
    for tb, tk in zip(bra.tensors, ket.tensors):
        e = np.einsum("aib,cid->acbd", tb.conj(), tk)
        e = e.reshape(tb.shape[0] * tk.shape[0], tb.shape[2] * tk.shape[2])
        env = e if env is None else env @ e
        if stats is not None:
            stats.record(e, env)
    return complex(np.trace(env))


def norm(mps: MpsState, stats: ContractionStats | None = None) -> float:
    return float(np.sqrt(abs(overlap(mps, mps, stats))))


def entanglement_entropy(mps: MpsState, bond: int) -> float:
    """Von Neumann entropy at an internal bond (0-based), in nats."""
    if mps.boundary != "open":
        raise ValueError("bond entropies need an open-boundary state")
    if not 0 <= bond < mps.num_sites - 1:
        raise ValueError(f"bond must be in 0..{mps.num_sites - 2}")
    state = mps if mps.spectra is not None else canonicalize(mps)
    lam = np.asarray(state.spectra[bond])
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum())


def random_mps(num_sites: int, local_dim: int, max_bond: int, seed,
               boundary: str = "open") -> MpsState:
    """Random MPS with bonds capped at max_bond; open states come canonical."""
    rng = np.random.default_rng(seed)
    K, n, D = int(num_sites), int(local_dim), int(max_bond)
    tensors = []
    if boundary == "open":
        bonds = [1] + [min(D, n ** min(k, K - k)) for k in range(1, K)] + [1]
        for k in range(K):
            shape = (bonds[k], n, bonds[k + 1])
            tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return canonicalize(MpsState(tensors=_freeze(tensors), boundary="open"))
    for _ in range(K):
        shape = (D, n, D)
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MpsState(tensors=_freeze(tensors), boundary="periodic")


def ghz_periodic_mps(num_sites: int) -> MpsState:
    """The two diagonal matrices A^0 = diag(1,0), A^1 = diag(0,1), traced."""
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0, 0, 0] = 1.0
    a[1, 1, 1] = 1.0
    site = np.moveaxis(a, 0, 1)  # (r, i, r)
    return MpsState(tensors=_freeze([site] * num_sites), boundary="periodic")


def peps_1d(site_maps, max_bond: int) -> PureState:
    """Projected entangled pair state on a ring of maximally entangled pairs.

    site_maps[k] is an (N, D, D) array: the linear map C^D x C^D -> C^N
    applied to the right half of pair (k-1,k) and the left half of pair
    (k,k+1).  The result equals the periodic matrix-product amplitude
    Tr A^{i_1} ... A^{i_K}, normalized at the end.
    """
    D = int(max_bond)
    tensors = []
    for m in site_maps:
        m = np.asarray(m, dtype=complex)
        if m.ndim == 2:
            if m.shape[1] != D * D:
                raise ValueError(f"site map must have {D * D} columns")
            m = m.reshape(m.shape[0], D, D)
        if m.ndim != 3 or m.shape[1:] != (D, D):
            raise ValueError(f"site map shape {m.shape} does not match bond {D}")
        tensors.append(np.moveaxis(m, 0, 1))  # (D, N, D)
    mps = MpsState(tensors=_freeze(tensors), boundary="periodic")
    return to_dense(mps)


# ---------------------------------------------------------------------------
# MPS text format:
#   mps K N boundary
#   site k r_left r_right     (1-based k, then r_left*N*r_right lines "re im")
#   bond k                    (1-based k, then one line "re" per Schmidt weight)
# ---------------------------------------------------------------------------

def write_mps_file(path, mps: MpsState) -> None:
    dims = set(mps.dims)
    if len(dims) != 1:
        raise ValueError("the text format requires a uniform local dimension")
    n = dims.pop()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"mps {mps.num_sites} {n} {mps.boundary}\n")
        for k, t in enumerate(mps.tensors, start=1):
            rl, _, rr = t.shape
            fh.write(f"site {k} {rl} {rr}\n")
            for val in t.ravel():
                fh.write(f"{float(val.real)!r} {float(val.imag)!r}\n")
        if mps.spectra is not None:
            for k, lam in enumerate(mps.spectra, start=1):
                fh.write(f"bond {k}\n")
                for val in np.asarray(lam):
                    fh.write(f"{float(val)!r}\n")


def read_mps_file(path) -> MpsState:
    """Parse the MPS text format; raises FormatError with a line number on bad input."""
    records = _records(path)

    def values(count, width, what):
        """The next count records, each of width fields."""
        taken = 0
        for lineno, fields in islice(records, count):
            if len(fields) != width:
                raise FormatError(f"expected {what}", lineno)
            taken += 1
            yield lineno, fields
        if taken < count:
            raise FormatError(f"file ends before {what}")

    lineno, (tag, K, n, boundary) = next(values(1, 4, "'mps K N boundary' header"))
    K, n = _int(K, lineno), _int(n, lineno)
    if tag != "mps" or K < 1 or n < 1 or boundary not in ("open", "periodic"):
        raise FormatError("expected 'mps K N open|periodic' with K, N >= 1", lineno)
    tensors = []
    edge = 1 if boundary == "open" else None   # r_0 = r_K; site 1 sets it when periodic
    for k in range(1, K + 1):
        lineno, (tag, idx, rl, rr) = next(values(1, 4, f"'site {k} r_left r_right'"))
        if tag != "site" or idx != str(k):
            raise FormatError(f"expected 'site {k} r_left r_right'", lineno)
        rl, rr = _int(rl, lineno), _int(rr, lineno)
        if edge is None:
            edge = rl
        left = tensors[-1].shape[2] if tensors else edge
        if rl < 1 or rr < 1 or rl != left or (k == K and rr != edge):
            raise FormatError(f"site {k} bonds {rl} {rr} do not chain "
                              f"(r_left must be {left}, r_K must be {edge})", lineno)
        vals = [complex(_float(re, i), _float(im, i))
                for i, (re, im) in values(rl * n * rr, 2, f"'re im' values of site {k}")]
        tensors.append(np.array(vals, dtype=complex).reshape(rl, n, rr))
    spectra = []
    for lineno, fields in records:
        k = len(spectra) + 1
        if k >= K or fields != ["bond", str(k)]:
            raise FormatError(f"expected 'bond {k}' record" if k < K else "unexpected record", lineno)
        spectra.append(np.array([_float(x, i) for i, (x,) in values(
            tensors[k - 1].shape[2], 1, f"Schmidt weights of bond {k}")]))
    if 0 < len(spectra) < K - 1:
        raise FormatError(f"missing bond records: expected {K - 1}, found {len(spectra)}")
    return MpsState(tensors=_freeze(tensors), boundary=boundary,
                    spectra=tuple(spectra) if spectra else None)


# ---------------------------------------------------------------------------
# Nearest-neighbour Hamiltonians and single-site DMRG
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NnHamiltonian:
    """H = sum_k H_{k,k+1} + sum_k h_k on an open chain of K sites."""

    num_sites: int
    local_dim: int
    bond_ops: tuple            # K-1 Hermitian (N^2, N^2) matrices
    site_ops: tuple | None = None

    def __post_init__(self):
        n2 = self.local_dim ** 2
        if len(self.bond_ops) != self.num_sites - 1:
            raise ValueError("need one bond operator per nearest-neighbour pair")
        for h in self.bond_ops:
            if h.shape != (n2, n2) or np.abs(h - h.conj().T).max() > 1e-12:
                raise ValueError("bond operators must be Hermitian N^2 x N^2")
        if self.site_ops is not None:
            for h in self.site_ops:
                if h.shape != (self.local_dim,) * 2 or np.abs(h - h.conj().T).max() > 1e-12:
                    raise ValueError("site operators must be Hermitian N x N")


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def ising_hamiltonian(num_sites: int, g: float) -> NnHamiltonian:
    """Transverse-field Ising chain H = -sum ZZ - g sum X."""
    zz = -np.kron(PAULI_Z, PAULI_Z)
    return NnHamiltonian(num_sites=num_sites, local_dim=2,
                         bond_ops=_freeze([zz] * (num_sites - 1)),
                         site_ops=_freeze([-float(g) * PAULI_X] * num_sites))


def heisenberg_hamiltonian(num_sites: int) -> NnHamiltonian:
    """Isotropic antiferromagnet H = sum (XX + YY + ZZ)."""
    bond = (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
            + np.kron(PAULI_Z, PAULI_Z))
    return NnHamiltonian(num_sites=num_sites, local_dim=2,
                         bond_ops=_freeze([bond] * (num_sites - 1)))


def dense_hamiltonian(ham: NnHamiltonian) -> np.ndarray:
    """Full matrix of the chain Hamiltonian (for exact-diagonalization checks)."""
    K, n = ham.num_sites, ham.local_dim
    if n ** K > 2 ** 14:
        raise ValueError("dense Hamiltonian would exceed the size guard")
    total = np.zeros((n ** K, n ** K), dtype=complex)
    for k, h in enumerate(ham.bond_ops):
        total += np.kron(np.kron(np.eye(n ** k), h), np.eye(n ** (K - k - 2)))
    if ham.site_ops is not None:
        for k, h in enumerate(ham.site_ops):
            total += np.kron(np.kron(np.eye(n ** k), h), np.eye(n ** (K - k - 1)))
    return total


def _bond_term_factors(h: np.ndarray, n: int):
    """Split a two-site operator into sum_m C_m (x) B_m by SVD."""
    m = h.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    u, s, vh = np.linalg.svd(m)
    keep = s > 1e-12 * s[0]
    cs = [(u[:, i] * np.sqrt(s[i])).reshape(n, n) for i in np.nonzero(keep)[0]]
    bs = [(vh[i] * np.sqrt(s[i])).reshape(n, n) for i in np.nonzero(keep)[0]]
    return cs, bs


def _mpo_tensors(ham: NnHamiltonian):
    """Position-dependent MPO with bond layout [pass-through, bond terms, done]."""
    K, n = ham.num_sites, ham.local_dim
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    site = list(ham.site_ops) if ham.site_ops is not None else [zero] * K
    cs, bs = [], []
    for h in ham.bond_ops:
        c, b = _bond_term_factors(h, n)
        cs.append(c)
        bs.append(b)
    mpo = []
    for k in range(K):
        m_out = len(cs[k]) if k < K - 1 else 0
        m_in = len(bs[k - 1]) if k > 0 else 0
        rows, cols = 1 + m_in + 1, 1 + m_out + 1
        w = np.zeros((rows, n, n, cols), dtype=complex)
        w[0, :, :, 0] = eye
        for m, c in enumerate(cs[k] if k < K - 1 else []):
            w[0, :, :, 1 + m] = c
        w[0, :, :, cols - 1] = site[k]
        for m, b in enumerate(bs[k - 1] if k > 0 else []):
            w[1 + m, :, :, cols - 1] = b
        w[rows - 1, :, :, cols - 1] = eye
        mpo.append(w)
    # boundary vectors: start in the pass-through lane, finish in the done lane
    mpo[0] = mpo[0][:1]
    mpo[-1] = mpo[-1][:, :, :, -1:]
    return mpo


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    mps: MpsState
    rayleigh_history: tuple
    converged: bool
    num_sweeps: int


def dmrg_ground_state(ham: NnHamiltonian, max_bond: int,
                      max_sweeps: int = 60, tol: float = 1e-10,
                      seed=0) -> GroundStateResult:
    """Single-site DMRG minimizing the Rayleigh quotient over bond-D MPS.

    Sweeps left-to-right and back, solving the dense effective eigenproblem
    at one site at a time; the recorded per-sweep energy can only decrease.
    Returns the best state found, with converged=False if the energy gain
    never dropped below tol.
    """
    K, n = ham.num_sites, ham.local_dim
    if K > 40:
        raise ValueError("chain length capped at 40 sites")
    mpo = _mpo_tensors(ham)
    state = random_mps(K, n, max_bond, seed)
    tensors = [t.copy() for t in state.tensors]

    def left_update(env, a, w):
        tmp = np.tensordot(env, a, axes=([2], [0]))          # (ra, wl, N, rk)
        tmp = np.tensordot(w, tmp, axes=([0, 2], [1, 2]))    # (N, wr, ra, rk)
        return np.tensordot(a.conj(), tmp, axes=([0, 1], [2, 0]))  # (ra', wr, rk)

    def right_update(env, a, w):
        tmp = np.tensordot(a, env, axes=([2], [2]))          # (rl, N, ra, wr)
        tmp = np.tensordot(w, tmp, axes=([3, 2], [3, 1]))    # (wl, N, rl, ra)
        return np.tensordot(a.conj(), tmp, axes=([2, 1], [3, 1]))  # (rl', wl, rl)

    # right environments for sites 1..K-1; envs_r[k] covers sites k..K-1
    envs_r = [None] * (K + 1)
    envs_r[K] = np.ones((1, 1, 1), dtype=complex)
    for k in range(K - 1, 0, -1):
        envs_r[k] = right_update(envs_r[k + 1], tensors[k], mpo[k])
    envs_l = [None] * (K + 1)
    envs_l[0] = np.ones((1, 1, 1), dtype=complex)

    def solve_site(k):
        L, R, w = envs_l[k], envs_r[k + 1], mpo[k]
        heff = np.einsum("awb,wijv,cvd->aicbjd", L, w, R, optimize=True)
        d = L.shape[0] * n * R.shape[0]
        heff = heff.reshape(d, d)
        vals, vecs = np.linalg.eigh(0.5 * (heff + heff.conj().T))
        return float(vals[0]), vecs[:, 0].reshape(L.shape[0], n, R.shape[0])

    history = []
    prev_energy = None
    converged = False
    sweeps_done = 0
    for sweep in range(max_sweeps):
        energy = None
        for k in range(K - 1):     # left to right
            energy, t = solve_site(k)
            rl, _, rr = t.shape
            q, r = np.linalg.qr(t.reshape(rl * n, rr))
            tensors[k] = q.reshape(rl, n, -1)
            tensors[k + 1] = np.tensordot(r, tensors[k + 1], axes=([1], [0]))
            envs_l[k + 1] = left_update(envs_l[k], tensors[k], mpo[k])
        for k in range(K - 1, 0, -1):  # right to left
            energy, t = solve_site(k)
            rl, _, rr = t.shape
            u, s, vh = np.linalg.svd(t.reshape(rl, n * rr), full_matrices=False)
            tensors[k] = vh.reshape(-1, n, rr)
            tensors[k - 1] = np.tensordot(tensors[k - 1], u * s, axes=([2], [0]))
            envs_r[k] = right_update(envs_r[k + 1], tensors[k], mpo[k])
        history.append(energy)
        sweeps_done = sweep + 1
        if prev_energy is not None and abs(prev_energy - energy) < tol:
            converged = True
            break
        prev_energy = energy
    final = canonicalize(MpsState(tensors=_freeze(tensors), boundary="open"))
    return GroundStateResult(energy=history[-1], mps=final,
                             rayleigh_history=tuple(history),
                             converged=converged, num_sweeps=sweeps_done)


@dataclass(frozen=True)
class ScalingRow:
    size_x: int
    mean_entropy: float
    std_error: float
    reference: float       # Page value (random branch) or ln D cap (MPS branch)
    max_entropy: float


@dataclass(frozen=True)
class ScalingTable:
    mode: str
    rows: tuple


def scaling_experiment(num_sites: int, local_dim: int, bond_or_random,
                       samples: int, seed=0) -> ScalingTable:
    """Entropy of leading-|X| reductions: volume law vs bond-capped area law.

    bond_or_random="random" samples dense Fubini-Study states and reports
    mean entropy against the Page reference per |X| <= K/2.  An integer D
    samples random bond-D MPS and reports the bond entropies against the
    ln D cap per cut.
    """
    K, n = int(num_sites), int(local_dim)
    rng = np.random.default_rng(seed)
    rows = []
    if bond_or_random == "random":
        if n ** K > DENSE_GUARD:
            raise ValueError("dense branch exceeds the size guard")
        ent = {x: [] for x in range(1, K // 2 + 1)}
        for _ in range(samples):
            v = rng.standard_normal(n ** K) + 1j * rng.standard_normal(n ** K)
            v /= np.linalg.norm(v)
            for x in ent:
                m = v.reshape(n ** x, -1)
                lam = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0, None)
                lam = lam[lam > 0]
                ent[x].append(float(-(lam * np.log(lam)).sum()))
        for x, vals in ent.items():
            vals = np.asarray(vals)
            rows.append(ScalingRow(
                size_x=x, mean_entropy=float(vals.mean()),
                std_error=float(vals.std(ddof=1) / np.sqrt(len(vals))),
                reference=page_expected_entropy(x, K - x, n),
                max_entropy=float(vals.max())))
        return ScalingTable(mode="random", rows=tuple(rows))
    D = int(bond_or_random)
    ent = {cut: [] for cut in range(1, K)}
    for s in range(samples):
        mps = random_mps(K, n, D, rng.integers(0, 2 ** 63))
        for cut in ent:
            ent[cut].append(entanglement_entropy(mps, cut - 1))
    for cut, vals in ent.items():
        vals = np.asarray(vals)
        rows.append(ScalingRow(
            size_x=cut, mean_entropy=float(vals.mean()),
            std_error=float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            reference=float(np.log(D)),
            max_entropy=float(vals.max())))
    return ScalingTable(mode="mps", rows=tuple(rows))
