"""Dense pure states, local operations, reductions and spectra.

Conventions used throughout the package:

* A state on K subsystems with local dimensions ``dims = (d_1, ..., d_K)``
  is stored as a flat complex vector in row-major product-basis order,
  i.e. the *first* subsystem's index is the most significant digit.
  ``amps.reshape(dims)`` therefore gives the amplitude tensor with one
  axis per subsystem.
* Sites are indexed 0..K-1 in the Python API.  Text formats and reports
  label sites 1..K.
* Entropies are in nats (natural logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
UNITARITY_TOL = 1e-10
RANK_RTOL = 1e-10  # a Schmidt coefficient counts toward the rank above RANK_RTOL * max
DENSE_GUARD = 2 ** 24  # refuse dense states beyond this many amplitudes
WORK_BUDGET = 10 ** 11  # refuse an exponential scan beyond this many multiply-adds
_WRITE_BLOCK = 4096  # lines per write_state_file block


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of a multipartite system.

    Attributes
    ----------
    dims : tuple of int
        Local dimensions (d_1, ..., d_K).
    amps : ndarray
        Flat complex amplitudes of length prod(dims), unit 2-norm.
    norm_factor : float
        The 2-norm of the raw input amplitudes that was divided out at
        construction time.
    """

    dims: tuple
    amps: np.ndarray
    norm_factor: float = 1.0

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amps.reshape(self.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "PureState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    entries: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending (ties keep eigh output order)."""
        return np.sort(np.linalg.eigvalsh(self.entries))[::-1]

    def purity(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a bipartite split: |psi> = sum_i sqrt(lambdas[i]) |u_i>|v_i>."""

    lambdas: np.ndarray        # descending, non-negative, sums to 1
    left_basis: np.ndarray     # columns are |u_i>
    right_basis: np.ndarray    # columns are |v_i>
    rank: int


@dataclass(frozen=True)
class Bipartition:
    """Split of sites 0..K-1 into a non-empty proper subset and its complement."""

    left_sites: tuple
    right_sites: tuple

    @classmethod
    def of(cls, left_sites, num_sites: int) -> "Bipartition":
        left = tuple(sorted(set(int(s) for s in left_sites)))
        if not left:
            raise ValueError("left part must be non-empty")
        if any(s < 0 or s >= num_sites for s in left):
            raise ValueError(f"site index out of range 0..{num_sites - 1}")
        right = tuple(s for s in range(num_sites) if s not in left)
        if not right:
            raise ValueError("left part must be a proper subset")
        return cls(left, right)


@dataclass(frozen=True)
class SpectraReport:
    eigenvalues: np.ndarray
    von_neumann_entropy: float
    linear_entropy: float
    purity: float


def _as_complex_vector(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex).ravel()
    return v


def new_state(dims, amplitudes) -> PureState:
    """Build a normalized PureState from raw amplitudes.

    Raises ValueError on an amplitude-count mismatch, an all-zero vector or
    a norm that is not finite.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"local dimensions must be positive, got {dims}")
    v = _as_complex_vector(amplitudes)
    expected = int(np.prod(dims))
    if v.size != expected:
        raise ValueError(f"expected {expected} amplitudes for dims {dims}, got {v.size}")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if not math.isfinite(nrm):
        raise ValueError("amplitude norm overflows or is not finite; rescale the input")
    if nrm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    v = v / nrm
    v.setflags(write=False)
    return PureState(dims=dims, amps=v, norm_factor=nrm)


def basis_state(dims, digits) -> PureState:
    """Product basis state |d_1 d_2 ... d_K>."""
    dims = tuple(int(d) for d in dims)
    idx = basis_index(dims, digits)
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    v[idx] = 1.0
    return new_state(dims, v)


def basis_index(dims, digits) -> int:
    """Flat index of a basis string, first subsystem most significant."""
    digits = [int(d) for d in digits]
    if len(digits) != len(dims):
        raise ValueError(f"expected {len(dims)} digits, got {len(digits)}")
    idx = 0
    for d, n in zip(digits, dims):
        if d < 0 or d >= n:
            raise ValueError(f"digit {d} out of range for local dimension {n}")
        idx = idx * n + d
    return idx


def _hamming_weights(num_qubits: int) -> np.ndarray:
    """Number of 1s in each K-bit basis index 0..2^K-1, first qubit most significant."""
    w = np.zeros(1, dtype=np.uint8)   # one byte per basis state; weights stay <= K
    for _ in range(num_qubits):
        w = np.concatenate((w, w + 1))
    return w


def ghz_state(num_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if num_qubits < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    v = np.zeros(2 ** num_qubits, dtype=complex)
    v[0] = v[-1] = 1.0
    return new_state((2,) * num_qubits, v)


def w_state(num_qubits: int) -> PureState:
    """Equal superposition of the weight-1 bitstrings."""
    if num_qubits < 2:
        raise ValueError("W needs at least 2 qubits")
    return dicke_state(num_qubits, 1)


def dicke_state(num_qubits: int, num_excitations: int) -> PureState:
    """Symmetric state with a fixed number of |1> excitations."""
    K, k = int(num_qubits), int(num_excitations)
    if not 0 <= k <= K:
        raise ValueError(f"excitation count {k} out of range 0..{K}")
    v = (_hamming_weights(K) == k).astype(complex)
    return new_state((2,) * K, v)


def product_state(local_vectors) -> PureState:
    """Tensor product of per-site vectors."""
    v = np.array([1.0], dtype=complex)
    dims = []
    for x in local_vectors:
        x = _as_complex_vector(x)
        dims.append(x.size)
        v = np.kron(v, x)
    return new_state(tuple(dims), v)


def apply_local(state: PureState, operators, mode: str = "unitary") -> PureState:
    """Apply one local operator per site.

    mode="unitary" requires each operator to be unitary (residual <= 1e-10)
    and returns the transformed state without renormalizing; mode="slocc"
    requires invertibility and renormalizes afterwards.
    """
    if mode not in ("unitary", "slocc"):
        raise ValueError(f"unknown mode {mode!r}")
    ops = [np.asarray(op, dtype=complex) for op in operators]
    if len(ops) != state.num_sites:
        raise ValueError(f"need {state.num_sites} operators, got {len(ops)}")
    for k, (op, d) in enumerate(zip(ops, state.dims)):
        if op.shape != (d, d):
            raise ValueError(f"operator {k} has shape {op.shape}, expected {(d, d)}")
        if mode == "unitary":
            resid = np.abs(op.conj().T @ op - np.eye(d)).max()
            if resid > UNITARITY_TOL:
                raise ValueError(f"operator {k} is not unitary (residual {resid:.2e})")
        else:
            sv = np.linalg.svd(op, compute_uv=False)
            if sv[-1] <= 1e-12 * sv[0]:
                raise ValueError(f"operator {k} is singular in SLOCC mode")
    T = state.tensor
    for k, op in enumerate(ops):
        T = np.tensordot(op, T, axes=([1], [k]))
        T = np.moveaxis(T, 0, k)
    v = np.ascontiguousarray(T.ravel())
    if mode == "unitary":
        # norm preserved by unitarity; renormalization is deliberately skipped
        v.setflags(write=False)
        return PureState(dims=state.dims, amps=v, norm_factor=1.0)
    return new_state(state.dims, v)


def _matricize(state: PureState, kept_sites) -> np.ndarray:
    """Reshape amplitudes to (dim of kept sites) x (dim of the rest)."""
    kept = tuple(kept_sites)
    rest = tuple(s for s in range(state.num_sites) if s not in kept)
    perm = kept + rest
    d_keep = int(np.prod([state.dims[s] for s in kept])) if kept else 1
    return np.transpose(state.tensor, perm).reshape(d_keep, -1)


def partial_trace(state: PureState, kept_sites) -> DensityMatrix:
    """Reduced density matrix on the kept sites (trace out the complement)."""
    kept = tuple(sorted(set(int(s) for s in kept_sites)))
    if not kept:
        raise ValueError("kept_sites must be non-empty")
    if any(s < 0 or s >= state.num_sites for s in kept):
        raise ValueError("site index out of range")
    if len(kept) == state.num_sites:
        raise ValueError("kept_sites must be a proper subset")
    M = _matricize(state, kept)
    rho = M @ M.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho.setflags(write=False)
    return DensityMatrix(dim=rho.shape[0], entries=rho)


def validate_density_matrix(dm: DensityMatrix) -> None:
    """Raise ValueError unless dm is Hermitian, unit trace and PSD within tolerance."""
    rho = dm.entries
    if rho.shape != (dm.dim, dm.dim):
        raise ValueError("entries shape does not match dim")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > HERMITICITY_TOL or abs(trace.imag) > HERMITICITY_TOL:
        raise ValueError("trace is not 1")
    if np.linalg.eigvalsh(rho).min() < EIGENVALUE_FLOOR:
        raise ValueError("matrix has a negative eigenvalue")


def schmidt(state: PureState, bipartition: Bipartition) -> SchmidtDecomposition:
    """Schmidt decomposition across a bipartition.

    The lambdas are the common eigenvalue spectrum of the two reductions,
    sorted descending; the bases are orthonormal vector families on the
    left and right factors.
    """
    M = _matricize(state, bipartition.left_sites)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    lam = s ** 2
    lam = lam / lam.sum()
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s[0] > 0 else 0
    lam.setflags(write=False)
    # |psi> = sum_i sqrt(lam_i) |u_i>|v_i> with u_i = U[:, i], v_i = Vh[i, :]
    return SchmidtDecomposition(lambdas=lam, left_basis=U,
                                right_basis=Vh.T, rank=rank)


def _entropy(weights: np.ndarray) -> float:
    """-sum p ln p (nats) over the positive weights p; the rest count as zero."""
    p = weights[weights > 0]
    return float(-(p * np.log(p)).sum())


def spectra_report(dm: DensityMatrix) -> SpectraReport:
    """Eigenvalues (descending), von Neumann entropy (nats), linear entropy, purity."""
    lam = dm.eigenvalues()
    purity = float(np.sum(np.abs(dm.entries) ** 2))
    return SpectraReport(eigenvalues=lam, von_neumann_entropy=_entropy(lam),
                         linear_entropy=1.0 - purity, purity=purity)


def random_state(dims, seed) -> PureState:
    """Fubini-Study-uniform sample: i.i.d. complex Gaussian amplitudes, normalized."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return new_state(dims, v)


def page_expected_entropy(size_x: int, size_xbar: int, local_dim: int) -> float:
    """Mean reduction entropy of a random pure state: |X| ln N - N^(|X|-|Xbar|)/2.

    This is the leading asymptotic form; the omitted correction is of order
    N^(-|X|-|Xbar|)/2.
    """
    if size_x > size_xbar:
        raise ValueError("size_x must not exceed size_xbar")
    if local_dim < 2:
        raise ValueError("local dimension must be at least 2")
    if size_x < 1:
        raise ValueError("size_x must be positive")
    return size_x * math.log(local_dim) - 0.5 * float(local_dim) ** (size_x - size_xbar)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Text formats.  Every reader in the package (state, MPS, code and
# constellation files) takes its lines from _records and raises FormatError:
# '#' starts a comment, blank lines are skipped, fields are whitespace-split.
# ---------------------------------------------------------------------------

class FormatError(ValueError):
    """Malformed text file; carries the offending 1-based line number, if any."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def _records(path):
    """Yield (lineno, fields) for each non-blank line, '#' comments removed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split("#", 1)[0].split()
                if fields:
                    yield lineno, fields
        except UnicodeDecodeError:
            raise FormatError("file is not UTF-8 text") from None


def _int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"non-integer field {text!r}", lineno) from None


def _float(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"non-numeric or non-finite field {text!r}", lineno)
    return value


# State file format (shared by all modules and the CLI):
#   line 1:  dims d1 d2 ... dK
#   then:    <basis-label> <real> <imag>     (omitted labels are zero)
# A basis label is K digits ("0120") or K comma-separated integers ("10,1");
# the writer uses the second form only when some d > 10.  The loader normalizes.

def _basis_index(label: str, dims: tuple, lineno: int) -> int:
    # a one-site label is a single integer in either form
    digits = label.split(",") if "," in label or len(dims) == 1 else label
    if (len(digits) != len(dims) or not label.isascii()
            or not all(map(str.isdigit, digits))):
        raise FormatError(f"basis string {label!r} must have {len(dims)} digits", lineno)
    idx = 0
    for d, n in zip(map(int, digits), dims):
        if d >= n:
            raise FormatError(f"digit {d} out of range for local dimension {n}", lineno)
        idx = idx * n + d
    return idx


def read_state_file(path) -> PureState:
    """Parse a state file; raises FormatError with a line number on bad input."""
    dims = amps = seen = None
    for lineno, fields in _records(path):
        if dims is None:
            if fields[0] != "dims":
                raise FormatError("first non-comment line must start with 'dims'", lineno)
            dims = tuple(_int(x, lineno) for x in fields[1:])
            if not dims or any(d < 2 for d in dims):
                raise FormatError("dims must list integers >= 2", lineno)
            if math.prod(dims) > DENSE_GUARD:
                raise FormatError(f"dims {dims} exceed {DENSE_GUARD} amplitudes", lineno)
            amps = np.zeros(math.prod(dims), dtype=complex)
            seen = bytearray(amps.size)
            continue
        if len(fields) != 3:
            raise FormatError(f"expected 'basis re im', got {len(fields)} fields", lineno)
        label, re_s, im_s = fields
        idx = _basis_index(label, dims, lineno)
        if seen[idx]:
            raise FormatError(f"duplicate basis string {label!r}", lineno)
        seen[idx] = 1
        amps[idx] = complex(_float(re_s, lineno), _float(im_s, lineno))
    if dims is None:
        raise FormatError("no 'dims' line found")
    if not np.any(amps):
        raise FormatError("zero vector: no non-zero amplitudes given")
    return new_state(dims, amps)


def write_state_file(path, state: PureState, threshold: float = 0.0) -> None:
    """Write a state in the text format; amplitudes with |a| <= threshold are omitted.

    Raises ValueError, and leaves ``path`` untouched, when no amplitude is kept.
    """
    dims = state.dims
    keep = np.flatnonzero(np.abs(state.amps) > threshold)
    if keep.size == 0:
        raise ValueError(f"threshold {threshold} keeps no amplitude; "
                         "the file would hold a zero vector")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dims " + " ".join(str(d) for d in dims) + "\n")
        # fixed blocks of lines bound the memory that the temporary strings take
        for start in range(0, keep.size, _WRITE_BLOCK):
            idx = keep[start:start + _WRITE_BLOCK]
            digits = np.unravel_index(idx, dims)
            if max(dims) > 10:
                labels = [",".join(map(str, row)) for row in np.column_stack(digits).tolist()]
            else:  # one ASCII byte per digit, each row read as one K-byte string
                chars = np.empty((idx.size, len(dims)), dtype=np.uint8)
                for k, column in enumerate(digits):
                    chars[:, k] = column + ord("0")
                labels = chars.view(f"S{len(dims)}").ravel().astype(str).tolist()
            block = state.amps[idx]
            # repr of a float list is repr(float) per value, joined by ", "
            re_s = repr(block.real.tolist())[1:-1].split(", ")
            im_s = repr(block.imag.tolist())[1:-1].split(", ")
            fh.write("".join(map("{} {} {}\n".format, labels, re_s, im_s)))
