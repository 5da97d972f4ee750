"""Stellar representation of symmetric multi-qubit states.

A symmetric state of K qubits with Dicke coefficients d_k is encoded in the
root multiset ("constellation") of

    p(z) = sum_k (-1)^k sqrt(C(K, k)) d_k z^(K-k) ,

with one star at infinity for every missing leading degree.  Under this
convention the Dicke state |K-k, k> has K-k stars at z = 0 (the north pole
of the sphere) and k stars at infinity (the south pole).  Local unitaries
act as rotations of the sphere and SLOCC operations as Mobius maps.

The module also carries the classical machinery for binary forms of degree
2 to 4 (resultants, discriminants, the cubic Hessian and syzygy, and the
two quartic invariants) plus integer-partition counting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .states import FormatError, PureState, _float, _hamming_weights, _records, new_state

INF = complex(math.inf, 0.0)

DEGENERACY_TOL = 1e-7      # chordal distance at which stars coincide, infinity included
SYMMETRY_TOL = 1e-10       # largest amplitude spread within one Hamming weight
COEFF_RTOL = 1e-12         # relative cutoff for treating a leading coefficient as zero


def is_inf(z: complex) -> bool:
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def sphere_point(z: complex) -> np.ndarray:
    """Inverse stereographic projection; 0 -> north pole, inf -> south pole."""
    if is_inf(z):
        return np.array([0.0, 0.0, -1.0])
    r2 = z.real ** 2 + z.imag ** 2
    return np.array([2 * z.real, 2 * z.imag, 1.0 - r2]) / (1.0 + r2)


def chordal_distance(z1: complex, z2: complex) -> float:
    """Euclidean distance of the projected points on the unit sphere (max 2)."""
    return float(np.linalg.norm(sphere_point(z1) - sphere_point(z2)))


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Symmetric K-qubit state given by its Dicke coefficients d_0..d_K."""

    num_qubits: int
    dicke_coeffs: np.ndarray

    def __post_init__(self):
        if self.dicke_coeffs.shape != (self.num_qubits + 1,):
            raise ValueError("need K+1 Dicke coefficients")


@dataclass(frozen=True, eq=False)
class Constellation:
    """Multiset of points on the extended complex plane; finite stars sorted by (re, im)."""

    finite_stars: np.ndarray
    inf_count: int = 0

    def __post_init__(self):
        stars = np.sort(np.asarray(self.finite_stars, dtype=complex), kind="stable")
        stars.setflags(write=False)
        object.__setattr__(self, "finite_stars", stars)

    def all_stars(self) -> list:
        return list(self.finite_stars) + [INF] * self.inf_count


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) <= 1e-12:
            raise ValueError("Mobius map must have |ad - bc| > 1e-12")

    def __call__(self, z: complex) -> complex:
        if is_inf(z):
            return INF if self.c == 0 else self.a / self.c
        den = self.c * z + self.d
        if den == 0:
            return INF
        return (self.a * z + self.b) / den


def mobius_from_local_operator(u) -> MobiusMap:
    """Mobius map matching the action of a shared invertible single-qubit operator.

    A local operator with matrix [[u00, u01], [u10, u11]] sends the star
    z = beta/alpha of the qubit alpha|0> + beta|1> to (u11 z + u10)/(u01 z + u00);
    unitaries give rotations of the sphere, general invertible matrices give
    the full SLOCC action.
    """
    u = np.asarray(u, dtype=complex)
    return MobiusMap(a=u[1, 1], b=u[1, 0], c=u[0, 1], d=u[0, 0])


def symmetric_from_pure(state: PureState) -> SymmetricState:
    """Extract Dicke coefficients; raises if the state is not permutation symmetric."""
    if any(d != 2 for d in state.dims):
        raise ValueError("symmetric representation needs qubit subsystems")
    K = state.num_sites
    coeffs = np.zeros(K + 1, dtype=complex)
    residual = 0.0
    weights = _hamming_weights(K)
    for k in range(K + 1):
        vals = state.amps[weights == k]
        mean = vals.mean()
        residual = max(residual, float(np.abs(vals - mean).max()))
        coeffs[k] = mean * math.sqrt(comb(K, k))
    if residual > SYMMETRY_TOL:
        raise ValueError(f"state is not permutation symmetric (residual {residual:.2e})")
    coeffs /= np.linalg.norm(coeffs)
    coeffs.setflags(write=False)
    return SymmetricState(num_qubits=K, dicke_coeffs=coeffs)


def _majorana_weights(K: int) -> np.ndarray:
    """(-1)^k sqrt(C(K, k)) for k = 0..K: the Dicke coefficient d_k's weight in p(z)."""
    return np.array([(-1) ** k * math.sqrt(comb(K, k)) for k in range(K + 1)])


def symmetric_to_pure(sym: SymmetricState) -> PureState:
    """Expand Dicke coefficients into the full 2^K amplitude vector."""
    K = sym.num_qubits
    v = (sym.dicke_coeffs / np.abs(_majorana_weights(K)))[_hamming_weights(K)]
    return new_state((2,) * K, v)


def majorana_coefficients(sym: SymmetricState) -> np.ndarray:
    """Coefficients of p(z), highest power first: the numbers form_invariants roots."""
    return form_polynomial_coeffs(form_from_sym(sym), sym.num_qubits)


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    deriv = np.polyder(coeffs)
    p = np.polyval(coeffs, roots)
    dp = np.polyval(deriv, roots)
    safe = np.abs(dp) > 1e-14 * np.abs(coeffs[0])
    out = roots.copy()
    out[safe] = roots[safe] - p[safe] / dp[safe]
    return out


def _clusters(points, radius: float) -> list:
    """Index groups of points joined by chains of chordal distance <= radius."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if chordal_distance(points[i], points[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _snap_multiple_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Collapse root clusters that are genuine multiple roots.

    Companion-matrix eigenvalues of an m-fold root scatter over a disc of
    radius ~eps^(1/m), far beyond any sensible coincidence tolerance.  A
    cluster is collapsed onto the Newton-refined root of the (m-1)-th
    derivative, but only if all lower derivatives vanish there to rounding
    accuracy, so nearby-but-distinct roots are left untouched.  A cluster
    that fails is split again at a tenth of the radius, at most six times,
    so a multiple root beside a distinct star is still found.
    """
    # eigenvalue scatter of an m-fold root grows like eps^(1/m); widen the
    # candidate radius with the degree and rely on the validation below
    radius = min(max(30.0 * (1e-16) ** (1.0 / max(2, len(coeffs) - 1)), 1e-3), 3e-2)
    scale = np.abs(coeffs).max()
    deg = len(coeffs) - 1
    out = roots.astype(complex)
    pending = [(np.arange(len(roots)), radius, 6)]
    while pending:
        indices, radius, splits = pending.pop()
        for members in _clusters(roots[indices], radius):
            members = indices[members]
            if len(members) < 2:
                continue
            c = _multiple_root(coeffs, roots[members], scale, deg)
            if c is not None:
                out[members] = c
            elif splits:
                pending.append((members, radius / 10, splits - 1))
    return out


def _multiple_root(coeffs: np.ndarray, cluster: np.ndarray, scale: float, deg: int):
    """The m-fold root that the m cluster points scatter from, or None."""
    m = len(cluster)
    dm = coeffs
    for _ in range(m - 1):
        dm = np.polyder(dm)
    dm1 = np.polyder(dm)
    c = np.mean(cluster)
    for _ in range(32):
        val, slope = np.polyval(dm, c), np.polyval(dm1, c)
        if abs(slope) == 0.0:
            break
        step = val / slope
        c = c - step
        if abs(step) <= 1e-15 * max(1.0, abs(c)):
            break
    dj = coeffs
    for j in range(m):
        # true m-fold roots evaluate to ~1e-15 * scale here; distinct roots
        # separated by d contribute ~d^2, so this resolves d down to ~1e-6
        bound = 5e-13 * scale * max(1.0, abs(c)) ** (deg - j) * math.perm(deg, j)
        if abs(np.polyval(dj, c)) > bound:
            return None
        dj = np.polyder(dj)
    return c


def _stars(coeffs: np.ndarray) -> tuple:
    """(snapped finite roots, roots at infinity) of a polynomial, highest power first.

    Each leading coefficient within `COEFF_RTOL` of zero, relative to the
    largest, is a missing degree: one root at infinity.
    """
    scale = np.abs(coeffs).max()
    lead = 0
    while lead < len(coeffs) and abs(coeffs[lead]) <= COEFF_RTOL * scale:
        lead += 1
    trimmed = coeffs[lead:]
    if len(trimmed) <= 1:
        return np.array([], dtype=complex), lead
    roots = _newton_polish(trimmed, np.roots(trimmed).astype(complex))
    return _snap_multiple_roots(trimmed, roots), lead


def to_constellation(sym: SymmetricState) -> Constellation:
    """Roots (with multiplicity) of the Majorana polynomial; deficit roots at inf."""
    coeffs = majorana_coefficients(sym)
    if np.abs(coeffs).max() == 0:
        raise ValueError("zero coefficient vector")
    finite, inf_count = _stars(coeffs)
    return Constellation(finite_stars=finite, inf_count=inf_count)


def from_constellation(stars) -> SymmetricState:
    """Symmetric state whose Majorana roots are the given stars.

    The global phase is fixed by making the first nonzero Dicke coefficient
    real positive.
    """
    stars = [complex(z) for z in stars]
    finite = [z for z in stars if not is_inf(z)]
    K = len(stars)
    inf_count = K - len(finite)
    if K < 1:
        raise ValueError("need at least one star")
    poly = np.poly(np.array(finite)) if finite else np.array([1.0 + 0j])
    coeffs = np.zeros(K + 1, dtype=complex)
    coeffs[inf_count:] = poly
    d = coeffs / _majorana_weights(K)
    d /= np.linalg.norm(d)
    scale = np.abs(d).max()
    for val in d:
        if abs(val) > 1e-12 * scale:
            d = d * (abs(val) / val)
            break
    d.setflags(write=False)
    return SymmetricState(num_qubits=K, dicke_coeffs=d)


def apply_mobius(constellation: Constellation, m: MobiusMap) -> Constellation:
    """Apply z -> (az+b)/(cz+d) to every star, handling infinity projectively."""
    out = [m(z) for z in constellation.all_stars()]
    finite = [z for z in out if not is_inf(z)]
    return Constellation(finite_stars=finite, inf_count=len(out) - len(finite))


def degeneracy_type(constellation: Constellation) -> tuple:
    """Partition of K recording star-coincidence multiplicities, descending."""
    sizes = (len(c) for c in _clusters(constellation.all_stars(), DEGENERACY_TOL))
    return tuple(sorted(sizes, reverse=True))


def _proj(z: complex) -> tuple:
    return (1.0 + 0j, 0j) if is_inf(z) else (complex(z), 1.0 + 0j)


def cross_ratio(z1, z2, z3, z4) -> complex:
    """(z1-z3)(z2-z4) / ((z2-z3)(z1-z4)) on the extended plane."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = _proj(z1), _proj(z2), _proj(z3), _proj(z4)
    num = (a1 * b3 - a3 * b1) * (a2 * b4 - a4 * b2)
    den = (a2 * b3 - a3 * b2) * (a1 * b4 - a4 * b1)
    if num == 0 and den == 0:
        raise ValueError("cross ratio is indeterminate (coinciding points)")
    if den == 0:
        return INF
    return num / den


def cross_ratio_orbit(lam: complex) -> list:
    """The six values the cross ratio takes under permutations of the points."""
    a, b = _proj(lam)
    pairs = [(a, b), (b, a), (b - a, b), (b, b - a), (a, a - b), (a - b, a)]
    out = []
    for p, q in pairs:
        out.append(INF if q == 0 else p / q)
    return out


def orbit_canonical(lam: complex) -> complex:
    """Deterministic representative of the six-value orbit.

    Picks the value with |z| <= 1 and Re z <= 1/2, preferring non-negative
    imaginary part, then the lexicographically smallest (Re, Im).
    """
    eps = 1e-12
    candidates = [z for z in cross_ratio_orbit(lam)
                  if not is_inf(z) and abs(z) <= 1 + eps and z.real <= 0.5 + eps]
    if not candidates:
        raise ArithmeticError(f"no orbit member of {lam} in the fundamental region")
    key = lambda z: (z.imag < -eps, z.real, z.imag)
    return min(candidates, key=key)


@dataclass(frozen=True)
class SymClassification:
    num_qubits: int
    degeneracy: tuple
    label: str
    cross_ratio: complex | None = None
    ghz_equivalent: bool = False
    tetrahedral: bool = False
    concyclic: bool = False


def classify_sym(sym: SymmetricState) -> SymClassification:
    """SLOCC classification of a symmetric state of 3 or 4 qubits."""
    K = sym.num_qubits
    if K not in (3, 4):
        raise ValueError("classification is implemented for 3 or 4 qubits")
    con = to_constellation(sym)
    dtype = degeneracy_type(con)
    if K == 3:
        label = {(3,): "Separable", (2, 1): "W", (1, 1, 1): "GHZ"}[dtype]
        return SymClassification(num_qubits=3, degeneracy=dtype, label=label)
    if dtype != (1, 1, 1, 1):
        label = "Separable" if dtype == (4,) else "Degenerate"
        return SymClassification(num_qubits=4, degeneracy=dtype, label=label)
    stars = con.all_stars()
    lam = orbit_canonical(cross_ratio(*stars))
    ghz = abs(lam - orbit_canonical(-1.0 + 0j)) <= 1e-6
    tetra = abs(lam - orbit_canonical(cmath.exp(1j * math.pi / 3))) <= 1e-6
    concyclic = abs(lam.imag) <= 1e-6
    label = "GHZ" if ghz else ("Tetrahedral" if tetra else "generic")
    return SymClassification(num_qubits=4, degeneracy=dtype, label=label,
                             cross_ratio=lam, ghz_equivalent=ghz,
                             tetrahedral=tetra, concyclic=concyclic)


# ---------------------------------------------------------------------------
# Binary forms.  Degree-n forms use the binomial coefficient convention
#   Q(u, v) = sum_k C(n, k) a_k u^(n-k) v^k ,
# equivalently p(z) = Q(z, 1) = sum_k C(n, k) a_k z^(n-k).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormInvariants:
    degree: int
    discriminant: complex
    hessian_coeffs: tuple | None = None   # (c20, c11, c02) of the cubic Hessian
    syzygy_residual: float | None = None
    i1: complex | None = None             # quartic weight-4 invariant
    i2: complex | None = None             # quartic weight-6 invariant


def resultant(p_coeffs, q_coeffs) -> complex:
    """Resultant of two polynomials (coefficients highest power first).

    Determinant of the (n+m) x (n+m) matrix whose first row holds the n-th
    order coefficients followed by m-1 zeros, each of the next m-1 rows
    shifted one step right, then the same pattern for the second polynomial.
    """
    p = np.asarray(p_coeffs, dtype=complex)
    q = np.asarray(q_coeffs, dtype=complex)
    n, m = len(p) - 1, len(q) - 1
    if n < 1 or m < 1:
        raise ValueError("both polynomials must have order >= 1")
    if p[0] == 0 or q[0] == 0:
        raise ValueError("leading coefficients must be nonzero")
    size = n + m
    M = np.zeros((size, size), dtype=complex)
    for i in range(m):
        M[i, i:i + n + 1] = p
    for i in range(n):
        M[m + i, i:i + m + 1] = q
    return complex(np.linalg.det(M))


def form_polynomial_coeffs(a, degree: int) -> np.ndarray:
    """Expand binomial-convention coefficients into plain polynomial ones."""
    a = np.asarray(a, dtype=complex)
    return np.array([comb(degree, k) * a[k] for k in range(degree + 1)])


def form_from_sym(sym: SymmetricState) -> np.ndarray:
    """Binomial-convention form coefficients of a symmetric state, a_k = (-1)^k d_k / sqrt(C(K,k))."""
    return sym.dicke_coeffs / _majorana_weights(sym.num_qubits)


def _cubic_discriminant(a) -> complex:
    # a0^2 a3^2 - 6 a0 a1 a2 a3 + 4 a0 a2^3 + 4 a1^3 a3 - 3 a1^2 a2^2, written
    # through the Hessian minors: finite when a0 = 0, and second-order small
    # at a triple root, where all three minors vanish
    a0, a1, a2, a3 = a
    return complex((a0 * a3 - a1 * a2) ** 2 - 4 * (a0 * a2 - a1 ** 2) * (a1 * a3 - a2 ** 2))


def _cubic_eval(a, u, v):
    a0, a1, a2, a3 = a
    return a0 * u ** 3 + 3 * a1 * u ** 2 * v + 3 * a2 * u * v ** 2 + a3 * v ** 3


def _cubic_hessian_coeffs(a) -> tuple:
    # determinant of the matrix of second derivatives of Q, a quadratic form
    a0, a1, a2, a3 = a
    c20 = 36 * (a0 * a2 - a1 ** 2)
    c11 = 36 * (a0 * a3 - a1 * a2)
    c02 = 36 * (a1 * a3 - a2 ** 2)
    return (complex(c20), complex(c11), complex(c02))


def _cubic_t_covariant(a, u, v):
    # Jacobian of the form and its Hessian: T = Q_u H_v - Q_v H_u.  With the
    # conventions above it satisfies T^2 = 2^4 3^6 Delta Q^2 - H^3 identically.
    a0, a1, a2, a3 = a
    qu = 3 * (a0 * u ** 2 + 2 * a1 * u * v + a2 * v ** 2)
    qv = 3 * (a1 * u ** 2 + 2 * a2 * u * v + a3 * v ** 2)
    c20, c11, c02 = _cubic_hessian_coeffs(a)
    hu = 2 * c20 * u + c11 * v
    hv = c11 * u + 2 * c02 * v
    return qu * hv - qv * hu


_SYZYGY_SAMPLES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 1j), (2, -1))


def form_invariants(coeffs, degree: int) -> FormInvariants:
    """Discriminant and companions of a binary form of degree 2, 3 or 4.

    The discriminant is exactly 0 when the form's stars, as
    `to_constellation` finds them, coincide by `degeneracy_type`.
    Otherwise it is the computed value.
    """
    a = np.asarray(coeffs, dtype=complex)
    if degree not in (2, 3, 4):
        raise ValueError("degree must be 2, 3 or 4")
    if len(a) != degree + 1:
        raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
    if degree == 2:
        delta, extra = a[0] * a[2] - a[1] ** 2, {}
    elif degree == 3:
        delta = _cubic_discriminant(a)
        hess = _cubic_hessian_coeffs(a)
        scale = max(np.abs(a).max() ** 6, 1e-300)
        resid = 0.0
        for u, v in _SYZYGY_SAMPLES:
            t = _cubic_t_covariant(a, u, v)
            q = _cubic_eval(a, u, v)
            h = (hess[0] * u ** 2 + hess[1] * u * v + hess[2] * v ** 2)
            resid = max(resid, abs(t ** 2 - (2 ** 4 * 3 ** 6) * delta * q ** 2 + h ** 3)
                        / (scale * max(abs(u), abs(v)) ** 6))
        extra = {"hessian_coeffs": hess, "syzygy_residual": resid}
    else:
        i1 = a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] ** 2
        i2 = complex(np.linalg.det(np.array([[a[0], a[1], a[2]],
                                             [a[1], a[2], a[3]],
                                             [a[2], a[3], a[4]]], dtype=complex)))
        delta, extra = i1 ** 3 - 27 * i2 ** 2, {"i1": complex(i1), "i2": i2}
    if degeneracy_type(Constellation(*_stars(form_polynomial_coeffs(a, degree))))[0] > 1:
        delta = 0
    return FormInvariants(degree=degree, discriminant=complex(delta), **extra)


def transform_form(coeffs, degree: int, g) -> np.ndarray:
    """Coefficients of Q((u,v) G) in the binomial convention."""
    g = np.asarray(g, dtype=complex)
    a = np.asarray(coeffs, dtype=complex)
    # expand through the polynomial in (u, v) and re-read binomial coefficients
    alpha, beta, gamma, delta = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    out = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        # term C(n,k) a_k (alpha u + beta v)^(n-k) (gamma u + delta v)^k
        for i in range(degree - k + 1):
            for j in range(k + 1):
                power_v = (degree - k - i) + (k - j)
                coef = (comb(degree, k) * a[k]
                        * comb(degree - k, i) * alpha ** i * beta ** (degree - k - i)
                        * comb(k, j) * gamma ** j * delta ** (k - j))
                out[power_v] += coef
    # out[m] is the coefficient of u^(n-m) v^m; divide out the binomials
    return np.array([out[m] / comb(degree, m) for m in range(degree + 1)])


def write_constellation_file(path, constellation: Constellation) -> None:
    """Serialize as lines 'star re im' or 'star inf'."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for z in constellation.finite_stars:
            fh.write(f"star {float(z.real)!r} {float(z.imag)!r}\n")
        for _ in range(constellation.inf_count):
            fh.write("star inf\n")


def read_constellation_file(path, expected_count: int | None = None) -> Constellation:
    """Parse lines 'star re im' or 'star inf'; raises FormatError on bad input."""
    finite = []
    inf_count = 0
    for lineno, fields in _records(path):
        if fields == ["star", "inf"]:
            inf_count += 1
        elif len(fields) == 3 and fields[0] == "star":
            finite.append(complex(_float(fields[1], lineno), _float(fields[2], lineno)))
        else:
            raise FormatError("expected 'star re im' or 'star inf'", lineno)
    total = len(finite) + inf_count
    if expected_count is not None and total != expected_count:
        raise FormatError(f"expected {expected_count} stars, found {total}")
    return Constellation(finite_stars=finite, inf_count=inf_count)


def partition_count(n: int) -> int:
    """Exact number of integer partitions p(n), by dynamic programming."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 1000:
        raise ValueError("supported up to n = 1000")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def hardy_ramanujan(n: int) -> float:
    """Asymptotic estimate exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * math.sqrt(3.0) * n)
