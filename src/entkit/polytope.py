"""Local-spectra coordinates and entanglement-polytope membership for qubits.

The coordinate of site k is the *smallest* eigenvalue of its one-site
reduction (note that the opposite convention is common elsewhere).  For K
qubits the attainable spectra form the convex polytope cut out by
0 <= lambda_k <= 1/2 together with the polygon inequalities
lambda_k <= sum of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .states import PureState, new_state, partial_trace

SLACK_TOL = 1e-10


@dataclass(frozen=True)
class LocalSpectra:
    lambdas: tuple

    def __post_init__(self):
        if any(l < -1e-12 or l > 0.5 + 1e-12 for l in self.lambdas):
            raise ValueError("each entry must lie in [0, 1/2]")


@dataclass(frozen=True)
class PolygonCheck:
    passed: bool
    slacks: tuple          # slack_k = sum_{j != k} lambda_j - lambda_k
    boundary: bool         # some slack is zero within tolerance


def local_spectra(state: PureState) -> LocalSpectra:
    """Smallest eigenvalue of every single-qubit reduction."""
    if any(d != 2 for d in state.dims):
        raise ValueError("local spectra are defined here for qubit subsystems")
    if state.num_sites < 2:
        raise ValueError("local spectra need at least 2 qubits")
    lams = []
    for site in range(state.num_sites):
        rho = partial_trace(state, (site,))
        lams.append(float(np.linalg.eigvalsh(rho.entries)[0]))
    return LocalSpectra(lambdas=tuple(min(max(l, 0.0), 0.5) for l in lams))


def polygon_check(spectra: LocalSpectra, tol: float = SLACK_TOL) -> PolygonCheck:
    """Polygon inequalities lambda_k <= sum of the others, with per-site slack."""
    lam = np.asarray(spectra.lambdas, dtype=float)
    total = lam.sum()
    slacks = tuple(float(total - 2 * l) for l in lam)
    return PolygonCheck(passed=all(s >= -tol for s in slacks),
                        slacks=slacks,
                        boundary=any(abs(s) <= tol for s in slacks))


def w_pyramid_test(spectra: LocalSpectra, tol: float = SLACK_TOL) -> bool:
    """True iff lambda_A + lambda_B + lambda_C <= 1; failing certifies GHZ type."""
    if len(spectra.lambdas) != 3:
        raise ValueError("the W pyramid lives in the three-qubit polytope")
    return sum(spectra.lambdas) <= 1.0 + tol


def realize_spectra3(lam_a: float, lam_b: float, lam_c: float) -> PureState:
    """Three-qubit state a|001> + b|010> + c|100> + d|111> with given spectra.

    Inverts 2a^2 = lA+lB-lC, 2b^2 = lA+lC-lB, 2c^2 = lB+lC-lA; requires the
    triangle inequalities and every lambda <= 1/2.
    """
    lams = (float(lam_a), float(lam_b), float(lam_c))
    if any(l < 0 or l > 0.5 + 1e-12 for l in lams):
        raise ValueError("each lambda must lie in [0, 1/2]")
    la, lb, lc = lams
    for x, rest in ((la, lb + lc), (lb, la + lc), (lc, la + lb)):
        if x > rest + 1e-12:
            raise ValueError(f"triangle inequality violated: {x} > {rest}")
    a = np.sqrt(max(0.0, (la + lb - lc) / 2))
    b = np.sqrt(max(0.0, (la + lc - lb) / 2))
    c = np.sqrt(max(0.0, (lb + lc - la) / 2))
    d = np.sqrt(max(0.0, 1.0 - a * a - b * b - c * c))
    v = np.zeros(8, dtype=complex)
    v[0b001], v[0b010], v[0b100], v[0b111] = a, b, c, d
    return new_state((2, 2, 2), v)


def polytope_vertices(num_qubits: int) -> np.ndarray:
    """All 0/(1/2) corners except the K at Hamming distance 1 from the origin.

    Returns an array of shape (2^K - K, K).
    """
    K = int(num_qubits)
    if not 3 <= K <= 8:
        raise ValueError("supported for 3 <= K <= 8")
    rows = [np.array(bits, dtype=float) / 2 for bits in product((0, 1), repeat=K)
            if sum(bits) != 1]
    return np.array(rows)


# Four-qubit polytope data: each vertex with its membership in the three facet
# kinds F1..F3 and the six full-dimensional subpolytope kinds P1..P6 (one
# representative per permutation class; the copy counts follow below).
FOUR_QUBIT_VERTEX_TABLE = (
    # (name, spectrum, F1, F2, F3, P1, P2, P3, P4, P5, P6)
    ("1111", (1 / 2, 1 / 2, 1 / 2, 1 / 2), 1, 0, 0, 0, 0, 0, 1, 0, 1),
    ("V", (1 / 4, 1 / 2, 1 / 2, 1 / 2), 0, 0, 0, 1, 0, 0, 0, 0, 0),
    ("1110", (1 / 2, 1 / 2, 1 / 2, 0), 1, 1, 0, 1, 0, 0, 0, 0, 0),
    ("1101", (1 / 2, 1 / 2, 0, 1 / 2), 1, 0, 0, 1, 1, 0, 0, 0, 0),
    ("1011", (1 / 2, 0, 1 / 2, 1 / 2), 1, 0, 0, 1, 1, 1, 0, 0, 1),
    ("0111", (0, 1 / 2, 1 / 2, 1 / 2), 0, 0, 0, 1, 1, 1, 0, 0, 1),
    ("1100", (1 / 2, 1 / 2, 0, 0), 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ("1001", (1 / 2, 0, 0, 1 / 2), 1, 0, 1, 1, 1, 1, 1, 1, 1),
    ("1010", (1 / 2, 0, 1 / 2, 0), 1, 1, 0, 1, 1, 1, 1, 1, 1),
    ("0110", (0, 1 / 2, 1 / 2, 0), 0, 1, 0, 1, 1, 1, 1, 1, 1),
    ("0101", (0, 1 / 2, 0, 1 / 2), 0, 0, 1, 1, 1, 1, 1, 1, 1),
    ("0011", (0, 0, 1 / 2, 1 / 2), 0, 0, 0, 1, 1, 1, 1, 1, 1),
    ("0000", (0, 0, 0, 0), 0, 1, 1, 1, 1, 1, 1, 1, 1),
)

# number of permutation-equivalent copies of each facet / subpolytope kind
FOUR_QUBIT_COPY_COUNTS = {"F1": 4, "F2": 4, "F3": 4,
                          "P1": 4, "P2": 4, "P3": 6, "P4": 1, "P5": 1, "P6": 6}
