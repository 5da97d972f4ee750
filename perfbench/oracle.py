"""Independent references for the benchmark's correctness checks.

Everything here is plain numpy written apart from entkit, so a check cannot
pass merely because the code under test agrees with itself.  Reports are
compared key by key: labels, ranks and status exactly, floats within a
stated tolerance.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Floats in a report carry 12 significant digits.
REPORT_RTOL = 1e-9
REPORT_ATOL = 1e-11

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def parse_report(text: str) -> dict:
    """Map report keys to value strings; indexed keys like 'star 3' span two tokens."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        fields = line.split("  #")[0].split()
        if not fields:
            continue
        if len(fields) >= 3 and fields[1].isdigit():
            out[" ".join(fields[:2])] = " ".join(fields[2:])
        else:
            out[fields[0]] = " ".join(fields[1:])
    return out


def _floats(value: str):
    try:
        return [float(x) for x in value.split()]
    except ValueError:
        return None


def close(got: str, want, rtol=REPORT_RTOL, atol=REPORT_ATOL) -> bool:
    """True when two report values agree: as text, or as floats within tolerance."""
    if isinstance(want, (int, float)):
        want = repr(float(want))
    if got == want:
        return True
    a, b = _floats(got), _floats(want)
    if a is None or b is None or len(a) != len(b):
        return False
    return all(math.isclose(x, y, rel_tol=rtol, abs_tol=atol) for x, y in zip(a, b))


def compare_reports(got: dict, want: dict, skip=()) -> list:
    """Differences between a report and a recorded one.

    Keys that start with any prefix in skip are ignored.
    """
    problems = []
    for key in sorted(set(got) | set(want)):
        if any(key.startswith(s) for s in skip):
            continue
        if key not in got:
            problems.append(f"missing key {key!r}")
        elif key not in want:
            problems.append(f"unexpected key {key!r}")
        elif not close(got[key], want[key]):
            problems.append(f"{key}: got {got[key]!r}, recorded {want[key]!r}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Dense states
# --------------------------------------------------------------------------

def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local(amps, dims, unitaries) -> np.ndarray:
    """(U_1 x ... x U_K) |amps> for one unitary per site."""
    t = np.asarray(amps, dtype=complex).reshape(dims)
    for k, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def reduced(amps, dims, kept) -> np.ndarray:
    """Reduced density matrix on the sites in kept."""
    kept = list(kept)
    rest = [s for s in range(len(dims)) if s not in kept]
    m = np.transpose(np.asarray(amps).reshape(dims), kept + rest)
    m = m.reshape(int(np.prod([dims[s] for s in kept])), -1)
    return m @ m.conj().T


def purity(rho) -> float:
    return float(np.sum(np.abs(rho) ** 2))


def scott_q(amps, dims, k) -> float:
    """Scott measure Q_k from the purities of all k-site reductions."""
    n = dims[0]
    ps = [purity(reduced(amps, dims, sub)) for sub in combinations(range(len(dims)), k)]
    nk = float(n) ** k
    return nk / (nk - 1.0) * (1.0 - float(np.mean(ps)))


def local_gram(amps, dims, count: int) -> np.ndarray:
    """Gram matrix of count images of the state under two-site unitaries on random sites."""
    rng = np.random.default_rng(count)
    u, v = haar_unitary(dims[0], rng), haar_unitary(dims[0], rng)
    t = np.asarray(amps, dtype=complex).reshape(dims)
    rows = []
    for _ in range(count):
        i, j = rng.choice(len(dims), 2, replace=False)
        r = np.moveaxis(np.tensordot(u, t, axes=([1], [i])), 0, i)
        rows.append(np.moveaxis(np.tensordot(v, r, axes=([1], [j])), 0, j).reshape(-1))
    e = np.array(rows)
    return e.conj() @ e.T


def symmetric_amps(dicke_coeffs) -> np.ndarray:
    """2^K amplitudes of sum_k c_k |D_K^k> (normalized Dicke states)."""
    c = np.asarray(dicke_coeffs, dtype=complex)
    K = len(c) - 1
    weight = np.array([bin(i).count("1") for i in range(2 ** K)])
    binom = np.array([math.comb(K, k) for k in range(K + 1)], dtype=float)
    v = c[weight] / np.sqrt(binom[weight])
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# Three qubits
# --------------------------------------------------------------------------

def cayley_det3(amps) -> complex:
    """Hyperdeterminant as the discriminant of t -> det(M0 + t M1)."""
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    d0, d1 = np.linalg.det(a[0]), np.linalg.det(a[1])
    c = np.linalg.det(a[0] + a[1]) - d0 - d1
    return complex(c * c - 4 * d0 * d1)


def kempe(amps) -> float:
    rho_ab = reduced(amps, (2, 2, 2), (0, 1)).reshape(2, 2, 2, 2)
    rho_a = reduced(amps, (2, 2, 2), (0,))
    rho_b = reduced(amps, (2, 2, 2), (1,))
    # Kempe's invariant equals 3 Tr[(rho_A x rho_B) rho_AB] - Tr rho_A^3 - Tr rho_B^3
    mixed = np.einsum("ac,bd,cdab->", rho_a, rho_b, rho_ab)
    return float((3 * mixed - np.trace(rho_a @ rho_a @ rho_a)
                  - np.trace(rho_b @ rho_b @ rho_b)).real)


def wootters_tangle(rho) -> float:
    """Squared concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    yy = np.kron(PAULI_Y, PAULI_Y)
    tilde = yy @ rho.conj() @ yy
    ev = np.sqrt(np.clip(np.linalg.eigvalsh(sq @ tilde @ sq), 0, None))[::-1]
    c = max(0.0, ev[0] - ev[1] - ev[2] - ev[3])
    return c * c


def unfolding_singular_values(amps) -> list:
    t = np.asarray(amps).reshape(2, 2, 2)
    out = []
    for site in range(3):
        rest = tuple(s for s in range(3) if s != site)
        out.append(np.linalg.svd(np.transpose(t, (site,) + rest).reshape(2, 4),
                                 compute_uv=False))
    return out


def near_threshold(amps, tol) -> bool:
    """True when |Det3| or a local singular value lies within two decades of tol."""
    values = [abs(cayley_det3(amps))]
    for s in unfolding_singular_values(amps):
        values.extend(s)
    return any(tol / 100.0 < v < tol * 100.0 for v in values)


def slocc_label(amps, tol) -> tuple:
    ranks = tuple(int(np.sum(s > tol)) for s in unfolding_singular_values(amps))
    ones = ranks.count(1)
    if ones == 3:
        return "Separable", ranks
    if ones == 1:
        return "Bisep" + "ABC"[ranks.index(1)], ranks
    return ("GHZ" if abs(cayley_det3(amps)) > tol else "W"), ranks


def canonical_state(r0, r1, r2, r3, r4, phi) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0b000] = r0 * np.exp(1j * phi)
    v[0b100], v[0b010], v[0b001], v[0b111] = r1, r2, r3, r4
    return v


# --------------------------------------------------------------------------
# Chains
# --------------------------------------------------------------------------

def ising_ground_energy(num_sites: int, g: float) -> float:
    """Open transverse-field Ising chain -sum ZZ - g sum X, by free fermions.

    In Majorana operators the Hamiltonian is (i/4) gamma^T A gamma with A
    real antisymmetric; the ground energy is minus half the sum of the
    positive eigenvalues of iA.
    """
    K = num_sites
    A = np.zeros((2 * K, 2 * K))
    for j in range(K):
        A[2 * j, 2 * j + 1] = 2.0 * g
        if j + 1 < K:
            A[2 * j + 1, 2 * j + 2] = 2.0
    ev = np.linalg.eigvalsh(1j * (A - A.T))
    return float(-0.5 * ev[ev > 0].sum())


def read_amplitudes(path, max_lines: int) -> dict:
    """Basis index -> amplitude for the first max_lines amplitude lines of a state file."""
    amps = {}
    with open(path, encoding="utf-8") as fh:
        base = int(fh.readline().split()[1])
        for _, line in zip(range(max_lines), fh):
            label, re, im = line.split()
            amps[int(label, base)] = complex(float(re), float(im))
    return amps


def contract_mps(tensors) -> np.ndarray:
    """Dense amplitudes of an open-boundary MPS given as (r_left, N, r_right) arrays."""
    acc = np.ones((1, 1), dtype=complex)
    for t in tensors:
        rl = t.shape[0]
        acc = (acc @ t.reshape(rl, -1)).reshape(-1, t.shape[2])
    return acc.reshape(-1)


def bond_entropies(amps, dims) -> list:
    """Von Neumann entropy (nats) at every internal bond of a dense state."""
    out = []
    left = 1
    v = np.asarray(amps) / np.linalg.norm(amps)
    for d in dims[:-1]:
        left *= d
        s = np.linalg.svd(v.reshape(left, -1), compute_uv=False)
        p = s ** 2
        p = p[p > 0]
        out.append(float(-(p * np.log(p)).sum()))
    return out
