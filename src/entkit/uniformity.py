"""Q_k measures, k-uniformity and AME checks, plus a small state catalog.

Q_k rescales the average purity deficit over all k-site reductions so that
0 <= Q_k <= 1, with Q_k = 1 exactly when every k-site reduction is maximally
mixed.  For local dimension N the prefactor is N^k / (N^k - 1); the printed
qubit form is the N = 2 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import (WORK_BUDGET, PureState, _matricize, new_state, basis_index, ghz_state,
                     w_state, dicke_state)

KUNIFORM_TOL = 1e-9


@dataclass(frozen=True)
class UniformityReport:
    q_values: tuple          # Q_1 .. Q_floor(K/2)
    k_uniform_level: int
    is_ame: bool


@dataclass(frozen=True)
class PauliString:
    """Tensor product of generalized Paulis X^a Z^b per site, times a phase.

    For qubits the letters I, X, Y, Z correspond to (a, b) = (0,0), (1,0),
    (1,1) with phase i, and (0,1).  The phase is a root of unity of order
    dividing 2N.
    """

    x_powers: tuple
    z_powers: tuple
    phase: complex = 1.0 + 0j

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        xs, zs = [], []
        phase = 1.0 + 0j
        for ch in letters.upper():
            if ch == "I":
                xs.append(0); zs.append(0)
            elif ch == "X":
                xs.append(1); zs.append(0)
            elif ch == "Z":
                xs.append(0); zs.append(1)
            elif ch == "Y":
                xs.append(1); zs.append(1)
                phase *= 1j
            else:
                raise ValueError(f"unknown Pauli letter {ch!r}")
        return cls(x_powers=tuple(xs), z_powers=tuple(zs), phase=phase)

    def __len__(self):
        return len(self.x_powers)

    def weight(self) -> int:
        return sum(1 for a, b in zip(self.x_powers, self.z_powers) if a or b)


def _apply_pauli_raw(p: PauliString, dims, vector: np.ndarray) -> np.ndarray:
    T = vector.reshape(dims)
    for site, (a, b, d) in enumerate(zip(p.x_powers, p.z_powers, dims)):
        if b:
            omega = np.exp(2j * np.pi / d)
            phases = omega ** (b * np.arange(d))
            shape = [1] * len(dims)
            shape[site] = d
            T = T * phases.reshape(shape)
        if a:
            T = np.roll(T, a % d, axis=site)
    return np.ascontiguousarray(T.ravel()) * p.phase


def apply_pauli_string(p: PauliString, state: PureState) -> PureState:
    """Apply X^a Z^b site by site (Z phases first, then the cyclic shift)."""
    if len(p) != state.num_sites:
        raise ValueError(f"Pauli string has {len(p)} sites, state has {state.num_sites}")
    v = _apply_pauli_raw(p, state.dims, state.amps)
    v.setflags(write=False)
    return PureState(dims=state.dims, amps=v, norm_factor=1.0)


def stabilizer_check(state: PureState, pauli_strings) -> list:
    """Expectation values <psi|P|psi>, one per Pauli string, in the given order."""
    out = []
    for p in pauli_strings:
        if isinstance(p, str):
            p = PauliString.from_letters(p)
        image = apply_pauli_string(p, state)
        out.append(complex(np.vdot(state.amps, image.amps)))
    return out


def q_measure(state: PureState, k: int) -> float:
    """Scott measure Q_k: rescaled average linear entropy of k-site reductions."""
    K = state.num_sites
    if not 1 <= k <= K // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {K // 2}")
    return uniformity_report(state, max_k=k).q_values[-1]


def k_uniform_level(state: PureState, tol: float = KUNIFORM_TOL) -> int:
    """Largest k with every k-site reduction maximally mixed (0 if none).

    A subset X of size k is maximally mixed iff d_X * Gram - identity
    vanishes within tol, i.e. iff sqrt(d_X) times the matricized amplitude
    tensor is an isometry.
    """
    return uniformity_report(state, tol, max_k=0).k_uniform_level


def uniformity_report(state: PureState, tol: float = KUNIFORM_TOL,
                      max_k: int | None = None) -> UniformityReport:
    """Q_1..Q_max_k and the k-uniformity level in one scan.

    max_k defaults to K//2, or to 0 when the local dimensions differ: Q_k is
    defined for equal ones only, and an explicit max_k >= 1 is then refused.
    Each k-site Gram is formed once: its purity feeds Q_k when k <= max_k, and
    it gets the isometry test while the level is still k - 1.  A layer above
    max_k runs only while the level can still grow.  Refuses, before it starts,
    any layer that takes the scan's multiply-adds past WORK_BUDGET.
    """
    K, dims = state.num_sites, state.dims
    equal_dims = len(set(dims)) == 1
    if max_k is None:
        max_k = K // 2 if equal_dims else 0
    max_k = min(max_k, K // 2)
    if max_k >= 1 and not equal_dims:
        raise ValueError("Q_k needs equal local dimensions")
    # layer k costs N * e_k(dims): the x^(K-k) coefficient of prod_i (x + d_i)
    layer_work = math.prod(dims) * np.poly(np.negative(dims))
    qs, level = [], 0
    for k in range(1, K // 2 + 1):
        testing = level == k - 1
        if k > max_k and not testing:
            break
        work = layer_work[1:max(k, max_k) + 1].sum()
        if work > WORK_BUDGET:
            raise ValueError(f"the subset scan needs {work:.2g} multiply-adds, over the "
                             f"budget of {WORK_BUDGET:.0e}; lower --max-k")
        purities = []
        for sub in combinations(range(K), k):
            M = _matricize(state, sub)
            G = M @ M.conj().T
            if k <= max_k:
                purities.append(float(np.sum(np.abs(G) ** 2)))
            d = G.shape[0]
            if testing and np.abs(d * G - np.eye(d)).max() > tol:
                testing = False
                if k > max_k:
                    break
        if testing:
            level = k
        if k <= max_k:
            nk = float(dims[0]) ** k
            qs.append(float(nk / (nk - 1.0) * (1.0 - np.mean(purities))))
    return UniformityReport(q_values=tuple(qs), k_uniform_level=level,
                            is_ame=(K >= 2 and level == K // 2))


AME52_GENERATORS = ("XXZIZ", "ZXXZI", "IZXXZ", "ZIZXX", "ZZZZZ")

_AME43_STRINGS = ("0000", "0112", "0221", "1011", "1120", "1202",
                  "2022", "2101", "2210")


def ame52_state() -> PureState:
    """Joint +1 eigenstate of the five stabilizer generators, from |00000>.

    Applies the projector product prod_i (1 + G_i)/2 to |00000> and
    normalizes.
    """
    dims = (2,) * 5
    v = np.zeros(32, dtype=complex)
    v[0] = 1.0
    for letters in AME52_GENERATORS:
        p = PauliString.from_letters(letters)
        v = 0.5 * (v + _apply_pauli_raw(p, dims, v))
    if np.linalg.norm(v) < 1e-12:
        raise ArithmeticError("stabilizer projector annihilated the seed state")
    return new_state(dims, v)


def ame43_state() -> PureState:
    """Equal superposition of the nine qutrit strings of the affine-plane state."""
    v = np.zeros(81, dtype=complex)
    for s in _AME43_STRINGS:
        v[basis_index((3,) * 4, [int(c) for c in s])] = 1.0
    return new_state((3,) * 4, v)


def catalog_state(name: str, *params) -> PureState:
    """Named states: ghz(K), w(K), dicke(K, k), ame43, ame52."""
    key = name.lower()
    if key == "ghz":
        return ghz_state(*_int_params(params, 1, name))
    if key == "w":
        return w_state(*_int_params(params, 1, name))
    if key == "dicke":
        return dicke_state(*_int_params(params, 2, name))
    if key == "ame43":
        if params:
            raise ValueError("ame43 takes no parameters")
        return ame43_state()
    if key == "ame52":
        if params:
            raise ValueError("ame52 takes no parameters")
        return ame52_state()
    raise ValueError(f"unknown catalog state {name!r}")


def _int_params(params, count, name):
    if len(params) != count:
        raise ValueError(f"{name} takes {count} parameter(s), got {len(params)}")
    return tuple(int(p) for p in params)
