"""Binary linear codes and the quantum error-correction condition.

Code arithmetic is exact over GF(2) (integer arrays mod 2, no floats).
The Knill-Laflamme check enumerates generalized Pauli errors X^a Z^b of
bounded weight and verifies that they move the state into mutually
orthonormal directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .states import FormatError, PureState, _int, _records
from .uniformity import PauliString, apply_pauli_string

KL_TOL = 1e-9
KL_PAIR_GUARD = 10 ** 7


class CodeError(ValueError):
    pass


def _gf2_rank(matrix: np.ndarray) -> int:
    m = matrix.copy() % 2
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


@dataclass(frozen=True, eq=False)
class LinearCode:
    """[n, k] binary linear code given by a k x n generator matrix."""

    n: int
    k: int
    generator: np.ndarray
    standard_form: bool
    parity_check: np.ndarray | None

    @classmethod
    def from_generator(cls, generator) -> "LinearCode":
        g = np.asarray(generator, dtype=np.int64) % 2
        if g.ndim != 2:
            raise CodeError("generator must be a matrix")
        k, n = g.shape
        if n == 0 or k > n:
            raise CodeError(f"bad generator shape {g.shape}")
        if k and _gf2_rank(g) != k:
            raise CodeError("generator rows are linearly dependent over GF(2)")
        std = bool(np.array_equal(g[:, :k], np.eye(k, dtype=np.int64)))
        h = None
        if std:
            a = g[:, k:]
            h = np.concatenate([a.T % 2, np.eye(n - k, dtype=np.int64)], axis=1)
        g.setflags(write=False)
        if h is not None:
            h.setflags(write=False)
        return cls(n=n, k=k, generator=g, standard_form=std, parity_check=h)


def parity_check_from_standard(code: LinearCode) -> np.ndarray:
    """H = [A^T | 1] for a standard-form generator G = [1 | A]; H G^T = 0."""
    if not code.standard_form or code.parity_check is None:
        raise CodeError("generator is not in standard form [1 | A]")
    return code.parity_check


def hamming_code() -> LinearCode:
    """The [7, 4, 3] code with generator [1|A]."""
    a = [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    return LinearCode.from_generator(np.concatenate(
        [np.eye(4, dtype=np.int64), np.array(a, dtype=np.int64)], axis=1))


def repetition_code() -> LinearCode:
    """The [12, 4, 3] three-fold repetition code [1|1|1]."""
    eye = np.eye(4, dtype=np.int64)
    return LinearCode.from_generator(np.concatenate([eye, eye, eye], axis=1))


def hamming_distance(u, v) -> int:
    """Number of differing positions between two equal-length words."""
    ua, va = _as_bits(u), _as_bits(v)
    if len(ua) != len(va):
        raise CodeError(f"length mismatch: {len(ua)} vs {len(va)}")
    return int(np.sum(ua != va))


def _as_bits(word) -> np.ndarray:
    if isinstance(word, str):
        if not set(word) <= {"0", "1"}:
            raise CodeError(f"not a bitstring: {word!r}")
        return np.array([int(c) for c in word], dtype=np.int64)
    arr = np.asarray(word, dtype=np.int64)
    if arr.ndim != 1 or np.any((arr != 0) & (arr != 1)):
        raise CodeError("word must be a flat 0/1 vector")
    return arr


def min_distance(code: LinearCode):
    """Minimal weight over the nonzero codewords; None for the trivial code.

    Exhausts all 2^k - 1 nonzero messages with a Gray-code sweep; guarded
    at k <= 24.
    """
    if code.k > 24:
        raise CodeError("min_distance enumerates 2^k codewords; k > 24 refused")
    row_masks = [int("".join(str(b) for b in row), 2) for row in code.generator]
    best = None
    word = 0
    prev_gray = 0
    for i in range(1, 2 ** code.k):
        gray = i ^ (i >> 1)
        word ^= row_masks[(gray ^ prev_gray).bit_length() - 1]
        prev_gray = gray
        w = word.bit_count()
        if best is None or w < best:
            best = w
    return best


def encode(code: LinearCode, message) -> np.ndarray:
    """Codeword message . G over GF(2)."""
    msg = _as_bits(message)
    if len(msg) != code.k:
        raise CodeError(f"message length must be {code.k}")
    return (msg @ code.generator) % 2


@dataclass(frozen=True)
class DecodeResult:
    codeword: np.ndarray | None
    error_position: int | None    # 0-based; None when the syndrome is zero
    syndrome: np.ndarray
    correctable: bool


def syndrome_decode_weight1(code: LinearCode, received) -> DecodeResult:
    """Correct a single flipped bit from the syndrome H (u + e) = H e.

    A nonzero syndrome matching no column of H is reported as uncorrectable
    rather than silently mapped to a codeword.
    """
    if code.parity_check is None:
        raise CodeError("decoding needs a standard-form code with a parity check")
    r = _as_bits(received)
    if len(r) != code.n:
        raise CodeError(f"received word length must be {code.n}")
    h = code.parity_check
    syndrome = (h @ r) % 2
    if not syndrome.any():
        return DecodeResult(codeword=r, error_position=None,
                            syndrome=syndrome, correctable=True)
    matches = [j for j in range(code.n) if np.array_equal(h[:, j] % 2, syndrome)]
    if len(matches) != 1:
        return DecodeResult(codeword=None, error_position=None,
                            syndrome=syndrome, correctable=False)
    fixed = r.copy()
    fixed[matches[0]] ^= 1
    return DecodeResult(codeword=fixed, error_position=matches[0],
                        syndrome=syndrome, correctable=True)


def read_code_file(path) -> LinearCode:
    """Load a code from text: 'n k' header, then k generator rows as bitstrings."""
    n = k = None
    rows = []
    for lineno, fields in _records(path):
        if n is None:
            if len(fields) != 2:
                raise FormatError("header must be 'n k'", lineno)
            n, k = _int(fields[0], lineno), _int(fields[1], lineno)
            if not 0 <= k <= n or n < 1:
                raise FormatError(f"header needs 0 <= k <= n and n >= 1, got {n} {k}", lineno)
            continue
        if len(rows) == k:
            raise FormatError(f"more than {k} generator rows", lineno)
        row = fields[0]
        if len(fields) != 1 or len(row) != n or not set(row) <= {"0", "1"}:
            raise FormatError(f"row {' '.join(fields)!r} is not a bitstring of length {n}", lineno)
        rows.append([int(c) for c in row])
    if n is None:
        raise FormatError("empty code file")
    if len(rows) != k:
        raise FormatError(f"expected {k} generator rows, got {len(rows)}")
    return LinearCode.from_generator(np.array(rows, dtype=np.int64).reshape(k, n))


# ---------------------------------------------------------------------------
# Quantum error-correction condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnillLaflammeResult:
    passed: bool
    worst_violation: float
    num_errors: int
    weight: int


def _weight_limited_errors(num_sites: int, local_dim: int, max_weight: int):
    """All generalized Pauli strings X^a Z^b of weight <= max_weight."""
    single = [(a, b) for a in range(local_dim) for b in range(local_dim)
              if (a, b) != (0, 0)]
    yield PauliString(x_powers=(0,) * num_sites, z_powers=(0,) * num_sites)
    for w in range(1, max_weight + 1):
        for sites in combinations(range(num_sites), w):
            for choice in product(single, repeat=w):
                xs = [0] * num_sites
                zs = [0] * num_sites
                for site, (a, b) in zip(sites, choice):
                    xs[site] = a
                    zs[site] = b
                yield PauliString(x_powers=tuple(xs), z_powers=tuple(zs))


def knill_laflamme_check(state: PureState, w: int,
                         tol: float = KL_TOL) -> KnillLaflammeResult:
    """Verify <psi|E_I^dag E_J|psi> = delta_IJ over all weight-<=w error pairs.

    Requires 2w <= K.  Refuses when the number of error pairs exceeds 10^7.
    """
    K = state.num_sites
    if 2 * w > K:
        raise ValueError("need 2w <= K")
    if len(set(state.dims)) != 1:
        raise ValueError("error basis assumes equal local dimensions")
    n = state.dims[0]
    count = sum((n * n - 1) ** k * comb(K, k) for k in range(1, w + 1)) + 1
    if count * count > KL_PAIR_GUARD:
        raise ValueError(f"{count}^2 error pairs exceed the 10^7 guard")
    images = np.empty((count, state.dim), dtype=complex)
    for i, err in enumerate(_weight_limited_errors(K, n, w)):
        images[i] = apply_pauli_string(err, state).amps
    gram = images.conj() @ images.T
    violation = float(np.abs(gram - np.eye(count)).max())
    return KnillLaflammeResult(passed=violation <= tol,
                               worst_violation=violation,
                               num_errors=count, weight=w)
