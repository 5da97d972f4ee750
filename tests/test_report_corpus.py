"""Byte-stable CLI reports: one sha256 per fixed input, kept in report_digests.txt.

Every input is built here from seeds and closed forms; no state file is
committed.  A digest covers the exit code, stdout and stderr of one in-process
`entkit` run.  The corpus covers every command: `analyze` and `classify` on
three qubits, `stellar` on random, repeated-star, near-coincident and
near-infinity constellations, `polytope` on 1-10 qubits, `uniformity` with its
`--max-k` and `--tol` variants, `codes demo`, `codes kl`, `mps compress` and
`mps dmrg`, plus a few refusals.

The digests hold for the numpy and BLAS they were made with; another build may
move the last printed digit of some float.  A change that means to move a
report regenerates the file with

    python tests/test_report_corpus.py

and names every moved id in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from entkit import cli  # noqa: E402
from entkit import states as st  # noqa: E402
from entkit import stellar as sl  # noqa: E402
from entkit import uniformity as un  # noqa: E402

DIGESTS = Path(__file__).with_name("report_digests.txt")


def _rotated(state, rng):
    """The state under an independent Haar unitary on every site."""
    return st.apply_local(state, [st.haar_unitary(d, rng) for d in state.dims])


def _symmetric_rotated(sym, rng):
    """A symmetric state under one Haar unitary applied to every qubit."""
    u = st.haar_unitary(2, rng)
    return st.apply_local(sl.symmetric_to_pure(sym), [u] * sym.num_qubits)


def _three_qubit_states():
    for seed in range(100):
        yield f"random-s{seed}", st.random_state((2, 2, 2), seed)
    yield "ghz", st.ghz_state(3)
    yield "w", st.w_state(3)
    yield "000", st.basis_state((2, 2, 2), "000")
    yield "111", st.basis_state((2, 2, 2), "111")
    rng = np.random.default_rng(2201)
    for i in range(10):
        yield f"ghz-rot{i}", _rotated(st.ghz_state(3), rng)
        yield f"w-rot{i}", _rotated(st.w_state(3), rng)


def _stellar_states():
    rng = np.random.default_rng(2202)
    for K in range(1, 7):
        for i in range(6):
            d = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
            yield f"random-K{K}-{i}", sl.symmetric_to_pure(
                sl.SymmetricState(K, d / np.linalg.norm(d)))
    for mults in [(2, 1), (3,), (2, 1, 1), (2, 2), (3, 1), (4,)]:
        for i in range(3):
            stars = [z for m in mults for z in [complex(*rng.standard_normal(2))] * m]
            sym = sl.from_constellation(stars)
            name = "repeated-" + "".join(map(str, mults)) + f"-{i}"
            yield name, sl.symmetric_to_pure(sym)
            yield name + "-rot", _symmetric_rotated(sym, rng)
    z = 0.3 + 0.2j
    for sep in (1e-4, 3e-5, 1e-5, 6e-6, 3e-6, 2e-6, 1.5e-6, 1e-6, 7e-7, 5e-7, 3e-7):
        yield f"close-{sep:g}", sl.symmetric_to_pure(sl.from_constellation([z, z + sep, -1j]))
    for off in (1e-3, 5e-4, 1e-4, 3e-5):
        for stars, name in [([z, z, z + off], "double"), ([z, z, z + off, -1j], "double-4"),
                            ([z, z, z, z + off], "triple")]:
            sym = sl.from_constellation(stars)
            yield f"beside-{name}-{off:g}", sl.symmetric_to_pure(sym)
            yield f"beside-{name}-{off:g}-rot", _symmetric_rotated(sym, rng)
    for e in (1e-4, 1e-6, 1e-7, 3e-8, 1e-8, 1e-10, 1e-12, 1e-13):
        sym = sl.SymmetricState(3, np.array([0, e, 1, 0]) / math.hypot(e, 1))
        yield f"dicke-inf-{e:g}", sl.symmetric_to_pure(sym)
    for u in range(2, 15):
        stars = [sl.INF, 10.0 ** u, 0.5 - 0.7j, -1.1 + 0.2j]
        yield f"near-inf-u{u}", sl.symmetric_to_pure(sl.from_constellation(stars))
    for K in (2, 3, 4, 5):
        yield f"ghz{K}", st.ghz_state(K)
        yield f"w{K}", st.w_state(K)
        yield f"dicke{K}", st.dicke_state(K, K // 2)


def _uniformity_states():
    for K in range(1, 11):
        yield f"dicke{K}", st.dicke_state(K, K // 2)
        if K >= 2:
            yield f"ghz{K}", st.ghz_state(K)
            yield f"w{K}", st.w_state(K)
    rng = np.random.default_rng(2203)
    for name, make in [("ame43", un.ame43_state), ("ame52", un.ame52_state)]:
        yield name, make()
        for i in range(10):
            yield f"{name}-rot{i}", _rotated(make(), rng)
    for i in range(60):
        K = 1 + i % 10
        yield f"qubits-K{K}-s{i}", st.random_state((2,) * K, 2300 + i)
    for i in range(20):
        K = 1 + i % 6
        yield f"qutrits-K{K}-s{i}", st.random_state((3,) * K, 2400 + i)
    yield "dims2323", st.random_state((2, 3, 2, 3), 2500)
    yield "dims23", st.random_state((2, 3), 2501)
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    yield "bell-bell", st.new_state((2,) * 4, np.kron(bell, bell))


UNIFORMITY_FLAGS = {"": [], "max-k0": ["--max-k", "0"], "max-k1": ["--max-k", "1"],
                    "max-k2": ["--max-k", "2"], "max-k3": ["--max-k", "3"],
                    "tol0": ["--tol", "0"], "tol1e-3": ["--tol", "1e-3"],
                    "tol0.5": ["--tol", "0.5"]}


def _polytope_states():
    for K in range(1, 11):
        yield f"random-K{K}", st.random_state((2,) * K, 2600 + K)
        if K >= 2:
            yield f"ghz{K}", st.ghz_state(K)
            yield f"w{K}", st.w_state(K)


def _file_cases(folder: Path):
    """(id, argv) for every command that reads a state file."""
    def saved(family, name, state):
        path = folder / f"{family}-{name}.state"
        st.write_state_file(path, state)
        return str(path)

    for name, state in _three_qubit_states():
        path = saved("three", name, state)
        yield f"analyze/{name}", ["analyze", "--state", path]
        yield f"classify/{name}", ["classify", "--state", path]
    for name in ("ghz", "w", "random-s0", "random-s1"):
        path = str(folder / f"three-{name}.state")
        for tol in ("0", "0.1"):
            yield f"classify/{name}/tol{tol}", ["classify", "--state", path, "--tol", tol]
    for name, state in _stellar_states():
        yield f"stellar/{name}", ["stellar", "--state", saved("stellar", name, state)]
    for name, state in _polytope_states():
        path = saved("polytope", name, state)
        yield f"polytope/{name}", ["polytope", "--state", path]
    yield "polytope/basis1", ["polytope", "--state", saved("polytope", "basis1",
                                                          st.basis_state((2,), "0"))]
    yield "polytope/w3/tol0", ["polytope", "--state", str(folder / "polytope-w3.state"),
                               "--tol", "0"]
    for name, state in _uniformity_states():
        path = saved("uniformity", name, state)
        for flag, extra in UNIFORMITY_FLAGS.items():
            yield f"uniformity/{name}/{flag}".rstrip("/"), ["uniformity", "--state", path, *extra]
    kl = [("ame52", un.ame52_state(), (0, 1, 2)), ("ame43", un.ame43_state(), (1, 2)),
          ("ghz5", st.ghz_state(5), (1,)), ("random4", st.random_state((2,) * 4, 2700), (1, 2))]
    for name, state, weights in kl:
        path = saved("kl", name, state)
        for w in weights:
            yield f"codes-kl/{name}/w{w}", ["codes", "kl", "--state", path, "--weight", str(w)]
    compress = [("random6", st.random_state((2,) * 6, 2800), (1, 2, 4, 8)),
                ("ghz8", st.ghz_state(8), (1, 2)),
                ("qutrits4", st.random_state((3,) * 4, 2801), (2, 3, 9))]
    for name, state, bonds in compress:
        path = saved("compress", name, state)
        for D in bonds:
            yield f"mps-compress/{name}/D{D}", ["mps", "compress", "--state", path,
                                                "--max-bond", str(D)]
    yield "refuse/analyze-four-qubits", ["analyze", "--state",
                                         str(folder / "polytope-ghz4.state")]


def _plain_cases():
    """(id, argv) for the commands that read no state file."""
    yield "codes-demo/hamming", ["codes", "demo"]
    yield "codes-demo/repetition", ["codes", "demo", "--repetition"]
    for g in ("0", "0.5", "1", "1.5"):
        yield f"mps-dmrg/ising-g{g}", ["mps", "dmrg", "--sites", "6", "--bond", "4",
                                       "--seed", "1", "--g", g]
    yield "mps-dmrg/heisenberg", ["mps", "dmrg", "--model", "heisenberg", "--sites", "6",
                                  "--bond", "4", "--seed", "2"]
    yield "refuse/dmrg-g-heisenberg", ["mps", "dmrg", "--model", "heisenberg", "--sites", "4",
                                       "--bond", "2", "--seed", "1", "--g", "1"]


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digests() -> dict:
    """Id -> sha256 of (exit code, stdout, stderr) for every corpus input."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = [*_file_cases(Path(tmp)), *_plain_cases()]
        digests = {case_id: _digest(argv) for case_id, argv in cases}
    if len(digests) != len(cases):
        raise AssertionError("corpus ids must be unique")
    return digests


def _read_digests() -> dict:
    return dict(line.split() for line in DIGESTS.read_text().splitlines())


def test_every_report_matches_its_digest():
    expected = _read_digests()
    actual = corpus_digests()
    moved = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    missing = sorted(expected.keys() - actual.keys())
    new = sorted(actual.keys() - expected.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}; missing from the corpus: {missing}; without a digest: {new}")


if __name__ == "__main__":
    digests = corpus_digests()
    DIGESTS.write_text("".join(f"{k} {v}\n" for k, v in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {DIGESTS}")
