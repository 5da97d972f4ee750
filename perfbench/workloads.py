"""The four workloads: seeded inputs, job lists and the check for every job.

``build(workload, seed, pass_index, workdir, write)`` returns the job list
of one pass.  With ``write=True`` it also writes the pass's input files
through entkit's public API; that writing, plus ``import entkit``, is what
``setup_s`` measures.  Inputs depend only on (seed, pass_index), and every
job in a pass gets its own input file.

A check returns a list of problems (empty when the job is correct).  It
compares the report with an independent reference where one exists
(oracle.py) and otherwise with the report recorded at the seed commit
(reference.json).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import entkit as ek
import oracle

# Documented default tolerances of the CLI.
CLASS_TOL = 1e-8
KL_TOL = 1e-9
CANONICAL_TOL = 1e-10

# Keys whose value depends on the solver's path, not on the answer.
PATH_KEYS = ("sweeps", "sweep_energy")


@dataclass
class Job:
    name: str
    argv: list
    check: Callable          # (exit_code, report dict, read-back MpsState or None) -> problems
    out_mps: str | None = None
    recorded: bool = False   # compared with the report recorded at the seed commit
    control: Callable | None = None   # work of the job's kind, run just before and after it


def _seeds(seed: int, pass_index: int, tag: int):
    rng = np.random.default_rng([seed, pass_index, tag])
    return rng, (lambda: int(rng.integers(2 ** 62)))


def _exit_is(rc, want) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def _write(write: bool, path: str, state) -> str:
    if write:
        ek.write_state_file(path, state)
    return path


# --------------------------------------------------------------------------
# qubit3: analyze on Haar-random states, classify on SLOCC representatives
# --------------------------------------------------------------------------

def _check_analyze(amps):
    def check(rc, rep, _):
        dims = (2, 2, 2)
        problems = _exit_is(rc, 2 if oracle.near_threshold(amps, CLASS_TOL) else 0)
        det3 = oracle.cayley_det3(amps)
        rhos = [oracle.reduced(amps, dims, (k,)) for k in range(3)]
        pairs = {"tau_ab": (0, 1), "tau_ac": (0, 2), "tau_bc": (1, 2)}
        pair = {k: oracle.wootters_tangle(oracle.reduced(amps, dims, s)) for k, s in pairs.items()}
        one = [2.0 * (1.0 - oracle.purity(r)) for r in rhos]
        label, ranks = oracle.slocc_label(amps, CLASS_TOL)
        want = {
            "I1": 1.0, "I2": oracle.purity(rhos[0]), "I3": oracle.purity(rhos[1]),
            "I4": oracle.purity(rhos[2]), "I5": oracle.kempe(amps), "I6": abs(2 * det3) ** 2,
            "det3_re": det3.real, "det3_im": det3.imag, "det3_abs": abs(det3),
            "tau_a_bc": one[0], "tau_b_ac": one[1], "tau_c_ab": one[2],
            "tau1": sum(one) / 3, "tau3": 4 * abs(det3),
            "lambda 1": np.linalg.eigvalsh(rhos[0])[0],
            "lambda 2": np.linalg.eigvalsh(rhos[1])[0],
            "lambda 3": np.linalg.eigvalsh(rhos[2])[0],
            "slocc": label, "rank_a": str(ranks[0]), "rank_b": str(ranks[1]),
            "rank_c": str(ranks[2]),
        }
        for key, value in want.items():
            if key not in rep:
                problems.append(f"missing key {key!r}")
            elif not oracle.close(rep[key], value, atol=1e-10):
                problems.append(f"{key}: got {rep[key]}, reference {value!r}")
        lams = [float(want[f"lambda {k}"]) for k in (1, 2, 3)]
        if rep.get("w_pyramid") != ("true" if sum(lams) <= 1.0 + 1e-10 else "false"):
            problems.append(f"w_pyramid {rep.get('w_pyramid')!r} for lambdas {lams}")
        # Wootters tangles: the reference's sqrt route is good to about 1e-8
        residual = min(one[0] - pair["tau_ab"] - pair["tau_ac"],
                       one[1] - pair["tau_ab"] - pair["tau_bc"],
                       one[2] - pair["tau_ac"] - pair["tau_bc"])
        for key, value in list(pair.items()) + [("tau2", sum(pair.values()) / 3),
                                                ("monogamy_min_residual", residual)]:
            if key not in rep or not oracle.close(rep[key], value, rtol=0, atol=1e-6):
                problems.append(f"{key}: got {rep.get(key)}, reference {value!r}")
        # the canonical form must be a unit vector with the input's LU invariants
        try:
            r = [float(rep[f"canonical_r{i}"]) for i in range(5)]
            c = oracle.canonical_state(*r, float(rep["canonical_phi"]))
        except (KeyError, ValueError):
            return problems + ["canonical form keys missing"]
        same = [(np.linalg.norm(c), 1.0), (abs(oracle.cayley_det3(c)), abs(det3)),
                (oracle.kempe(c), oracle.kempe(amps))]
        same += [(oracle.purity(oracle.reduced(c, dims, (k,))), oracle.purity(rhos[k]))
                 for k in range(3)]
        if any(abs(a - b) > 1e-9 for a, b in same):
            problems.append("canonical form does not reproduce the LU invariants")
        return problems
    return check


def _representative(kind: str) -> np.ndarray:
    """Amplitudes of a SLOCC representative; '-near' kinds sit inside the warning margin."""
    v = np.zeros(8, dtype=complex)
    if kind == "GHZ":
        v[0b000] = v[0b111] = 1.0
    elif kind in ("W", "GHZ-near", "W-near"):
        v[0b001] = v[0b010] = v[0b100] = 1.0 / math.sqrt(3)
        # adding e|111> to W gives |Det3| = 4e / 3^1.5
        det3 = {"W": 0.0, "GHZ-near": 10.0, "W-near": 0.1}[kind] * CLASS_TOL
        v[0b111] = det3 * 3 ** 1.5 / 4
    elif kind.startswith("Bisep"):
        # site X in |0>, the other two in a Bell pair (or nearly product)
        site = "ABC".index(kind[5])
        others = [s for s in range(3) if s != site]
        weak = 10.0 * CLASS_TOL if kind.endswith("-near") else 1.0
        v[0] = 1.0
        v[(1 << (2 - others[0])) | (1 << (2 - others[1]))] = weak
    elif kind in ("Separable", "Separable-near"):
        v[0] = 1.0
        v[0b011] = 0.1 * CLASS_TOL if kind.endswith("-near") else 0.0
    return v / np.linalg.norm(v)


CLASSIFY_KINDS = {   # kind -> (label, exit code)
    "GHZ": ("GHZ", 0), "W": ("W", 0), "BisepA": ("BisepA", 0),
    "BisepB": ("BisepB", 0), "BisepC": ("BisepC", 0), "Separable": ("Separable", 0),
    "GHZ-near": ("GHZ", 2), "W-near": ("W", 2), "BisepA-near": ("BisepA", 2),
    "Separable-near": ("Separable", 2),
}


def _check_classify(amps, label, exit_code):
    def check(rc, rep, _):
        problems = _exit_is(rc, exit_code)
        if rep.get("slocc") != label:
            problems.append(f"slocc {rep.get('slocc')!r}, expected {label!r}")
        if (exit_code == 2) != ("warning" in rep):
            problems.append("warning line does not match the exit code")
        if not oracle.close(rep.get("det3_abs", ""), abs(oracle.cayley_det3(amps)),
                            atol=1e-13):
            problems.append(f"det3_abs {rep.get('det3_abs')!r} disagrees with the reference")
        _, ranks = oracle.slocc_label(amps, CLASS_TOL)
        if [rep.get(f"rank_{c}") for c in "abc"] != [str(r) for r in ranks]:
            problems.append("local ranks disagree with the reference")
        return problems
    return check


def _qubit3(seed, pass_index, wd, write, ref):
    rng, sub = _seeds(seed, pass_index, 1)
    jobs = []
    for i in range(300):
        state = ek.random_state((2, 2, 2), sub())
        path = _write(write, f"{wd}/analyze{i:03d}.state", state)
        jobs.append(Job(f"analyze/{i:03d}", ["analyze", "--state", path],
                        _check_analyze(state.amps)))
    kinds = list(CLASSIFY_KINDS)
    for i in range(100):
        kind = kinds[i % len(kinds)]
        amps = oracle.apply_local(_representative(kind), (2, 2, 2),
                                  [oracle.haar_unitary(2, rng) for _ in range(3)])
        state = ek.new_state((2, 2, 2), amps)
        path = _write(write, f"{wd}/classify{i:03d}.state", state)
        jobs.append(Job(f"classify/{kind}/{i:03d}", ["classify", "--state", path],
                        _check_classify(amps, *CLASSIFY_KINDS[kind])))
    return jobs


# --------------------------------------------------------------------------
# dmrg: three ground states, no input files
# --------------------------------------------------------------------------

DMRG_CHAINS = (   # name, model flags, chain length, bond dimension
    ("ising-g1.0-K20-D16", ["--model", "ising", "--g", "1.0"], 20, 16),
    ("ising-g1.5-K40-D8", ["--model", "ising", "--g", "1.5"], 40, 8),
    ("heisenberg-K24-D8", ["--model", "heisenberg"], 24, 8),
)


def _check_dmrg(name, flags, sites, ref):
    def check(rc, rep, _):
        problems = _exit_is(rc, 0) + oracle.compare_reports(
            rep, ref[f"dmrg/{name}"], skip=PATH_KEYS + ("energy",))
        if rep.get("converged") != "true":
            problems.append("DMRG did not converge")
        if rep.get("sweeps") != str(sum(k.startswith("sweep_energy") for k in rep)):
            problems.append("sweep count does not match the energy history")
        energy = float(rep.get("energy", "nan"))
        if flags[1] == "ising":
            exact = oracle.ising_ground_energy(sites, float(flags[3]))
            if not abs(energy - exact) <= 1e-8:
                problems.append(f"energy {energy!r} vs free-fermion {exact!r}")
        elif not energy <= float(ref[f"dmrg/{name}"]["energy"]) + 1e-8:
            problems.append(f"energy {energy!r} above the recorded value")
        return problems
    return check


def _hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


# Dense Hermitian eigenproblems of the local problems' sizes (D_l * 2 * D_r).
_EIGH_CONTROL = [_hermitian(dim, np.random.default_rng(i))
                 for i, dim in enumerate((512, 512, 256))]


def _eigh_control():
    for m in _EIGH_CONTROL:
        np.linalg.eigh(m)


def _dmrg(seed, pass_index, wd, write, ref):
    _, sub = _seeds(seed, pass_index, 2)
    return [Job(f"dmrg/{name}",
                ["mps", "dmrg", *flags, "--sites", str(K), "--bond", str(D),
                 "--seed", str(sub() % 2 ** 31)],
                _check_dmrg(name, flags, K, ref), recorded=True, control=_eigh_control)
            for name, flags, K, D in DMRG_CHAINS]


# --------------------------------------------------------------------------
# compress: dense files in, MPS files out and read back
# --------------------------------------------------------------------------

def _check_compress(amps, dims, bond, ref_report):
    def check(rc, rep, mps):
        problems = _exit_is(rc, 0)
        if mps is None:
            return problems + ["no MPS was read back"]
        K = len(dims)
        exact = [min(math.prod(dims[:k + 1]), math.prod(dims[k + 1:])) for k in range(K - 1)]
        if ref_report is not None:
            problems += oracle.compare_reports(rep, ref_report, skip=("mps_file",))
        elif rep.get("bond_dims_exact") != ",".join(map(str, exact)):
            problems.append("exact bond dimensions are wrong")
        discarded = [float(rep.get(f"discarded {k}", "nan")) for k in range(1, K)]
        if not all(0.0 <= w <= 1.0 for w in discarded):
            problems.append("discarded weights missing or outside [0, 1]")
        got = [t.shape[2] for t in mps.tensors[:-1]]
        if rep.get("bond_dims_truncated") != ",".join(map(str, got)) or \
                any(g > bond for g in got):
            problems.append("read-back bond dimensions disagree with the report")
        phi = oracle.contract_mps(mps.tensors)
        fid = float(abs(np.vdot(amps, phi)) ** 2 / np.vdot(phi, phi).real)
        if not oracle.close(rep.get("fidelity", ""), fid, rtol=1e-9, atol=1e-10):
            problems.append(f"fidelity {rep.get('fidelity')} vs read-back {fid!r}")
        for k, s in enumerate(oracle.bond_entropies(phi, dims), start=1):
            if not oracle.close(rep.get(f"entropy {k}", ""), s, rtol=1e-8, atol=1e-9):
                problems.append(f"entropy {k}: {rep.get(f'entropy {k}')} vs read-back {s!r}")
        if not float(rep.get("canonical_residual", "inf")) <= CANONICAL_TOL:
            problems.append("canonical residual above 1e-10")
        return problems
    return check


CONTROL_LINES = 2 ** 17   # lines of each input file the compress control parses

COMPRESS_CASES = (   # name, local dims, bond cap; None marks the fixed GHZ input
    ("qubits18-D16", (2,) * 18, 16),
    ("qubits18-D64", (2,) * 18, 64),
    ("qutrits11-D27", (3,) * 11, 27),
    ("ghz20-D4", None, 4),
)


def _compress(seed, pass_index, wd, write, ref):
    _, sub = _seeds(seed, pass_index, 3)
    jobs = []
    for name, dims, bond in COMPRESS_CASES:
        if dims is None:
            state, ref_report = ek.ghz_state(20), ref[f"compress/{name}"]
        else:
            state, ref_report = ek.random_state(dims, sub()), None
        path = _write(write, f"{wd}/{name}.state", state)
        out = f"{wd}/{name}.mps"
        jobs.append(Job(f"compress/{name}",
                        ["mps", "compress", "--state", path, "--max-bond", str(bond),
                         "--out-mps", out],
                        _check_compress(state.amps, state.dims, bond, ref_report),
                        out_mps=out, recorded=dims is None,
                        control=lambda path=path: oracle.read_amplitudes(path, CONTROL_LINES)))
    return jobs


# --------------------------------------------------------------------------
# manysite: uniformity, codes, stellar and polytope on 4-16 sites
# --------------------------------------------------------------------------

def _check_fixed(ref_report):
    def check(rc, rep, _):
        return _exit_is(rc, 0) + oracle.compare_reports(rep, ref_report)
    return check


def _check_uniformity(amps, dims, ame):
    def check(rc, rep, _):
        K = len(dims)
        problems = _exit_is(rc, 0)
        for k in range(1, K // 2 + 1):
            got = float(rep.get(f"Q{k}", "nan"))
            want = 1.0 if ame else (oracle.scott_q(amps, dims, k) if k <= 2 else None)
            if want is not None and not abs(got - want) <= 1e-9:
                problems.append(f"Q{k} {got!r}, reference {want!r}")
            if not 0.0 <= got <= 1.0 + 1e-12:
                problems.append(f"Q{k} {got!r} outside [0, 1]")
        want_level = str(K // 2) if ame else "0"
        if rep.get("k_uniform") != want_level or rep.get("is_ame") != ("true" if ame else "false"):
            problems.append(f"k_uniform {rep.get('k_uniform')} / is_ame {rep.get('is_ame')}")
        return problems
    return check


def _check_kl(dims, weight, passes):
    def check(rc, rep, _):
        K, n = len(dims), dims[0]
        count = 1 + sum((n * n - 1) ** k * math.comb(K, k) for k in range(1, weight + 1))
        problems = _exit_is(rc, 0)
        if rep.get("num_errors") != str(count) or rep.get("weight") != str(weight):
            problems.append(f"num_errors {rep.get('num_errors')}, expected {count}")
        violation = float(rep.get("worst_violation", "nan"))
        if rep.get("kl_pass") != ("true" if passes else "false") or \
                (violation <= KL_TOL) != passes:
            problems.append(f"kl_pass {rep.get('kl_pass')} with violation {violation!r}")
        return problems
    return check


def _check_symmetric(coeffs):
    def check(rc, rep, _):
        K = len(coeffs) - 1
        problems = _exit_is(rc, 0)
        # every finite star must be a root of the Majorana polynomial
        poly = [(-1) ** k * math.sqrt(math.comb(K, k)) * coeffs[k] for k in range(K + 1)]
        scale = float(np.abs(poly).sum())
        stars = [rep.get(f"star {k}") for k in range(1, K + 1)]
        for s in stars:
            if s is None:
                return problems + [f"expected {K} stars"]
            if s != "inf":
                z = complex(*map(float, s.split()))
                if abs(np.polyval(poly, z)) > 1e-7 * scale * max(1.0, abs(z)) ** K:
                    problems.append(f"star {s} is not a root")
        if rep.get("degeneracy") != ",".join(["1"] * K):
            problems.append(f"degeneracy {rep.get('degeneracy')} for a generic state")
        if K == 4 and rep.get("class") != "generic":
            problems.append(f"class {rep.get('class')} for a generic 4-qubit state")
        return problems
    return check


def _check_polytope(amps, dims, vertex_count):
    def check(rc, rep, _):
        problems = _exit_is(rc, 0)
        lams = [np.linalg.eigvalsh(oracle.reduced(amps, dims, (k,)))[0] for k in range(len(dims))]
        total = sum(lams)
        for k, lam in enumerate(lams, start=1):
            if not oracle.close(rep.get(f"lambda {k}", ""), lam, atol=1e-10) or \
                    not oracle.close(rep.get(f"slack {k}", ""), total - 2 * lam, atol=1e-9):
                problems.append(f"lambda/slack {k} disagree with the reference")
        if rep.get("polygon_pass") != "true" or rep.get("vertex_count") != vertex_count:
            problems.append("polygon_pass or vertex_count wrong")
        return problems
    return check


def _manysite_control(state, kl):
    """Two-site purities of the input, plus for KL jobs a Gram of local-operator images."""
    def control():
        oracle.scott_q(state.amps, state.dims, 2)
        if kl:
            oracle.local_gram(state.amps, state.dims, MANYSITE_GRAM_ROWS)
    return control


MANYSITE_GRAM_ROWS = 400


def _manysite(seed, pass_index, wd, write, ref):
    rng, sub = _seeds(seed, pass_index, 4)
    jobs = []

    def rotated(state):
        d = state.dims[0]
        us = [oracle.haar_unitary(d, rng) for _ in state.dims]
        return ek.new_state(state.dims, oracle.apply_local(state.amps, state.dims, us))

    def add(name, argv, state, check, recorded=False):
        path = _write(write, f"{wd}/{name.replace('/', '_')}.state", state)
        jobs.append(Job(name, [*argv, "--state", path], check, recorded=recorded,
                        control=_manysite_control(state, kl=argv[0] == "codes")))

    # uniformity: AME states under random local unitaries, then random states
    for name, make in (("ame43", ek.ame43_state), ("ame52", ek.ame52_state)):
        st = rotated(make())
        add(f"uniformity/{name}", ["uniformity"], st, _check_uniformity(st.amps, st.dims, True))
    for i, K in enumerate((10, 10, 12, 12)):
        st = ek.random_state((2,) * K, sub())
        add(f"uniformity/random{K}-{i}", ["uniformity"], st,
            _check_uniformity(st.amps, st.dims, False))
    # Knill-Laflamme: the AME states pass at w=1, random states fail at w=2
    for name, make in (("ame52", ek.ame52_state), ("ame43", ek.ame43_state)):
        st = rotated(make())
        add(f"kl/{name}-w1", ["codes", "kl", "--weight", "1"], st, _check_kl(st.dims, 1, True))
    for dims in ((2,) * 12, (3,) * 7, (3,) * 8):
        st = ek.random_state(dims, sub())
        add(f"kl/random{dims[0]}x{len(dims)}-w2", ["codes", "kl", "--weight", "2"], st,
            _check_kl(dims, 2, False))
    # stellar: fixed Dicke, GHZ and W states against the recorded reports,
    # random symmetric states against the Majorana polynomial
    fixed = [("dicke16-8", ek.dicke_state(16, 8))]
    for K in (4, 8, 12):
        fixed += [(f"ghz{K}", ek.ghz_state(K)), (f"w{K}", ek.w_state(K))]
    for name, st in fixed:
        add(f"stellar/{name}", ["stellar"], st, _check_fixed(ref[f"stellar/{name}"]), True)
    for K in (4, 8, 12):
        c = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
        c /= np.linalg.norm(c)
        st = ek.new_state((2,) * K, oracle.symmetric_amps(c))
        add(f"stellar/random{K}", ["stellar"], st, _check_symmetric(c))
    # polytope: one fixed GHZ state, then random 8-qubit states
    add("polytope/ghz8", ["polytope"], ek.ghz_state(8), _check_fixed(ref["polytope/ghz8"]), True)
    for i in range(9):
        st = ek.random_state((2,) * 8, sub())
        add(f"polytope/random8-{i}", ["polytope"], st,
            _check_polytope(st.amps, st.dims, ref["polytope/ghz8"].get("vertex_count")))
    for flag in ("hamming", "repetition"):
        jobs.append(Job(f"codes-demo/{flag}", ["codes", "demo", f"--{flag}"],
                        _check_fixed(ref[f"codes-demo/{flag}"]), recorded=True))
    return jobs


# Host-speed control for wall_s.  On a shared host the speed this process
# gets drifts, by up to 2x over minutes, and code of different kinds drifts
# by different amounts.  The benchmark times each job's check and its
# control work, which runs just before and just after the job: fixed code
# outside entkit that does the same kind of work, mostly on the same input.
# On qubit3 the checks are that work (numpy on three-qubit arrays under the
# interpreter).  dmrg adds dense Hermitian eigenproblems of the local
# problems' sizes; compress adds parsing the first CONTROL_LINES lines of
# each input file; manysite adds the two-site purities of each input and,
# for KL jobs, a Gram matrix of local-operator images.  wall_s is the
# measured pass time scaled to the host speed at which the checks and
# control work take CONTROL_S seconds per pass.  A change to entkit moves
# wall_s as it moves the measured time.
CONTROL_S = {"qubit3": 0.65, "dmrg": 2.2, "compress": 4.6, "manysite": 1.5}


_BUILDERS = {"qubit3": _qubit3, "dmrg": _dmrg, "compress": _compress, "manysite": _manysite}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, pass_index: int, workdir: str, write: bool,
          reference: dict | None = None) -> list:
    """Job list of one pass; writes its input files into workdir when write is set."""
    os.makedirs(workdir, exist_ok=True)
    ref = oracle.load_reference() if reference is None else reference
    return _BUILDERS[workload](seed, pass_index, workdir, write, ref)
