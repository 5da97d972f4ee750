"""Command-line front end: one argparse tree, one handler per command, reports.

Commands: analyze, classify, polytope, uniformity, stellar, codes (demo/kl),
mps (compress/dmrg).  `_build_parser` declares every option's type, domain
and default; each subparser names its handler.  Every command is a pure
function of its input files, flags and seed; reports are emitted as ordered
key-value lines with floats printed to 12 significant digits.  Exit codes:
0 success, 1 error (one `entkit: error:` line), 2 success with a
classification-threshold warning.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import codes as codes_mod
from . import invariants as inv
from . import mps as mps_mod
from . import polytope as poly
from . import stellar as stell
from . import uniformity as uni
from .states import read_state_file, PureState

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2


class ReportError(ValueError):
    pass


@dataclass
class Report:
    """Ordered key-value lines with unique keys and deterministic formatting."""

    command: str
    entries: list = field(default_factory=list)
    status: int = EXIT_OK

    def add(self, key: str, value, note: str | None = None) -> None:
        if any(k == key for k, _, _ in self.entries):
            raise ReportError(f"duplicate report key {key!r}")
        self.entries.append((key, self._format(value), note))

    def _format(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            value = float(value)
            if math.isnan(value) or math.isinf(value):
                raise ReportError("NaN/Inf is never serialized into a report")
            return f"{value:.12g}"
        if isinstance(value, str):
            return value
        raise ReportError(f"unsupported report value type {type(value)!r}")

    def flag_warning(self) -> None:
        self.status = EXIT_WARNING

    def render(self) -> str:
        lines = [f"# entkit report: {self.command}"]
        for key, val, note in self.entries:
            line = f"{key} {val}"
            if note:
                line += f"  # {note}"
            lines.append(line)
        lines.append(f"status {self.status}")
        return "\n".join(lines) + "\n"


def emit_report(report: Report, path: str | None) -> None:
    """Write to a file or stdout; byte-stable for identical inputs and seeds."""
    text = report.render()
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _add_normalization(report: Report, state: PureState) -> None:
    if abs(state.norm_factor - 1.0) > 1e-12:
        report.add("normalization", state.norm_factor,
                   note="input was rescaled to unit norm")


def _near(value: float, tol: float) -> bool:
    """True when a thresholded quantity falls inside the two-decade margin."""
    return tol / 100.0 < value < tol * 100.0


def _classification_entries(report: Report, cls: inv.SloccClass, tol: float) -> None:
    report.add("slocc", cls.label)
    report.add("rank_a", cls.local_ranks[0])
    report.add("rank_b", cls.local_ranks[1])
    report.add("rank_c", cls.local_ranks[2])
    report.add("det3_abs", cls.det3_abs, note=f"class threshold {tol:g}")
    margins = [cls.det3_abs, *(x for s in cls.singular_values for x in s)]
    if any(_near(v, tol) for v in margins):
        report.flag_warning()
        report.add("warning", "threshold-marginal classification")


def _cmd_analyze(args) -> Report:
    report = Report(command="analyze")
    state = read_state_file(args.state)
    if state.dims != (2, 2, 2):
        raise ValueError("analyze expects a three-qubit state")
    _add_normalization(report, state)
    li = inv.lu_invariants(state)
    for key, val in [("I1", li.i1), ("I2", li.i2), ("I3", li.i3),
                     ("I4", li.i4), ("I5", li.i5), ("I6", li.i6)]:
        report.add(key, val)
    report.add("det3_re", li.det3.real)
    report.add("det3_im", li.det3.imag)
    tr = inv.tangle_report(state)
    report.add("tau_a_bc", tr.tau_a_bc)
    report.add("tau_b_ac", tr.tau_b_ac)
    report.add("tau_c_ab", tr.tau_c_ab)
    report.add("tau_ab", tr.tau_ab)
    report.add("tau_ac", tr.tau_ac)
    report.add("tau_bc", tr.tau_bc)
    report.add("tau1", tr.tau1)
    report.add("tau2", tr.tau2)
    report.add("tau3", tr.tau3)
    report.add("monogamy_min_residual", min(tr.monogamy_residuals))
    spectra = poly.local_spectra(state)
    for k, lam in enumerate(spectra.lambdas, start=1):
        report.add(f"lambda {k}", lam)
    report.add("w_pyramid", poly.w_pyramid_test(spectra))
    cf = inv.canonical_form3(state)
    for key, val in [("canonical_r0", cf.r0), ("canonical_r1", cf.r1),
                     ("canonical_r2", cf.r2), ("canonical_r3", cf.r3),
                     ("canonical_r4", cf.r4), ("canonical_phi", cf.phi)]:
        report.add(key, val)
    _classification_entries(report, inv.slocc_classify3(state, args.tol), args.tol)
    return report


def _cmd_classify(args) -> Report:
    report = Report(command="classify")
    state = read_state_file(args.state)
    if state.dims != (2, 2, 2):
        raise ValueError("classify expects a three-qubit state")
    _add_normalization(report, state)
    _classification_entries(report, inv.slocc_classify3(state, args.tol), args.tol)
    return report


def _cmd_polytope(args) -> Report:
    report = Report(command="polytope")
    state = read_state_file(args.state)
    _add_normalization(report, state)
    spectra = poly.local_spectra(state)
    for k, lam in enumerate(spectra.lambdas, start=1):
        report.add(f"lambda {k}", lam)
    check = poly.polygon_check(spectra, args.tol)
    for k, slack in enumerate(check.slacks, start=1):
        report.add(f"slack {k}", slack)
    report.add("polygon_pass", check.passed)
    if check.passed and check.boundary:
        report.add("boundary", True, note="zero slack within tolerance")
        report.flag_warning()
    if state.num_sites == 3:
        report.add("w_pyramid", poly.w_pyramid_test(spectra, args.tol))
    report.add("vertex_count", len(poly.polytope_vertices(state.num_sites))
               if 3 <= state.num_sites <= 8 else 0)
    return report


def _cmd_uniformity(args) -> Report:
    report = Report(command="uniformity")
    state = read_state_file(args.state)
    _add_normalization(report, state)
    for k in range(1, min(args.max_k, state.num_sites // 2) + 1):
        report.add(f"Q{k}", uni.q_measure(state, k))
    level = uni.k_uniform_level(state, args.tol)
    report.add("k_uniform", level)
    report.add("is_ame", state.num_sites >= 2 and level == state.num_sites // 2)
    return report


def _cmd_stellar(args) -> Report:
    report = Report(command="stellar")
    state = read_state_file(args.state)
    _add_normalization(report, state)
    sym = stell.symmetric_from_pure(state)
    con = stell.to_constellation(sym)
    for k, z in enumerate(con.finite_stars, start=1):
        report.add(f"star {k}", f"{z.real:.12g} {z.imag:.12g}")
    for k in range(con.inf_count):
        report.add(f"star {len(con.finite_stars) + k + 1}", "inf")
    report.add("degeneracy", ",".join(str(m) for m in stell.degeneracy_type(con, args.tol)))
    if sym.num_qubits in (3, 4):
        cls = stell.classify_sym(sym, args.tol)
        report.add("class", cls.label)
        if cls.cross_ratio is not None:
            report.add("cross_ratio_re", cls.cross_ratio.real)
            report.add("cross_ratio_im", cls.cross_ratio.imag)
            report.add("ghz_equivalent", cls.ghz_equivalent)
            report.add("tetrahedral", cls.tetrahedral)
            report.add("concyclic", cls.concyclic)
    fi = stell.form_invariants(stell.form_from_sym(sym), sym.num_qubits) \
        if sym.num_qubits in (2, 3, 4) else None
    if fi is not None:
        report.add("discriminant_abs", abs(fi.discriminant))
        if fi.i1 is not None:
            report.add("quartic_i1_abs", abs(fi.i1))
            report.add("quartic_i2_abs", abs(fi.i2))
    return report


def _named_code(args) -> codes_mod.LinearCode:
    if args.code:
        return codes_mod.read_code_file(args.code)
    if args.repetition:
        return codes_mod.repetition_code()
    return codes_mod.hamming_code()


def _cmd_codes_demo(args) -> Report:
    report = Report(command="codes demo")
    code = _named_code(args)
    report.add("n", code.n)
    report.add("k", code.k)
    d = codes_mod.min_distance(code)
    report.add("min_distance", d if d is not None else "undefined")
    report.add("standard_form", code.standard_form)
    if code.parity_check is not None:
        ok = not ((code.parity_check @ code.generator.T) % 2).any()
        report.add("parity_check_ok", ok)
        syndromes = {tuple(code.parity_check[:, j] % 2) for j in range(code.n)}
        report.add("weight1_syndromes_distinct", len(syndromes) == code.n)
        message = "0101"[:code.k].ljust(code.k, "0")
        cw = codes_mod.encode(code, message)
        report.add("encode_input", message)
        report.add("encode_output", "".join(str(b) for b in cw))
    return report


def _cmd_codes_kl(args) -> Report:
    report = Report(command="codes kl")
    state = read_state_file(args.state)
    res = codes_mod.knill_laflamme_check(state, args.weight, args.tol)
    report.add("weight", res.weight)
    report.add("num_errors", res.num_errors)
    report.add("worst_violation", res.worst_violation, note=f"tolerance {args.tol:g}")
    report.add("kl_pass", res.passed)
    return report


def _cmd_mps_compress(args) -> Report:
    report = Report(command="mps compress")
    state = read_state_file(args.state)
    _add_normalization(report, state)
    full = mps_mod.from_dense(state)
    report.add("bond_dims_exact", ",".join(str(d) for d in full.bond_dims))
    truncated, discarded = mps_mod.truncate(full, args.max_bond)
    report.add("bond_dims_truncated", ",".join(str(d) for d in truncated.bond_dims))
    for k, wgt in enumerate(discarded, start=1):
        report.add(f"discarded {k}", wgt)
    for k in range(len(truncated.bond_dims)):
        report.add(f"entropy {k + 1}", mps_mod.entanglement_entropy(truncated, k))
    report.add("fidelity", abs(mps_mod.to_dense(truncated).overlap(state)) ** 2)
    report.add("canonical_residual", mps_mod.check_canonical(truncated).max_residual)
    if args.out_mps:
        mps_mod.write_mps_file(args.out_mps, truncated)
        report.add("mps_file", args.out_mps)
    return report


def _cmd_mps_dmrg(args) -> Report:
    report = Report(command="mps dmrg")
    report.add("model", args.model)
    if args.model == "ising":
        g = 0.0 if args.g is None else args.g
        report.add("g", g)
        ham = mps_mod.ising_hamiltonian(args.sites, g)
    elif args.g is not None:
        raise ValueError("--g applies only to --model ising")
    else:
        ham = mps_mod.heisenberg_hamiltonian(args.sites)
    res = mps_mod.dmrg_ground_state(ham, args.max_bond, tol=args.tol, seed=args.seed)
    report.add("sites", args.sites)
    report.add("bond", args.max_bond)
    report.add("energy", res.energy)
    report.add("sweeps", res.num_sweeps)
    report.add("converged", res.converged)
    for i, e in enumerate(res.rayleigh_history, start=1):
        report.add(f"sweep_energy {i}", e)
    return report


class UsageError(ValueError):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing usage, so a refusal is one error line."""

    def error(self, message):
        raise UsageError(message)


def _checked(kind, domain: str, ok):
    """An argparse type that converts with kind and accepts values where ok holds."""
    def convert(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {domain}, got {text!r}")
    return convert


_tolerance = _checked(float, "a finite number >= 0", lambda x: 0 <= x < math.inf)
_count = _checked(int, "an integer >= 0", lambda n: n >= 0)
_finite = _checked(float, "a finite number", math.isfinite)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entkit", description="Multipartite entanglement analysis toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, handler, tol=None, state=True):
        p = group.add_parser(name)
        p.set_defaults(handler=handler)
        if state:
            p.add_argument("--state", required=True, help="input state file")
        p.add_argument("--out", help="report destination (default stdout)")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol,
                           help="tolerance, finite and >= 0 (default %(default)g)")
        return p

    command(sub, "analyze", _cmd_analyze, inv.DET3_CLASS_TOL)
    command(sub, "classify", _cmd_classify, inv.DET3_CLASS_TOL)
    command(sub, "polytope", _cmd_polytope, poly.SLACK_TOL)
    command(sub, "stellar", _cmd_stellar, stell.DEGENERACY_TOL)
    p = command(sub, "uniformity", _cmd_uniformity, uni.KUNIFORM_TOL)
    p.add_argument("--max-k", type=_count, default=sys.maxsize,
                   help="largest subset size to report (default K//2)")

    codes = sub.add_parser("codes").add_subparsers(dest="subcommand", required=True)
    p = command(codes, "demo", _cmd_codes_demo, state=False)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--hamming", action="store_true",
                        help="use the [7,4,3] Hamming code (default)")
    source.add_argument("--repetition", action="store_true",
                        help="use the [12,4,3] repetition code")
    source.add_argument("--code", help="load a generator matrix from a code file")
    p = command(codes, "kl", _cmd_codes_kl, codes_mod.KL_TOL)
    p.add_argument("--weight", type=_count, required=True, help="maximal error weight")

    mps = sub.add_parser("mps").add_subparsers(dest="subcommand", required=True)
    p = command(mps, "compress", _cmd_mps_compress)
    p.add_argument("--max-bond", type=int, required=True, help="bond dimension cap")
    p.add_argument("--out-mps", help="write the compressed MPS here")
    p = command(mps, "dmrg", _cmd_mps_dmrg, 1e-10, state=False)
    p.add_argument("--seed", type=_count, required=True, help="RNG seed")
    p.add_argument("--model", choices=("ising", "heisenberg"), default="ising")
    p.add_argument("--g", type=_finite, help="transverse field strength, ising only (default 0)")
    p.add_argument("--sites", type=int, required=True, help="chain length")
    p.add_argument("--bond", dest="max_bond", type=int, required=True, help="bond dimension")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # a floating-point fault is a refusal of the input, not a wrong report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = args.handler(args)
        emit_report(report, args.out)
    except SystemExit:  # --help; every refusal raises UsageError instead
        return EXIT_OK
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"entkit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return report.status


if __name__ == "__main__":
    sys.exit(main())
