from pathlib import Path

import pytest

from entkit import cli
from entkit import codes as cd
from entkit import states as st
from entkit import mps as mp
from entkit import uniformity as un


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GHZ3 = "dims 2 2 2\n000 1 0\n111 1 0\n"


def _key(line):
    if line.startswith("#"):
        return "#"
    fields = line.split("#")[0].split()
    # indexed keys like "lambda 2" or "star 1" span two tokens
    if len(fields) >= 3 and fields[1].isdigit():
        return " ".join(fields[:2])
    return fields[0]


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, {_key(line): line for line in out.strip().splitlines()}, out


def _value(lines, key):
    line = lines[key]
    return line.split("#")[0].split()[-1]


def test_analyze_ghz(tmp_path, capsys):
    path = _write(tmp_path, "ghz.state", GHZ3)
    code, lines, _ = _run(["analyze", "--state", path], capsys)
    assert code == 0
    assert _value(lines, "I6") == "0.25"
    assert _value(lines, "tau3") == "1"
    assert lines["slocc"].endswith("GHZ")
    assert _value(lines, "canonical_r0") == "0.707106781187"


def test_analyze_w_state(tmp_path, capsys):
    path = _write(tmp_path, "w.state", "dims 2 2 2\n001 1 0\n010 1 0\n100 1 0\n")
    code, lines, _ = _run(["analyze", "--state", path], capsys)
    assert code == 0
    assert lines["slocc"].endswith("W")
    assert float(_value(lines, "tau2")) == pytest.approx(4 / 9, abs=1e-9)
    assert float(_value(lines, "tau3")) == pytest.approx(0.0, abs=1e-9)
    assert float(_value(lines, "I5")) == pytest.approx(2 / 9, abs=1e-9)
    assert float(_value(lines, "lambda 1")) == pytest.approx(1 / 3, abs=1e-9)


def test_analyze_rejects_wrong_shape(tmp_path, capsys):
    path = _write(tmp_path, "bell.state", "dims 2 2\n00 1 0\n11 1 0\n")
    code = cli.main(["analyze", "--state", path])
    assert code == 1
    assert "three-qubit" in capsys.readouterr().err


def test_uniformity_ame43(tmp_path, capsys):
    state = un.ame43_state()
    path = str(tmp_path / "ame43.state")
    st.write_state_file(path, state)
    code, lines, _ = _run(["uniformity", "--state", path, "--max-k", "2"], capsys)
    assert code == 0
    assert _value(lines, "k_uniform") == "2"
    assert _value(lines, "is_ame") == "true"


def test_polytope_boundary_flag(tmp_path, capsys):
    path = _write(tmp_path, "000.state", "dims 2 2 2\n000 1 0\n")
    code, lines, _ = _run(["polytope", "--state", path], capsys)
    assert code == 2           # separable corner sits on the boundary
    assert _value(lines, "polygon_pass") == "true"
    assert _value(lines, "w_pyramid") == "true"


def test_classify_threshold_warning(tmp_path, capsys):
    # |Det3| = 1e-8 * (norm factor)^-4 lands inside the warning margin
    path = _write(tmp_path, "edge.state", "dims 2 2 2\n000 1 0\n111 0.0001 0\n")
    code, lines, _ = _run(["classify", "--state", path], capsys)
    assert code == 2
    assert "warning" in lines


def test_stellar_ghz(tmp_path, capsys):
    path = _write(tmp_path, "ghz.state", GHZ3)
    code, lines, _ = _run(["stellar", "--state", path], capsys)
    assert code == 0
    assert _value(lines, "degeneracy") == "1,1,1"
    assert lines["class"].endswith("GHZ")


def test_codes_demo_hamming(capsys):
    code, lines, _ = _run(["codes", "demo", "--hamming"], capsys)
    assert code == 0
    assert _value(lines, "min_distance") == "3"
    assert _value(lines, "encode_output") == "0101010"


def test_codes_demo_from_file(tmp_path, capsys):
    path = _write(tmp_path, "rep.code",
                  "12 4\n" + "\n".join(
                      "".join(str(b) for b in row)
                      for row in cd.repetition_code().generator) + "\n")
    code, lines, _ = _run(["codes", "demo", "--code", path], capsys)
    assert code == 0
    assert _value(lines, "n") == "12"
    assert _value(lines, "min_distance") == "3"


def test_codes_kl(tmp_path, capsys):
    path = str(tmp_path / "ame52.state")
    st.write_state_file(path, un.ame52_state())
    code, lines, _ = _run(["codes", "kl", "--state", path, "--weight", "1"], capsys)
    assert code == 0
    assert _value(lines, "kl_pass") == "true"


def test_mps_dmrg_zero_field(capsys):
    code, lines, _ = _run(["mps", "dmrg", "--model", "ising", "--g", "0",
                           "--sites", "8", "--bond", "4", "--seed", "1"], capsys)
    assert code == 0
    assert _value(lines, "energy") == "-7"


def test_mps_dmrg_requires_seed(capsys):
    code = cli.main(["mps", "dmrg", "--model", "ising", "--g", "1",
                     "--sites", "4", "--bond", "4"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_mps_compress_round_trip(tmp_path, capsys):
    state = st.random_state((2,) * 8, 42)
    spath = str(tmp_path / "in.state")
    st.write_state_file(spath, state)
    mpath = str(tmp_path / "out.mps")
    code = cli.main(["mps", "compress", "--state", spath, "--max-bond", "4",
                     "--out-mps", mpath, "--out", str(tmp_path / "report.txt")])
    assert code == 0
    reloaded = mp.read_mps_file(mpath)
    full = mp.from_dense(state)
    truncated, _ = mp.truncate(full, 4)
    assert abs(mp.overlap(truncated, reloaded) - mp.overlap(truncated, truncated)) < 1e-10
    report = (tmp_path / "report.txt").read_text()
    assert "fidelity" in report and report.endswith("status 0\n")


def test_report_determinism(tmp_path):
    spath = str(tmp_path / "in.state")
    st.write_state_file(spath, st.random_state((2, 2, 2), 9))
    out1, out2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    assert cli.main(["analyze", "--state", spath, "--out", out1]) == 0
    assert cli.main(["analyze", "--state", spath, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_report_rejects_nan_and_duplicates():
    rep = cli.Report(command="x")
    with pytest.raises(cli.ReportError):
        rep.add("bad", float("nan"))
    rep.add("k", 1.0)
    with pytest.raises(cli.ReportError):
        rep.add("k", 2.0)


def test_report_float_formatting():
    rep = cli.Report(command="x")
    rep.add("v", 1 / 3)
    assert rep.render().splitlines()[1] == "v 0.333333333333"


def test_missing_file_reports_error(capsys):
    assert cli.main(["analyze", "--state", "/nonexistent/file"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_malformed_file_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "bad.state", "dims 2 2\n31 1 0\n")
    assert cli.main(["analyze", "--state", path]) == 1
    assert "line 2" in capsys.readouterr().err


def test_tol_zero_reaches_module(tmp_path, capsys, monkeypatch):
    seen = []
    classify = cli.inv.slocc_classify3
    monkeypatch.setattr(cli.inv, "slocc_classify3",
                        lambda state, tol: seen.append(tol) or classify(state, tol))
    path = _write(tmp_path, "ghz.state", GHZ3)
    code, lines, _ = _run(["classify", "--state", path, "--tol", "0"], capsys)
    assert code == 0
    assert seen == [0.0]
    assert lines["det3_abs"].endswith("# class threshold 0")


def test_parsed_values_do_not_leak_between_calls(tmp_path, capsys):
    path = _write(tmp_path, "ghz.state", GHZ3)
    code, lines, _ = _run(["classify", "--state", path, "--tol", "0"], capsys)
    assert code == 0
    assert lines["det3_abs"].endswith("# class threshold 0")
    code, lines, _ = _run(["classify", "--state", path], capsys)
    assert code == 0
    assert lines["det3_abs"].endswith(f"# class threshold {cli.inv.DET3_CLASS_TOL:g}")


def test_mps_compress_refuses_tol(tmp_path, capsys):
    spath = str(tmp_path / "in.state")
    st.write_state_file(spath, st.random_state((2,) * 4, 3))
    assert cli.main(["mps", "compress", "--tol", "1e-3", "--state", spath,
                     "--max-bond", "2"]) == 1
    assert "--tol" in capsys.readouterr().err


def test_max_k_zero_emits_no_q_lines(tmp_path, capsys):
    path = str(tmp_path / "ame43.state")
    st.write_state_file(path, un.ame43_state())
    code, lines, _ = _run(["uniformity", "--state", path, "--max-k", "0"], capsys)
    assert code == 0
    assert not any(key.startswith("Q") for key in lines)
    assert _value(lines, "k_uniform") == "2"


@pytest.mark.parametrize("argv, name, body, message", [
    (["codes", "demo", "--code"], "bad.code", "7 4\n1000011\n01x0101\n",
     "line 3: row '01x0101' is not a bitstring of length 7"),
    (["analyze", "--state"], "empty.state", "# no dims\n", "no 'dims' line found"),
    (["analyze", "--state"], "zero.state", "dims 2 2 2\n000 0 0\n",
     "zero vector: no non-zero amplitudes given"),
])
def test_format_errors_are_one_line(tmp_path, capsys, argv, name, body, message):
    assert cli.main(argv + [_write(tmp_path, name, body)]) == 1
    assert capsys.readouterr().err == f"entkit: error: {message}\n"


def test_overflowing_norm_is_one_line_error(tmp_path, capsys):
    path = _write(tmp_path, "huge.state", "dims 2 2 2\n000 1e308 0\n111 1e308 0\n")
    assert cli.main(["classify", "--state", path]) == 1
    assert capsys.readouterr().err == (
        "entkit: error: amplitude norm overflows or is not finite; rescale the input\n")


@pytest.mark.parametrize("flags, message", [
    (["--sites", "1", "--bond", "4"], "a chain needs at least 2 sites, got 1"),
    (["--sites", "0", "--bond", "4"], "a chain needs at least 2 sites, got 0"),
    (["--sites", "6", "--bond", "0"], "bond dimension must be at least 1, got 0"),
    (["--sites", "6", "--bond", "-1"], "bond dimension must be at least 1, got -1"),
])
def test_mps_dmrg_bad_sizes_are_one_line_errors(capsys, flags, message):
    assert cli.main(["mps", "dmrg", "--model", "ising", "--g", "1", "--seed", "1",
                     *flags]) == 1
    assert capsys.readouterr().err == f"entkit: error: {message}\n"
