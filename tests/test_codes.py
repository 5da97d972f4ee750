import numpy as np
import pytest

from entkit import codes as cd
from entkit import states as st
from entkit import uniformity as un


def test_hamming_distance_examples():
    assert cd.hamming_distance("000", "111") == 3
    assert cd.hamming_distance("0101", "0101") == 0
    assert cd.hamming_distance("0101", "0110") == 2
    with pytest.raises(cd.CodeError):
        cd.hamming_distance("01", "011")


def test_min_distance_printed_codes():
    assert cd.min_distance(cd.hamming_code()) == 3
    assert cd.min_distance(cd.repetition_code()) == 3


def test_min_distance_trivial_code():
    trivial = cd.LinearCode.from_generator(np.zeros((0, 5), dtype=int))
    assert cd.min_distance(trivial) is None


def test_min_distance_guard():
    g = np.eye(25, dtype=int)
    code = cd.LinearCode.from_generator(g)
    with pytest.raises(cd.CodeError, match="refused"):
        cd.min_distance(code)


def test_generator_rank_validation():
    with pytest.raises(cd.CodeError, match="dependent"):
        cd.LinearCode.from_generator([[1, 0, 1], [1, 0, 1]])


def test_parity_check_construction():
    for code in (cd.hamming_code(), cd.repetition_code()):
        h = code.parity_check
        assert not ((h @ code.generator.T) % 2).any()
        # H annihilates every codeword
        for msg in range(2 ** code.k):
            bits = [(msg >> i) & 1 for i in range(code.k)]
            cw = cd.encode(code, bits)
            assert not ((h @ cw) % 2).any()
    assert cd.hamming_code().parity_check.shape == (3, 7)
    assert cd.repetition_code().parity_check.shape == (8, 12)


def test_full_space_code_has_empty_parity_check():
    code = cd.LinearCode.from_generator(np.eye(4, dtype=int))
    assert cd.parity_check_from_standard(code).shape == (0, 4)


def test_parity_check_requires_standard_form():
    code = cd.LinearCode.from_generator([[0, 1, 1], [1, 0, 1]])
    with pytest.raises(cd.CodeError, match="standard form"):
        cd.parity_check_from_standard(code)


def test_encode_printed_example():
    cw = cd.encode(cd.hamming_code(), "0101")
    assert "".join(map(str, cw)) == "0101010"


def test_syndrome_decoding_all_single_errors():
    for code in (cd.hamming_code(), cd.repetition_code()):
        for msg in range(2 ** code.k):
            bits = [(msg >> i) & 1 for i in range(code.k)]
            cw = cd.encode(code, bits)
            for pos in range(code.n):
                r = cw.copy()
                r[pos] ^= 1
                res = cd.syndrome_decode_weight1(code, r)
                assert res.correctable
                assert res.error_position == pos
                assert np.array_equal(res.codeword, cw)
            clean = cd.syndrome_decode_weight1(code, cw)
            assert clean.error_position is None
            assert np.array_equal(clean.codeword, cw)


def test_hamming_syndromes_fill_space():
    h = cd.hamming_code().parity_check
    syndromes = {tuple(h[:, j]) for j in range(7)}
    assert len(syndromes) == 7
    assert all(any(s) for s in syndromes)


def test_multibit_error_reported_uncorrectable():
    code = cd.repetition_code()
    cw = cd.encode(code, "1000")
    r = cw.copy()
    r[0] ^= 1
    r[1] ^= 1   # syndrome has weight 4, matching no single column of H
    res = cd.syndrome_decode_weight1(code, r)
    assert not res.correctable
    assert res.codeword is None


def test_code_file_round_trip(tmp_path):
    path = tmp_path / "ham.code"
    g = cd.hamming_code().generator
    lines = ["7 4"] + ["".join(str(b) for b in row) for row in g]
    path.write_text("\n".join(lines) + "\n")
    code = cd.read_code_file(path)
    assert code.n == 7 and code.k == 4
    assert np.array_equal(code.generator, g)


def test_kl_weight_guard():
    with pytest.raises(ValueError):
        cd.knill_laflamme_check(st.ghz_state(3), 2)


def test_kl_ame52():
    res = cd.knill_laflamme_check(un.ame52_state(), 1)
    assert res.passed
    assert res.worst_violation <= 1e-9
    assert res.num_errors == 16


def test_kl_ame43():
    res = cd.knill_laflamme_check(un.ame43_state(), 1)
    assert res.passed
    assert res.worst_violation <= 1e-9
    assert res.num_errors == 33


def test_kl_product_state_fails():
    res = cd.knill_laflamme_check(st.basis_state((2,) * 5, "00000"), 1)
    assert not res.passed
    assert res.worst_violation >= 1 - 1e-12


def test_kl_weight_zero_trivial():
    res = cd.knill_laflamme_check(st.ghz_state(4), 0)
    assert res.passed and res.num_errors == 1


def test_kl_pair_count_guard():
    s = st.basis_state((2,) * 14, "0" * 14)
    with pytest.raises(ValueError, match="guard"):
        cd.knill_laflamme_check(s, 3)


def test_code_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.code"
    for body, match in [("7 four\n", "line 1: non-integer"),
                        ("3 1\n# generator\n1021\n", "line 3: row '1021'"),
                        ("3 1\n101\n110\n", "line 3: more than 1"),
                        ("3 2\n101\n", "^expected 2 generator rows, got 1$"),
                        ("# nothing\n", "^empty code file$"),
                        ("2 3\n", "line 1: header")]:
        path.write_text(body)
        with pytest.raises(st.FormatError, match=match):
            cd.read_code_file(path)
    path.write_text("3 2\n101\n101\n")
    with pytest.raises(cd.CodeError, match="dependent"):
        cd.read_code_file(path)
