"""Properties of the four text formats: round trips and clean failures.

Every reader takes its lines from ``states._records``; on any input it
either returns a value or raises ``FormatError`` (the code reader also
raises ``CodeError`` for rows that parse but are linearly dependent).
"""

from itertools import compress, product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hs

from entkit import codes as cd
from entkit import mps as mp
from entkit import states as st
from entkit import stellar as sl

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = hs.floats(min_value=-1e3, max_value=1e3, allow_nan=False)

# Tokens of every format plus near misses; free tokens stay at three
# characters so that no count or dimension read from them is large.
TOKENS = hs.one_of(
    hs.sampled_from(["dims", "mps", "site", "bond", "star", "inf", "open",
                     "periodic", "#", "nan", "-inf", "²", "0,1", "10,1", ",",
                     "1e400", "0x1", "1_0"]),
    hs.text(alphabet="0123456789,.-+e#x²", min_size=1, max_size=3))
LINES = hs.lists(hs.lists(TOKENS, max_size=5).map(" ".join), max_size=8)
TEXT = hs.one_of(
    LINES.map(lambda lines: "\n".join(lines) + "\n"),
    hs.text(alphabet=hs.characters(blacklist_categories=("Cs",)), max_size=20))


def _write_text(tmp_path, data):
    path = tmp_path / "input.txt"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return path


@PROPERTY
@given(dims=hs.lists(hs.integers(2, 12), min_size=1, max_size=3),
       seed=hs.integers(0, 2 ** 32 - 1), threshold=hs.sampled_from([0.0, 0.1]))
def test_state_file_round_trip_property(tmp_path, dims, seed, threshold):
    assume(int(np.prod(dims)) <= 300)
    s = st.random_state(dims, seed)
    assume(np.abs(s.amps).max() > threshold)
    path = tmp_path / "s.state"
    st.write_state_file(path, s, threshold)
    back = st.read_state_file(path)
    kept = np.where(np.abs(s.amps) > threshold, s.amps, 0)
    assert back.dims == s.dims
    assert np.abs(back.amps - kept / np.linalg.norm(kept)).max() < 1e-14


def _reference_write_state_file(path, state, threshold=0.0):
    """The per-amplitude writer that the block writer replaced; the byte reference."""
    dims = state.dims
    sep = "," if max(dims) > 10 else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dims " + " ".join(str(d) for d in dims) + "\n")
        labelled = zip(product(*map(range, dims)), state.amps)
        for digits, a in compress(labelled, np.abs(state.amps) > threshold):
            fh.write(f"{sep.join(map(str, digits))} {float(a.real)!r} {float(a.imag)!r}\n")


def _assert_same_bytes_as_reference(tmp_path, state, threshold):
    ours, ref = tmp_path / "ours.state", tmp_path / "ref.state"
    st.write_state_file(ours, state, threshold)
    _reference_write_state_file(ref, state, threshold)
    assert ours.read_bytes() == ref.read_bytes()


@PROPERTY
@given(dims=hs.lists(hs.integers(2, 12), min_size=1, max_size=5).filter(
           lambda dims: int(np.prod(dims)) <= 3000),
       seed=hs.integers(0, 2 ** 32 - 1), threshold=hs.sampled_from([0.0, 0.01, 0.1]))
def test_state_file_writer_matches_reference_bytes_property(tmp_path, dims, seed, threshold):
    rng = np.random.default_rng(seed)
    amps = np.array(st.random_state(dims, seed).amps)
    amps[rng.random(amps.size) < 0.3] = 0.0
    amps.real[rng.random(amps.size) < 0.1] = -0.0
    amps.imag[rng.random(amps.size) < 0.1] = -0.0
    state = st.PureState(tuple(dims), amps)
    assume(np.abs(amps).max() > threshold)
    _assert_same_bytes_as_reference(tmp_path, state, threshold)


@pytest.mark.parametrize("state", [st.random_state((2,) * 14, 7), st.dicke_state(16, 8)],
                         ids=["dense-2^14", "dicke-16-8"])
def test_state_file_writer_matches_reference_bytes_over_many_blocks(tmp_path, state):
    _assert_same_bytes_as_reference(tmp_path, state, 0.0)


@PROPERTY
@given(sites=hs.integers(1, 5), local_dim=hs.integers(2, 3), bond=hs.integers(1, 4),
       boundary=hs.sampled_from(["open", "periodic"]), seed=hs.integers(0, 2 ** 32 - 1))
def test_mps_file_round_trip_property(tmp_path, sites, local_dim, bond, boundary, seed):
    m = mp.random_mps(sites, local_dim, bond, seed, boundary=boundary)
    path = tmp_path / "m.mps"
    mp.write_mps_file(path, m)
    back = mp.read_mps_file(path)
    assert back.boundary == m.boundary
    assert all(np.array_equal(a, b) for a, b in zip(back.tensors, m.tensors, strict=True))
    assert all(np.array_equal(a, b) for a, b in
               zip(back.spectra or (), m.spectra or (), strict=True))


@PROPERTY
@given(rows=hs.lists(hs.lists(hs.integers(0, 1), min_size=6, max_size=6),
                     min_size=0, max_size=4))
def test_code_file_round_trip_property(tmp_path, rows):
    g = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
    try:
        code = cd.LinearCode.from_generator(g)
    except cd.CodeError:
        assume(False)
    path = tmp_path / "c.code"
    lines = [f"{code.n} {code.k}"] + ["".join(str(b) for b in row) for row in code.generator]
    path.write_text("\n".join(lines) + "\n")
    back = cd.read_code_file(path)
    assert (back.n, back.k) == (code.n, code.k)
    assert np.array_equal(back.generator, code.generator)


@PROPERTY
@given(stars=hs.lists(hs.builds(complex, finite, finite), max_size=6),
       inf_count=hs.integers(0, 3))
def test_constellation_file_round_trip_property(tmp_path, stars, inf_count):
    con = sl.Constellation(finite_stars=np.array(stars, dtype=complex), inf_count=inf_count)
    path = tmp_path / "c.stars"
    sl.write_constellation_file(path, con)
    back = sl.read_constellation_file(path, expected_count=len(stars) + inf_count)
    assert back.inf_count == inf_count
    assert sorted(back.finite_stars, key=lambda z: (z.real, z.imag)) == \
        sorted(stars, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("reader, semantic", [
    (st.read_state_file, ()),
    (mp.read_mps_file, ()),
    (cd.read_code_file, (cd.CodeError,)),
    (sl.read_constellation_file, ()),
], ids=["state", "mps", "code", "constellation"])
@PROPERTY
@given(data=hs.one_of(TEXT, hs.binary(max_size=20)))
def test_reader_parses_or_raises_format_error(tmp_path, reader, semantic, data):
    path = _write_text(tmp_path, data)
    try:
        reader(path)
    except st.FormatError as exc:
        assert "\n" not in str(exc)
        if exc.lineno is not None:
            assert str(exc).startswith(f"line {exc.lineno}: ")
    except semantic:
        pass
