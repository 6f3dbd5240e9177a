"""Property test of the vector-file loader: on generated files, at a random
BLOCK_BYTES, `load_embedding` gives what the per-line oracle
`_reference_load` gives: the same words, vector bytes and duplicate count,
or the same `path:line:` error."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conceptlearn import EmbeddingSourceSpec, embeddings  # noqa: E402
from test_embeddings import _block_load, _outcome, _reference_load  # noqa: E402

# a small alphabet, so words repeat (also after lowercasing) and a word can
# be an integer, which makes a first line of two integers a header
_WORDS = st.text("aAbBéÉßİ#5", min_size=1, max_size=3)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85",
                               "\xa0", "\u2009", "\u2028", "\u3000"])
# one draw per token from a fixed pool: numbers as repr, %.12g and %.5f write
# them (subnormal, -0.0 and near-overflow values too) and integers, three
# times over, then tokens np.loadtxt rejects but float() reads, tokens
# neither reads, and values that are not finite as float32
_rng = np.random.default_rng(0)
_VALUES = [*(_rng.standard_normal(30) * 10.0 ** _rng.integers(-8, 9, 30)),
           5e-324, -0.0, 1e308, 3.4e38]
_NUMBERS = [fmt(v) for v in _VALUES for fmt in (repr, "%.12g".__mod__, "%.5f".__mod__)]
_NUMBERS += [str(i) for i in range(-20, 20)]
_ODD_TOKENS = ["1_0", "\u0661\u0662", "+.5", "1.", "Inf", "two", "1#2", "#", "0x10",
               "1,5", "nan", "-inf", "1e39", "1e999"]
_TOKENS = st.sampled_from(_NUMBERS * 3 + _ODD_TOKENS)
_NOT_UTF8 = st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"])


@st.composite
def vector_files(draw):
    """The bytes of a vector file: records of one dimension (now and then
    one of another, or a word alone), blank lines, separators of every
    kind, an optional header, BOM and final line end, line ends of all
    three kinds, and now and then bytes that are not UTF-8."""
    dim = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 99))} {draw(st.integers(0, 9))}")
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["record"] * 8 + ["blank", "other-dim"]))
        if kind == "blank":
            lines.append(draw(st.text(" \t\x0c", max_size=2)))
            continue
        n = dim if kind == "record" else draw(st.integers(0, 5))
        tokens = [draw(_WORDS)] + draw(st.lists(_TOKENS, min_size=n, max_size=n))
        sep = draw(_SEPARATORS)
        lines.append(draw(st.sampled_from(["", sep])) + sep.join(tokens)
                     + draw(st.sampled_from(["", sep])))
    if draw(st.sampled_from([False] * 9 + [True])):
        # past the 8 KiB the text layer decodes at a time, between lines
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        pad = end.join(["pad" + " 0.000000" * dim] * 800)
        lines.insert(draw(st.integers(0, len(lines))), pad)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.one_of(st.integers(0, len(data)), st.just(len(data))))
        data = data[:at] + draw(_NOT_UTF8) + data[at:]
    return data


@pytest.fixture(scope="module")
def vector_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "v.txt"


# derandomized, so a run is reproducible; failing examples are not saved
@settings(max_examples=200, deadline=1000, derandomize=True, database=None)
@given(data=vector_files(), lowercase=st.booleans(),
       block_bytes=st.integers(0, 300).map(lambda n: n or 1 << 20))
def test_block_loader_matches_line_loop_on_generated_files(
    vector_path, data, lowercase, block_bytes
):
    vector_path.write_bytes(data)
    spec = EmbeddingSourceSpec(path=str(vector_path), lowercase=lowercase)
    saved, embeddings.BLOCK_BYTES = embeddings.BLOCK_BYTES, block_bytes
    try:
        assert _outcome(lambda: _block_load(spec)) == _outcome(lambda: _reference_load(spec))
    finally:
        embeddings.BLOCK_BYTES = saved
