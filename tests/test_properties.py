"""Property tests (hypothesis): total functions, determinism, span
invariants — randomized depth behind the fixture suite (SURVEY.md
§5.2.2). No Ray needed: the extraction core is pure."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from documentconvert_ray.config import DEFAULT_CONFIG
from documentconvert_ray.functions.decode import decode_bytes
from documentconvert_ray.functions.html_extract import extract_html
from documentconvert_ray.functions.pdf_extract import extract_pdf
from documentconvert_ray.functions.textstats import (
    minhash_signature,
    shingles,
    simhash64,
)
from documentconvert_ray.stages.extract import sniff_doc_type


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_decode_total_and_deterministic(raw):
    """decode_bytes never raises and is a pure function of its input."""
    t1, e1 = decode_bytes(raw)
    t2, e2 = decode_bytes(raw)
    assert (t1, e1) == (t2, e2)
    assert isinstance(t1, str)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096))
def test_sniff_total(raw):
    assert sniff_doc_type(raw) in ("html", "pdf", "other")


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_html_extract_total_and_span_invariants(raw):
    """extract_html never raises on arbitrary bytes; spans are sorted,
    non-overlapping, in-bounds, and tile the output exactly."""
    res = extract_html(raw, DEFAULT_CONFIG)
    assert isinstance(res.text_md, str)
    prev_end = -2
    for s in res.spans:
        assert 0 <= s["start"] < s["end"] <= len(res.text_md)
        assert s["start"] > prev_end
        prev_end = s["end"]
    if res.spans:
        assert res.spans[0]["start"] == 0
        assert res.spans[-1]["end"] == len(res.text_md)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_pdf_extract_total(raw):
    """extract_pdf never raises — malformed bytes become error results
    (M12 semantics: failures are rows, not exceptions)."""
    res = extract_pdf(b"%PDF-1.4\n" + raw, DEFAULT_CONFIG)
    assert isinstance(res.text_md, str)
    assert res.ok or res.error_kind


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=500))
def test_fingerprints_deterministic(text):
    assert simhash64(text) == simhash64(text)
    sig = minhash_signature(shingles(text))
    assert sig == minhash_signature(shingles(text))
    assert len(sig) == 64
    assert all(0 <= v < (1 << 31) for v in sig)


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=1, max_size=300), st.text(min_size=1, max_size=300))
def test_minhash_similarity_monotone_identity(a, b):
    """Identical texts agree on every signature slot; the signature is
    a function of the shingle set only."""
    assert minhash_signature(shingles(a)) == minhash_signature(shingles(a + ""))
    sa, sb = shingles(a), shingles(b)
    if sa == sb:
        assert minhash_signature(sa) == minhash_signature(sb)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_ole2_extract_total(raw):
    """extract_ole2 never raises — malformed compound files become
    classified error results (M12 semantics)."""
    from documentconvert_ray.functions.doc_extract import extract_ole2

    res = extract_ole2(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + raw)
    assert isinstance(res.text_md, str)
    assert res.ok or res.error_kind


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 5000))
def test_ole2_mutation_total_and_deterministic(seed, cut):
    """A real generated .doc with a deterministic byte flip + cut must
    still yield a row-level result, identically on repeat."""
    import random

    from documentconvert_ray.functions.doc_extract import extract_ole2
    from documentconvert_ray.sources.corpus import make_doc_legacy

    payload, _ = make_doc_legacy(random.Random(seed % 50))
    pos = seed % max(1, len(payload))
    mutated = bytearray(payload)
    mutated[pos] ^= 0xFF
    mutated = bytes(mutated[: max(8, len(mutated) - cut)])
    r1 = extract_ole2(mutated)
    r2 = extract_ole2(mutated)
    assert (r1.ok, r1.error_kind, r1.text_md) == \
        (r2.ok, r2.error_kind, r2.text_md)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=4096), st.integers(10, 15),
       st.integers(1, 128))
def test_png_predictor_roundtrip_property(data, pred, columns):
    from documentconvert_ray.functions.pdf_extract import _apply_predictor
    from documentconvert_ray.sources.corpus import _png_predict_encode

    enc = _png_predict_encode(data, pred, columns)
    out = _apply_predictor(enc, {"Predictor": pred, "Columns": columns})
    assert out == data


def test_fingerprint_wide_window_matches_scalar_recurrence():
    """window > 8 exceeds what a single unreduced uint64 sum can hold;
    the periodic mod keeps the vectorized path exact — pin it against
    the scalar recurrence."""
    from documentconvert_ray.functions.textstats import (
        _FP_M, _md5_u64, rolling_fingerprint)

    def scalar(text, window):
        data = text.encode("utf-8")
        if len(data) < window or not text.isascii():
            return _md5_u64(b"fp:" + data)
        h = out = 0
        power = pow(257, window - 1, _FP_M)
        for i, b in enumerate(data):
            if i >= window:
                h = (h - data[i - window] * power) % _FP_M
            h = (h * 257 + b) % _FP_M
            if i >= window - 1 and h % 16 == 0:
                out ^= h
        return out or _md5_u64(b"fp:" + data)

    texts = ["the quick brown fox jumps over the lazy dog " * 20,
             "short", "ünïcode ☃ padded out to exceed the window size!"]
    for w in (8, 9, 16, 23, 64):
        for t in texts:
            assert rolling_fingerprint(t, window=w) == scalar(t, w), (w, t)


def test_tokens_match_duckdb_split_on_unicode_whitespace():
    """tokens() must equal DuckDB string_split_regex(text,'\\s+') for
    ANY input — RE2's \\s is [\\t\\n\\f\\r ] (no \\v, no Unicode
    whitespace), and every token-based oracle depends on the match."""
    import duckdb

    from documentconvert_ray.functions.textstats import tokens

    con = duckdb.connect()
    cases = [
        "plain ascii words",
        "nbsp joined stays",
        "thin space stays",
        "vt\x0bjoined stays",
        "ideographic　space stays",
        "tab\tand\nnewline\rand\fformfeed split",
        "", "   ", " ",
    ]
    for text in cases:
        sql = con.execute(
            "SELECT list_filter(string_split_regex(?, '\\s+'),"
            " x -> x <> '')", [text]).fetchone()[0]
        assert tokens(text) == sql, (text, tokens(text), sql)


# the regex the PDF object scan replaced: kept here as its oracle
_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_DIGIT_RUNS = st.sampled_from([b"0", b"7", b"12", b"300"])
_SPACE_RUNS = st.sampled_from([b" ", b"  ", b"\n", b"\r\n", b"\t", b"\x0b",
                               b"\x0c", b"\x00"])
_KEYWORDS = st.sampled_from([b"obj", b"objx", b"obj_", b"obj9", b"obj ",
                             b"endobj"])
_OBJ_PIECES = st.one_of(
    st.tuples(_DIGIT_RUNS, _SPACE_RUNS, _DIGIT_RUNS, _SPACE_RUNS,
              _KEYWORDS).map(b"".join),  # an object header, or nearly
    _DIGIT_RUNS, _SPACE_RUNS, _KEYWORDS,
    st.sampled_from([b"x", b"_", b"/", b"R", b"<<", b"\xff", b"stream"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_OBJ_PIECES, max_size=30))
def test_obj_headers_equal_regex_scan(pieces):
    """The keyword-driven object scan finds exactly the matches of
    ``(\\d+)\\s+(\\d+)\\s+obj\\b`` (spans and numbers) on bytes built
    from digits, whitespace, ``obj``, ``endobj`` and junk."""
    from documentconvert_ray.functions.pdf_extract import _obj_headers

    raw = b"".join(pieces)
    want = [(m.start(), m.end(), int(m.group(1)), int(m.group(2)))
            for m in _OBJ_RE.finditer(raw)]
    assert _obj_headers(raw) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)),
    st.binary(min_size=16, max_size=16),
    st.integers(0, 6).flatmap(
        lambda k: st.binary(min_size=16 * k, max_size=16 * k)))
def test_cbc_decrypt_inverts_encrypt(key, iv, data):
    """AES-CBC decryption (T-table inverse cipher) undoes encryption
    for 128-, 192- and 256-bit keys."""
    from documentconvert_ray.functions.aes import (
        cbc_decrypt_nopad,
        cbc_encrypt_nopad,
    )

    assert cbc_decrypt_nopad(key, iv, cbc_encrypt_nopad(key, iv, data)) \
        == data


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=3000))
def test_stream_filters_round_trip(data):
    """The generator's LZW, ASCII85 and TIFF-predictor encoders and the
    kernel's decoders are inverse; RC4 is its own inverse."""
    from documentconvert_ray.functions.pdf_crypt import rc4
    from documentconvert_ray.functions.pdf_extract import (
        _apply_predictor,
        ascii85_decode,
        lzw_decode,
    )
    from documentconvert_ray.sources.corpus import (
        _a85_encode,
        _lzw_encode,
        _tiff_predict_encode,
    )

    assert lzw_decode(_lzw_encode(data)) == data
    assert ascii85_decode(_a85_encode(data)) == data
    tiff = {"Predictor": 2, "Colors": 1, "BitsPerComponent": 8,
            "Columns": 64}
    assert _apply_predictor(_tiff_predict_encode(data, 64), tiff) == data
    assert rc4(b"k3y!x", rc4(b"k3y!x", data)) == data
