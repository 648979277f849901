"""Unit tests: OLE2/CFB container + legacy .doc/.xls/.ppt extraction."""

import glob
import random
import struct

from documentconvert_ray.functions.doc_extract import (
    DOC_MARKER,
    PPT_MARKER,
    XLS_MARKERS,
    extract_ole2,
)
from documentconvert_ray.functions.ole2 import cfb_streams, cfb_write
from documentconvert_ray.sources.corpus import (
    make_doc_legacy,
    make_ppt_legacy,
    make_xls_legacy,
)


def test_cfb_roundtrip_mini_and_big():
    rng = random.Random(5)
    streams = [
        ("WordDocument", bytes(rng.getrandbits(8) for _ in range(5000))),
        ("0Table", bytes(rng.getrandbits(8) for _ in range(300))),
        ("Empty", b""),
        ("Big", bytes(rng.getrandbits(8) for _ in range(70001))),
        ("ExactSector", bytes(512)),
        ("ExactMini", bytes(64)),
    ]
    raw = cfb_write(streams)
    back = cfb_streams(raw)
    for name, data in streams:
        assert back[name] == data, name


def _build_doc(text_pieces):
    """Minimal Word 97 .doc: a WordDocument stream whose piece table
    (CLX in 0Table) maps each (text, is_utf16) piece."""
    word = bytearray(1024)
    struct.pack_into("<H", word, 0, 0xA5EC)
    struct.pack_into("<H", word, 0x0A, 0)
    fcs = []
    for seg, uni in text_pieces:
        data = seg.encode("utf-16-le" if uni else "cp1252")
        fcs.append((len(word), uni, len(seg)))
        word += data
    cps = [0]
    for _fc, _uni, n in fcs:
        cps.append(cps[-1] + n)
    plc = b"".join(struct.pack("<I", c) for c in cps)
    for fc, uni, _n in fcs:
        raw_fc = fc if uni else ((fc * 2) | 0x40000000)
        plc += struct.pack("<HIH", 0, raw_fc, 0)
    clx = b"\x02" + struct.pack("<I", len(plc)) + plc
    table = b"\0" * 16 + clx
    struct.pack_into("<II", word, 0x1A2, 16, len(clx))
    return cfb_write([("WordDocument", bytes(word)), ("0Table", table)])


def test_doc_pieces_encodings_fields_tables():
    # two pieces, mixed encodings, split mid-word
    raw = _build_doc([("Hello wor", False), ("ld one\rSecond para\r", True)])
    res = extract_ole2(raw)
    assert res.ok, (res.error_kind, res.error)
    assert res.text_md == "Hello world one\n\nSecond para"

    # field instruction dropped, result kept
    raw = _build_doc([("\x13 HYPERLINK x \x14shown text\x15 tail\r", False)])
    res = extract_ole2(raw)
    assert res.ok and res.text_md == "shown text tail"

    # table cells via 0x07 marks
    raw = _build_doc([("a 1\x07b 2\x07c 3\x07\rx 4\x07y 5\x07z 6\x07\rafter\r",
                  False)])
    res = extract_ole2(raw)
    assert res.ok
    assert "| a 1 | b 2 | c 3 |" in res.text_md
    assert "| x 4 | y 5 | z 6 |" in res.text_md
    assert res.text_md.endswith("after")


def test_generated_corpus_legacy_office_extracts():
    for make in (make_doc_legacy, make_xls_legacy, make_ppt_legacy):
        for i in range(20):
            payload, naive = make(random.Random(i * 7 + 1))
            res = extract_ole2(payload)
            assert res.ok, (make.__name__, i, res.error_kind, res.error)
            if naive:
                assert res.text_md, (make.__name__, i)


def test_truncated_doc_loses_marker_and_classifies():
    payload, _ = make_doc_legacy(random.Random(3))
    assert DOC_MARKER in payload
    cut = payload[: len(payload) - 512 - 64]
    assert DOC_MARKER not in cut
    res = extract_ole2(cut)
    assert not res.ok and res.error_kind == "office_unsupported"
    # garbage OLE2 container
    junk = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + bytes(504)
    res = extract_ole2(junk)
    assert not res.ok and res.error_kind == "office_unsupported"
    # marker present but container broken → office_truncated
    broken = payload[:600] + DOC_MARKER
    res = extract_ole2(broken)
    assert not res.ok and res.error_kind == "office_truncated"


def test_reference_real_doc_files_extract():
    """Non-trivial CJK text must extract from .doc files — the
    document class the reference's LibreOffice chain existed for
    (services/document_service.py:128-185). A synthetic file (a UTF-16
    piece of >1,000 CJK characters plus a cp1252 piece) always runs;
    the reference's own 3 real files run when that corpus is present."""
    cjk = "".join(chr(0x4E00 + (i * 37) % 0x5000) for i in range(1200))
    raws = [("synthetic", _build_doc([(cjk + "\r", True),
                                      ("Latin tail caf\xe9\r", False)]))]
    paths = sorted(glob.glob("/root/reference/test/*.doc"))
    assert len(paths) in (0, 3)  # the reference corpus, when present
    for p in paths:
        with open(p, "rb") as f:
            raws.append((p, f.read()))
    for p, raw in raws:
        res = extract_ole2(raw)
        assert res.ok, (p, res.error_kind, res.error)
        assert len(res.text_md) > 1000, p
        assert any("一" <= c <= "鿿" for c in res.text_md), p


def test_corpus_office_oracle_equivalence():
    """Flagship-oracle invariant for the office slice: OLE2 ok ⟺ a
    UTF-16 stream-name marker is present (byte scan == the SQL hex
    strpos rule), OOXML ok ⟺ EOCD present — for every generated doc."""
    import re

    from documentconvert_ray.functions.office_extract import extract_docx
    from documentconvert_ray.sources.corpus import doc_row

    n_ole2_ok = n_ole2_err = 0
    for i in range(3000):
        row = doc_row(i)
        kind = re.search(r"/(html|pdf|office|junk)/", row["url"]).group(1)
        if kind != "office":
            continue
        raw = row["html"]
        if raw.startswith(b"\xd0\xcf\x11\xe0"):
            res = extract_ole2(raw)
            marker = (DOC_MARKER in raw or PPT_MARKER in raw
                      or any(m in raw for m in XLS_MARKERS))
            assert res.ok == marker, (i, res.error_kind, res.error)
            assert res.error_kind == ("" if marker
                                      else "office_unsupported"), i
            # SQL rule: first hex hit must be byte-aligned
            hx = raw.hex().upper()
            for m in (DOC_MARKER, PPT_MARKER) + tuple(XLS_MARKERS):
                pos = hx.find(m.hex().upper())
                if (m in raw) != (pos >= 0 and pos % 2 == 0):
                    raise AssertionError((i, m[:8]))
            n_ole2_ok += res.ok
            n_ole2_err += not res.ok
        else:
            res = extract_docx(raw)
            eocd = len(raw) >= 22 and raw.rfind(
                b"PK\x05\x06", max(0, len(raw) - 65557)) >= 0
            assert res.ok == eocd, (i, res.error_kind)
    assert n_ole2_ok >= 5 and n_ole2_err >= 2  # both classes exercised


def test_real_word_ttp_row_shape_and_nested_fields():
    """Code-review regressions: (a) the real-file table shape — cells
    followed by an empty TTP mark in ONE \\r-run — must produce clean
    rows in document order; (b) nested fields reduce inside-out with
    no leaked control bytes."""
    from documentconvert_ray.functions.doc_extract import (
        _strip_fields,
        _text_blocks,
    )

    blocks = _text_blocks("a\x07b\x07\x07c\x07d\x07\x07next\rmore\r")
    kinds = [(b.kind, b.text) for b in blocks]
    assert kinds[0][0] == "table"
    assert "| a | b |" in kinds[0][1] and "| c | d |" in kinds[0][1]
    assert kinds[1] == ("para", "next") and kinds[2] == ("para", "more")

    assert _strip_fields("\x13TOC \x13PAGE\x14 1\x15\x14 result\x15") \
        == " result"
    assert _strip_fields("\x13REF x\x14kept\x15 tail") == "kept tail"
    assert _strip_fields("\x13DATE\x15gone") == "gone"
    out = _strip_fields("\x13broken unterminated")
    assert "\x13" not in out and "\x14" not in out and "\x15" not in out


def test_truncated_clx_classifies_office_truncated():
    """A marker-bearing .doc whose table stream is cut mid-Pcdt must
    classify office_truncated (not office_parse_error)."""
    import struct as st

    word = bytearray(1024)
    st.pack_into("<H", word, 0, 0xA5EC)
    st.pack_into("<II", word, 0x1A2, 0, 3)  # lcbClx=3: cut mid-header
    raw = cfb_write([("WordDocument", bytes(word)),
                     ("0Table", b"\x02\x00\x00")])
    res = extract_ole2(raw)
    assert not res.ok and res.error_kind == "office_truncated", \
        (res.error_kind, res.error)


def test_difat_cycle_and_xls_width_bounds():
    """Crafted corruption must fail fast, not hang/OOM the worker."""
    import struct as st
    import time

    from documentconvert_ray.functions.doc_extract import _extract_xls

    # DIFAT sector chained to ITSELF with a huge claimed count: the
    # walk must terminate fast (cycle guard + file-size bound), not
    # spin for 4e9 iterations building a multi-GB list
    payload, _ = make_doc_legacy(random.Random(4))
    raw = bytearray(payload)
    st.pack_into("<II", raw, 68, 0, 0xFFFFFFFF)  # difat_start=0, n_difat=max
    st.pack_into("<I", raw, 512 + 512 - 4, 0)    # sector 0 chains to itself
    t0 = time.monotonic()
    res = extract_ole2(bytes(raw))
    assert time.monotonic() - t0 < 5
    assert not res.ok and res.error_kind == "office_truncated"

    # one far-column cell per row must not allocate a dense mega-grid
    recs = []
    for row in range(2000):
        recs.append(st.pack("<HH", 0x0203, 14)
                    + st.pack("<HHH", row, 65535, 0) + st.pack("<d", 1.0))
    t0 = time.monotonic()
    res = _extract_xls(b"".join(recs))
    assert time.monotonic() - t0 < 5
    assert res.ok and res.text_md == ""  # all cells beyond BIFF8 bounds


def test_encrypted_doc_classifies():
    import struct as st

    word = bytearray(1024)
    st.pack_into("<H", word, 0, 0xA5EC)
    st.pack_into("<H", word, 0x0A, 0x0100)  # fEncrypted
    raw = cfb_write([("WordDocument", bytes(word)), ("0Table", b"\0" * 8)])
    res = extract_ole2(raw)
    assert not res.ok and res.error_kind == "office_encrypted"
