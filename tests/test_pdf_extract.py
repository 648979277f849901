"""Unit tests: PDF parse, reading order, tables, figures, error paths."""

import zlib

from documentconvert_ray.functions.pdf_extract import extract_pdf


def build_pdf(content: str, compress: bool = False, n_copies: int = 1) -> bytes:
    """Minimal single-or-multi-page PDF around `content` stream(s)."""
    data = content.encode("latin-1")
    extra = b""
    if compress:
        data = zlib.compress(data)
        extra = b" /Filter /FlateDecode"
    pages = n_copies
    first_page = 3
    font = first_page + 2 * pages
    kid_refs = b" ".join(f"{first_page + 2*i} 0 R".encode() for i in range(pages))
    bodies = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [" + kid_refs + b"] /Count " + str(pages).encode() + b" >>",
        font: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    }
    for i in range(pages):
        p, c = first_page + 2 * i, first_page + 2 * i + 1
        bodies[p] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 " + str(font).encode() + b" 0 R >> >> "
            b"/Contents " + str(c).encode() + b" 0 R >>"
        )
        bodies[c] = (
            b"<< /Length " + str(len(data)).encode() + extra
            + b" >>\nstream\n" + data + b"\nendstream"
        )
    out = bytearray(b"%PDF-1.4\n")
    for num in sorted(bodies):
        out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"
    out += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    return bytes(out)


def test_simple_text():
    pdf = build_pdf(
        "BT /F1 18 Tf 72 760 Td (Big Title) Tj ET\n"
        "BT /F1 10 Tf 72 730 Td (body line one) Tj ET\n"
        "BT /F1 10 Tf 72 714 Td (body line two) Tj ET"
    )
    res = extract_pdf(pdf)
    assert res.ok, res.error
    assert res.text_md == "# Big Title\n\nbody line one body line two"


def test_flate_compressed():
    pdf = build_pdf("BT /F1 10 Tf 72 700 Td (compressed body text) Tj ET",
                    compress=True)
    res = extract_pdf(pdf)
    assert res.ok and "compressed body text" in res.text_md


def test_multi_page_order_and_spans():
    pdf = build_pdf("BT /F1 10 Tf 72 700 Td (page body text) Tj ET", n_copies=3)
    res = extract_pdf(pdf)
    assert res.ok
    pages = [s["page"] for s in res.spans]
    assert pages == [0, 1, 2]
    for s in res.spans:
        assert res.text_md[s["start"]:s["end"]] == "page body text"


def test_reading_order_two_columns():
    # right column FIRST in stream order; geometry must fix the order
    ops = "\n".join(
        [
            "BT /F1 10 Tf 400 700 Td (right one) Tj ET",
            "BT /F1 10 Tf 400 684 Td (right two) Tj ET",
            "BT /F1 10 Tf 72 700 Td (left one) Tj ET",
            "BT /F1 10 Tf 72 684 Td (left two) Tj ET",
        ]
    )
    res = extract_pdf(build_pdf(ops))
    assert res.ok
    assert res.text_md.index("left one") < res.text_md.index("right one")
    assert "left one left two" in res.text_md
    assert "right one right two" in res.text_md


def test_tj_array_and_td_relative():
    ops = (
        "BT /F1 10 Tf 72 700 Td [(hel) -20 (lo)] TJ ET\n"
        "BT /F1 10 Tf 72 684 Td (next) Tj 0 -16 Td (line) Tj ET"
    )
    res = extract_pdf(build_pdf(ops))
    assert res.ok and "hello" in res.text_md
    assert "next line" in res.text_md


def test_ruled_table():
    ops = "\n".join(
        [
            # grid: 3 h-lines, 3 v-lines → 2 rows × 2 cols
            "72 700 m 272 700 l S",
            "72 680 m 272 680 l S",
            "72 660 m 272 660 l S",
            "72 700 m 72 660 l S",
            "172 700 m 172 660 l S",
            "272 700 m 272 660 l S",
            "BT /F1 9 Tf 76 687 Td (h1) Tj ET",
            "BT /F1 9 Tf 176 687 Td (h2) Tj ET",
            "BT /F1 9 Tf 76 667 Td (a) Tj ET",
            "BT /F1 9 Tf 176 667 Td (b) Tj ET",
            "BT /F1 10 Tf 72 750 Td (text above the table region) Tj ET",
        ]
    )
    res = extract_pdf(build_pdf(ops))
    assert res.ok
    assert "| h1 | h2 |" in res.text_md
    assert "| a | b |" in res.text_md
    idx_text = res.text_md.index("text above")
    idx_table = res.text_md.index("| h1")
    assert idx_text < idx_table
    assert any(s["kind"] == "table" for s in res.spans)


def test_figure_placeholder():
    ops = (
        "BT /F1 10 Tf 72 760 Td (before figure) Tj ET\n"
        "q 200 0 0 100 72 600 cm /Im1 Do Q\n"
        "BT /F1 10 Tf 72 580 Td (Figure caption text) Tj ET"
    )
    res = extract_pdf(build_pdf(ops))
    assert res.ok
    assert "![](page0-fig0)" in res.text_md
    i_before = res.text_md.index("before figure")
    i_fig = res.text_md.index("![](")
    i_cap = res.text_md.index("Figure caption")
    assert i_before < i_fig < i_cap


def test_contents_as_stream_array_or_indirect_array():
    """A page's /Contents may be a stream reference, a direct array of
    stream references, or a reference to such an array: all three
    shapes extract the same text (the indirect array once yielded
    an empty page that still counted as ok)."""
    one = build_pdf("BT /F1 10 Tf 72 700 Td (Hello world) Tj ET")
    assert b"/Contents 4 0 R" in one
    shapes = {
        "stream": one,
        "array": one.replace(b"/Contents 4 0 R", b"/Contents [4 0 R]"),
        "indirect array": one.replace(b"/Contents 4 0 R", b"/Contents 6 0 R")
        .replace(b"trailer", b"6 0 obj\n[4 0 R]\nendobj\ntrailer"),
    }
    for shape, pdf in shapes.items():
        res = extract_pdf(pdf)
        assert res.ok and res.text_md == "Hello world", (shape, res)


def test_string_escapes():
    ops = r"BT /F1 10 Tf 72 700 Td (paren \( close \) back\\ oct \101) Tj ET"
    res = extract_pdf(build_pdf(ops))
    assert res.ok and "paren ( close ) back\\ oct A" in res.text_md


def test_truncated_is_error_row():
    pdf = build_pdf("BT /F1 10 Tf 72 700 Td (will be cut) Tj ET", compress=True)
    res = extract_pdf(pdf[: int(len(pdf) * 0.5)])
    assert not res.ok and res.error_kind in ("truncated_pdf", "pdf_parse_error")


def test_garbage_is_error_row():
    res = extract_pdf(b"%PDF-1.4 this is not really a pdf at all")
    assert not res.ok


def test_empty_page_ok():
    pdf = build_pdf("")
    res = extract_pdf(pdf)
    assert res.ok and res.text_md == ""


# ------------------------- round-2 profile widening (VERDICT r1 #5)


def test_missing_eof_is_truncated():
    pdf = build_pdf("BT /F1 10 Tf 72 700 Td (x) Tj ET")
    assert extract_pdf(pdf).ok
    cut = pdf[: pdf.rindex(b"%%EOF")]
    res = extract_pdf(cut)
    assert not res.ok and res.error_kind == "truncated_pdf"


def test_asciihex_filter():
    import binascii

    content = b"BT /F1 10 Tf 72 700 Td (hex encoded text) Tj ET"
    data = binascii.hexlify(content) + b">"
    pdf = build_pdf("")  # template; splice a hex content stream in
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(data)).encode()
        + b" /Filter /ASCIIHexDecode >>\nstream\n" + data + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "hex encoded text" in res.text_md


def _build_objstm_pdf(content: bytes) -> bytes:
    """Page dict + font inside a /ObjStm; xref STREAM, no trailer."""
    page = (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>")
    font = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    header = b"3 0 5 " + str(len(page) + 1).encode()
    stm = header + b"\n" + page + b"\n" + font
    z = zlib.compress(stm)
    first = len(header) + 1
    bodies = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        4: (b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream"),
        6: (b"<< /Type /ObjStm /N 2 /First " + str(first).encode()
            + b" /Filter /FlateDecode /Length " + str(len(z)).encode()
            + b" >>\nstream\n" + z + b"\nendstream"),
    }
    out = bytearray(b"%PDF-1.5\n")
    for num in sorted(bodies):
        out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"
    xr = zlib.compress(b"\x00" * 28)
    pos = len(out)
    out += (b"7 0 obj\n<< /Type /XRef /Size 8 /W [1 2 1] /Root 1 0 R "
            b"/Filter /FlateDecode /Length " + str(len(xr)).encode()
            + b" >>\nstream\n" + xr + b"\nendstream\nendobj\n")
    out += b"startxref\n" + str(pos).encode() + b"\n%%EOF\n"
    return bytes(out)


def test_objstm_and_xref_stream():
    pdf = _build_objstm_pdf(b"BT /F1 10 Tf 72 700 Td (from objstm) Tj ET")
    res = extract_pdf(pdf)
    assert res.ok, (res.error_kind, res.error)
    assert "from objstm" in res.text_md


def test_corpus_flagship_oracle_equivalence():
    """The DuckDB flagship oracle's derivation (kind from url, pdf ok
    from %%EOF) must equal actual extraction for EVERY generated doc —
    the invariant the CORRECTNESS gate rests on."""
    import re

    from documentconvert_ray.config import DEFAULT_CONFIG
    from documentconvert_ray.functions.html_extract import extract_html
    from documentconvert_ray.functions.sniff import sniff_doc_type
    from documentconvert_ray.sources.corpus import doc_row

    from documentconvert_ray.functions.sniff import GZIP_MAGIC, gunzip_payload

    for i in range(0, 1200):
        row = doc_row(i)
        kind = re.search(r"/(html|pdf|office|junk)/", row["url"]).group(1)
        raw = row["html"]
        if raw[:2] == GZIP_MAGIC:  # transport wrapper (stage 1 semantics)
            raw, gerr = gunzip_payload(raw)
            assert gerr == "", i
        dt = sniff_doc_type(raw)
        assert dt == {"junk": "other"}.get(kind, kind), (i, kind, dt)
        if dt == "html":
            res = extract_html(raw, DEFAULT_CONFIG)
            assert res.ok and res.error_kind == "", i
        elif dt == "pdf":
            res = extract_pdf(raw, DEFAULT_CONFIG)
            has_eof = raw.endswith(b"%%EOF\n")
            # an /Encrypt document errors only when the EMPTY user
            # password fails — the generator's passworded slice
            # carries the bogus /U <11*32> marker; the RC4-empty
            # slice must decrypt and extract
            has_enc = (b"/Encrypt" in raw
                       and b"/U <" + b"11" * 32 + b">" in raw)
            exp_ok = has_eof and not has_enc
            assert res.ok == exp_ok, (i, res.error_kind, res.error)
            exp_kind = ("truncated_pdf" if not has_eof
                        else "encrypted_pdf" if has_enc else "")
            assert res.error_kind == exp_kind, i
            # the SQL oracle finds '/Encrypt' and the bogus-/U marker
            # via byte-aligned hex strpos; assert the hex search
            # agrees with the byte scan (an even-position first hit
            # would diverge)
            hx = raw.hex().upper()
            pos = hx.find("2F456E6372797074")
            posu = hx.find((b"/U <" + b"11" * 32 + b">").hex().upper())
            assert (((pos >= 0 and pos % 2 == 0)
                     and (posu >= 0 and posu % 2 == 0)) == has_enc), i


def test_lzw_roundtrip_and_filter():
    import random

    from documentconvert_ray.functions.pdf_extract import lzw_decode
    from documentconvert_ray.sources.corpus import _lzw_encode

    rng = random.Random(7)
    for n in (0, 1, 100, 5000, 15000):
        data = bytes(rng.getrandbits(8) for _ in range(n))
        assert lzw_decode(_lzw_encode(data)) == data
        rep = (b"stream table BT ET " * (n // 16 + 1))[:n]
        assert lzw_decode(_lzw_encode(rep)) == rep

    content = b"BT /F1 10 Tf 72 700 Td (lzw encoded text) Tj ET"
    data = _lzw_encode(content)
    pdf = build_pdf("")
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(data)).encode()
        + b" /Filter /LZWDecode >>\nstream\n" + data + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "lzw encoded text" in res.text_md


def test_ascii85_roundtrip_and_filter():
    import random

    from documentconvert_ray.functions.pdf_extract import ascii85_decode
    from documentconvert_ray.sources.corpus import _a85_encode

    rng = random.Random(9)
    for n in (0, 1, 2, 3, 4, 5, 100, 5000):
        data = bytes(rng.getrandbits(8) for _ in range(n))
        assert ascii85_decode(_a85_encode(data)) == data
    # 'z' shorthand + <~ opener + embedded whitespace
    assert ascii85_decode(b"<~z~>") == b"\x00\x00\x00\x00"
    assert ascii85_decode(b"87cUR\nDZ") == ascii85_decode(b"87cURDZ")

    content = b"BT /F1 10 Tf 72 700 Td (a85 encoded text) Tj ET"
    data = _a85_encode(content)
    pdf = build_pdf("")
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(data)).encode()
        + b" /Filter /ASCII85Decode >>\nstream\n" + data + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "a85 encoded text" in res.text_md


def test_runlength_roundtrip_filter_and_chain():
    import random

    from documentconvert_ray.functions.pdf_extract import (
        ascii85_decode,
        runlength_decode,
    )
    from documentconvert_ray.sources.corpus import _a85_encode, _rle_encode

    rng = random.Random(11)
    for _t in range(100):
        # adversarial run mix: the literal-flush-before-a-run boundary
        # was a real encoder bug (slice past `end`)
        data = b"".join(
            bytes([rng.getrandbits(8)]) * rng.randint(1, 9)
            for _ in range(rng.randint(0, 120)))
        assert runlength_decode(_rle_encode(data)) == data
    assert runlength_decode(_rle_encode(b"x" * 1000)) == b"x" * 1000

    content = b"BT /F1 10 Tf 72 700 Td (rle encoded    text) Tj ET"
    data = _rle_encode(content)
    pdf = build_pdf("")
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(data)).encode()
        + b" /Filter /RunLengthDecode >>\nstream\n" + data + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "rle encoded    text" in res.text_md

    # filter CHAIN in list order: ASCII85 outermost, then RunLength
    chain = _a85_encode(_rle_encode(content))
    pdf = build_pdf("")
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(chain)).encode()
        + b" /Filter [/ASCII85Decode /RunLengthDecode] >>\nstream\n"
        + chain + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "rle encoded    text" in res.text_md


def _build_cid_pdf(cmap: bytes, hex_codes: str) -> bytes:
    content = f"BT /F1 10 Tf 72 700 Td <{hex_codes}> Tj ET".encode()
    bodies = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        4: (b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type0 /BaseFont /T "
            b"/Encoding /Identity-H /ToUnicode 6 0 R >>"),
        6: (b"<< /Length " + str(len(cmap)).encode() + b" >>\nstream\n"
            + cmap + b"\nendstream"),
    }
    out = bytearray(b"%PDF-1.5\n")
    for num in sorted(bodies):
        out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"
    out += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    return bytes(out)


def test_cid_font_tounicode_bfrange():
    """Non-identity bfrange: codes 0x0100-0x0102 map to 'x','y','z'."""
    cmap = (b"1 beginbfrange\n<0100> <0102> <0078>\nendbfrange\n")
    res = extract_pdf(_build_cid_pdf(cmap, "010001010102"))
    assert res.ok and "xyz" in res.text_md


def test_cid_font_tounicode_bfchar_and_array_range():
    cmap = (b"1 beginbfrange\n<0010> <0011> [<0041> <0042>]\nendbfrange\n"
            b"1 beginbfchar\n<0012> <2022>\nendbfchar\n")
    res = extract_pdf(_build_cid_pdf(cmap, "001000110012"))
    assert res.ok and "AB•" in res.text_md


def test_cid_font_unmapped_codes_drop():
    cmap = b"1 beginbfchar\n<0041> <0041>\nendbfchar\n"
    res = extract_pdf(_build_cid_pdf(cmap, "00410099"))  # 0x99 unmapped
    assert res.ok and "A" in res.text_md and "\x99" not in res.text_md


def test_cid_identity_h_without_tounicode_falls_back():
    """A Type0/Identity-H font with NO ToUnicode map decodes 2-byte
    codes as Unicode code points (CID==Unicode simple-subset case)
    instead of dropping all text."""
    content = b"BT /F1 10 Tf 72 700 Td <00680069> Tj ET"  # 'hi'
    bodies = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        4: (b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type0 /BaseFont /T "
            b"/Encoding /Identity-H >>"),
    }
    out = bytearray(b"%PDF-1.5\n")
    for num in sorted(bodies):
        out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"
    out += b"trailer\n<< /Root 1 0 R >>\n%%EOF\n"
    res = extract_pdf(bytes(out))
    assert res.ok and "hi" in res.text_md


def test_png_predictor_roundtrip_and_extraction():
    """All PNG predictors (10-15) + TIFF predictor 2 round-trip through
    the corpus encoder → _apply_predictor, and a predictor-12 Flate
    content stream extracts (VERDICT r2 #2)."""
    import random

    from documentconvert_ray.functions.pdf_extract import _apply_predictor
    from documentconvert_ray.sources.corpus import (
        _png_predict_encode,
        _tiff_predict_encode,
    )

    rng = random.Random(11)
    for n in (0, 1, 63, 64, 65, 1000, 4097):
        data = bytes(rng.getrandbits(8) for _ in range(n))
        for pred in (10, 11, 12, 13, 14, 15):
            enc = _png_predict_encode(data, pred, 64)
            parm = {"Predictor": pred, "Columns": 64}
            assert _apply_predictor(enc, parm) == data, (n, pred)
        enc = _tiff_predict_encode(data, 64)
        parm = {"Predictor": 2, "Colors": 1,
                "BitsPerComponent": 8, "Columns": 64}
        assert _apply_predictor(enc, parm) == data, n

    content = b"BT /F1 10 Tf 72 700 Td (predictor body text) Tj ET"
    data = zlib.compress(_png_predict_encode(content, 12, 64))
    pdf = build_pdf("")
    pdf = pdf.replace(
        b"<< /Length 0 >>\nstream\n\nendstream",
        b"<< /Length " + str(len(data)).encode()
        + b" /Filter /FlateDecode /DecodeParms << /Predictor 12"
        b" /Columns 64 >> >>\nstream\n" + data + b"\nendstream",
    )
    res = extract_pdf(pdf)
    assert res.ok and "predictor body text" in res.text_md


def test_encrypted_pdf_classification():
    """A /Encrypt-bearing trailer classifies as encrypted_pdf (never a
    generic parse error), whether classic-trailer or xref-stream."""
    pdf = build_pdf("BT /F1 10 Tf 72 700 Td (secret) Tj ET")
    enc = pdf.replace(b"trailer\n<< /Root 1 0 R >>",
                      b"9 0 obj\n<< /Filter /Standard /V 1 /R 2 >>\nendobj\n"
                      b"trailer\n<< /Root 1 0 R /Encrypt 9 0 R >>")
    res = extract_pdf(enc)
    assert not res.ok and res.error_kind == "encrypted_pdf"
    # truncation wins over encryption (checked first, both deterministic)
    cut = enc[: enc.rindex(b"%%EOF")]
    res = extract_pdf(cut)
    assert not res.ok and res.error_kind == "truncated_pdf"
    # sanity: the plain doc still extracts
    assert extract_pdf(pdf).ok


def test_embedded_image_payloads():
    """PDF image XObjects surface as (name, bytes) payloads matched to
    their ![](pageP-figI) placeholders: decoded raster for raw/Flate
    streams, the raw JPEG file for DCTDecode (extract-as-is)."""
    import hashlib

    from documentconvert_ray.functions.image_codec import decode_image
    from documentconvert_ray.sources.corpus import make_pdf

    seen = {0: 0, 1: 0, 2: 0}
    for doc_id in range(0, 2000):
        payload, _naive, _lang = make_pdf(doc_id)
        res = extract_pdf(payload)
        if not res.ok or not res.images:
            continue
        w = 2 + doc_id % 7
        h = 2 + (doc_id * 3) % 5
        fill = hashlib.md5(f"xobj-{doc_id}".encode()).digest()
        raster = (fill * (w * h // len(fill) + 1))[: w * h]
        sel = doc_id % 3
        for name, data in res.images:
            assert name in res.text_md, (doc_id, name)  # placeholder link
            if sel == 2:
                info = decode_image(data)  # the bytes ARE a JPEG file
                assert (info.width, info.height) == (w, h), doc_id
            else:
                assert data == raster, (doc_id, sel)
        seen[sel] += 1
        if all(v >= 3 for v in seen.values()):
            break
    assert all(v >= 3 for v in seen.values()), seen
