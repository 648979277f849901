"""Deterministic synthetic Common-Crawl-style web corpus (FIXTURES.md).

Generates the input table mandated by the driver's `input_hint`:
``(url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string)`` — HTML (~90%) / PDF (~8%) / junk (~2%) payloads whose
expected main content is known by construction, with adversarial
variants exercising the decode chain, the error-tolerant DOM builder
and the PDF recovery paths.

Everything is a pure function of (doc_id, seed): no wall clock, no
global RNG — `random.Random(doc_id * 1_000_003 + seed)` per row
(SURVEY.md §5.2; reference has no test corpus generator, its manual
corpus is /root/reference/test/ per FIXTURES.md).
"""

from __future__ import annotations

import datetime
import random
import re
import struct
import zlib

import pyarrow as pa

from ..functions.aes import cbc_encrypt_nopad, encrypt_block, expand_key

SEED = 42

_WORDS = (
    "data stream engine batch arrow block shard table column vector "
    "page document corpus crawl index token parser layout span text "
    "metric digest partition cluster worker actor queue buffer cache "
    "filter render margin header anchor glyph serif raster tensor "
    "quantum lattice morphism functor kernel module lemma theorem axiom "
    "granite basalt meadow harbor lantern compass voyage summit canyon "
    "ember willow falcon heron otter badger linden maple cedar juniper"
).split()

_ZH_CHARS = "数据处理引擎分布式计算文档转换提取内容页面解析表格图像模型测试系统服务质量性能"
_DE_WORDS = (
    "Straße Größe Übermut Ärger fröhlich Bäcker Müller schön grün "
    "Würde Tür Köln München Düsseldorf weiß heiß Fuß Gruß"
).split()

_TAG_STRIP_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"\s+")


def _rng(doc_id: int, seed: int) -> random.Random:
    return random.Random(doc_id * 1_000_003 + seed)


def _sentence(r: random.Random, lang: str, n: int) -> str:
    if lang == "zh":
        return "".join(r.choice(_ZH_CHARS) for _ in range(n * 2)) + "。"
    pool = _DE_WORDS if lang == "de" else _WORDS
    ws = [r.choice(pool) for _ in range(n)]
    ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


def _paragraph(r: random.Random, lang: str) -> str:
    return " ".join(_sentence(r, lang, r.randint(5, 14)) for _ in range(r.randint(2, 6)))


# ------------------------------------------------------------------ HTML


def _nav_block(r: random.Random) -> str:
    links = "".join(
        f'<li><a href="/{r.choice(_WORDS)}/{i}">{r.choice(_WORDS)} {r.choice(_WORDS)}</a></li>'
        for i in range(r.randint(5, 12))
    )
    return f"<nav><ul>{links}</ul></nav>"


def _sidebar_block(r: random.Random) -> str:
    links = " ".join(
        f'<a href="/tag/{r.choice(_WORDS)}">{r.choice(_WORDS)}</a>'
        for _ in range(r.randint(6, 15))
    )
    return f'<div class="sidebar widget">{links}</div>'


def _comments_block(r: random.Random) -> str:
    items = "".join(
        f'<div><a href="/user/{i}">user{i}</a> {r.choice(_WORDS)} {r.choice(_WORDS)}</div>'
        for i in range(r.randint(3, 8))
    )
    return f'<div id="comments">{items}</div>'


def _cookie_banner(r: random.Random) -> str:
    return (
        '<div class="cookie banner">We use cookies. '
        '<a href="/accept">Accept</a> <a href="/decline">Decline</a></div>'
    )


def _main_content(r: random.Random, lang: str) -> str:
    parts = [f"<h1>{_sentence(r, lang, 4)[:-1]}</h1>"]
    n_paras = r.randint(3, 30)
    for i in range(n_paras):
        roll = r.random()
        if roll < 0.12 and i > 0:
            lvl = r.choice((2, 2, 3))
            parts.append(f"<h{lvl}>{_sentence(r, lang, 3)[:-1]}</h{lvl}>")
        elif roll < 0.22:
            tag = r.choice(("ul", "ol"))
            items = "".join(
                f"<li>{_sentence(r, lang, r.randint(2, 6))}</li>"
                for _ in range(r.randint(2, 6))
            )
            parts.append(f"<{tag}>{items}</{tag}>")
        else:
            p = _paragraph(r, lang)
            if r.random() < 0.3:
                # inline markup
                w = r.choice(_WORDS)
                tag = r.choice(("b", "i", "em", "strong"))
                p = p.replace(" ", f" <{tag}>{w}</{tag}> ", 1)
            if r.random() < 0.2:
                p += f' See <a href="/ref/{r.randint(1, 99)}">{r.choice(_WORDS)}</a>.'
            parts.append(f"<p>{p}</p>")
    if r.random() < 0.2:
        head = "".join(f"<th>{r.choice(_WORDS)}</th>" for _ in range(3))
        rows = "".join(
            "<tr>" + "".join(f"<td>{r.choice(_WORDS)} {r.randint(0, 999)}</td>" for _ in range(3)) + "</tr>"
            for _ in range(r.randint(2, 5))
        )
        parts.append(f"<table><tr>{head}</tr>{rows}</table>")
    if r.random() < 0.1:
        code = "\n".join(
            f"{r.choice(_WORDS)} = {r.randint(0, 255)}" for _ in range(r.randint(2, 5))
        )
        parts.append(f"<pre>{code}</pre>")
    return "".join(parts)


def make_html(doc_id: int, seed: int = SEED) -> tuple[bytes, str, str]:
    """Return (payload_bytes, naive_text, lang) for an HTML doc."""
    r = _rng(doc_id, seed)
    lang = r.choices(("en", "zh", "de", ""), weights=(70, 12, 10, 8))[0]
    variant = r.random()

    main = _main_content(r, lang or "en")
    # cross-site related links (the web's link graph): drawn from a
    # SEPARATE rng stream keyed by doc_id so adding them perturbed no
    # existing draw; double-quoted hrefs keep the SQL mirror simple
    # (see q_link_domains). Link-dense block → pruned as boilerplate.
    rl = random.Random(doc_id * 1_000_003 + 17)
    related = "<div class=\"related\">" + "".join(
        f"<a href=\"https://site-{rl.randrange(97)}.example/"
        f"{rl.choice(_WORDS)}/html/{rl.randrange(100000)}\">"
        f"{rl.choice(_WORDS)}</a> "
        for _ in range(2 + rl.randrange(4))) + "</div>"
    boiler = [
        "<header><h1>Site Title</h1></header>",
        _nav_block(r),
        _cookie_banner(r),
        _sidebar_block(r),
        _comments_block(r),
        related,
        f"<footer>© 2024 {r.choice(_WORDS)} — <a href='/terms'>terms</a> "
        f"<a href='/privacy'>privacy</a></footer>",
        f"<script>var x_{doc_id} = {r.randint(0, 9999)};</script>",
        f"<style>.c{doc_id} {{ color: #333; }}</style>",
    ]
    # embedded data-URI images (real pages inline small PNGs/BMPs):
    # SEPARATE rng stream keyed by doc_id (the `related` precedent —
    # adding the slice perturbs no existing draw). doc_id%9==4 gets
    # 1-2 valid embeds; %27==13 additionally gets a TRUNCATED base64
    # the extractor must skip without erroring.
    imgs = ""
    if doc_id % 9 == 4:
        import base64 as _b64

        ri = random.Random(doc_id * 7_777_777 + 5)
        pieces = []
        for j in range(1 + ri.randrange(2)):
            fmt = ri.choice(("png", "bmp"))
            fill = bytes([ri.randrange(256) for _ in range(3)])
            payload = synth_image(fmt, 4 + ri.randrange(5),
                                  3 + ri.randrange(4), fill)
            b64 = _b64.b64encode(payload).decode("ascii")
            pieces.append(f'<img src="data:image/{fmt};base64,{b64}">')
        if doc_id % 27 == 13:
            # invalid padding → b64decode(validate=True) raises → skip
            pieces.append('<img src="data:image/png;base64,AAABB">')
        imgs = "".join(pieces)
    if variant < 0.02:
        body = ""  # empty body
    elif variant < 0.04:
        body = "".join(boiler)  # 100% boilerplate → expected text_md == ""
    else:
        body = boiler[0] + boiler[1] + boiler[2] + f'<div id="content">{main}{imgs}</div>' + "".join(boiler[3:])

    charset_decl = '<meta charset="utf-8">'
    doc = (
        f"<!DOCTYPE html><html><head>{charset_decl}"
        f"<title>doc {doc_id}</title></head><body>{body}</body></html>"
    )

    # adversarial structure variants
    if 0.04 <= variant < 0.08:
        doc = doc.replace("</p>", "", 2)  # unclosed tags
    if 0.08 <= variant < 0.11:
        doc = doc.replace("<p>", "<p><b><i>", 1).replace("</p>", "</b></i></p>", 1)  # mis-nested
    if 0.11 <= variant < 0.15:
        doc = doc.replace(" ", " &amp; ", 1).replace("the", "&#x74;he", 1)  # entities

    # encoding variants
    enc_roll = r.random()
    if lang == "zh" and enc_roll < 0.5:
        doc2 = doc.replace('charset="utf-8"', 'charset="gb2312"')
        payload = doc2.encode("gb18030", errors="replace")
    elif lang == "de" and enc_roll < 0.5:
        doc2 = doc.replace('charset="utf-8"', 'charset="iso-8859-1"')
        payload = doc2.encode("latin-1", errors="replace")
    elif enc_roll < 0.55:
        payload = b"\xef\xbb\xbf" + doc.encode("utf-8")  # BOM
    elif enc_roll < 0.6 and lang == "de":
        # bare latin-1 bytes, NO declaration → exercises fallback chain
        doc2 = doc.replace(charset_decl, "")
        payload = doc2.encode("latin-1", errors="replace")
    else:
        payload = doc.encode("utf-8")

    naive = _WS_RE.sub(" ", _TAG_STRIP_RE.sub(" ", doc)).strip()
    return payload, naive, lang


# ------------------------------------------------------------------- PDF


def _pdf_escape(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _lzw_encode(data: bytes) -> bytes:
    """PDF LZWDecode-compatible encoder (EarlyChange=1). Code width
    mirrors the decoder's table length (which lags the encoder by one
    entry) so both bump at the same code index; round-trip pinned by
    tests against functions.pdf_extract.lzw_decode."""
    CLEAR, EOD = 256, 257
    bits = bytearray()
    bitbuf = 0
    bitcnt = 0

    def emit(code: int, width: int) -> None:
        nonlocal bitbuf, bitcnt
        bitbuf = (bitbuf << width) | code
        bitcnt += width
        while bitcnt >= 8:
            bits.append((bitbuf >> (bitcnt - 8)) & 0xFF)
            bitcnt -= 8

    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    dec_len = 258  # decoder-table-length simulation (drives width)
    first = True
    emit(CLEAR, width)
    w = b""

    def after_emit() -> None:
        nonlocal first, dec_len, width
        if first:
            first = False
        else:
            dec_len += 1
        if dec_len + 1 >= (1 << width) and width < 12:
            width += 1

    for ch in data:
        wc = w + bytes([ch])
        if wc in table:
            w = wc
            continue
        emit(table[w], width)
        after_emit()
        table[wc] = next_code
        next_code += 1
        w = bytes([ch])
        if dec_len >= 4093:
            emit(CLEAR, width)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
            dec_len = 258
            first = True
    if w:
        emit(table[w], width)
        after_emit()
    emit(EOD, width)
    if bitcnt:
        bits.append((bitbuf << (8 - bitcnt)) & 0xFF)
    return bytes(bits)


def _png_predict_encode(data: bytes, predictor: int, columns: int) -> bytes:
    """PNG row-filter encoder (PDF /Predictor 10-15, Colors=1 BPC=8):
    inverse of functions.pdf_extract._apply_predictor. Predictor 15
    ("optimal") cycles the tag per row so every filter gets decoded."""
    bpp = 1
    out = bytearray()
    prev = bytes(columns)
    for ri, r0 in enumerate(range(0, len(data), columns)):
        row = data[r0:r0 + columns]
        rl = len(row)
        tag = (ri % 5) if predictor == 15 else predictor - 10
        enc = bytearray(rl)
        if tag == 0:
            enc = bytearray(row)
        elif tag == 1:  # Sub
            for j in range(rl):
                left = row[j - bpp] if j >= bpp else 0
                enc[j] = (row[j] - left) & 0xFF
        elif tag == 2:  # Up
            for j in range(rl):
                enc[j] = (row[j] - prev[j]) & 0xFF
        elif tag == 3:  # Average
            for j in range(rl):
                left = row[j - bpp] if j >= bpp else 0
                enc[j] = (row[j] - ((left + prev[j]) >> 1)) & 0xFF
        else:  # Paeth
            for j in range(rl):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                p = a + b - c
                da, db, dc = abs(p - a), abs(p - b), abs(p - c)
                pr = a if da <= db and da <= dc else b if db <= dc else c
                enc[j] = (row[j] - pr) & 0xFF
        out.append(tag)
        out += enc
        prev = row if rl == columns else row + prev[rl:]
    return bytes(out)


def _tiff_predict_encode(data: bytes, columns: int) -> bytes:
    """TIFF horizontal differencing encoder (PDF /Predictor 2)."""
    out = bytearray(data)
    for r0 in range(0, len(out), columns):
        end = min(r0 + columns, len(out))
        for i in range(end - 1, r0, -1):
            out[i] = (out[i] - out[i - 1]) & 0xFF
    return bytes(out)


def _a85_encode(data: bytes) -> bytes:
    """PDF ASCII85Decode-compatible encoder (no 'z' shorthand; partial
    final group of n bytes → n+1 chars). Round-trip pinned against
    functions.pdf_extract.ascii85_decode."""
    out = bytearray()
    for i in range(0, len(data), 4):
        chunk = data[i:i + 4]
        n = len(chunk)
        v = int.from_bytes(chunk + b"\x00" * (4 - n), "big")
        digits = []
        for _ in range(5):
            digits.append(v % 85)
            v //= 85
        enc = bytes(33 + d for d in reversed(digits))
        out += enc if n == 4 else enc[: n + 1]
    out += b"~>"
    return bytes(out)


def _rle_encode(data: bytes) -> bytes:
    """PDF RunLengthDecode-compatible encoder: repeat runs ≥ 3 become
    (257-len, byte); literals chunked ≤ 128; EOD 0x80."""
    out = bytearray()
    i = 0
    n = len(data)
    lit_start = i
    def flush_lit(end: int) -> None:
        j = lit_start
        while j < end:
            chunk = data[j:min(j + 128, end)]
            out.append(len(chunk) - 1)
            out.extend(chunk)
            j += 128
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 3:
            flush_lit(i)
            out.append(257 - run)
            out.append(data[i])
            i += run
            lit_start = i
        else:
            i += run
    flush_lit(n)
    out.append(128)
    return bytes(out)


def _tounicode_cmap() -> bytes:
    """Minimal real-shape ToUnicode CMap: identity bfrange over
    printable ASCII plus redundant bfchar entries (both sections get
    exercised by the parser)."""
    return (
        b"/CIDInit /ProcSet findresource begin\n"
        b"12 dict begin\nbegincmap\n"
        b"/CMapName /Synth-UCS def\n/CMapType 2 def\n"
        b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
        b"1 beginbfrange\n<0020> <007e> <0020>\nendbfrange\n"
        b"3 beginbfchar\n<0041> <0041>\n<0061> <0061>\n<0030> <0030>\n"
        b"endbfchar\nendcmap\nCMapName currentdict /CMap defineresource pop\n"
        b"end\nend\n"
    )


def _pdf_text_ops(r: random.Random, two_col: bool, with_table: bool,
                  with_fig: bool, cid: bool = False,
                  formula: str | None = None) -> tuple[str, list[str]]:
    """Build one page's content stream; returns (stream_str, shown_texts).
    ``cid=True`` writes text as 2-byte-code hex strings (Type0/CID font
    with Identity-H + ToUnicode, the real-world embedded-font shape).
    ``formula`` plants a display-math line shown in the /F2 math font
    (BaseFont /Symbol) — the corpus's formula-region slice; its text is
    hash-derived by the caller, NOT drawn from ``r``, so planting it
    shifts no other draw."""
    shown: list[str] = []
    ops: list[str] = []

    def text_at(x: float, y: float, size: float, s: str) -> None:
        s_ascii = s.encode("ascii", "replace").decode("ascii")
        shown.append(s_ascii)
        if cid:
            codes = "".join(f"{ord(ch):04x}" for ch in s_ascii)
            ops.append(
                f"BT /F1 {size:g} Tf {x:g} {y:g} Td <{codes}> Tj ET"
            )
        else:
            ops.append(
                f"BT /F1 {size:g} Tf {x:g} {y:g} Td "
                f"({_pdf_escape(s_ascii)}) Tj ET"
            )

    top = 760.0
    # title (heading by size)
    text_at(72, top, 18, " ".join(r.choice(_WORDS) for _ in range(3)).title())
    y = top - 30

    if two_col:
        # left column then right column in STREAM order right-first to
        # prove reading order comes from geometry, not stream order
        right_lines = [(312.0, y - 16 * i, " ".join(r.choice(_WORDS) for _ in range(4)))
                       for i in range(r.randint(4, 9))]
        left_lines = [(72.0, y - 16 * i, " ".join(r.choice(_WORDS) for _ in range(4)))
                      for i in range(r.randint(4, 9))]
        for (x, yy, s) in right_lines:
            text_at(x, yy, 10, s)
        for (x, yy, s) in left_lines:
            text_at(x, yy, 10, s)
        y -= 16 * (max(len(left_lines), len(right_lines)) + 1)
    else:
        for _ in range(r.randint(4, 10)):
            text_at(72, y, 10, " ".join(r.choice(_WORDS) for _ in range(r.randint(4, 8))))
            y -= 16

    if with_fig:
        y -= 20
        h = 80.0
        ops.append(f"q 200 0 0 {h:g} 72 {y - h:g} cm /Im1 Do Q")
        text_at(72, y - h - 14, 10, "Figure: " + " ".join(r.choice(_WORDS) for _ in range(3)))
        y -= h + 40

    if with_table:
        y -= 10
        ncols, nrows = 3, r.randint(2, 4)
        col_w, row_h = 120.0, 18.0
        x0 = 72.0
        ytop = y
        # grid lines
        for i in range(nrows + 2):
            yy = ytop - i * row_h
            ops.append(f"{x0:g} {yy:g} m {x0 + ncols * col_w:g} {yy:g} l S")
        for j in range(ncols + 1):
            xx = x0 + j * col_w
            ops.append(f"{xx:g} {ytop:g} m {xx:g} {ytop - (nrows + 1) * row_h:g} l S")
        # cell text (header + rows)
        for j in range(ncols):
            text_at(x0 + j * col_w + 4, ytop - 13, 9, r.choice(_WORDS))
        for i in range(nrows):
            for j in range(ncols):
                text_at(x0 + j * col_w + 4, ytop - (i + 2) * row_h + 5, 9,
                        f"{r.choice(_WORDS)} {r.randint(0, 99)}")
        y = ytop - (nrows + 2) * row_h - 10

    if formula is not None:
        y -= 24
        shown.append(formula)
        ops.append(
            f"BT /F2 10 Tf 72 {y:g} Td ({_pdf_escape(formula)}) Tj ET")
        y -= 16

    return "\n".join(ops), shown


# ------------------------------------------------- image synthesis
#
# Encode-side twins of functions/image_codec.py's decoders, written
# independently from the published format layouts (PPM header, BMP
# BITMAPFILE/INFOHEADER, PNG chunk framing + row filters, minimal
# JPEG marker stream). Used by the multimodal queries to build REAL
# image payloads whose decoded metadata a SQL oracle can predict from
# the generation rule.


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    return (len(body).to_bytes(4, "big") + tag + body
            + zlib.crc32(tag + body).to_bytes(4, "big"))


def synth_wav(sample_rate: int, n_samples: int, fill: bytes) -> bytes:
    """A well-formed PCM16-mono WAV file: RIFF/WAVE header, 16-byte
    fmt chunk, data chunk whose PCM payload tiles ``fill`` over
    2·n_samples bytes (so a SQL oracle can reconstruct the exact
    sample buffer from the generation rule)."""
    fill = fill or b"\x00"
    n_bytes = 2 * n_samples
    pcm = (fill * (n_bytes // len(fill) + 1))[:n_bytes]
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate,
                      sample_rate * 2, 2, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(pcm)) + pcm
            + (b"\x00" if len(pcm) & 1 else b""))
    return b"RIFF" + struct.pack("<I", len(body)) + body


def synth_avi(n_frames: int, fill: bytes) -> bytes:
    """A structurally valid AVI (RIFF) container: an hdrl LIST with a
    minimal avih chunk, then a movi LIST holding ``n_frames`` '00dc'
    video chunks whose payloads tile ``fill`` (the frame BYTES stay
    codec-opaque — real tools count container chunks exactly like
    this without decoding)."""
    fill = fill or b"\x00"
    frame = (fill * (64 // len(fill) + 1))[:64]

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (tag + struct.pack("<I", len(body)) + body
                + (b"\x00" if len(body) & 1 else b""))

    def lst(ltype: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", ltype + body)

    avih = chunk(b"avih", struct.pack("<14I", 33333, 0, 0, 0,
                                      n_frames, 0, 1, 0, 8, 8,
                                      0, 0, 0, 0))
    movi = lst(b"movi", b"".join(chunk(b"00dc", frame)
                                 for _ in range(n_frames)))
    body = b"AVI " + lst(b"hdrl", avih) + movi
    return b"RIFF" + struct.pack("<I", len(body)) + body


def synth_gif_anim(w: int, h: int, n_frames: int, fill: bytes) -> bytes:
    """A structurally valid animated GIF89a with ``n_frames`` image
    descriptors, each preceded by a graphic-control extension; pixel
    sub-blocks carry tiled ``fill`` bytes (the block STRUCTURE is
    real — walkable by any frame counter; the LZW content stays
    opaque, exactly as for real tools that count frames without
    decompressing)."""
    fill = fill or b"\x00"

    def tile(n: int) -> bytes:
        return (fill * (n // len(fill) + 1))[:n]

    out = bytearray(b"GIF89a")
    out += w.to_bytes(2, "little") + h.to_bytes(2, "little")
    out += b"\x00\x00\x00"  # no global color table
    data = tile(min(255, max(1, w * h // 8)))
    for _ in range(n_frames):
        # graphic control extension: introducer, label, size=4,
        # flags/delay/transparent-idx, terminator
        out += b"\x21\xf9\x04\x00\x00\x00\x00\x00"
        out += (b"\x2c" + b"\x00\x00\x00\x00"
                + w.to_bytes(2, "little") + h.to_bytes(2, "little")
                + b"\x00")  # no local color table
        out += b"\x02"  # LZW minimum code size
        out += bytes([len(data)]) + data + b"\x00"
    out += b"\x3b"
    return bytes(out)


def _png_encode_gray(w: int, h: int, pixels: bytes) -> bytes:
    """8-bit grayscale PNG from a raw row-major pixel buffer, row
    filters cycling None/Sub/Up (same exercise of the decoder's
    unfilter path as synth_image's tiled variant)."""
    import numpy as np

    stride = w
    rows = bytearray()
    prev = np.zeros(stride, np.uint8)
    for r in range(h):
        raw = np.frombuffer(pixels, np.uint8, stride, r * stride)
        ft = r % 3
        if ft == 0:  # None
            rows += b"\x00" + raw.tobytes()
        elif ft == 1:  # Sub (vectorized; uint8 subtraction wraps
            # mod 256 — byte-identical to the loop form)
            enc = raw.copy()
            enc[1:] -= raw[:-1]
            rows += b"\x01" + enc.tobytes()
        else:  # Up
            rows += b"\x02" + (raw - prev).tobytes()
        prev = raw
    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 0, 0, 0, 0]))
    return (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(rows)))
            + _png_chunk(b"IEND", b""))


def render_ocr_png(s: str, noise_seed: int | None = None) -> bytes:
    """Render ``s`` as a single-line bitmap-font strip — one 8×8 cell
    per char from the SHARED font table (functions/ocr.glyph_rows:
    one source of truth for renderer and matcher), white glyph pixels
    (255) on black (0), emitted as a real 8-bit grayscale PNG. With
    ``noise_seed`` set, 4 deterministic md5-positioned pixels flip
    per cell — under the table's OCR_NOISE_BUDGET, so nearest-
    template matching still recovers the text byte-exactly (what the
    corpus's noisy OCR slice exercises)."""
    import hashlib

    import numpy as np

    from ..functions.ocr import OCR_CELL, glyph_pixels

    w = OCR_CELL * len(s)
    # (8, w) strip: cached glyph pixel arrays stacked column-wise
    buf = np.hstack([glyph_pixels(ch) for ch in s]).copy()
    if noise_seed is not None:
        for ci in range(len(s)):
            d = hashlib.md5(b"ocrnoise:%d:%d"
                            % (noise_seed, ci)).digest()
            for k in range(4):
                y, x = divmod(d[k] % 64, 8)
                buf[y, ci * OCR_CELL + x] = 255 - buf[y, ci * OCR_CELL + x]
    return _png_encode_gray(w, OCR_CELL, buf.tobytes())


def synth_jpeg_gray(w: int, h: int, fill: bytes) -> bytes:
    """REAL baseline sequential grayscale JPEG (w, h multiples of 8):
    every 8×8 block is the constant value fill[block_index % len] —
    encoded DC-only (quant table all 1s, so the planted value
    round-trips the decoder's dequant+IDCT EXACTLY: F(0,0)=8·(v−128)
    → IDCT → v), with a full entropy-coded scan: Annex-K-style
    canonical DC Huffman table, a 1-code AC table for EOB, category
    coding with one's-complement negatives, 0xFF byte stuffing. The
    SQL oracles reconstruct the decoded buffer from the same block
    rule (pipelines/queries.py multimodal oracles)."""
    if w % 8 or h % 8:
        raise ValueError("dims must be multiples of 8")
    fill = fill or b"\x00"
    # DC Huffman: Annex K luminance BITS/VALS (categories 0-11)
    dc_bits = bytes([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    dc_vals = bytes(range(12))
    # AC Huffman: single 1-bit code for EOB (rs=0x00)
    ac_bits = bytes([1] + [0] * 15)
    ac_vals = bytes([0x00])

    def canon(bits: bytes, vals: bytes) -> dict[int, tuple[int, int]]:
        out = {}
        code = 0
        k = 0
        for length in range(1, 17):
            for _ in range(bits[length - 1]):
                out[vals[k]] = (length, code)
                k += 1
                code += 1
            code <<= 1
        return out

    dc_code = canon(dc_bits, dc_vals)
    ac_code = canon(ac_bits, ac_vals)

    acc = 0
    nacc = 0
    scan = bytearray()

    def put(code: int, length: int) -> None:
        nonlocal acc, nacc
        acc = (acc << length) | code
        nacc += length
        while nacc >= 8:
            byte = (acc >> (nacc - 8)) & 0xFF
            scan.append(byte)
            if byte == 0xFF:
                scan.append(0x00)  # byte stuffing
            nacc -= 8
        acc &= (1 << nacc) - 1

    pred = 0
    for bi in range((w // 8) * (h // 8)):
        v = fill[bi % len(fill)]
        dc = 8 * (v - 128)
        diff = dc - pred
        pred = dc
        t = abs(diff).bit_length()
        put(*reversed(dc_code[t]))
        if t:
            bits = diff if diff >= 0 else diff + (1 << t) - 1
            put(bits, t)
        put(*reversed(ac_code[0x00]))  # EOB
    if nacc:
        put((1 << (8 - nacc)) - 1, 8 - nacc)  # 1-pad to byte edge

    def seg(marker: int, body: bytes) -> bytes:
        return bytes([0xFF, marker]) + (len(body) + 2).to_bytes(2, "big") + body

    return (b"\xff\xd8"
            + seg(0xDB, b"\x00" + b"\x01" * 64)
            + seg(0xC0, b"\x08" + h.to_bytes(2, "big")
                  + w.to_bytes(2, "big") + b"\x01\x01\x11\x00")
            + seg(0xC4, b"\x00" + dc_bits + dc_vals)
            + seg(0xC4, b"\x10" + ac_bits + ac_vals)
            + seg(0xDA, b"\x01\x01\x00\x00\x3f\x00")
            + bytes(scan) + b"\xff\xd9")


def synth_image(fmt: str, w: int, h: int, fill: bytes) -> bytes:
    """A well-formed image file of ``fmt`` ∈ {ppm, bmp, png, jpeg}
    with the given dims; pixel content tiles ``fill``. PNG is 8-bit
    GRAYSCALE with row filters cycling None/Sub/Up so the decoder's
    unfilter path is exercised; JPEG is a minimal SOI/APP0/SOF0/EOI
    marker stream (dims parse; no entropy-coded scan)."""
    fill = fill or b"\x00"

    def tile(n: int) -> bytes:
        return (fill * (n // len(fill) + 1))[:n]

    if fmt == "ppm":
        return b"P6\n%d %d\n255\n" % (w, h) + tile(w * h * 3)
    if fmt == "bmp":
        row = w * 3
        pad = (-row) % 4
        img = b"".join(tile(row) + b"\x00" * pad for _ in range(h))
        info = struct_pack_bmp(w, h)
        return (b"BM" + (54 + len(img)).to_bytes(4, "little")
                + b"\x00\x00\x00\x00" + (54).to_bytes(4, "little")
                + info + img)
    if fmt == "png":
        return _png_encode_gray(w, h,
                                b"".join(tile(w) for _ in range(h)))
    if fmt == "jpeg":
        app0 = (b"\xff\xe0\x00\x10JFIF\x00\x01\x01\x00"
                b"\x00\x01\x00\x01\x00\x00")
        sof0 = (b"\xff\xc0" + (17).to_bytes(2, "big") + b"\x08"
                + h.to_bytes(2, "big") + w.to_bytes(2, "big") + b"\x03"
                + b"\x01\x11\x00\x02\x11\x00\x03\x11\x00")
        return b"\xff\xd8" + app0 + sof0 + b"\xff\xd9"
    if fmt in ("tiff", "tiff_be"):
        # TIFF 6.0 baseline: header + one IFD with ImageWidth(256),
        # ImageLength(257) as LONG and SamplesPerPixel(277) as SHORT,
        # followed by an uncompressed strip (not parsed by the
        # metadata decoder, present for file realism)
        import struct as _st

        e = ">" if fmt == "tiff_be" else "<"
        magic = b"MM\x00*" if fmt == "tiff_be" else b"II*\x00"
        entries = (
            _st.pack(e + "HHI", 256, 4, 1) + _st.pack(e + "I", w)
            + _st.pack(e + "HHI", 257, 4, 1) + _st.pack(e + "I", h)
            + _st.pack(e + "HHI", 277, 3, 1) + _st.pack(e + "HH", 3, 0)
        )
        ifd = _st.pack(e + "H", 3) + entries + _st.pack(e + "I", 0)
        return magic + _st.pack(e + "I", 8) + ifd + tile(w * h * 3)
    raise ValueError(fmt)


def struct_pack_bmp(w: int, h: int) -> bytes:
    """40-byte BITMAPINFOHEADER (24-bit, bottom-up, BI_RGB)."""
    row = w * 3
    pad = (-row) % 4
    return ((40).to_bytes(4, "little")
            + w.to_bytes(4, "little", signed=True)
            + h.to_bytes(4, "little", signed=True)
            + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
            + (0).to_bytes(4, "little")
            + ((row + pad) * h).to_bytes(4, "little")
            + (2835).to_bytes(4, "little") + (2835).to_bytes(4, "little")
            + (0).to_bytes(4, "little") + (0).to_bytes(4, "little"))


# ---------------------------------------------- PDF standard encryption
#
# Encrypt-side twin of functions/pdf_crypt.py, implemented
# INDEPENDENTLY from the spec text (Algorithms 1/2/4/5) so the
# round-trip tests cross-check two readings of the standard security
# handler rather than one shared implementation; RC4 itself is
# additionally pinned to a published known-answer vector in
# tests/test_pdf_crypt.py.

_PDF_ENC_PAD = bytes((
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
    0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
    0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
))


def _rc4_xor(key: bytes, data: bytes) -> bytes:
    S = bytearray(range(256))
    j = 0
    for i in range(256):
        j = (j + S[i] + key[i % len(key)]) % 256
        S[i], S[j] = S[j], S[i]
    out = bytearray()
    i = j = 0
    for b in data:
        i = (i + 1) % 256
        j = (j + S[i]) % 256
        S[i], S[j] = S[j], S[i]
        out.append(b ^ S[(S[i] + S[j]) % 256])
    return bytes(out)


def _pdf_enc_file_key(o: bytes, p: int, id0: bytes,
                      rev: int, bits: int) -> bytes:
    import hashlib

    md = hashlib.md5()
    md.update(_PDF_ENC_PAD)  # empty user password → the pad alone
    md.update(o)
    md.update((p & 0xFFFFFFFF).to_bytes(4, "little"))  # signed P, LE
    md.update(id0)
    key = md.digest()
    n = 5 if rev == 2 else bits // 8
    if rev >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:n]).digest()
    return key[:n]


def _pdf_enc_user_entry(key: bytes, rev: int, id0: bytes) -> bytes:
    import hashlib

    if rev == 2:
        return _rc4_xor(key, _PDF_ENC_PAD)
    x = hashlib.md5(_PDF_ENC_PAD + id0).digest()
    x = _rc4_xor(key, x)
    for i in range(1, 20):
        x = _rc4_xor(bytes(c ^ i for c in key), x)
    return x + bytes(16)  # 16 significant + 16 arbitrary padding bytes


def _pdf_enc_object_key(key: bytes, num: int, gen: int) -> bytes:
    import hashlib

    d = hashlib.md5(key + num.to_bytes(3, "little")
                    + gen.to_bytes(2, "little")).digest()
    return d[: min(len(key) + 5, 16)]


# The generator encrypts with the engine's forward cipher
# (functions/aes.py); FIPS-197 known-answer tests pin it, so a shared
# bug cannot round-trip silently. CBC + PKCS#7 + prepended IV per the
# PDF /AESV2 and /AESV3 stream layout.
def _aes_cbc_encrypt_pdf(key: bytes, data: bytes, iv: bytes) -> bytes:
    """PDF /AESV2 stream layout: IV ‖ CBC(PKCS#7-padded data)."""
    pad = 16 - len(data) % 16
    return iv + cbc_encrypt_nopad(key, iv, data + bytes([pad]) * pad)


# Raw CBC, no padding (Algorithm 2.B inner step / key wrap). A module
# attribute looked up at call time, so a faster cipher can be swapped
# in while generating.
_aes_cbc_enc_nopad = cbc_encrypt_nopad


def _pdf_hash2b(pwd: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """Encrypt-side twin of functions/pdf_crypt.hash_2b (PDF 2.0
    Algorithm 2.B, implemented independently from the spec text):
    iterated SHA-256/384/512 with an AES-128-CBC mixing step; ≥ 64
    rounds, stop when the encrypted block's last byte ≤ round − 32."""
    import hashlib

    k = hashlib.sha256(pwd + salt + udata).digest()
    rounds = 0
    while True:
        block = (pwd + k + udata) * 64
        e = _aes_cbc_enc_nopad(k[:16], k[16:32], block)
        pick = sum(e[:16]) % 3
        if pick == 0:
            k = hashlib.sha256(e).digest()
        elif pick == 1:
            k = hashlib.sha384(e).digest()
        else:
            k = hashlib.sha512(e).digest()
        rounds += 1
        if rounds >= 64 and e[-1] <= rounds - 32:
            return k[:32]


def _pdf_r6_entries(doc_id: int, perms: int):
    """AES-256 /V 5 /R 6 credential set for an EMPTY user password:
    deterministic 32-byte file key + /U /UE (user, Algorithm 8),
    /O /OE (owner — real entries for a doc_id-derived owner password,
    Algorithm 9) and /Perms (Algorithm 10: AES-256-ECB of the
    permissions block under the file key)."""
    import hashlib

    fkey = (hashlib.md5(f"r6key-{doc_id}".encode()).digest()
            + hashlib.md5(f"r6key2-{doc_id}".encode()).digest())
    vsalt = hashlib.md5(f"r6vs-{doc_id}".encode()).digest()[:8]
    ksalt = hashlib.md5(f"r6ks-{doc_id}".encode()).digest()[:8]
    u48 = _pdf_hash2b(b"", vsalt) + vsalt + ksalt
    ue32 = _aes_cbc_enc_nopad(_pdf_hash2b(b"", ksalt), bytes(16), fkey)
    opwd = f"owner-{doc_id}".encode()
    ovs = hashlib.md5(f"r6ovs-{doc_id}".encode()).digest()[:8]
    oks = hashlib.md5(f"r6oks-{doc_id}".encode()).digest()[:8]
    o48 = _pdf_hash2b(opwd, ovs, u48) + ovs + oks
    oe32 = _aes_cbc_enc_nopad(_pdf_hash2b(opwd, oks, u48),
                              bytes(16), fkey)
    pblock = ((perms & 0xFFFFFFFF).to_bytes(4, "little")
              + b"\xff\xff\xff\xff" + b"Tadb"
              + hashlib.md5(f"r6pr-{doc_id}".encode()).digest()[:4])
    perms16 = encrypt_block(expand_key(fkey), pblock)
    return fkey, u48, ue32, o48, oe32, perms16


def _pdf_encrypt_streams(bodies: dict[int, bytes], fkey: bytes,
                         aes: bool = False, doc_id: int = 0,
                         r6: bool = False) -> None:
    """Encrypt every stream payload in ``bodies`` in place — RC4,
    AES-128-CBC when ``aes`` (object key gains the /AESV2 "sAlT"
    suffix), or AES-256-CBC when ``r6`` (the 32-byte FILE key applies
    directly — R6 has no per-object derivation; IV is deterministic
    from (doc_id, obj num) so the corpus stays reproducible).
    Encryption is the OUTERMOST layer — applied after filters. The
    xref stream is exempt by spec but never lives in ``bodies``."""
    import hashlib

    for num, body in bodies.items():
        sidx = body.find(b">>\nstream\n")
        if sidx < 0:
            continue
        start = sidx + len(b">>\nstream\n")
        eidx = body.rfind(b"\nendstream")
        payload = body[start:eidx]
        if r6:
            aes = True  # shares the /Length-rewrite path below
            iv = hashlib.md5(f"aesiv-{doc_id}-{num}".encode()).digest()
            enc = _aes_cbc_encrypt_pdf(fkey, payload, iv)
        elif aes:
            okey = hashlib.md5(
                fkey + num.to_bytes(3, "little") + (0).to_bytes(2, "little")
                + b"sAlT").digest()[: min(len(fkey) + 5, 16)]
            iv = hashlib.md5(f"aesiv-{doc_id}-{num}".encode()).digest()
            enc = _aes_cbc_encrypt_pdf(okey, payload, iv)
        else:
            enc = _rc4_xor(_pdf_enc_object_key(fkey, num, 0), payload)
        # AES grows the payload (IV + padding): /Length must track the
        # ENCRYPTED stream length per spec
        head = body[:start]
        if aes:
            import re as _re

            head = _re.sub(
                rb"/Length \d+", b"/Length " + str(len(enc)).encode(),
                head, count=1)
        bodies[num] = head + enc + body[eidx:]


def _pdf_image_xobject(doc_id: int) -> bytes:
    """The page's /Image XObject body, cycling the three wire forms an
    extractor must handle: raw (filterless) gray raster, FlateDecode
    raster, and an entropy-coded DCTDecode image whose stream bytes
    ARE a JPEG file (extract-as-is). Deterministic from doc_id."""
    import hashlib

    w = 2 + doc_id % 7
    h = 2 + (doc_id * 3) % 5
    fill = hashlib.md5(f"xobj-{doc_id}".encode()).digest()
    raster = (fill * (w * h // len(fill) + 1))[: w * h]
    sel = doc_id % 3
    if sel == 0:
        data, extra = raster, b""
    elif sel == 1:
        data, extra = zlib.compress(raster), b" /Filter /FlateDecode"
    else:
        data, extra = synth_image("jpeg", w, h, b""), b" /Filter /DCTDecode"
    return (
        b"<< /Type /XObject /Subtype /Image /Width " + str(w).encode()
        + b" /Height " + str(h).encode()
        + b" /ColorSpace /DeviceGray /BitsPerComponent 8" + extra
        + b" /Length " + str(len(data)).encode() + b" >>\nstream\n"
        + data + b"\nendstream"
    )


def make_pdf(doc_id: int, seed: int = SEED) -> tuple[bytes, str, str]:
    """Return (payload_bytes, naive_text, lang) for a PDF doc.

    Structure variants exercise the real-world PDF profile widened in
    round 2 (VERDICT r1 "PDF coverage breadth"):
    - classic xref table (with a bad-offsets adversarial slice);
    - PDF 1.5 layout: xref STREAM (no ``trailer`` keyword) with page
      dicts + font packed into a /ObjStm object stream;
    - ASCIIHexDecode / LZW / Flate+PNG-predictor (10-15) /
      Flate+TIFF-predictor content streams;
    - /Encrypt-bearing documents: a PASSWORDED slice (bogus /U that
      validates no password → deterministic encrypted_pdf) and an
      EMPTY-user-password encrypted slice (R2/V1 RC4-40, R3/V2
      RC4-128, R4/V4 /AESV2 AES-128-CBC and R6/V5 /AESV3 AES-256;
      really encrypted streams — must extract);
    - truncated payloads (no %%EOF) → deterministic truncated_pdf.
    """
    r = _rng(doc_id, seed + 7)
    n_pages = r.randint(1, 8)
    compress = r.random() < 0.5
    variant = r.random()
    structure = r.random()  # < 0.15 → xref-stream + ObjStm layout
    # < 0.12 ASCIIHex; < 0.24 LZW; < 0.36 Flate+PNG predictor;
    # < 0.42 Flate+TIFF predictor 2
    filt = r.random()
    cid = r.random() < 0.12  # Type0/CID font + ToUnicode CMap
    # /Encrypt split: a PASSWORDED slice (bogus /U that validates no
    # password → encrypted_pdf error rows) and an ENCRYPTED-WITH-
    # EMPTY-USER-PASSWORD slice (really encrypted streams; the common
    # readable real-world class — must extract, not error)
    # thresholds chosen so the 1500-doc gate corpus contains ≥1 doc of
    # each class: passworded {739}; of the empty-password docs, the
    # four that survive the truncation slice {581, 788, 1012, 1036}
    # land exactly one-per-class across AESV2 / R2 / AESV3-R6 / R3
    # under the r6sel md5 selector (416/1189/38 are truncated_pdf by
    # the independent truncation roll regardless of class)
    enc_roll = r.random()
    encrypted = enc_roll < 0.085
    enc_empty = 0.015 <= enc_roll < 0.085
    # formula slice (~18% of PDFs): a display-math line in the /F2
    # Symbol font on page 0. Selector and text are md5-derived (not
    # the r stream) so the slice shifts no other draw.
    import hashlib as _hl

    fd = _hl.md5(f"formula-{doc_id}".encode()).digest()
    formula_str = (
        f"x{fd[1] % 10} = a{fd[2] % 10} + b{fd[3] % 10} / c{fd[4] % 10}"
        if fd[0] < 46 else None)

    page_streams: list[bytes] = []
    all_shown: list[str] = []
    for p in range(n_pages):
        if variant < 0.03 and p == n_pages - 1:
            page_streams.append(b"")  # empty page
            continue
        two_col = r.random() < 0.25
        with_table = r.random() < 0.25
        with_fig = r.random() < 0.2
        s, shown = _pdf_text_ops(
            r, two_col, with_table, with_fig, cid=cid,
            formula=formula_str if p == 0 else None)
        all_shown.extend(shown)
        page_streams.append(s.encode("latin-1"))

    content_bodies: list[bytes] = []
    for s in page_streams:
        if filt < 0.12:
            import binascii

            data = binascii.hexlify(s) + b">"
            extra = b" /Filter /ASCIIHexDecode"
        elif filt < 0.24:
            data = _lzw_encode(s)
            extra = b" /Filter /LZWDecode"
        elif filt < 0.36:
            pred = 10 + (doc_id % 6)  # 10..15, incl. per-row "optimal"
            data = zlib.compress(_png_predict_encode(s, pred, 64))
            extra = (b" /Filter /FlateDecode /DecodeParms << /Predictor "
                     + str(pred).encode() + b" /Columns 64 >>")
        elif filt < 0.42:
            data = zlib.compress(_tiff_predict_encode(s, 64))
            extra = (b" /Filter /FlateDecode /DecodeParms << /Predictor 2"
                     b" /Colors 1 /BitsPerComponent 8 /Columns 64 >>")
        elif filt < 0.48:
            data = _a85_encode(s)
            extra = b" /Filter /ASCII85Decode"
        elif filt < 0.52:
            data = _rle_encode(s)
            extra = b" /Filter /RunLengthDecode"
        elif filt < 0.56:
            # filter CHAIN: RunLength under ASCII85 (decode order is
            # list order: 85 first, then RLE)
            data = _a85_encode(_rle_encode(s))
            extra = b" /Filter [/ASCII85Decode /RunLengthDecode]"
        elif compress:
            data = zlib.compress(s)
            extra = b" /Filter /FlateDecode"
        else:
            data = s
            extra = b""
        content_bodies.append(
            b"<< /Length " + str(len(data)).encode() + extra + b" >>\nstream\n"
            + data + b"\nendstream"
        )

    # object numbering plan
    n = len(page_streams)
    catalog_num = 1
    pages_num = 2
    first_page = 3
    # page i → obj first_page + 2i; content → first_page + 2i + 1
    font_num = first_page + 2 * n
    xobj_num = font_num + 1

    font2_num = xobj_num + 2 if cid else xobj_num + 1
    kid_refs = b" ".join(
        f"{first_page + 2 * i} 0 R".encode() for i in range(n)
    )
    if cid:
        tu_num = xobj_num + 1
        cmap = _tounicode_cmap()
        font_body = (
            b"<< /Type /Font /Subtype /Type0 /BaseFont /Synth-CID "
            b"/Encoding /Identity-H /ToUnicode " + str(tu_num).encode()
            + b" 0 R /DescendantFonts [<< /Type /Font "
            b"/Subtype /CIDFontType2 /BaseFont /Synth-CID >>] >>"
        )
    else:
        font_body = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    bodies: dict[int, bytes] = {
        catalog_num: b"<< /Type /Catalog /Pages 2 0 R >>",
        pages_num: b"<< /Type /Pages /Kids [" + kid_refs + b"] /Count "
        + str(n).encode() + b" >>",
        font_num: font_body,
        xobj_num: _pdf_image_xobject(doc_id),
        # /F2: the math face for the formula slice (Type1 /Symbol)
        font2_num: b"<< /Type /Font /Subtype /Type1 /BaseFont /Symbol >>",
    }
    if cid:
        bodies[tu_num] = (
            b"<< /Length " + str(len(cmap)).encode() + b" >>\nstream\n"
            + cmap + b"\nendstream"
        )
    for i in range(n):
        pnum = first_page + 2 * i
        cnum = pnum + 1
        bodies[pnum] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 " + str(font_num).encode()
            + b" 0 R /F2 " + str(font2_num).encode() + b" 0 R >> "
            b"/XObject << /Im1 " + str(xobj_num).encode() + b" 0 R >> >> "
            b"/Contents " + str(cnum).encode() + b" 0 R >>"
        )
        bodies[cnum] = content_bodies[i]

    enc_ref = b""
    id_ref = b""
    enc_fkey: bytes | None = None
    enc_aes = False
    enc_r6 = False
    if encrypted:
        import hashlib

        enc_num = max(bodies) + 1
        if enc_empty:
            # REAL standard-security-handler encryption with an empty
            # user password: R2/V1 (RC4-40), R3/V2 (RC4-128),
            # R4/V4 /AESV2 (AES-128-CBC) or R6/V5 /AESV3 (AES-256,
            # PDF 2.0). O and /ID derive from doc_id via md5 (not the
            # r stream, so the page-content draws stay byte-identical
            # across variants).
            perms = -44
            # md5-byte selector with a REALISTIC class mix: R6 is
            # 1/16 of the empty-password slice (AES-256 PDFs are rare
            # in real crawls, and their spec-mandated expensive KDF —
            # ≥64 hash_2b rounds per doc — would otherwise dominate
            # the PDF actor pool); the rest split evenly across
            # R2 / R3 / AESV2. The salt is chosen so the 1500-doc
            # gate corpus's four surviving empty-password docs cover
            # every class (581→AESV2, 788→R2, 1012→R6, 1036→R3)
            v16 = hashlib.md5(f"r6sel-{doc_id}".encode()).digest()[0] % 16
            sel = 3 if v16 == 14 else v16 % 3
            if sel == 3:
                # AES-256 /V 5 /R 6 (VERDICT r4 task 5): real /U /UE
                # /O /OE /Perms per Algorithms 8/9/10; file key
                # encrypts streams directly
                (enc_fkey, u48, ue32, o48, oe32,
                 perms16) = _pdf_r6_entries(doc_id, perms)
                enc_r6 = True
                id0 = hashlib.md5(f"encID-{doc_id}".encode()).digest()
                bodies[enc_num] = (
                    b"<< /Filter /Standard /V 5 /R 6 /Length 256"
                    b" /CF << /StdCF << /CFM /AESV3 /Length 32 >> >>"
                    b" /StmF /StdCF /StrF /StdCF"
                    b" /O <" + o48.hex().encode() + b">"
                    b" /U <" + u48.hex().encode() + b">"
                    b" /OE <" + oe32.hex().encode() + b">"
                    b" /UE <" + ue32.hex().encode() + b">"
                    b" /Perms <" + perms16.hex().encode() + b">"
                    b" /P " + str(perms).encode() + b" >>"
                )
            else:
                o_entry = (hashlib.md5(f"encO-{doc_id}".encode()).digest()
                           + hashlib.md5(f"encO2-{doc_id}".encode()).digest())
                id0 = hashlib.md5(f"encID-{doc_id}".encode()).digest()
                rev, v, bits = ((2, 1, 40), (3, 2, 128), (4, 4, 128))[sel]
                enc_aes = rev == 4
                enc_fkey = _pdf_enc_file_key(o_entry, perms, id0, rev, bits)
                u_entry = _pdf_enc_user_entry(enc_fkey, rev, id0)
                cf = (b" /CF << /StdCF << /CFM /AESV2 /Length 16 >> >>"
                      b" /StmF /StdCF /StrF /StdCF" if enc_aes else b"")
                bodies[enc_num] = (
                    b"<< /Filter /Standard /V " + str(v).encode()
                    + b" /R " + str(rev).encode()
                    + b" /Length " + str(bits).encode() + cf
                    + b" /O <" + o_entry.hex().encode() + b">"
                    + b" /U <" + u_entry.hex().encode() + b">"
                    + b" /P " + str(perms).encode() + b" >>"
                )
            idh = id0.hex().encode()
            id_ref = b" /ID [<" + idh + b"> <" + idh + b">]"
        else:
            # passworded: a /U that NO password reproduces (fixed
            # bogus bytes — also the oracle's byte marker for the
            # encrypted_pdf error class); streams stay plaintext but
            # the extractor must refuse before touching them
            bodies[enc_num] = (
                b"<< /Filter /Standard /V 1 /R 2 /O <"
                + b"00" * 32 + b"> /U <" + b"11" * 32 + b"> /P -44 >>"
            )
        enc_ref = b" /Encrypt " + str(enc_num).encode() + b" 0 R"

    if structure < 0.15:
        # PDF 1.5 layout: page dicts + font move into an /ObjStm;
        # cross-reference is an xref STREAM (no `trailer` keyword,
        # /Root only in the XRef dict)
        embedded_nums = sorted(
            [first_page + 2 * i for i in range(n)] + [font_num]
        )
        parts: list[bytes] = []
        offs: list[tuple[int, int]] = []
        cur = 0
        for num in embedded_nums:
            body = bodies.pop(num)
            offs.append((num, cur))
            parts.append(body)
            cur += len(body) + 1
        header = " ".join(f"{nm} {of}" for nm, of in offs).encode()
        content = header + b"\n" + b"\n".join(parts)
        first = len(header) + 1
        zdata = zlib.compress(content)
        objstm_num = max(max(bodies), xobj_num) + 1
        bodies[objstm_num] = (
            b"<< /Type /ObjStm /N " + str(len(offs)).encode()
            + b" /First " + str(first).encode()
            + b" /Filter /FlateDecode /Length " + str(len(zdata)).encode()
            + b" >>\nstream\n" + zdata + b"\nendstream"
        )
        xref_num = objstm_num + 1
        if enc_fkey is not None:
            _pdf_encrypt_streams(bodies, enc_fkey, enc_aes, doc_id,
                                 r6=enc_r6)
        out = bytearray(b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
        offsets: dict[int, int] = {}
        for num in sorted(bodies):
            offsets[num] = len(out)
            out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"
        # xref stream (W [1 4 1] — 4-byte offsets so documents of any
        # size fit; 2 bytes overflowed at 64 KiB); the scan-based
        # parser only needs /Root from its dict, but the entries are
        # well-formed
        entries = bytearray(b"\x00\x00\x00\x00\x00\xff")
        for num in range(1, xref_num + 1):
            if num in offsets:
                entries += b"\x01" + offsets[num].to_bytes(4, "big") + b"\x00"
            else:  # in the object stream
                entries += b"\x02" + objstm_num.to_bytes(4, "big") + b"\x00"
        zent = zlib.compress(bytes(entries))
        xref_pos = len(out)
        out += (
            str(xref_num).encode() + b" 0 obj\n<< /Type /XRef /Size "
            + str(xref_num + 1).encode()
            + b" /W [1 4 1] /Root 1 0 R" + enc_ref + id_ref
            + b" /Filter /FlateDecode /Length "
            + str(len(zent)).encode() + b" >>\nstream\n" + zent
            + b"\nendstream\nendobj\n"
        )
        out += b"startxref\n" + str(xref_pos).encode() + b"\n%%EOF\n"
    else:
        if enc_fkey is not None:
            _pdf_encrypt_streams(bodies, enc_fkey, enc_aes, doc_id,
                                 r6=enc_r6)
        out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
        offsets = {}
        for num in sorted(bodies):
            offsets[num] = len(out)
            out += str(num).encode() + b" 0 obj\n" + bodies[num] + b"\nendobj\n"

        xref_pos = len(out)
        maxnum = max(bodies)
        out += b"xref\n0 " + str(maxnum + 1).encode() + b"\n"
        out += b"0000000000 65535 f \n"
        for num in range(1, maxnum + 1):
            off = offsets.get(num, 0)
            if 0.0 <= variant < 0.02:
                off += 3  # bad xref offsets (recoverable: parser is scan-based)
            out += f"{off:010d} 00000 n \n".encode()
        out += (
            b"trailer\n<< /Size " + str(maxnum + 1).encode()
            + b" /Root 1 0 R" + enc_ref + id_ref + b" >>\nstartxref\n"
            + str(xref_pos).encode() + b"\n%%EOF\n"
        )

    payload = bytes(out)
    if 0.02 <= variant < 0.05:
        payload = payload[: int(len(payload) * 0.6)]  # truncated stream

    naive = _WS_RE.sub(" ", " ".join(all_shown)).strip()
    return payload, naive, "en"


# ------------------------------------------------------------------ junk


def make_junk(doc_id: int, seed: int = SEED) -> tuple[bytes, str, str]:
    r = _rng(doc_id, seed + 13)
    roll = r.random()
    if roll < 0.3:
        payload = b""
    elif roll < 0.6:
        payload = b"GIF89a" + bytes(r.getrandbits(8) for _ in range(64))
    else:
        payload = bytes(r.getrandbits(8) for _ in range(r.randint(16, 256)))
    return payload, "", ""


_DOCX_CT = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types"><Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/word/document.xml" ContentType="application/vnd.'
    'openxmlformats-officedocument.wordprocessingml.document.main+xml"/>'
    "</Types>"
)


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def make_docx(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .docx (zip: [Content_Types].xml +
    word/document.xml) with headings, paragraphs, runs and a table —
    deterministic bytes (fixed zip timestamps)."""
    import io
    import zipfile

    shown: list[str] = []
    parts: list[str] = []

    def para(txt: str, heading: int = 0) -> None:
        shown.append(txt)
        style = (f'<w:pPr><w:pStyle w:val="Heading{heading}"/></w:pPr>'
                 if heading else "")
        # split into 1-3 runs to exercise run concatenation
        k = r.randint(1, 3)
        cut = sorted(r.sample(range(1, max(2, len(txt))), k - 1)) if k > 1 else []
        pieces, prev = [], 0
        for c in cut + [len(txt)]:
            pieces.append(txt[prev:c])
            prev = c
        runs = "".join(
            f"<w:r><w:t xml:space=\"preserve\">{_xml_escape(p)}</w:t></w:r>"
            for p in pieces)
        parts.append(f"<w:p>{style}{runs}</w:p>")

    para(" ".join(r.choice(_WORDS) for _ in range(4)).title(), heading=1)
    for _ in range(r.randint(2, 8)):
        if r.random() < 0.15:
            para(" ".join(r.choice(_WORDS) for _ in range(3)).title(),
                 heading=r.choice((2, 3)))
        else:
            para(_paragraph(r, "en"))
    if r.random() < 0.3:
        rows = []
        for _ri in range(r.randint(2, 4)):
            cells = [f"{r.choice(_WORDS)} {r.randint(0, 99)}"
                     for _ in range(3)]
            shown.extend(cells)
            rows.append(
                "<w:tr>" + "".join(
                    f"<w:tc><w:p><w:r><w:t>{_xml_escape(c)}</w:t></w:r></w:p></w:tc>"
                    for c in cells) + "</w:tr>")
        parts.append("<w:tbl>" + "".join(rows) + "</w:tbl>")

    xml = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<w:document xmlns:w="http://schemas.openxmlformats.org/'
        'wordprocessingml/2006/main"><w:body>'
        + "".join(parts) + "</w:body></w:document>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        for name, data in (("[Content_Types].xml", _DOCX_CT),
                           ("word/document.xml", xml)):
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zi.compress_type = zipfile.ZIP_DEFLATED
            z.writestr(zi, data)
    return buf.getvalue(), _WS_RE.sub(" ", " ".join(shown)).strip()


_XLSX_CT = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types"><Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/xl/worksheets/sheet1.xml" ContentType='
    '"application/vnd.openxmlformats-officedocument.spreadsheetml.'
    'worksheet+xml"/></Types>'
)


def make_xlsx(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .xlsx (zip: [Content_Types].xml + worksheet +
    sharedStrings): header row of shared strings, data rows mixing
    shared strings, inline strings and numbers."""
    import io
    import zipfile

    shown: list[str] = []
    shared: list[str] = []

    def sref(s: str) -> int:
        shared.append(s)
        return len(shared) - 1

    n_cols = r.randint(2, 4)
    headers = [f"{r.choice(_WORDS)}" for _ in range(n_cols)]
    rows_xml: list[str] = []
    cells = "".join(
        f'<c r="{chr(65 + j)}1" t="s"><v>{sref(h)}</v></c>'
        for j, h in enumerate(headers))
    shown.extend(headers)
    rows_xml.append(f'<row r="1">{cells}</row>')
    for i in range(r.randint(2, 8)):
        parts: list[str] = []
        for j in range(n_cols):
            ref = f"{chr(65 + j)}{i + 2}"
            roll = r.random()
            if roll < 0.4:
                w = r.choice(_WORDS)
                shown.append(w)
                parts.append(f'<c r="{ref}" t="s"><v>{sref(w)}</v></c>')
            elif roll < 0.6:
                w = r.choice(_WORDS)
                shown.append(w)
                parts.append(
                    f'<c r="{ref}" t="inlineStr"><is><t>{w}</t></is></c>')
            else:
                v = r.randint(0, 9999)
                shown.append(str(v))
                parts.append(f'<c r="{ref}"><v>{v}</v></c>')
        rows_xml.append(f'<row r="{i + 2}">{"".join(parts)}</row>')

    sheet = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<worksheet xmlns="http://schemas.openxmlformats.org/'
        'spreadsheetml/2006/main"><sheetData>'
        + "".join(rows_xml) + "</sheetData></worksheet>"
    )
    sst = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/'
        f'2006/main" count="{len(shared)}" uniqueCount="{len(shared)}">'
        + "".join(f"<si><t>{_xml_escape(s)}</t></si>" for s in shared)
        + "</sst>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        for name, data in (("[Content_Types].xml", _XLSX_CT),
                           ("xl/sharedStrings.xml", sst),
                           ("xl/worksheets/sheet1.xml", sheet)):
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zi.compress_type = zipfile.ZIP_DEFLATED
            z.writestr(zi, data)
    return buf.getvalue(), _WS_RE.sub(" ", " ".join(shown)).strip()


_PPTX_CT = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types"><Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/ppt/slides/slide1.xml" ContentType='
    '"application/vnd.openxmlformats-officedocument.presentationml.'
    'slide+xml"/></Types>'
)


def make_pptx(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .pptx: 1-4 slides, each with an <a:p> title and
    body paragraphs of <a:t> runs."""
    import io
    import zipfile

    shown: list[str] = []
    slides: list[str] = []
    for _s in range(r.randint(1, 4)):
        paras: list[str] = []
        title = " ".join(r.choice(_WORDS) for _ in range(3)).title()
        shown.append(title)
        paras.append(title)
        for _ in range(r.randint(1, 4)):
            txt = _sentence(r, "en", r.randint(4, 10))
            shown.append(txt)
            paras.append(txt)
        body = "".join(
            "<a:p>" + "".join(
                f"<a:r><a:t>{_xml_escape(piece)}</a:t></a:r>"
                for piece in ([p[: len(p) // 2], p[len(p) // 2:]]
                              if r.random() < 0.3 else [p]))
            + "</a:p>"
            for p in paras
        )
        slides.append(
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
            '<p:sld xmlns:p="http://schemas.openxmlformats.org/'
            'presentationml/2006/main" xmlns:a="http://schemas.'
            'openxmlformats.org/drawingml/2006/main"><p:cSld><p:spTree>'
            f"<p:sp><p:txBody>{body}</p:txBody></p:sp>"
            "</p:spTree></p:cSld></p:sld>"
        )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        entries = [("[Content_Types].xml", _PPTX_CT)] + [
            (f"ppt/slides/slide{i + 1}.xml", s)
            for i, s in enumerate(slides)
        ]
        for name, data in entries:
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zi.compress_type = zipfile.ZIP_DEFLATED
            z.writestr(zi, data)
    return buf.getvalue(), _WS_RE.sub(" ", " ".join(shown)).strip()


def make_doc_legacy(r: random.Random) -> tuple[bytes, str]:
    """A real minimal legacy Word .doc: CFB container (WordDocument +
    0Table streams), FIB with fcClx/lcbClx at 0x1A2, Clx → PlcPcd
    piece table splitting the text into 1-3 pieces mixing cp1252
    (compressed) and UTF-16 encodings; paragraphs end with \\r, table
    cells with 0x07 marks — the exact subset functions/doc_extract.py
    parses."""
    import struct

    from ..functions.ole2 import cfb_write

    shown: list[str] = []
    paras: list[str] = []
    paras.append(" ".join(r.choice(_WORDS) for _ in range(4)).title())
    for _ in range(r.randint(2, 7)):
        paras.append(_paragraph(r, "en"))
    shown.extend(paras)
    segs = [p + "\r" for p in paras]
    if r.random() < 0.35:  # ruled table: rows of 0x07-terminated cells
        for _ri in range(r.randint(2, 4)):
            cells = [f"{r.choice(_WORDS)} {r.randint(0, 99)}"
                     for _ in range(3)]
            shown.extend(cells)
            segs.append("\x07".join(cells) + "\x07\r")
    if r.random() < 0.3:  # field: instruction half must drop
        kept = _sentence(r, "en", 4)
        shown.append(kept)
        segs.append("\x13 HYPERLINK foo \x14" + kept + "\x15\r")
    text = "".join(segs)

    # split into pieces; a piece must not cut a surrogate pair (ascii
    # corpus text: safe anywhere)
    n_pieces = r.randint(1, 3)
    cuts = sorted(r.sample(range(1, len(text)), n_pieces - 1)) \
        if n_pieces > 1 and len(text) > n_pieces else []
    bounds = [0] + cuts + [len(text)]
    pieces: list[tuple[bytes, int, bool]] = []  # (bytes, n_chars, unicode)
    for a, b in zip(bounds, bounds[1:]):
        seg = text[a:b]
        uni = r.random() < 0.4
        if uni:
            pieces.append((seg.encode("utf-16-le"), len(seg), True))
        else:
            pieces.append((seg.encode("cp1252", "replace"), len(seg), False))

    word = bytearray(1024)  # FIB block
    struct.pack_into("<H", word, 0, 0xA5EC)   # wIdent
    struct.pack_into("<H", word, 2, 0x00C1)   # nFib (Word 97)
    struct.pack_into("<H", word, 0x0A, 0)     # flags: table stream = 0Table
    off = len(word)
    fcs: list[tuple[int, bool]] = []
    for (data, _n, uni) in pieces:
        fcs.append((off, uni))
        word += data
        off += len(data)

    n = len(pieces)
    cps = [0]
    for (_d, nch, _u) in pieces:
        cps.append(cps[-1] + nch)
    plc = b"".join(struct.pack("<I", c) for c in cps)
    for (fc, uni), (_d, _n, _u) in zip(fcs, pieces):
        fc_raw = fc if uni else ((fc * 2) | 0x40000000)
        plc += struct.pack("<HIH", 0, fc_raw, 0)
    clx = b""
    if r.random() < 0.3:  # leading Prc to exercise the skip path
        junk = bytes([r.getrandbits(8) for _ in range(6)])
        clx += b"\x01" + struct.pack("<H", len(junk)) + junk
    clx += b"\x02" + struct.pack("<I", len(plc)) + plc
    table = bytearray(64)  # fcClx points past a small pad
    fc_clx = len(table)
    table += clx
    struct.pack_into("<II", word, 0x1A2, fc_clx, len(clx))

    payload = cfb_write([("WordDocument", bytes(word)),
                         ("0Table", bytes(table))])
    naive = _WS_RE.sub(" ", " ".join(shown)).strip()
    return payload, naive


def make_xls_legacy(r: random.Random) -> tuple[bytes, str]:
    """A real minimal legacy Excel .xls: CFB container with a BIFF8
    Workbook stream — SST shared strings, LabelSst / inline Label /
    Number / RK cells (the record subset doc_extract._extract_xls
    reads)."""
    import struct

    from ..functions.ole2 import cfb_write

    def rec(rtype: int, body: bytes) -> bytes:
        return struct.pack("<HH", rtype, len(body)) + body

    def xlstr(s: str) -> bytes:
        if all(ord(c) < 256 for c in s):
            return struct.pack("<HB", len(s), 0) + s.encode("cp1252")
        return struct.pack("<HB", len(s), 1) + s.encode("utf-16-le")

    shown: list[str] = []
    shared: list[str] = []
    cells: list[bytes] = []
    n_cols = r.randint(2, 4)
    n_rows = r.randint(2, 6)
    for row in range(n_rows):
        for col in range(n_cols):
            roll = r.random()
            if roll < 0.45:
                s = r.choice(_WORDS)
                shown.append(s)
                shared.append(s)
                cells.append(rec(0x00FD, struct.pack(
                    "<HHHI", row, col, 0, len(shared) - 1)))
            elif roll < 0.6:
                s = r.choice(_WORDS)
                shown.append(s)
                cells.append(rec(0x0204, struct.pack(
                    "<HHH", row, col, 0) + xlstr(s)))
            elif roll < 0.8:
                v = float(r.randint(0, 9999))
                shown.append(f"{v:g}")
                cells.append(rec(0x0203, struct.pack(
                    "<HHH", row, col, 0) + struct.pack("<d", v)))
            else:
                iv = r.randint(-500, 500)
                shown.append(f"{float(iv):g}")
                rk = ((iv & 0x3FFFFFFF) << 2) | 2
                cells.append(rec(0x027E, struct.pack(
                    "<HHHI", row, col, 0, rk)))
    sst_body = struct.pack("<II", len(shared), len(shared)) + b"".join(
        xlstr(s) for s in shared)
    wb = (rec(0x0809, bytes(16))  # BOF
          + rec(0x00FC, sst_body)
          + b"".join(cells)
          + rec(0x000A, b""))     # EOF
    payload = cfb_write([("Workbook", wb)])
    naive = _WS_RE.sub(" ", " ".join(shown)).strip()
    return payload, naive


def make_ppt_legacy(r: random.Random) -> tuple[bytes, str]:
    """A real minimal legacy PowerPoint .ppt: CFB container with a
    'PowerPoint Document' stream of nested containers holding
    TextCharsAtom (UTF-16) and TextBytesAtom (cp1252) records."""
    import struct

    from ..functions.ole2 import cfb_write

    def atom(rtype: int, body: bytes) -> bytes:
        return struct.pack("<HHI", 0, rtype, len(body)) + body

    def container(rtype: int, body: bytes) -> bytes:
        return struct.pack("<HHI", 0x000F, rtype, len(body)) + body

    shown: list[str] = []
    slides: list[bytes] = []
    for _s in range(r.randint(1, 3)):
        atoms: list[bytes] = []
        for _ in range(r.randint(1, 4)):
            txt = _sentence(r, "en", r.randint(3, 9))
            shown.append(txt)
            if r.random() < 0.5:
                atoms.append(atom(0x0FA0, txt.encode("utf-16-le")))
            else:
                atoms.append(atom(0x0FA8, txt.encode("cp1252", "replace")))
        slides.append(container(0x03EE, b"".join(atoms)))
    doc = container(0x03E8, b"".join(slides))
    payload = cfb_write([("PowerPoint Document", doc)])
    naive = _WS_RE.sub(" ", " ".join(shown)).strip()
    return payload, naive


_ODF_MIMES = {
    "odt": "application/vnd.oasis.opendocument.text",
    "ods": "application/vnd.oasis.opendocument.spreadsheet",
    "odp": "application/vnd.oasis.opendocument.presentation",
}


def _odf_zip(family: str, body_xml: str) -> bytes:
    """Wrap a content.xml body in an ODF package: the `mimetype`
    member FIRST and STORED (uncompressed, per spec — that is what
    puts the mime string in the head bytes the sniffer keys on), then
    content.xml deflated. Fixed timestamps → deterministic bytes."""
    import io
    import zipfile

    content = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<office:document-content '
        'xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
        'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0" '
        'xmlns:table="urn:oasis:names:tc:opendocument:xmlns:table:1.0" '
        'xmlns:draw="urn:oasis:names:tc:opendocument:xmlns:drawing:1.0">'
        f"<office:body>{body_xml}</office:body>"
        "</office:document-content>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        zi = zipfile.ZipInfo("mimetype", date_time=(2024, 1, 1, 0, 0, 0))
        zi.compress_type = zipfile.ZIP_STORED
        z.writestr(zi, _ODF_MIMES[family])
        zi = zipfile.ZipInfo("content.xml", date_time=(2024, 1, 1, 0, 0, 0))
        zi.compress_type = zipfile.ZIP_DEFLATED
        z.writestr(zi, content)
    return buf.getvalue()


def make_odt(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .odt: headings (text:h + outline-level),
    paragraphs with inline text:span / text:s whitespace elements,
    list items, and a table."""
    shown: list[str] = []
    parts: list[str] = []

    title = " ".join(r.choice(_WORDS) for _ in range(4)).title()
    shown.append(title)
    parts.append(f'<text:h text:outline-level="1">{_xml_escape(title)}'
                 "</text:h>")
    for _ in range(r.randint(2, 7)):
        roll = r.random()
        if roll < 0.15:
            h = " ".join(r.choice(_WORDS) for _ in range(3)).title()
            shown.append(h)
            parts.append(
                f'<text:h text:outline-level="{r.choice((2, 3))}">'
                f"{_xml_escape(h)}</text:h>")
        elif roll < 0.3:
            items = [_sentence(r, "en", r.randint(2, 6))
                     for _ in range(r.randint(2, 4))]
            shown.extend(items)
            parts.append("<text:list>" + "".join(
                f"<text:list-item><text:p>{_xml_escape(it)}</text:p>"
                "</text:list-item>" for it in items) + "</text:list>")
        else:
            p = _paragraph(r, "en")
            shown.append(p)
            if r.random() < 0.3:
                # inline span + explicit space element
                cut = len(p) // 2
                parts.append(
                    f"<text:p>{_xml_escape(p[:cut])}<text:span>"
                    f"{_xml_escape(p[cut:])}</text:span>"
                    "<text:s/></text:p>")
            else:
                parts.append(f"<text:p>{_xml_escape(p)}</text:p>")
    if r.random() < 0.3:
        rows = []
        for _ri in range(r.randint(2, 4)):
            cells = [f"{r.choice(_WORDS)} {r.randint(0, 99)}"
                     for _ in range(3)]
            shown.extend(cells)
            rows.append("<table:table-row>" + "".join(
                f"<table:table-cell><text:p>{_xml_escape(c)}</text:p>"
                "</table:table-cell>" for c in cells) + "</table:table-row>")
        parts.append('<table:table table:name="T1">' + "".join(rows)
                     + "</table:table>")

    body = "<office:text>" + "".join(parts) + "</office:text>"
    payload = _odf_zip("odt", body)
    return payload, _WS_RE.sub(" ", " ".join(shown)).strip()


def make_ods(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .ods: 1-2 sheets, header + data rows; one cell
    per row may use table:number-columns-repeated."""
    shown: list[str] = []
    sheets: list[str] = []
    for si in range(r.randint(1, 2)):
        n_cols = r.randint(2, 4)
        rows_xml: list[str] = []
        headers = [r.choice(_WORDS) for _ in range(n_cols)]
        shown.extend(headers)
        rows_xml.append("<table:table-row>" + "".join(
            f"<table:table-cell><text:p>{_xml_escape(h)}</text:p>"
            "</table:table-cell>" for h in headers) + "</table:table-row>")
        for _i in range(r.randint(2, 6)):
            cells: list[str] = []
            j = 0
            while j < n_cols:
                if r.random() < 0.15 and j + 2 <= n_cols:
                    w = r.choice(_WORDS)
                    shown.extend([w, w])
                    cells.append(
                        '<table:table-cell table:number-columns-repeated='
                        f'"2"><text:p>{_xml_escape(w)}</text:p>'
                        "</table:table-cell>")
                    j += 2
                else:
                    v = (r.choice(_WORDS) if r.random() < 0.6
                         else str(r.randint(0, 9999)))
                    shown.append(v)
                    cells.append(
                        f"<table:table-cell><text:p>{_xml_escape(v)}"
                        "</text:p></table:table-cell>")
                    j += 1
            rows_xml.append("<table:table-row>" + "".join(cells)
                            + "</table:table-row>")
        sheets.append(f'<table:table table:name="Sheet{si + 1}">'
                      + "".join(rows_xml) + "</table:table>")
    body = "<office:spreadsheet>" + "".join(sheets) + "</office:spreadsheet>"
    payload = _odf_zip("ods", body)
    return payload, _WS_RE.sub(" ", " ".join(shown)).strip()


def make_odp(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .odp: 1-4 draw:page slides, text:p paragraphs
    inside frames."""
    shown: list[str] = []
    pages: list[str] = []
    for _s in range(r.randint(1, 4)):
        paras = [" ".join(r.choice(_WORDS) for _ in range(3)).title()]
        for _ in range(r.randint(1, 4)):
            paras.append(_sentence(r, "en", r.randint(4, 10)))
        shown.extend(paras)
        frame = "".join(f"<text:p>{_xml_escape(p)}</text:p>" for p in paras)
        pages.append(
            '<draw:page draw:name="page">'
            f"<draw:frame><draw:text-box>{frame}</draw:text-box>"
            "</draw:frame></draw:page>")
    body = ("<office:presentation>" + "".join(pages)
            + "</office:presentation>")
    payload = _odf_zip("odp", body)
    return payload, _WS_RE.sub(" ", " ".join(shown)).strip()


def make_rtf(r: random.Random) -> tuple[bytes, str]:
    """A real minimal .rtf: header with font/color tables and a
    skippable ``{\\*\\generator}`` destination (all must be dropped),
    paragraphs with formatting groups, cp1252 hex escapes, unicode
    escapes with ``\\uc1`` fallback chars, and special-char words."""
    shown: list[str] = []
    body: list[str] = []
    for _ in range(r.randint(2, 8)):
        p = _paragraph(r, "en")
        roll = r.random()
        if roll < 0.2:
            # bold/italic groups flatten to plain text
            cut = len(p) // 2
            enc = (p[:cut] + "{\\b " + p[cut:cut + 10] + "}"
                   + p[cut + 10:])
            shown.append(p)
        elif roll < 0.4:
            # accented text via cp1252 hex escapes
            word = r.choice(("caf\\'e9", "na\\'efve", "\\'fcber"))
            dec = word.replace("\\'e9", "é").replace("\\'ef", "ï") \
                      .replace("\\'fc", "ü")
            enc = p + " " + word
            shown.append(p + " " + dec)
        elif roll < 0.55:
            # unicode escapes with a '?' fallback that must be skipped
            enc = p + " \\u8212? \\u24179?\\u25910?"
            shown.append(p + " — 平收")
        elif roll < 0.65:
            enc = p + " one\\~two\\emdash three"
            shown.append(p + " one two—three")
        else:
            enc = p
            shown.append(p)
        body.append(enc + "\\par")
    doc = (
        "{\\rtf1\\ansi\\ansicpg1252\\deff0"
        "{\\fonttbl{\\f0\\froman Times New Roman;}}"
        "{\\colortbl;\\red0\\green0\\blue0;}"
        "{\\*\\generator synth corpus 1.0;}"
        "\\viewkind4\\uc1\\pard\\f0\\fs24 "
        + "\n".join(body) + "}"
    )
    return doc.encode("cp1252", "replace"), \
        _WS_RE.sub(" ", " ".join(shown)).strip()


def make_office(doc_id: int, seed: int = SEED) -> tuple[bytes, str, str]:
    """Office payloads.

    Legacy OLE2 slice (~34%): real minimal .doc / .xls / .ppt compound
    files extracted DIRECTLY (functions/doc_extract.py — round 3; the
    reference needed LibreOffice for these, and 3 of its 7 test files
    are .doc), a truncated-.doc variant (directory cut away → the
    UTF-16 stream-name marker the classifier and the SQL oracle both
    key on is gone → deterministic office_unsupported), and garbage
    OLE2 containers (office_unsupported).

    Zip slice (~46%): OOXML .docx / .xlsx / .pptx (round 2) and ODF
    .odt / .ods / .odp (round 3 — the reference's office_formats list,
    services/document_service.py:49-56); ~15% truncated (EOCD cut →
    deterministic office_truncated).

    RTF slice (~20%): real .rtf text markup (also in the reference's
    office_formats); ~15% truncated — the RTF scanner is total, so
    truncated payloads still extract their prefix (ok=True, naive
    text intentionally blank)."""
    r = _rng(doc_id, seed + 21)
    roll = r.random()
    if roll < 0.18:
        payload, naive = make_doc_legacy(r)
        return payload, naive, "en"
    if roll < 0.22:
        payload, _naive = make_doc_legacy(r)
        # cut before the directory (written LAST by cfb_write): the
        # stream-name marker disappears with it, so extractor and SQL
        # oracle agree on office_unsupported
        dir_len = ((1 + 2) * 128 + 511) // 512 * 512  # root + 2 streams
        payload = payload[: len(payload) - dir_len - 64]
        return payload, "", ""
    if roll < 0.26:
        payload, naive = make_xls_legacy(r)
        return payload, naive, "en"
    if roll < 0.30:
        payload, naive = make_ppt_legacy(r)
        return payload, naive, "en"
    if roll < 0.34:
        payload = (
            b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"  # OLE2 magic, junk body
            + bytes(r.getrandbits(8) for _ in range(504))
        )
        return payload, "", ""
    if roll < 0.80:
        if roll < 0.46:
            payload, naive = make_docx(r)
        elif roll < 0.54:
            payload, naive = make_xlsx(r)
        elif roll < 0.60:
            payload, naive = make_pptx(r)
        elif roll < 0.68:
            payload, naive = make_odt(r)
        elif roll < 0.74:
            payload, naive = make_ods(r)
        else:
            payload, naive = make_odp(r)
        if r.random() < 0.15:
            payload = payload[: int(len(payload) * 0.7)]  # truncated zip
            return payload, "", "en"
        return payload, naive, "en"
    payload, naive = make_rtf(r)
    if r.random() < 0.15:
        # the scanner is tolerant: a cut payload still yields its
        # readable prefix, so ok stays True (naive text not asserted)
        payload = payload[: int(len(payload) * 0.6)]
        return payload, "", "en"
    return payload, naive, "en"


# ----------------------------------------------------------------- table


def doc_row(doc_id: int, seed: int = SEED) -> dict:
    """One deterministic corpus row (the pure per-row function).

    The url path carries the generator's payload KIND
    (``.../{kind}/{doc_id}``): ground truth by construction, which the
    DuckDB oracle for the flagship extraction pipeline reads back with
    a regexp to cross-check the magic-byte sniffer + error
    classification against an independent derivation."""
    r = _rng(doc_id, seed + 99)
    roll = r.random()
    if roll < 0.88:
        kind = "html"
        payload, naive, lang = make_html(doc_id, seed)
        if doc_id % 13 == 5:
            # gzip-wrapped transport variant (CC pages are commonly
            # stored gzip'd): applied OUTSIDE make_html so no rng draw
            # shifts; mtime=0 keeps the member byte-deterministic. The
            # engine must inflate transparently — the flagship oracle
            # still expects ok=TRUE for every /html/ url.
            import gzip as _gzip

            payload = _gzip.compress(payload, compresslevel=9, mtime=0)
    elif roll < 0.96:
        kind = "pdf"
        payload, naive, lang = make_pdf(doc_id, seed)
    elif roll < 0.98:
        kind = "office"
        payload, naive, lang = make_office(doc_id, seed)
    else:
        kind = "junk"
        payload, naive, lang = make_junk(doc_id, seed)
    site = doc_id % 97
    path = _WORDS[doc_id % len(_WORDS)]
    ts = datetime.datetime(2024, 1, 1) + datetime.timedelta(seconds=doc_id * 37)
    return {
        "url": f"https://site-{site}.example/{path}/{kind}/{doc_id}",
        "warc_ts": ts,
        "html": payload,
        "text": naive,
        "lang": lang,
    }


CORPUS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)


def make_corpus_table(n_rows: int, seed: int = SEED, start_id: int = 0) -> pa.Table:
    rows = [doc_row(i, seed) for i in range(start_id, start_id + n_rows)]
    return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)


def write_corpus(path: str, n_rows: int, seed: int = SEED,
                 rows_per_file: int = 25_000) -> list[str]:
    """Write the corpus as one-or-more parquet shards under `path`.

    Sharded so `ray.data.read_parquet` gets parallel fragments; each
    shard is an independent function of its id range (generation can be
    distributed with ray tasks for the bench corpus).

    Idempotent and crash-resumable per shard: each shard lands via
    tmp-file + atomic rename (a killed run never leaves a torn
    parquet), and an existing shard file is skipped — re-running the
    same command after an interrupt fills exactly the missing id
    ranges (a partially generated corpus previously passed run.py's
    non-empty-dir check silently)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    for stale in os.listdir(path):  # torn writes from a killed run
        if stale.endswith(".tmp"):
            os.unlink(os.path.join(path, stale))
    files: list[str] = []
    for shard_start in range(0, n_rows, rows_per_file):
        cnt = min(rows_per_file, n_rows - shard_start)
        fp = os.path.join(path, f"corpus-{shard_start:09d}.parquet")
        if not os.path.exists(fp):
            tbl = make_corpus_table(cnt, seed, start_id=shard_start)
            tmp = fp + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, fp)
        files.append(fp)
    return files
