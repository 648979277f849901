"""PDF text + layout extraction for the supported profile (SURVEY.md §7.4).

From-scratch re-expression of the semantics the reference obtains from
MinerU's pipeline (`pipeline_doc_analyze` → `pipeline_result_to_middle_json`
→ `pipeline_union_make`, reference services/document_service.py:240-272):

- page segmentation (objects → page tree → per-page content streams);
- reading-order reconstruction (line clustering, two-column detection,
  column-major ordering);
- table region detection (ruled-line grid → cells → markdown table);
- figure regions (XObject ``Do`` placements → placeholder blocks);
- heading detection by font size;
- Markdown rendering with per-page span offsets.

Supported profile: PDFs with uncompressed, FlateDecode, LZWDecode,
ASCIIHexDecode, ASCII85Decode or RunLengthDecode content streams —
chained filter lists included; that is the complete standard
non-image-codec filter set (incl. /ObjStm object streams and
xref-stream documents); /Encrypt-bearing documents with an EMPTY user
password decrypt transparently (standard security handler: RC4
/V 1-2 /R 2-3, AES-128-CBC /V 4 /R 4 /AESV2 and AES-256 /V 5 /R 6
/AESV3 — functions/pdf_crypt + functions/aes); standard fonts plus Type0/CID fonts carrying a
/ToUnicode CMap, text via BT/ET + Tf/Td/TD/Tm/T*/TL/Tj/TJ/'/",
ruled tables via ``re``/``m``/``l`` path ops, figures via ``cm`` + ``Do``.
Object resolution is scan-based (every ``N G obj``), so damaged xref
tables are recoverable by construction (FIXTURES.md §3 adversarial
variant "bad xref offsets").

Block kinds emitted: heading / para / table / figure (placeholders
``![](pageP-figI)`` with the matching image payloads surfaced in the
``images`` output column) / formula. Reference parity — ``formula``
(VERDICT r4 task 7): the reference enables MinerU's formula leg
(``formula_enable=True``, services/document_service.py:240-246),
which runs an ML layout model to find math regions and a recognition
model to LaTeX them. Here detection is FONT-DRIVEN: page resources
whose /BaseFont is a math family (Symbol, TeX's CMMI/CMSY/CMEX, AMS
MSAM/MSBM, *Math* — page_math_fonts) mark their glyph runs, and a
line shown entirely in math faces becomes Block("formula",
"$$ … $$", page) with spans intact; mixed lines stay paragraphs
(inline math). This is the reliable non-ML signal: TeX output — the
dominant source of formula-bearing PDFs — always switches to these
faces inside math mode. LaTeX RECONSTRUCTION (glyph runs → markup)
stays with the unavailable recognition model.

Determinism: geometry is converted to integer milli-units immediately
after parse; all clustering/sorting uses integer comparisons with
stable tie-breaks (page, -y, x, stream order).

Failures are row-level values, never exceptions (reference error-artifact
semantics, services/document_service.py:347-383): truncated or
unparseable payloads yield ok=False with a classified error_kind — the
analogue of `_analyze_mineru_python_error` (services/document_service.py:
394-424).
"""

from __future__ import annotations

import re
import struct
import zlib
from itertools import accumulate
from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG, ExtractConfig
from .markdown import Block, render, render_table

# ------------------------------------------------------------ object model

_NUM_RE = re.compile(rb"[-+]?\d*\.?\d+")
# whitespace (the lexer's set: no \x0b, plus NUL) and % comments
_WS_RE = re.compile(rb"(?:[ \t\r\n\x0c\x00]+|%[^\r\n]*)*")
_NAME_RE = re.compile(rb"/([^ \t\r\n\x0c\x00/<>\[\]()%]*)")
# the "G R" tail of an indirect reference, looked for within 32 bytes
_REF_TAIL_RE = re.compile(rb"(\d+)\s+R\b")
# a run of literal-string bytes that need no escape or nesting work
_PLAIN_RE = re.compile(rb"[^()\\]*")
_ESCAPES = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}  # \n \r \t \b \f


class _Ref:
    __slots__ = ("num",)

    def __init__(self, num: int) -> None:
        self.num = num


class PdfError(Exception):
    def __init__(self, kind: str, msg: str) -> None:
        super().__init__(msg)
        self.kind = kind


def _literal_string(d: bytes, i: int) -> tuple[bytes, int]:
    """The literal string whose opening ``(`` ends at ``i``: (bytes,
    index after the closing ``)``). Balanced parentheses nest; each
    run of plain bytes is copied with one regex match."""
    n = len(d)
    j = _PLAIN_RE.match(d, i).end()
    out = bytearray()
    depth = 1
    while True:
        out += d[i:j]
        if j >= n:
            break
        c = d[j]
        i = j + 1
        if c == 0x5C:  # backslash
            if i >= n:
                break
            e = d[i]
            if e in _ESCAPES:
                out.append(_ESCAPES[e])
                i += 1
            elif 0x30 <= e <= 0x37:  # up to three octal digits
                k = i + 1
                while k < n and k < i + 3 and 0x30 <= d[k] <= 0x37:
                    k += 1
                out.append(int(d[i:k], 8) & 0xFF)
                i = k
            elif e in b"\r\n":  # line continuation
                i += 1
                if e == 0x0D and i < n and d[i] == 0x0A:
                    i += 1
            else:  # \( \) \\ and unknown escapes: the byte itself
                out.append(e)
                i += 1
        elif c == 0x28:
            depth += 1
            out.append(c)
        else:  # ')'
            depth -= 1
            if depth == 0:
                return bytes(out), i
            out.append(c)
        j = _PLAIN_RE.match(d, i).end()
    raise PdfError("truncated_pdf", "unterminated string")


def _hex_string(d: bytes, i: int) -> tuple[bytes, int]:
    """The hex string whose ``<`` ends at ``i``: (bytes, index after
    ``>``); whitespace is ignored and an odd final digit means 0."""
    end = d.find(b">", i)
    if end < 0:
        raise PdfError("truncated_pdf", "unterminated hex string")
    hexs = d[i:end].translate(None, b" \t\n\r\x0b\x0c")
    if len(hexs) % 2:
        hexs += b"0"
    return bytes.fromhex(hexs.decode("ascii")), end + 1


class _Lexer:
    """Minimal PDF object lexer/parser (dicts, arrays, names, numbers,
    strings, refs, booleans, null)."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.d = data
        self.i = pos
        self.n = len(data)

    def parse(self):
        self.i = _WS_RE.match(self.d, self.i).end()
        if self.i >= self.n:
            raise PdfError("truncated_pdf", "unexpected end of data")
        return self._value()

    def _value(self):
        """The object at self.i (whitespace already skipped)."""
        d, i = self.d, self.i
        c = d[i]
        if c == 0x3C:  # '<'
            if d.startswith(b"<<", i):
                return self._parse_dict()
            s, self.i = _hex_string(d, i + 1)
            return s
        if c == 0x5B:  # '['
            return self._parse_array()
        if c == 0x28:  # '('
            s, self.i = _literal_string(d, i + 1)
            return s
        if c == 0x2F:  # '/'
            return self._parse_name()
        if d.startswith(b"true", i):
            self.i += 4
            return True
        if d.startswith(b"false", i):
            self.i += 5
            return False
        if d.startswith(b"null", i):
            self.i += 4
            return None
        return self._parse_number_or_ref()

    def _parse_dict(self):
        d, n, ws = self.d, self.n, _WS_RE.match
        self.i += 2
        out = {}
        while True:
            self.i = i = ws(d, self.i).end()
            if d.startswith(b">>", i):
                self.i = i + 2
                return out
            if i >= n:
                raise PdfError("truncated_pdf", "unterminated dict")
            key = self._parse_name()
            out[key] = self.parse()

    def _parse_array(self):
        d, n, ws = self.d, self.n, _WS_RE.match
        self.i += 1
        out = []
        while True:
            self.i = i = ws(d, self.i).end()
            if i >= n:
                raise PdfError("truncated_pdf", "unterminated array")
            if d[i] == 0x5D:  # ']'
                self.i = i + 1
                return out
            out.append(self._value())

    def _parse_name(self) -> str:
        m = _NAME_RE.match(self.d, self.i)
        if m is None:
            raise PdfError("pdf_parse_error", "expected name")
        self.i = m.end()
        return m.group(1).decode("latin-1")

    def _parse_number_or_ref(self):
        m = _NUM_RE.match(self.d, self.i)
        if not m:
            raise PdfError("pdf_parse_error", f"bad token at {self.i}")
        tok = m.group(0)
        self.i = m.end()
        if b"." in tok:
            return float(tok)
        # lookahead for "G R" (indirect reference)
        k = _WS_RE.match(self.d, self.i).end()
        m2 = _REF_TAIL_RE.match(self.d, k, k + 32)
        if m2:
            self.i = m2.end()
            return _Ref(int(tok))
        return int(tok)


# ------------------------------------------------------------- document

_DIGITS = frozenset(b"0123456789")
_SPACES = frozenset(b" \t\n\r\x0b\x0c")  # the bytes-regex \s class
_WORD = frozenset(b"0123456789_ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  b"abcdefghijklmnopqrstuvwxyz")


def _run_start(raw: bytes, j: int, cls: frozenset) -> int:
    """Start of the run of ``cls`` bytes that ends at ``j``."""
    while j and raw[j - 1] in cls:
        j -= 1
    return j


def _obj_headers(raw: bytes) -> list[tuple[int, int, int, int]]:
    """Every ``N G obj`` object header — the matches of the regex
    ``(\\d+)\\s+(\\d+)\\s+obj\\b`` over ``raw``, as (start, end, N, G) —
    found from the ``obj`` keywords: each one is followed by a
    non-word byte, and walking back from it crosses whitespace,
    digits, whitespace and digits. Runs of digits and whitespace never
    span an ``obj``, so the walk-backs are disjoint and the scan is
    linear; a regex scan would start an attempt at every digit of the
    payload, binary streams included."""
    out = []
    n = len(raw)
    k = raw.find(b"obj")
    while k >= 0:
        if k + 3 == n or raw[k + 3] not in _WORD:
            ws1 = _run_start(raw, k, _SPACES)
            gen0 = _run_start(raw, ws1, _DIGITS)
            ws0 = _run_start(raw, gen0, _SPACES)
            num0 = _run_start(raw, ws0, _DIGITS)
            if ws1 < k and gen0 < ws1 and ws0 < gen0 and num0 < ws0:
                out.append((num0, k + 3, int(raw[num0:ws0]),
                            int(raw[gen0:ws1])))
        k = raw.find(b"obj", k + 3)
    return out


@dataclass(slots=True)
class _TextItem:
    page: int
    x: int  # milli-units
    y: int
    size: int  # font size in milli-units
    text: str
    seq: int  # stream order for stable ties
    w: int = 0  # approximate advance width in milli-units
    math: bool = False  # shown in a math font (formula detection)


@dataclass(slots=True)
class _FigItem:
    page: int
    x: int
    y: int  # top y in milli-units
    seq: int
    xname: str = ""  # the Do operand (XObject resource name)


@dataclass
class _PageGeom:
    hlines: list = field(default_factory=list)  # (y, x0, x1)
    vlines: list = field(default_factory=list)  # (x, y0, y1)


class _PdfDoc:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        # num -> (body_start, body_end, gen)
        self.objects: dict[int, tuple[int, int, int]] = {}
        self._cache: dict[int, object] = {}
        self._objstm_loaded = False
        self.enc_key: bytes | None = None  # set by setup_decryption()
        self.enc_aes = False  # /AESV2 or /AESV3 (vs RC4)
        self.enc_r6 = False  # /V 5 /R 6: file key used directly
        # ToUnicode stream num -> parsed CMap ({} when unreadable):
        # fonts are shared by pages, their CMaps are parsed once
        self._cmaps: dict[int, dict[int, str]] = {}
        for _start, body, num, gen in _obj_headers(raw):
            end = raw.find(b"endobj", body)
            if end < 0:
                end = len(raw)
            # first definition wins (deterministic)
            if num not in self.objects:
                self.objects[num] = (body, end, gen)

    def setup_decryption(self) -> None:
        """Resolve the /Encrypt dict and validate the EMPTY user
        password (standard security handler: RC4 /V 1-2, /V 4 with
        the /AESV2 crypt filter — AES-128-CBC — or /V 5 /R 6 with
        /AESV3 — AES-256, PDF 2.0 Algorithm 2.A/2.B). On success
        every subsequent get_stream() call decrypts transparently;
        any other configuration (real password, non-Standard filter)
        raises ``encrypted_pdf`` — reference M11's password branch
        (services/document_service.py:394-424)."""
        from .pdf_crypt import check_user_password, file_key, r6_file_key

        m = re.search(rb"/Encrypt\s+(\d+)\s+(\d+)\s+R", self.raw)
        if not m:
            raise PdfError("encrypted_pdf",
                           "unresolvable /Encrypt reference")
        try:
            enc = self.get_object(int(m.group(1)))
        except PdfError:
            enc = None
        if not isinstance(enc, dict):
            raise PdfError("encrypted_pdf", "unreadable /Encrypt dict")
        v = self.resolve(enc.get("V", 0))
        r = self.resolve(enc.get("R", 2))
        o_entry = self.resolve(enc.get("O"))
        u_entry = self.resolve(enc.get("U"))
        p = self.resolve(enc.get("P", -1))
        length = self.resolve(enc.get("Length", 40))
        aes = False
        if (v, r) in ((4, 4), (5, 6)):
            # the stream crypt filter named by /StmF inside /CF must
            # match the version: /AESV2 (AES-128) for V4, /AESV3
            # (AES-256) for V5; /Identity or /V2(RC4) inside these
            # containers is rare enough to stay unsupported
            cf = self.resolve(enc.get("CF"))
            stmf = self.resolve(enc.get("StmF", "Identity"))
            cfm = None
            if isinstance(cf, dict):
                stdcf = self.resolve(cf.get(stmf if isinstance(stmf, str)
                                            else ""))
                if isinstance(stdcf, dict):
                    cfm = self.resolve(stdcf.get("CFM"))
            want = "AESV2" if v == 4 else "AESV3"
            if cfm != want:
                raise PdfError(
                    "encrypted_pdf",
                    f"unsupported V{v} crypt filter (CFM={cfm})")
            aes = True
        if (enc.get("Filter") != "Standard"
                or (v not in (1, 2) and not aes)
                or (r not in (2, 3) and not aes)
                or not isinstance(o_entry, bytes)
                or not isinstance(u_entry, bytes)
                or not isinstance(p, int)
                or not isinstance(length, int)):
            raise PdfError(
                "encrypted_pdf",
                f"unsupported security handler (V={v} R={r})")
        if (v, r) == (5, 6):
            # PDF 2.0 AES-256: empty-user-password validation +
            # file-key unwrap per Algorithm 2.A; the file key applies
            # to every stream DIRECTLY (no per-object derivation)
            ue_entry = self.resolve(enc.get("UE"))
            if not isinstance(ue_entry, bytes):
                raise PdfError("encrypted_pdf", "R6 without /UE")
            perms_entry = self.resolve(enc.get("Perms"))
            key6 = r6_file_key(
                u_entry, ue_entry,
                perms_entry=(perms_entry
                             if isinstance(perms_entry, bytes) else None),
                p=p)
            if key6 is None:
                raise PdfError("encrypted_pdf",
                               "non-empty user password required")
            self.enc_key = key6
            self.enc_aes = True
            self.enc_r6 = True
            return
        # first /ID element from the trailer (empty when absent — the
        # de-facto reader behavior for ID-less encrypted files)
        idm = re.search(rb"/ID\s*\[\s*<([0-9a-fA-F]*)>", self.raw)
        id0 = bytes.fromhex(idm.group(1).decode("ascii")) if idm else b""
        # R4 with /EncryptMetadata false appends 0xFFFFFFFF to the
        # Algorithm 2 MD5 input (spec step f); default is true
        em = self.resolve(enc.get("EncryptMetadata", True))
        key = file_key(o_entry, p, id0, r, length,
                       encrypt_metadata=bool(em))
        if not check_user_password(key, u_entry, r, id0):
            raise PdfError("encrypted_pdf",
                           "non-empty user password required")
        self.enc_key = key
        self.enc_aes = aes

    def resolve(self, v):
        if isinstance(v, _Ref):
            return self.get_object(v.num)
        return v

    def get_object(self, num: int):
        if num in self._cache:
            return self._cache[num]
        span = self.objects.get(num)
        if span is None:
            # not a top-level object: it may live inside a /ObjStm
            # object stream (PDF 1.5+ compressed-object layout)
            self._load_objstms()
            return self._cache.get(num)
        obj = _Lexer(self.raw, span[0]).parse()
        self._cache[num] = obj
        return obj

    def _load_objstms(self) -> None:
        """Decode every /Type /ObjStm stream once and register its
        embedded objects (PDF 1.5 compressed objects). Top-level
        definitions win; within/between streams, first definition wins
        (document order) — deterministic."""
        if self._objstm_loaded:
            return
        self._objstm_loaded = True
        hits = []
        for m in re.finditer(rb"/Type\s*/ObjStm\b", self.raw):
            for num, (s, e, _g) in self.objects.items():
                if s <= m.start() < e:
                    hits.append((s, num))
                    break
        for _s, num in sorted(hits):
            try:
                lex = _Lexer(self.raw, self.objects[num][0])
                sdict = lex.parse()
                n = self.resolve(sdict.get("N"))
                first = self.resolve(sdict.get("First"))
                if not isinstance(n, int) or not isinstance(first, int):
                    continue
                data = self.get_stream(num)
                header = data[:first].split()
                for i in range(min(n, len(header) // 2)):
                    onum = int(header[2 * i])
                    ooff = int(header[2 * i + 1])
                    if onum in self.objects or onum in self._cache:
                        continue
                    self._cache[onum] = _Lexer(data, first + ooff).parse()
            except (PdfError, ValueError):
                continue  # a broken stream loses its objects, not the doc

    def _all_object_nums(self) -> list[int]:
        self._load_objstms()
        return sorted(set(self.objects) | set(self._cache))

    def _stream_raw(self, num: int) -> tuple[dict, bytes]:
        """(stream dict, stream bytes after /Length trim + decryption
        but BEFORE filters) for object `num`."""
        span = self.objects.get(num)
        if span is None:
            raise PdfError("pdf_parse_error", f"missing stream object {num}")
        lex = _Lexer(self.raw, span[0])
        sdict = lex.parse()
        if not isinstance(sdict, dict):
            raise PdfError("pdf_parse_error", f"object {num} is not a stream")
        body = self.raw[lex.i:span[1]]
        sidx = body.find(b"stream")
        if sidx < 0:
            raise PdfError("pdf_parse_error", f"object {num} has no stream keyword")
        start = sidx + len(b"stream")
        if body.startswith(b"\r\n", start):
            start += 2
        elif body.startswith(b"\n", start):
            start += 1
        eidx = body.rfind(b"endstream")
        if eidx < 0 or eidx < start:
            raise PdfError("truncated_pdf", f"object {num}: endstream missing")
        data = body[start:eidx]
        # honor /Length when it is sane (guards trailing newline junk)
        length = self.resolve(sdict.get("Length"))
        if isinstance(length, int) and 0 <= length <= len(data):
            data = data[:length]
        # decryption is the OUTERMOST layer (spec: streams are
        # filter-encoded, then encrypted) — RC4 before filters; xref
        # streams are never encrypted by spec
        if self.enc_key is not None and sdict.get("Type") != "XRef":
            from .pdf_crypt import aes_stream_decrypt, object_key, rc4

            if getattr(self, "enc_aes", False):
                # R6 (AES-256): the FILE key decrypts directly
                # (Algorithm 1.A); R4 (/AESV2) derives a per-object key
                k = (self.enc_key if getattr(self, "enc_r6", False)
                     else object_key(self.enc_key, num, span[2],
                                     aes=True))
                try:
                    data = aes_stream_decrypt(k, data)
                except ValueError as e:
                    raise PdfError("encrypted_pdf",
                                   f"AES stream: {e}") from e
            else:
                data = rc4(object_key(self.enc_key, num, span[2]), data)
        return sdict, data

    def get_stream(self, num: int) -> bytes:
        """Decoded stream bytes for object `num`."""
        return self._unfilter(*self._stream_raw(num))

    def _unfilter(self, sdict: dict, data: bytes) -> bytes:
        """Run a stream's /Filter chain over its raw bytes."""
        filt = self.resolve(sdict.get("Filter"))
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        parms = self.resolve(sdict.get("DecodeParms", sdict.get("DP")))
        parms_list = (parms if isinstance(parms, list)
                      else [parms] * max(1, len(filters)))
        for fi, f in enumerate(filters):
            parm = self.resolve(parms_list[fi]) if fi < len(parms_list) else None
            if f == "FlateDecode":
                try:
                    data = zlib.decompress(data)
                except zlib.error as e:
                    raise PdfError("truncated_pdf", f"flate error: {e}") from e
                data = _apply_predictor(data, parm, self)
            elif f == "LZWDecode":
                data = lzw_decode(data)
                data = _apply_predictor(data, parm, self)
            elif f == "ASCIIHexDecode":
                hexs = data.split(b">", 1)[0].translate(
                    None, b" \t\n\r\x0b\x0c")
                if len(hexs) % 2:
                    hexs += b"0"
                try:
                    data = bytes.fromhex(hexs.decode("ascii"))
                except (ValueError, UnicodeDecodeError) as e:
                    raise PdfError(
                        "pdf_parse_error", f"bad ASCIIHex data: {e}"
                    ) from e
            elif f == "ASCII85Decode":
                data = ascii85_decode(data)
            elif f == "RunLengthDecode":
                data = runlength_decode(data)
            elif f is None:
                pass
            else:
                raise PdfError("unsupported_pdf_filter", f"filter {f}")
        return data

    def tounicode(self, num: int) -> dict[int, str]:
        """The parsed /ToUnicode CMap stream ``num`` ({} when it is
        unreadable or maps nothing), parsed once per document."""
        cmap = self._cmaps.get(num)
        if cmap is None:
            try:
                cmap = parse_tounicode(self.get_stream(num))
            except PdfError:
                cmap = {}
            self._cmaps[num] = cmap
        return cmap

    def pages(self) -> list[dict]:
        """Page dicts in document order via the /Root → /Pages → /Kids walk;
        falls back to object-number order over /Type /Page objects."""
        root = None
        # trailer dict(s): scan for /Root
        for m in re.finditer(rb"trailer", self.raw):
            try:
                lex = _Lexer(self.raw, m.end())
                tdict = lex.parse()
                if isinstance(tdict, dict) and "Root" in tdict:
                    root = self.resolve(tdict["Root"])
                    break
            except PdfError:
                continue
        if root is None:
            # xref-stream PDFs have no `trailer` keyword (/Root lives
            # in the /Type /XRef stream dict); scan every object —
            # including /ObjStm-embedded ones — for the catalog
            for num in self._all_object_nums():
                obj = self.get_object(num)
                if isinstance(obj, dict) and obj.get("Type") == "Catalog":
                    root = obj
                    break
        out: list[dict] = []
        if isinstance(root, dict):
            pages_obj = self.resolve(root.get("Pages"))
            self._walk_pages(pages_obj, out, depth=0)
        if not out:
            for num in self._all_object_nums():
                obj = self.get_object(num)
                if isinstance(obj, dict) and obj.get("Type") == "Page":
                    out.append(obj)
        if not out:
            raise PdfError("pdf_parse_error", "no pages found")
        return out

    def _walk_pages(self, node, out: list, depth: int) -> None:
        if depth > 64 or not isinstance(node, dict):
            return
        if node.get("Type") == "Page":
            out.append(node)
            return
        kids = self.resolve(node.get("Kids"))
        if isinstance(kids, list):
            for k in kids:
                self._walk_pages(self.resolve(k), out, depth + 1)


# ----------------------------------------------------- ToUnicode CMaps

_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.S)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.S)
_HEXPAIR_RE = re.compile(rb"<([0-9a-fA-F]+)>\s*<([0-9a-fA-F]+)>")
_RANGE_RE = re.compile(
    rb"<([0-9a-fA-F]+)>\s*<([0-9a-fA-F]+)>\s*(?:<([0-9a-fA-F]+)>|\[(.*?)\])",
    re.S,
)
_HEXONE_RE = re.compile(rb"<([0-9a-fA-F]+)>")


def _utf16_hex(h: bytes) -> str:
    try:
        return bytes.fromhex(h.decode("ascii")).decode("utf-16-be")
    except (ValueError, UnicodeDecodeError):
        return ""


def parse_tounicode(data: bytes) -> dict[int, str]:
    """/ToUnicode CMap stream → {2-byte CID code: unicode str}.

    Covers bfchar pairs and bfrange in both forms (incrementing dst,
    per-code dst array) — the subset every real-world ToUnicode CMap
    uses (reference gets this via MinerU's font layer)."""
    out: dict[int, str] = {}
    for m in _BFRANGE_RE.finditer(data):
        for rm in _RANGE_RE.finditer(m.group(1)):
            lo = int(rm.group(1), 16)
            hi = int(rm.group(2), 16)
            if hi < lo or hi - lo > 0x10000:
                continue
            if rm.group(3) is not None:
                base = _utf16_hex(rm.group(3))
                if len(base) == 1:
                    b0 = ord(base)
                    for c in range(lo, hi + 1):
                        out[c] = chr(b0 + (c - lo))
                elif base:  # multi-char dst: last code unit increments
                    head, last = base[:-1], ord(base[-1])
                    for c in range(lo, hi + 1):
                        out[c] = head + chr(last + (c - lo))
            else:
                dsts = _HEXONE_RE.findall(rm.group(4) or b"")
                for c, d in zip(range(lo, hi + 1), dsts):
                    out[c] = _utf16_hex(d)
    for m in _BFCHAR_RE.finditer(data):
        for pm in _HEXPAIR_RE.finditer(m.group(1)):
            out[int(pm.group(1), 16)] = _utf16_hex(pm.group(2))
    return out


# sentinel: Type0/Identity-H font WITHOUT a ToUnicode map — decode
# 2-byte codes as Unicode code points directly (CID==Unicode holds for
# the common simple-subset case; the alternative is dropping all text)
IDENTITY_CMAP = "identity"


def page_font_cmaps(doc: "_PdfDoc", pdict: dict) -> dict:
    """Resource-name → ToUnicode map (or IDENTITY_CMAP sentinel) for a
    page's Type0/CID fonts. Simple (latin-1, single-byte) fonts are
    absent from the result — the interpreter keeps its default
    decoding for them."""
    out: dict = {}
    res = doc.resolve(pdict.get("Resources"))
    if not isinstance(res, dict):
        return out
    fonts = doc.resolve(res.get("Font"))
    if not isinstance(fonts, dict):
        return out
    for name, fref in fonts.items():
        fd = doc.resolve(fref)
        if not isinstance(fd, dict) or fd.get("Subtype") != "Type0":
            continue
        tu = fd.get("ToUnicode")
        if isinstance(tu, _Ref):
            cmap = doc.tounicode(tu.num)
            if cmap:  # an empty/unrecognized CMap must not shadow
                out[name] = cmap  # the Identity-H fallback below
                continue
        if doc.resolve(fd.get("Encoding")) in ("Identity-H", "Identity-V"):
            out[name] = IDENTITY_CMAP
    return out


# Math-font families whose glyph runs mark FORMULA regions: the
# PostScript Symbol base font, the Computer Modern math set
# (CMMI/CMSY/CMEX — TeX's italic/symbol/extension faces), the AMS
# symbol fonts (MSAM/MSBM), and anything self-describing as a Math
# face. Untagged PDFs carry no structural math marker, but the FONT
# is a real-world-reliable one: TeX/LaTeX output (the overwhelming
# source of formula-bearing PDFs) always switches to these faces
# inside math mode. Reference parity: MinerU's formula leg
# (formula_enable=True, services/document_service.py:240-246).
def _is_math_basefont(name: str) -> bool:
    n = name.split("+")[-1]  # drop the ABCDEF+ subset prefix
    return (n == "Symbol"
            or n.startswith(("CMMI", "CMSY", "CMEX", "MSAM", "MSBM"))
            or "Math" in n)


def page_math_fonts(doc: "_PdfDoc", pdict: dict) -> set:
    """Resource names of a page's math fonts (by /BaseFont family —
    see _is_math_basefont). Runs shown in these fonts become
    Block("formula", …) in _page_blocks."""
    out: set = set()
    res = doc.resolve(pdict.get("Resources"))
    if not isinstance(res, dict):
        return out
    fonts = doc.resolve(res.get("Font"))
    if not isinstance(fonts, dict):
        return out
    for name, fref in fonts.items():
        fd = doc.resolve(fref)
        if not isinstance(fd, dict):
            continue
        base = doc.resolve(fd.get("BaseFont"))
        if isinstance(base, str) and _is_math_basefont(base):
            out.add(name)
    return out


# -------------------------------------------------- content-stream engine

# One content-stream token per match, named by its group: the first
# byte decides the kind, so the alternatives never compete. ``>>``,
# ``]`` and bytes that start no token (whitespace, ``%``, stray
# delimiters) are skipped by the search.
_TOKEN_RE = re.compile(
    rb"""
      ([-+]?\d*\.?\d+)                # 1 number
    | ([A-Za-z'"][A-Za-z0-9*'"]*)     # 2 operator
    | /([^\s/<>\[\]()%]*)             # 3 name
    | \(([^()\\]*)\)                  # 4 literal string, no escape or nesting
    | (\(|<<|<|\[)                    # 5 string, dict, hex string or array
    """,
    re.VERBOSE,
)


def _mu(v: float) -> int:
    """Convert user-space units to integer milli-units."""
    return round(v * 1000)  # round() of a float or int is an int


class _ContentInterp:
    """Executes the supported text/path/XObject operator subset of one
    page's content stream, collecting text items, ruled lines and
    figure placements."""

    def __init__(self, page_idx: int, seq_base: int,
                 font_cmaps: "dict[str, dict[int, str]] | None" = None,
                 math_fonts: "set | None" = None) -> None:
        self.page = page_idx
        self.items: list[_TextItem] = []
        self.figs: list[_FigItem] = []
        self.geom = _PageGeom()
        self.seq = seq_base
        self.font_cmaps = font_cmaps or {}
        self.math_fonts = math_fonts or set()
        self.math = False  # active font is a math face
        self.cmap: dict[int, str] | None = None  # active Type0 font map
        # text state
        self.size = 0.0
        self.leading = 0.0
        self.tx = 0.0
        self.ty = 0.0
        self.lx = 0.0  # line start x
        # graphics state
        self.cm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        self.cm_stack: list[tuple] = []
        self.path_rects: list[tuple] = []
        self.path_segs: list[tuple] = []
        self.cur_pt: tuple | None = None

    # -- helpers
    def _show(self, s: bytes) -> None:
        if self.cmap is not None:
            # Type0/CID font: 2-byte codes through the ToUnicode map
            cm = self.cmap
            n = len(s) >> 1
            codes = struct.unpack(f">{n}H", s[:2 * n])
            if not isinstance(cm, dict):  # IDENTITY_CMAP sentinel
                # no ToUnicode: treat CIDs as Unicode code points
                # (skip NUL and surrogates)
                txt = "".join([
                    chr(c) for c in codes
                    if c and not 0xD800 <= c <= 0xDFFF])
            else:
                get = cm.get
                txt = "".join([get(c, "") for c in codes])
        else:
            txt = s.decode("latin-1")
        if txt:
            size = self.size
            adv = 0.5 * size * len(txt)  # 0.5 em/char, deterministic
            self.items.append(_TextItem(
                self.page, round(self.tx * 1000), round(self.ty * 1000),
                round(size * 1000), txt, self.seq, round(adv * 1000),
                self.math))
            self.seq += 1
            self.tx += adv

    def _newline(self) -> None:
        self.ty -= self.leading
        self.tx = self.lx

    def _commit_path(self, stroke: bool) -> None:
        for (x, y, w, h) in self.path_rects:
            # thin rects act as lines; full rects contribute 4 edges
            x0, x1 = _mu(x), _mu(x + w)
            y0, y1 = _mu(y), _mu(y + h)
            if abs(y1 - y0) <= 2000:  # ≤2pt tall → horizontal line
                ym = (y0 + y1) // 2
                self.geom.hlines.append((ym, min(x0, x1), max(x0, x1)))
            elif abs(x1 - x0) <= 2000:
                xm = (x0 + x1) // 2
                self.geom.vlines.append((xm, min(y0, y1), max(y0, y1)))
            else:
                self.geom.hlines.append((y0, min(x0, x1), max(x0, x1)))
                self.geom.hlines.append((y1, min(x0, x1), max(x0, x1)))
                self.geom.vlines.append((x0, min(y0, y1), max(y0, y1)))
                self.geom.vlines.append((x1, min(y0, y1), max(y0, y1)))
        for (ax, ay, bx, by) in self.path_segs:
            if ay == by:
                self.geom.hlines.append((_mu(ay), min(_mu(ax), _mu(bx)), max(_mu(ax), _mu(bx))))
            elif ax == bx:
                self.geom.vlines.append((_mu(ax), min(_mu(ay), _mu(by)), max(_mu(ay), _mu(by))))
        self.path_rects.clear()
        self.path_segs.clear()
        self.cur_pt = None

    def run(self, data: bytes) -> None:
        stack: list = []
        push = stack.append
        ops = _OPS
        nums: dict[bytes, int | float] = {}
        pos = 0
        while True:
            for m in _TOKEN_RE.finditer(data, pos):
                k = m.lastindex
                if k == 1:
                    tok = m[1]
                    v = nums.get(tok)
                    if v is None:
                        v = nums[tok] = float(tok) if b"." in tok else int(tok)
                    push(v)
                elif k == 2:
                    op = ops.get(m[2])
                    if op is not None:
                        op(self, stack)
                    stack.clear()
                elif k == 3:
                    push(m[3].decode("latin-1"))
                elif k == 4:
                    push(m[4])
                else:
                    pos = self._operand(data, m, push)
                    break
            else:
                # an un-stroked path left at the end is dropped
                return

    @staticmethod
    def _operand(data: bytes, m, push) -> int:
        """Push the operand the lexer reads from token ``m``; returns
        the index after it."""
        tok = m[5]
        if tok == b"(":
            v, i = _literal_string(data, m.end())
        elif tok == b"<":
            v, i = _hex_string(data, m.end())
        else:
            lex = _Lexer(data, m.start())
            if tok == b"<<":
                v = lex._parse_dict()
            else:
                # arrays in content streams: TJ operand
                try:
                    v = lex._parse_array()
                except PdfError:
                    push([])
                    return m.end()
            i = lex.i
        push(v)
        return i

    # -- operators: one method each, looked up in _OPS by the operator
    # bytes; an operator with too few operands is a no-op, and so is
    # every operator outside _OPS (color, line width, marked content)
    def _Tf(self, st: list) -> None:
        if len(st) >= 2:
            self.size = _num(st[-1])
            fname = st[-2]
            self.cmap = (self.font_cmaps.get(fname)
                         if isinstance(fname, str) else None)
            self.math = fname in self.math_fonts

    def _TL(self, st: list) -> None:
        if st:
            self.leading = _num(st[-1])

    def _Td(self, st: list) -> None:
        if len(st) >= 2:
            self.lx += _num(st[-2])
            self.ty += _num(st[-1])
            self.tx = self.lx

    def _TD(self, st: list) -> None:
        if len(st) >= 2:
            self.leading = -_num(st[-1])
            self._Td(st)

    def _Tm(self, st: list) -> None:
        if len(st) >= 6:
            self.lx = _num(st[-2])
            self.ty = _num(st[-1])
            self.tx = self.lx
            # scale factor from matrix a-component affects effective size
            a = _num(st[-6])
            if a not in (0.0, 1.0):
                self.size = self.size * abs(a)

    def _Tstar(self, st: list) -> None:
        self._newline()

    def _Tj(self, st: list) -> None:
        if st and isinstance(st[-1], bytes):
            self._show(st[-1])

    def _quote(self, st: list) -> None:
        if st:
            self._newline()
            self._Tj(st)

    def _dquote(self, st: list) -> None:
        if len(st) >= 3:
            self._newline()
            self._Tj(st)

    def _TJ(self, st: list) -> None:
        if st and isinstance(st[-1], list):
            self._show(b"".join(p for p in st[-1] if isinstance(p, bytes)))

    def _BT(self, st: list) -> None:
        self.tx = self.ty = self.lx = 0.0

    def _cm(self, st: list) -> None:
        if len(st) >= 6:
            self.cm = tuple(_num(v) for v in st[-6:])

    def _q(self, st: list) -> None:
        self.cm_stack.append(self.cm)

    def _Q(self, st: list) -> None:
        if self.cm_stack:
            self.cm = self.cm_stack.pop()

    def _re(self, st: list) -> None:
        if len(st) >= 4:
            self.path_rects.append(
                (_num(st[-4]), _num(st[-3]), _num(st[-2]), _num(st[-1])))

    def _m(self, st: list) -> None:
        if len(st) >= 2:
            self.cur_pt = (_num(st[-2]), _num(st[-1]))

    def _l(self, st: list) -> None:
        if len(st) >= 2:
            pt = (_num(st[-2]), _num(st[-1]))
            if self.cur_pt is not None:
                self.path_segs.append(self.cur_pt + pt)
            self.cur_pt = pt

    def _paint(self, st: list) -> None:
        self._commit_path(stroke=True)

    def _n(self, st: list) -> None:
        self.path_rects.clear()
        self.path_segs.clear()
        self.cur_pt = None

    def _Do(self, st: list) -> None:
        _a, _b, _c, d, e, f = self.cm
        xname = st[-1] if st and isinstance(st[-1], str) else ""
        self.figs.append(
            _FigItem(self.page, _mu(e), _mu(f + abs(d)), self.seq, xname)
        )
        self.seq += 1


def _num(v) -> float:
    """A numeric operand (anything else reads as 0)."""
    return float(v) if isinstance(v, (int, float)) else 0.0


_C = _ContentInterp
_OPS = {
    b"Tf": _C._Tf, b"TL": _C._TL, b"Td": _C._Td, b"TD": _C._TD,
    b"Tm": _C._Tm, b"T*": _C._Tstar, b"Tj": _C._Tj, b"'": _C._quote,
    b'"': _C._dquote, b"TJ": _C._TJ, b"BT": _C._BT, b"cm": _C._cm,
    b"q": _C._q, b"Q": _C._Q, b"re": _C._re, b"m": _C._m, b"l": _C._l,
    b"n": _C._n, b"Do": _C._Do,
    **dict.fromkeys((b"S", b"s", b"f", b"F", b"f*", b"B", b"B*", b"b",
                     b"b*"), _C._paint),
}
del _C


# ---------------------------------------------------------- layout → blocks


def _cluster_lines(items: list[_TextItem], tol: int) -> list[list[_TextItem]]:
    """Group text items into lines by y (descending), tolerance in
    milli-units; items within a line sorted by (x, seq)."""
    if not items:
        return []
    srt = sorted(items, key=lambda t: (-t.y, t.x, t.seq))
    lines: list[list[_TextItem]] = [[srt[0]]]
    for it in srt[1:]:
        if abs(lines[-1][0].y - it.y) <= tol:
            lines[-1].append(it)
        else:
            lines.append([it])
    for ln in lines:
        ln.sort(key=lambda t: (t.x, t.seq))
    return lines


def _in_bbox(it: _TextItem, bbox: tuple) -> bool:
    x0, y0, x1, y1 = bbox
    return x0 <= it.x <= x1 and y0 <= it.y <= y1


def _detect_tables(geom: _PageGeom) -> list[tuple]:
    """Ruled-grid detection: ≥3 horizontal lines + ≥2 vertical lines
    whose extents overlap → one table bbox (x0,y0,x1,y1) plus the
    sorted grid coordinates. Returns list of (bbox, row_ys, col_xs)."""
    if len(geom.hlines) < 3 or len(geom.vlines) < 2:
        return []
    # cluster h-line ys and v-line xs (they may repeat per cell)
    hys = sorted({y for (y, _x0, _x1) in geom.hlines})
    vxs = sorted({x for (x, _y0, _y1) in geom.vlines})
    if len(hys) < 3 or len(vxs) < 2:
        return []
    x0 = min(x0_ for (_y, x0_, _x1) in geom.hlines)
    x1 = max(x1_ for (_y, _x0, x1_) in geom.hlines)
    y0, y1 = hys[0], hys[-1]
    bbox = (x0 - 1000, y0 - 1000, x1 + 1000, y1 + 1000)
    return [(bbox, hys, vxs)]


def _table_to_block(items: list[_TextItem], page: int,
                    bbox_rows_cols: tuple) -> Block:
    bbox, row_ys, col_xs = bbox_rows_cols
    # rows between consecutive h-lines, top→bottom (descending y); (lo, hi)
    row_bounds = list(zip(row_ys[:-1][::-1], row_ys[1:][::-1]))
    # columns between consecutive v-lines (borders enclose all cells)
    col_bounds = list(zip(col_xs[:-1], col_xs[1:]))
    grid: list[list[list[str]]] = [
        [[] for _ in col_bounds] for _ in row_bounds
    ]
    for it in sorted(items, key=lambda t: (-t.y, t.x, t.seq)):
        for ri, (lo, hi) in enumerate(row_bounds):
            if lo <= it.y <= hi:
                for ci, (cl, cr) in enumerate(col_bounds):
                    if cl <= it.x < cr:
                        grid[ri][ci].append(it.text)
                        break
                break
    rows = [[" ".join(c).strip() for c in r] for r in grid]
    return Block("table", render_table(rows), page)


def _split_column_items(items: list[_TextItem], gap_milli: int) -> list[list[_TextItem]]:
    """Two-column detection over raw items (before line clustering).

    Merge the x-intervals [x, x+w) of all items; if the widest gap
    between merged intervals is ≥ gap_milli with items on both sides,
    split at the gap center → [left_items, right_items] (column-major
    reading order). No item may span the gutter (a full-width line
    closes the gap and forces single-column — supported-profile
    limitation, documented in SURVEY.md §7.4).
    """
    if len(items) < 4:
        return [items]
    ivals = sorted((it.x, it.x + max(it.w, 1)) for it in items)
    merged: list[list[int]] = [list(ivals[0])]
    for a, b in ivals[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    best_gap, split_at = 0, None
    for (a0, a1), (b0, b1) in zip(merged, merged[1:]):
        if b0 - a1 > best_gap:
            best_gap, split_at = b0 - a1, (a1 + b0) // 2
    if split_at is None or best_gap < gap_milli:
        return [items]
    left = [it for it in items if it.x < split_at]
    right = [it for it in items if it.x >= split_at]
    if len(left) < 2 or len(right) < 2:
        return [items]
    return [left, right]


def _page_blocks(interp: _ContentInterp, cfg: ExtractConfig) -> list[Block]:
    page = interp.page
    tol = cfg.pdf_line_tol_milli
    tables = _detect_tables(interp.geom)
    table_items: list[_TextItem] = []
    flow_items: list[_TextItem] = interp.items
    if tables:
        flow_items = []
        for it in interp.items:
            if any(_in_bbox(it, t[0]) for t in tables):
                table_items.append(it)
            else:
                flow_items.append(it)

    # heading threshold: median body size (integer milli-units)
    sizes = sorted(it.size for it in flow_items)
    median = sizes[len(sizes) // 2] if sizes else 0

    def is_heading_size(s: int) -> bool:
        return median > 0 and s * 100 > median * cfg.pdf_heading_ratio_pct

    # column-major segmentation over raw items, then per-column lines
    bands = _split_column_items(flow_items, cfg.pdf_column_gap_milli)
    # each line as (text, largest size, y, shown only in math faces)
    band_lines = [
        [(" ".join([it.text for it in ln]).strip(),
          max([it.size for it in ln]), ln[0].y, all([it.math for it in ln]))
         for ln in _cluster_lines(b, tol)]
        for b in bands]

    # heading level = rank of distinct heading sizes on this page (1 = largest)
    head_sizes = sorted(
        {size for lines in band_lines for _t, size, _y, _m in lines
         if is_heading_size(size)},
        reverse=True,
    )
    size_to_level = {s: min(i + 1, 6) for i, s in enumerate(head_sizes)}

    def lines_to_blocks(lns: list[tuple]) -> list[tuple[int, Block]]:
        """Merge consecutive same-size lines into paragraphs; larger
        fonts become headings. Returns (y_anchor, Block) pairs."""
        out: list[tuple[int, Block]] = []
        para: list[str] = []
        para_y = 0
        prev_y: int | None = None
        prev_size: int | None = None

        def flush() -> None:
            nonlocal para
            if para:
                out.append((para_y, Block("para", " ".join(para).strip(), page)))
                para = []

        for text, lsize, y, math in lns:
            if not text:
                continue
            if math:
                # a line shown ENTIRELY in math faces is a formula
                # region (display math; mixed lines stay paragraphs —
                # inline math shares its line with text)
                flush()
                out.append((y, Block("formula", "$$ " + text + " $$",
                                     page)))
            elif is_heading_size(lsize):
                flush()
                lvl = size_to_level.get(lsize, 1)
                out.append((y, Block("heading", "#" * lvl + " " + text, page)))
            else:
                gap_big = prev_y is not None and (prev_y - y) > 2 * max(
                    lsize, prev_size or lsize
                )
                if para and (gap_big or (prev_size is not None and lsize != prev_size)):
                    flush()
                if not para:
                    para_y = y
                para.append(text)
            prev_y = y
            prev_size = lsize
        flush()
        return out

    positioned: list[tuple[int, int, Block]] = []  # (band, -y, block)
    for band, lines in enumerate(band_lines):
        for y, b in lines_to_blocks(lines):
            positioned.append((band, -y, b))
    # figures and tables anchor in band 0 at their top-y
    for i, f in enumerate(sorted(interp.figs, key=lambda f: (-f.y, f.x, f.seq))):
        positioned.append((0, -f.y, Block("figure", f"![](page{page}-fig{i})", page)))
    for t in tables:
        positioned.append((0, -t[0][3], _table_to_block(table_items, page, t)))
    positioned.sort(key=lambda t: (t[0], t[1]))
    return [b for _band, _ny, b in positioned if b.text]


# ------------------------------------------------------------- entry point


from .html_extract import ExtractResult  # same result shape for both legs


def _image_xobject_bytes(doc: _PdfDoc, num: int) -> bytes | None:
    """Payload bytes for an /Subtype /Image XObject: decoded pixels
    for the filterless/Flate/predictor chain; the RAW (decrypted)
    stream for entropy-coded images (DCT/JPX — the bytes ARE a
    JPEG/JP2 file, the standard extract-as-is move; reference writes
    these to output/images, services/document_service.py:290-304).
    None for non-images or undecodable streams — an image failure
    never fails the document."""
    try:
        sdict, data = doc._stream_raw(num)
        if doc.resolve(sdict.get("Subtype")) != "Image":
            return None
        filt = doc.resolve(sdict.get("Filter"))
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        if any(f in ("DCTDecode", "JPXDecode") for f in filters):
            return data
        return doc._unfilter(sdict, data)
    except (PdfError, ValueError):
        return None


def extract_pdf(raw: bytes, cfg: ExtractConfig = DEFAULT_CONFIG) -> ExtractResult:
    """bytes → (text_md, spans, images) for a PDF payload. Never raises."""
    try:
        # spec-mandated trailer: a payload without %%EOF is truncated.
        # Checked up front so every truncation classifies the same way
        # (deterministic error_kind regardless of where the cut lands).
        if not raw.rstrip(b" \t\r\n\x00").endswith(b"%%EOF"):
            raise PdfError("truncated_pdf", "missing %%EOF trailer")
        # encrypted-document handling (reference M11 semantics:
        # _analyze_mineru_python_error's password-protected branch,
        # services/document_service.py:394-424). The /Encrypt key
        # lives in the trailer (or XRef-stream dict); a whole-payload
        # token scan is the deterministic trigger — a false positive
        # needs the literal token outside any compressed stream, which
        # no sane writer emits. An /Encrypt document is NOT
        # automatically an error: the common real-world class has an
        # EMPTY user password (only owner permissions restricted) and
        # is fully readable — setup_decryption() validates it and arms
        # transparent RC4 stream decryption; genuinely passworded or
        # AES documents raise encrypted_pdf there.
        doc = _PdfDoc(raw)
        if b"/Encrypt" in raw:
            doc.setup_decryption()
        pages = doc.pages()
        blocks: list[Block] = []
        images: list[dict] = []
        image_bytes: dict[int, bytes | None] = {}  # XObject num -> payload
        seq_base = 0
        for pidx, pdict in enumerate(pages):
            # /Contents is a stream, an array of streams, or a reference
            # to either
            contents = pdict.get("Contents")
            if isinstance(contents, _Ref):
                target = doc.resolve(contents)
                if isinstance(target, list):
                    contents = target
            parts = contents if isinstance(contents, list) else [contents]
            datas = [doc.get_stream(c.num) for c in parts
                     if isinstance(c, _Ref)]
            interp = _ContentInterp(pidx, seq_base,
                                    page_font_cmaps(doc, pdict),
                                    page_math_fonts(doc, pdict))
            for d in datas:
                interp.run(d)
            seq_base = interp.seq
            blocks.extend(_page_blocks(interp, cfg))
            # embedded-image payloads, named to match the figure
            # placeholder blocks (same sort + enumerate as
            # _page_blocks): ![](pageP-figI) ↔ images[{name, data}]
            res_dict = doc.resolve(pdict.get("Resources"))
            xobjs = (doc.resolve(res_dict.get("XObject"))
                     if isinstance(res_dict, dict) else None)
            if isinstance(xobjs, dict):
                for i, fg in enumerate(sorted(
                        interp.figs, key=lambda f: (-f.y, f.x, f.seq))):
                    ref = xobjs.get(fg.xname)
                    if not isinstance(ref, _Ref):
                        continue
                    if ref.num not in image_bytes:
                        image_bytes[ref.num] = _image_xobject_bytes(
                            doc, ref.num)
                    data = image_bytes[ref.num]
                    if data is not None:
                        images.append(
                            {"name": f"page{pidx}-fig{i}", "data": data})
        text_md, spans = render(blocks)
        return ExtractResult(True, text_md, spans, images=tuple(
            (im["name"], im["data"]) for im in images))
    except PdfError as e:
        return ExtractResult(False, "", [], e.kind, str(e)[:200])
    except Exception as e:  # noqa: BLE001 — row-level capture (M12 semantics)
        return ExtractResult(False, "", [], "pdf_parse_error", str(e)[:200])


# ----------------------------------------------------------- predictors
#
# /DecodeParms /Predictor for Flate/LZW streams (spec 7.4.4.4): 2 =
# TIFF horizontal differencing, 10-15 = PNG row filters (None/Sub/Up/
# Average/Paeth, tag byte per row). Predictor-12 (PNG Up) xref and
# content streams are the default output of modern PDF writers —
# VERDICT r2 #2 flagged these as error rows. The matching encoder
# lives in sources/corpus.py; round-trip pinned by tests.


_LOW8 = (0xFF).__and__


def _running_sums(row: bytes, bpp: int) -> bytes:
    """row[j] += row[j − bpp] mod 256, left to right (PNG Sub, TIFF 2):
    a prefix sum of each of the bpp interleaved byte lanes."""
    if bpp == 1:
        return bytes(map(_LOW8, accumulate(row)))
    out = bytearray(row)
    for lane in range(min(bpp, len(row))):
        out[lane::bpp] = bytes(map(_LOW8, accumulate(row[lane::bpp])))
    return out


def _apply_predictor(data: bytes, parm, doc=None) -> bytes:
    if not isinstance(parm, dict):
        return data
    res = doc.resolve if doc is not None else (lambda v: v)
    pred = res(parm.get("Predictor", 1))
    if not isinstance(pred, int) or pred <= 1:
        return data
    colors = res(parm.get("Colors", 1)) or 1
    bpc = res(parm.get("BitsPerComponent", 8)) or 8
    columns = res(parm.get("Columns", 1)) or 1
    bpp = max(1, (int(colors) * int(bpc) + 7) // 8)
    rowlen = (int(columns) * int(colors) * int(bpc) + 7) // 8
    if rowlen <= 0:
        return data
    if pred == 2:  # TIFF horizontal differencing
        if bpc != 8:
            raise PdfError("unsupported_pdf_filter",
                           f"TIFF predictor with bpc={bpc}")
        return b"".join(_running_sums(data[r0:r0 + rowlen], bpp)
                        for r0 in range(0, len(data), rowlen))
    if pred < 10 or pred > 15:
        raise PdfError("unsupported_pdf_filter", f"predictor {pred}")
    out = bytearray()
    prev = bytearray(rowlen)
    i, n = 0, len(data)
    while i < n:
        tag = data[i]
        row = bytearray(data[i + 1:i + 1 + rowlen])
        i += 1 + rowlen
        rl = len(row)
        if tag == 0:  # None
            pass
        elif tag == 1:  # Sub
            row = _running_sums(row, bpp)
        elif tag == 2:  # Up
            for j in range(rl):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif tag == 3:  # Average
            for j in range(rl):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
        elif tag == 4:  # Paeth
            for j in range(rl):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                # |p − a|, |p − b|, |p − c| for p = a + b − c
                da, db, dc = abs(b - c), abs(a - c), abs(a + b - c - c)
                row[j] = (row[j] + (a if da <= db and da <= dc
                                    else b if db <= dc else c)) & 0xFF
        else:
            raise PdfError("pdf_parse_error", f"bad PNG predictor tag {tag}")
        out += row
        if rl == rowlen:
            prev = row
        else:  # short last row
            prev = row + prev[rl:]
    return bytes(out)


# --------------------------------------------------------------- LZW codec
#
# PDF LZWDecode (spec 7.4.4): 9→12-bit growing codes, Clear=256,
# EOD=257, EarlyChange=1 (code length bumps one code early). The
# matching encoder lives in sources/corpus.py's generator; the
# round-trip and fixture tests pin both ends.


_A85_BAD_RE = re.compile(rb"[^!-u]")
_A85_BIAS = 33 * (85 ** 4 + 85 ** 3 + 85 ** 2 + 85 + 1)  # '!' is digit 0


def _a85_groups(chars: bytes, out: bytearray) -> None:
    """Append the 4-byte values of ``chars``, whole 5-digit groups."""
    it = iter(chars)
    vals = [((((a * 85 + b) * 85 + c) * 85 + d) * 85 + e) - _A85_BIAS
            for a, b, c, d, e in zip(it, it, it, it, it)]
    if vals and max(vals) > 0xFFFFFFFF:
        raise PdfError("pdf_parse_error", "ASCII85: int too big to convert")
    out += struct.pack(f">{len(vals)}I", *vals)


def ascii85_decode(data: bytes) -> bytes:
    """PDF ASCII85Decode (spec 7.4.3): base-85 groups, ``z`` shorthand
    for four zero bytes, ``~>`` EOD, whitespace ignored; a trailing
    partial group of n chars yields n−1 bytes. PDF data may carry a
    ``<~`` opener (Adobe convention) — stripped if present. The digits
    between two ``z`` decode a list of groups at a time; an error is
    the first one in stream order (a bad byte, a ``z`` inside a group,
    a group above 2^32 − 1, a lone trailing digit)."""
    body = data.split(b"~>", 1)[0]
    if body.startswith(b"<~"):
        body = body[2:]
    body = body.translate(None, b" \t\r\n\f\x00")
    out = bytearray()
    runs = body.split(b"z")
    for ri, run in enumerate(runs):
        bad = _A85_BAD_RE.search(run)
        if bad:
            _a85_groups(run[:bad.start() - bad.start() % 5], out)
            raise PdfError("pdf_parse_error",
                           f"ASCII85: bad byte {run[bad.start()]}")
        full = len(run) - len(run) % 5
        _a85_groups(run[:full], out)
        tail = run[full:]
        if ri < len(runs) - 1:
            if tail:
                raise PdfError("pdf_parse_error",
                               "ASCII85: z inside group")
            out += b"\x00\x00\x00\x00"
        elif tail:
            if len(tail) == 1:
                raise PdfError("pdf_parse_error",
                               "ASCII85: lone trailing char")
            _a85_groups(tail + b"u" * (5 - len(tail)), out)
            del out[len(tail) - 5:]
    return bytes(out)


def runlength_decode(data: bytes) -> bytes:
    """PDF RunLengthDecode (spec 7.4.5): length byte L — L ≤ 127 →
    copy L+1 literal bytes; L ≥ 129 → repeat next byte 257−L times;
    L == 128 → EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        ell = data[i]
        i += 1
        if ell == 128:
            break
        if ell <= 127:
            chunk = data[i:i + ell + 1]
            if len(chunk) != ell + 1:
                raise PdfError("truncated_pdf", "RunLength: cut literal run")
            out += chunk
            i += ell + 1
        else:
            if i >= n:
                raise PdfError("truncated_pdf", "RunLength: cut repeat run")
            out += bytes([data[i]]) * (257 - ell)
            i += 1
    return bytes(out)


def lzw_decode(data: bytes) -> bytes:
    CLEAR, EOD = 256, 257
    base = [bytes([i]) for i in range(256)] + [b"", b""]
    table = list(base)
    ntab = len(table)
    codelen = 9
    mask = (1 << codelen) - 1
    prev: bytes | None = None
    out: list[bytes] = []
    bitbuf = 0
    bitcnt = 0
    for b in data:
        # fewer than codelen ≤ 12 bits are pending, and a byte adds 8:
        # each byte completes at most one code
        bitbuf = ((bitbuf & 0x7FF) << 8) | b
        bitcnt += 8
        if bitcnt < codelen:
            continue
        bitcnt -= codelen
        code = (bitbuf >> bitcnt) & mask
        if code == CLEAR:
            table = list(base)
            ntab = len(table)
            codelen = 9
            mask = (1 << codelen) - 1
            prev = None
            continue
        if code == EOD:
            break
        if prev is None:
            if code >= ntab:
                raise PdfError("truncated_pdf", "bad LZW start code")
            entry = table[code]
        elif code < ntab:
            entry = table[code]
            table.append(prev + entry[:1])
            ntab += 1
        elif code == ntab:
            entry = prev + prev[:1]
            table.append(entry)
            ntab += 1
        else:
            raise PdfError("truncated_pdf", f"bad LZW code {code}")
        out.append(entry)
        prev = entry
        # EarlyChange=1: width grows when the NEXT append would
        # reach the limit
        if ntab >= mask and codelen < 12:
            codelen += 1
            mask = (1 << codelen) - 1
    return b"".join(out)
