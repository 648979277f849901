"""HTML main-content extraction: tokenize → DOM → density heuristics → Markdown.

From-scratch re-expression of the *semantics* the reference delegates
to its conversion core (reference services/document_service.py:187-392
routes documents into MinerU's layout analysis; our HTML leg replaces
that with classic boilerplate-stripping heuristics per the north_rule:
"HTML boilerplate strip ... text-density/link-density DOM heuristics,
tag-tree pruning").

Determinism rules (SURVEY.md §7.4): integer-only scores, fixed prune
tables, stable document-order traversal, fixed whitespace policy.
Failures yield (ok=False, error_kind) rather than raising — the
reference's error-artifact semantics (services/document_service.py:
347-383): a bad row must never abort the pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

from ..config import DEFAULT_CONFIG, ExtractConfig
from .decode import decode_bytes
from .markdown import Block, render

# ---------------------------------------------------------------- DOM model

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# content of these is dropped entirely (never text)
DROP_CONTENT_TAGS = frozenset(
    "script style noscript template svg iframe head title object canvas".split()
)

# structural boilerplate: pruned outright regardless of density
BOILERPLATE_TAGS = frozenset("nav header footer aside form button select".split())

# class/id token blocklist (fixed; lowercase token match, not substring)
BOILERPLATE_TOKENS = frozenset(
    (
        "nav navbar menu topbar header footer sidebar aside breadcrumb "
        "comment comments cookie cookies banner ad ads advert promo social "
        "share sharing related pagination widget copyright legal"
    ).split()
)

BLOCK_TAGS = frozenset(
    (
        "p div section article main body h1 h2 h3 h4 h5 h6 ul ol li table "
        "pre blockquote figure figcaption tr td th thead tbody dl dt dd"
    ).split()
)

INLINE_MD = {
    "b": ("**", "**"),
    "strong": ("**", "**"),
    "i": ("*", "*"),
    "em": ("*", "*"),
    "code": ("`", "`"),
}

_WS_RE = re.compile(r"\s+")
_TOKEN_SPLIT_RE = re.compile(r"[\s_\-]+")


@dataclass
class Node:
    tag: str
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)  # Node | str


class _TreeBuilder(HTMLParser):
    """Error-tolerant tree builder over stdlib HTMLParser events.

    Mis-nested end tags: pop up to the nearest matching open tag if one
    exists in the stack, else ignore — deterministic recovery for the
    adversarial fixtures (unclosed / mis-nested tags, FIXTURES.md §2).
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#root")
        self.stack: list[Node] = [self.root]
        self._drop_depth = 0

    def handle_starttag(self, tag: str, attrs: list) -> None:
        if self._drop_depth:
            if tag in DROP_CONTENT_TAGS and tag not in VOID_TAGS:
                self._drop_depth += 1
            return
        if tag in DROP_CONTENT_TAGS:
            if tag not in VOID_TAGS:
                self._drop_depth = 1
            return
        adict = {}
        for k, v in attrs:
            if k not in adict:
                adict[k] = v if v is not None else ""
        node = Node(tag, adict)
        # implicit close: p/li/td/th/tr cannot nest within themselves,
        # so close the open one first and attach to its parent
        if tag in ("p", "li", "tr", "td", "th", "option"):
            for i in range(len(self.stack) - 1, 0, -1):
                if self.stack[i].tag == tag:
                    del self.stack[i:]
                    break
        self.stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list) -> None:
        if self._drop_depth or tag in DROP_CONTENT_TAGS:
            return
        adict = {}
        for k, v in attrs:
            if k not in adict:
                adict[k] = v if v is not None else ""
        self.stack[-1].children.append(Node(tag, adict))

    def handle_endtag(self, tag: str) -> None:
        if self._drop_depth:
            if tag in DROP_CONTENT_TAGS:
                self._drop_depth -= 1
            return
        if tag in VOID_TAGS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # no matching open tag → ignore stray end tag

    def handle_data(self, data: str) -> None:
        if self._drop_depth or not data:
            return
        self.stack[-1].children.append(data)


def parse_html_stdlib(text: str) -> Node:
    """Reference tree builder on stdlib HTMLParser — kept as the
    differential-test baseline for the fast scanner below."""
    tb = _TreeBuilder()
    tb.feed(text)
    tb.close()
    return tb.root


# ------------------------------------------------------- fast tokenizer
#
# stdlib html.parser was 73% of the HTML leg's CPU (the leg is ~70% of
# the whole extraction job). This scanner replicates the subset of its
# tokenization the tree builder consumes — start/end/self-closing tags
# with tolerant attributes, entity conversion in data and attribute
# values, comment/declaration/PI skipping, raw-text (CDATA) mode for
# script/style, literal '<' recovery — and drives the SAME handler
# methods, so the tree (and therefore the output) is identical.
# tests/test_html_extract.py diff-tests it against parse_html_stdlib
# over the full corpus generator, including every adversarial variant.

_START_TAG_RE = re.compile(
    r"<([a-zA-Z][-.a-zA-Z0-9:_]*)"
    r"((?:\s+[^\s/>][^\s/>=]*(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"
    r"\s*(/?)>"
)
_ATTR_RE = re.compile(
    r"([^\s/>][^\s/>=]*)(\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
_END_TAG_RE = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
# html.parser's tagfind_tolerant shape: name directly after '</',
# junk before '>' discarded (e.g. '</p class="x">' still closes p)
_END_NAME_RE = re.compile(r"</([a-zA-Z][^\t\n\r\f />\x00]*)")


def _bogus_tail(tb: _TreeBuilder, text: str, lt: int) -> int:
    """html.parser's incomplete-construct fallback: emit raw data up to
    (and including) the next '>', else up to the next '<', else just
    the '<' itself; parsing then continues. No entity conversion
    (stdlib emits this chunk without charref handling)."""
    k = text.find(">", lt + 1)
    if k >= 0:
        tb.handle_data(text[lt:k + 1])
        return k + 1
    k = text.find("<", lt + 1)
    if k >= 0:
        tb.handle_data(text[lt:k])
        return k
    tb.handle_data(text[lt:lt + 1])
    return lt + 1


_CHARREF_RE = re.compile(r"&")
_COMMENT_CLOSE_RE = re.compile(r"--\s*>")  # stdlib's commentclose


def _unesc(s: str) -> str:
    if "&" in s:
        from html import unescape

        return unescape(s)
    return s


def _fast_feed(text: str, tb: _TreeBuilder) -> None:
    n = len(text)
    pos = 0
    find = text.find
    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            if pos < n:
                tb.handle_data(_unesc(text[pos:]))
            return
        if lt > pos:
            tb.handle_data(_unesc(text[pos:lt]))
        nxt = text[lt + 1] if lt + 1 < n else ""
        if nxt == "/":
            m = _END_TAG_RE.match(text, lt)
            if m:
                tb.handle_endtag(m.group(1).lower())
                pos = m.end()
                continue
            m = _END_NAME_RE.match(text, lt)
            gt = find(">", lt + 1)
            if m and gt >= 0:
                # junk before '>' discarded, tag still closes
                tb.handle_endtag(m.group(1).lower())
                pos = gt + 1
            elif gt >= 0:
                pos = gt + 1  # bogus end tag ('</ x>') → skipped
            else:
                pos = _bogus_tail(tb, text, lt)
            continue
        if nxt == "!":
            if text.startswith("<!--", lt):
                # stdlib closes comments on '--\s*>' (whitespace allowed
                # before the '>'), not just the literal '-->'
                cm = _COMMENT_CLOSE_RE.search(text, lt + 4)
                if cm is None:  # unterminated comment → bogus-data rule
                    pos = _bogus_tail(tb, text, lt)
                else:
                    pos = cm.end()
            else:
                gt = find(">", lt)
                pos = gt + 1 if gt >= 0 else _bogus_tail(tb, text, lt)
            continue
        if nxt == "?":
            gt = find(">", lt)
            pos = gt + 1 if gt >= 0 else _bogus_tail(tb, text, lt)
            continue
        if not nxt.isalpha():
            tb.handle_data("<")
            pos = lt + 1
            continue
        m = _START_TAG_RE.match(text, lt)
        if not m:
            tb.handle_data("<")  # malformed start tag → literal '<'
            pos = lt + 1
            continue
        tag = m.group(1).lower()
        attrs: list = []
        raw_attrs = m.group(2)
        # only class/id (boilerplate tokens) and href (links) are ever
        # read downstream — skip attribute parsing when none can occur
        # (case-insensitive: attribute NAMES are lowercased on parse,
        # so CLASS=/Id= must not bypass the prefilter)
        if raw_attrs and tag != "a":
            low = raw_attrs.lower()
            if "class" not in low and "id" not in low:
                raw_attrs = ""
        if raw_attrs:
            for am in _ATTR_RE.finditer(raw_attrs):
                name = am.group(1).lower()
                if am.group(2) is None:
                    attrs.append((name, None))
                else:
                    v = am.group(3)
                    if v is None:
                        v = am.group(4)
                    if v is None:
                        v = am.group(5) or ""
                    attrs.append((name, _unesc(v)))
        pos = m.end()
        if m.group(3):
            tb.handle_startendtag(tag, attrs)
            continue
        tb.handle_starttag(tag, attrs)
        if tag in ("script", "style"):
            # raw-text mode: scan to the matching close tag; content is
            # data WITHOUT entity conversion (html.parser cdata mode)
            cm = re.compile(rf"</\s*{tag}", re.IGNORECASE).search(text, pos)
            if cm:
                if cm.start() > pos:
                    tb.handle_data(text[pos:cm.start()])
                em = _END_TAG_RE.match(text, cm.start())
                if em:
                    tb.handle_endtag(em.group(1).lower())
                    pos = em.end()
                else:
                    gt = find(">", cm.start())
                    pos = n if gt < 0 else gt + 1
            else:
                tb.handle_data(text[pos:])
                pos = n


def parse_html(text: str) -> Node:
    tb = _TreeBuilder()
    _fast_feed(text, tb)
    return tb.root


# ---------------------------------------------------------- density scoring


def _is_boiler_attr(node: Node) -> bool:
    blob = (node.attrs.get("class", "") + " " + node.attrs.get("id", "")).lower()
    if not blob.strip():
        return False
    for tok in _TOKEN_SPLIT_RE.split(blob):
        if tok in BOILERPLATE_TOKENS:
            return True
    return False


def _collapsed_len(s: str) -> int:
    """len of whitespace-collapsed-and-stripped s (C-level split/join).
    str.split() and _WS_RE (PYTHON \\s+) share python's Unicode
    whitespace set, so the two collapse paths in this module agree with
    each other; this is internal HTML text normalization, NOT the
    RE2/DuckDB ``\\s`` class — token-counting oracles must go through
    textstats.tokens() instead (see textstats._WS_SPLIT_RE). The
    corpus-wide differential test against the stdlib parse guards the
    agreement here."""
    return len(" ".join(s.split()))


def _subtree_stats(node, memo: dict) -> tuple[int, int, int]:
    """One bottom-up pass computing (text_chars, link_chars, tag_count)
    for every Node — prune() then reads the memo instead of re-walking
    each nested container's subtree (quadratic on deep div chains).
    link_chars counts text under an <a> at-or-below the node itself
    (ancestor links don't count), matching a fresh per-node walk."""
    if isinstance(node, str):
        return _collapsed_len(node), 0, 0
    t = l = 0
    tags = 1
    for c in node.children:
        if type(c) is str:  # inline the leaf case (half of all calls)
            t += _collapsed_len(c)
        else:
            ct, cl, ctags = _subtree_stats(c, memo)
            t += ct
            l += cl
            tags += ctags
    if node.tag == "a":
        l = t
    memo[id(node)] = (t, l, tags)
    return t, l, tags


def prune(node: Node, cfg: ExtractConfig, _memo: dict | None = None) -> Node | None:
    """Tag-tree pruning: drop boilerplate subtrees, keep content.

    Rules (in order, integer arithmetic only):
    1. structural boilerplate tags → drop;
    2. class/id token blocklist → drop;
    3. containers (div/section/ul/ol/table) whose link density exceeds
       cfg.link_density_pct → drop;
    4. containers with many tags but text density below
       cfg.text_density_pct (text_chars*100 < tag_count*text_density_pct
       scaled) → drop.

    Subtree stats come from one bottom-up pre-pass (`_subtree_stats`);
    decisions use the ORIGINAL (pre-pruning) subtree, as before.
    """
    if _memo is None:
        _memo = {}
        _subtree_stats(node, _memo)
    if node.tag in BOILERPLATE_TAGS:
        return None
    if _is_boiler_attr(node):
        return None
    if node.tag in ("div", "section", "ul", "ol", "table", "article"):
        t, l, tags = _memo[id(node)]
        if t >= cfg.min_block_chars and l * 100 > t * cfg.link_density_pct:
            return None
        # low text density: lots of markup, little text (menus, widgets)
        if tags >= 5 and t * 100 < tags * cfg.text_density_pct * 5:
            return None
    kept = []
    for c in node.children:
        if isinstance(c, str):
            kept.append(c)
        else:
            p = prune(c, cfg, _memo)
            if p is not None:
                kept.append(p)
    node.children = kept
    return node


# ------------------------------------------------------------- rendering


def _inline_md(node, out: list) -> None:
    """Render inline content into `out` (list of str pieces)."""
    if isinstance(node, str):
        out.append(node)
        return
    tag = node.tag
    if tag == "br":
        out.append(" ")
        return
    if tag == "img":
        return  # images in HTML leg: dropped (no image column in input_hint)
    if tag == "a":
        inner: list = []
        for c in node.children:
            _inline_md(c, inner)
        txt = _collapse("".join(inner))
        href = node.attrs.get("href", "")
        if txt:
            out.append(f"[{txt}]({href})")
        return
    wrap = INLINE_MD.get(tag)
    if wrap:
        inner = []
        for c in node.children:
            _inline_md(c, inner)
        txt = _collapse("".join(inner))
        if txt:
            out.append(wrap[0] + txt + wrap[1])
        return
    for c in node.children:
        _inline_md(c, out)


def _collapse(s: str) -> str:
    return _WS_RE.sub(" ", s).strip()


def _inline_text(node) -> str:
    out: list = []
    _inline_md(node, out)
    # pieces carry their own whitespace; concatenate then collapse
    return _collapse("".join(out))


def _raw_text(node) -> str:
    """Verbatim text (for <pre>): no whitespace collapsing."""
    if isinstance(node, str):
        return node
    return "".join(_raw_text(c) for c in node.children)


def _cell_text(node) -> str:
    return _inline_text(node).replace("|", "\\|")


def _render_table(node: Node, blocks: list[Block], cfg: ExtractConfig) -> None:
    rows: list[list[str]] = []
    has_header = False

    def collect_rows(n: Node) -> None:
        nonlocal has_header
        for c in n.children:
            if isinstance(c, str):
                continue
            if c.tag == "tr":
                cells = [
                    _cell_text(cc)
                    for cc in c.children
                    if not isinstance(cc, str) and cc.tag in ("td", "th")
                ]
                if cells:
                    if not rows and any(
                        not isinstance(cc, str) and cc.tag == "th" for cc in c.children
                    ):
                        has_header = True
                    rows.append(cells)
            elif c.tag in ("thead", "tbody", "tfoot", "table"):
                collect_rows(c)

    collect_rows(node)
    if not rows:
        return
    width = max(len(r) for r in rows)
    norm = [r + [""] * (width - len(r)) for r in rows]
    lines = []
    header = norm[0] if has_header else [""] * width
    body = norm[1:] if has_header else norm
    lines.append("| " + " | ".join(header) + " |")
    lines.append("| " + " | ".join(["---"] * width) + " |")
    for r in body:
        lines.append("| " + " | ".join(r) + " |")
    blocks.append(Block("table", "\n".join(lines)))


def _emit_blocks(node: Node, blocks: list[Block], cfg: ExtractConfig,
                 list_ctx: list | None = None) -> None:
    """Walk the pruned tree in document order, emitting markdown blocks."""
    pending_inline: list = []

    def flush_pending() -> None:
        if pending_inline:
            txt = _collapse(" ".join(pending_inline))
            pending_inline.clear()
            if len(txt) >= cfg.min_block_chars:
                blocks.append(Block("para", txt))

    for c in node.children:
        if isinstance(c, str):
            if c.strip():
                pending_inline.append(_collapse(c))
            continue
        tag = c.tag
        if tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            flush_pending()
            txt = _inline_text(c)
            if txt:
                blocks.append(Block("heading", "#" * int(tag[1]) + " " + txt))
        elif tag == "p" or tag == "blockquote" or tag == "figcaption" or tag == "dd" or tag == "dt":
            flush_pending()
            txt = _inline_text(c)
            if len(txt) >= cfg.min_block_chars:
                blocks.append(Block("para", ("> " + txt) if tag == "blockquote" else txt))
        elif tag in ("ul", "ol"):
            flush_pending()
            idx = 1
            for li in c.children:
                if isinstance(li, str) or li.tag != "li":
                    continue
                txt = _inline_text(li)
                if not txt:
                    continue
                if tag == "ol":
                    blocks.append(Block("list_item", f"{idx}. {txt}"))
                    idx += 1
                else:
                    blocks.append(Block("list_item", f"- {txt}"))
        elif tag == "table":
            flush_pending()
            _render_table(c, blocks, cfg)
        elif tag == "pre":
            flush_pending()
            raw = _raw_text(c).strip("\n")
            if raw.strip():
                blocks.append(Block("code", "```\n" + raw + "\n```"))
        elif tag in ("div", "section", "article", "main", "body", "html", "figure", "dl"):
            flush_pending()
            _emit_blocks(c, blocks, cfg)
        elif tag in ("span", "a", "b", "strong", "i", "em", "code", "u", "small", "sup", "sub", "br", "img"):
            piece: list = []
            _inline_md(c, piece)
            s = _collapse("".join(piece))
            if s:
                pending_inline.append(s)
        else:
            # unknown container: recurse (content-preserving default)
            flush_pending()
            _emit_blocks(c, blocks, cfg)
    flush_pending()


# ------------------------------------------------------------- entry point


@dataclass(frozen=True)
class ExtractResult:
    ok: bool
    text_md: str
    spans: list
    error_kind: str = ""
    error: str = ""
    # embedded-image payloads ((name, bytes), ...) — PDF XObjects today;
    # names match the markdown figure placeholders (![](pageP-figI))
    images: tuple = ()


# embedded data-URI images (<img src="data:image/png;base64,...">) —
# harvested with a raw-text pre-pass, deliberately INDEPENDENT of the
# boilerplate pruning (a real pipeline keeps image payloads even when
# the surrounding block is pruned; reference M5 semantics move images
# to output/images regardless of layout). Caps turn hostile payloads
# into skips, never errors or OOM.
_DATA_IMG_RE = re.compile(
    r'src="data:image/(png|jpeg|gif|bmp);base64,([A-Za-z0-9+/=]*)"')
MAX_EMBED_IMAGES = 16
MAX_EMBED_B64 = 6 * 1024 * 1024  # ~4.5 MB decoded per image


def _harvest_data_images(text: str) -> tuple:
    import base64

    out: list = []
    for m in _DATA_IMG_RE.finditer(text):
        if len(out) >= MAX_EMBED_IMAGES:
            break
        b64 = m.group(2)
        if not b64 or len(b64) > MAX_EMBED_B64:
            continue
        try:
            data = base64.b64decode(b64, validate=True)
        except Exception:  # noqa: BLE001 — malformed base64: skip
            continue
        out.append((f"embed-{len(out)}.{m.group(1)}", data))
    return tuple(out)


def extract_html(raw: bytes, cfg: ExtractConfig = DEFAULT_CONFIG) -> ExtractResult:
    """bytes → (text_md, spans, images) for an HTML payload. Never raises."""
    try:
        text, _enc = decode_bytes(raw)
        root = parse_html(text)
        pruned = prune(root, cfg)
        blocks: list[Block] = []
        if pruned is not None:
            _emit_blocks(pruned, blocks, cfg)
        text_md, spans = render(blocks)
        return ExtractResult(True, text_md, spans,
                             images=_harvest_data_images(text))
    except Exception as e:  # noqa: BLE001 — row-level error capture (M12)
        return ExtractResult(False, "", [], "html_parse_error", str(e)[:200])
