"""Unit tests: HTML main-content extraction heuristics."""

from documentconvert_ray.functions.html_extract import extract_html


def md(html: str) -> str:
    res = extract_html(html.encode())
    assert res.ok, res.error
    return res.text_md


def test_heading_and_para():
    out = md("<html><body><h1>Title Here</h1><p>Some paragraph text.</p></body></html>")
    assert out == "# Title Here\n\nSome paragraph text."


def test_nav_pruned():
    out = md(
        "<body><nav><a href='/a'>aaa</a><a href='/b'>bbb</a></nav>"
        "<p>Real content paragraph.</p></body>"
    )
    assert "aaa" not in out and "Real content paragraph." in out


def test_boilerplate_class_pruned():
    out = md(
        "<body><div class='sidebar'>link soup everywhere</div>"
        "<div id='comments'><p>spam comment</p></div>"
        "<p>Main article text here.</p></body>"
    )
    assert "link soup" not in out and "spam comment" not in out
    assert "Main article text here." in out


def test_link_density_pruned():
    # container whose text is mostly links → dropped
    links = "".join(f"<a href='/{i}'>link text {i}</a> " for i in range(10))
    out = md(f"<body><div>{links}</div><p>Genuine body paragraph here.</p></body>")
    assert "link text 3" not in out
    assert "Genuine body paragraph here." in out


def test_inline_markup():
    out = md("<body><p>Mix of <b>bold</b> and <i>italic</i> and <code>code</code> spans.</p></body>")
    assert "**bold**" in out and "*italic*" in out and "`code`" in out


def test_link_kept_in_content():
    out = md("<body><p>Read the <a href='/docs'>documentation</a> for details.</p></body>")
    assert "[documentation](/docs)" in out


def test_entities():
    out = md("<body><p>Fish &amp; chips &#x4e2d; &lt;tag&gt; text.</p></body>")
    assert "Fish & chips 中 <tag> text." in out


def test_lists():
    out = md("<body><ul><li>alpha item</li><li>beta item</li></ul>"
             "<ol><li>first item</li><li>second item</li></ol></body>")
    assert "- alpha item" in out and "- beta item" in out
    assert "1. first item" in out and "2. second item" in out


def test_table():
    out = md(
        "<body><table><tr><th>Name</th><th>Val</th></tr>"
        "<tr><td>a</td><td>1</td></tr><tr><td>b</td><td>2</td></tr></table></body>"
    )
    assert "| Name | Val |" in out
    assert "| --- | --- |" in out
    assert "| a | 1 |" in out


def test_pre_code_verbatim():
    out = md("<body><pre>x = 1\n  y = 2</pre></body>")
    assert "```\nx = 1\n  y = 2\n```" in out


def test_script_style_dropped():
    out = md("<body><script>var x=1;</script><style>.a{}</style>"
             "<p>Visible text only.</p></body>")
    assert "var x" not in out and ".a{}" not in out
    assert "Visible text only." in out


def test_unclosed_tags_recovered():
    out = md("<body><p>First unclosed para<p>Second paragraph here.</body>")
    assert out == "First unclosed para\n\nSecond paragraph here."


def test_implicit_close_attaches_to_one_parent():
    """An omitted </p>, </li>, </td> or </tr> closes the open element:
    the next sibling belongs to the parent only, so no element renders
    its siblings' text and no text is emitted twice."""
    assert md("<div><p>Alpha paragraph text here.<p>Bravo paragraph "
              "text here.</div>") == (
        "Alpha paragraph text here.\n\nBravo paragraph text here.")
    items = "- First item text\n\n- Second item text\n\n- Third item text"
    assert md("<body><ul><li>First item text<li>Second item text"
              "<li>Third item text</ul></body>") == items
    assert md("<body><ul><li>First item text</li><li>Second item text"
              "</li><li>Third item text</li></ul></body>") == items
    table = "|  |  |\n| --- | --- |\n| a1 | b1 |\n| a2 | b2 |"
    assert md("<body><table><tr><td>a1<td>b1<tr><td>a2<td>b2</table>"
              "</body>") == table
    assert md("<body><table><tr><td>a1</td><td>b1</td></tr><tr><td>a2"
              "</td><td>b2</td></tr></table></body>") == table


def test_misnested_inline():
    out = md("<body><p>text <b>bold <i>both</b> stray</i> tail endings.</p></body>")
    assert "bold" in out and "both" in out


def test_empty_body_ok():
    res = extract_html(b"<html><body></body></html>")
    assert res.ok and res.text_md == "" and res.spans == []


def test_all_boilerplate_ok_empty():
    res = extract_html(
        b"<body><nav><a href='/x'>x</a><a href='/y'>y</a></nav>"
        b"<footer>c 2024 <a href='/t'>terms</a></footer></body>"
    )
    assert res.ok and res.text_md == ""


def test_spans_slice_exactly():
    res = extract_html(
        b"<body><h1>Head</h1><p>Paragraph one content.</p>"
        b"<ul><li>item one</li></ul></body>"
    )
    assert res.ok
    kinds = [s["kind"] for s in res.spans]
    assert kinds == ["heading", "para", "list_item"]
    for s in res.spans:
        seg = res.text_md[s["start"]:s["end"]]
        assert seg and seg == seg.strip()
    # non-overlapping & ordered
    for a, b in zip(res.spans, res.spans[1:]):
        assert a["end"] <= b["start"]


def test_blockquote():
    out = md("<body><blockquote>Quoted wisdom text.</blockquote></body>")
    assert "> Quoted wisdom text." in out


def test_fast_parser_matches_stdlib_parser():
    """The regex scanner must produce the IDENTICAL rendered output to
    the stdlib-HTMLParser tree builder for every generated doc,
    including all adversarial variants (unclosed/mis-nested tags,
    entities, encodings) — the guard for the fast path."""
    from documentconvert_ray.config import DEFAULT_CONFIG
    from documentconvert_ray.functions.decode import decode_bytes
    from documentconvert_ray.functions.html_extract import (
        _emit_blocks,
        parse_html,
        parse_html_stdlib,
        prune,
    )
    from documentconvert_ray.functions.markdown import render
    from documentconvert_ray.sources.corpus import doc_row

    def md_via(parser, raw):
        text, _ = decode_bytes(raw)
        p = prune(parser(text), DEFAULT_CONFIG)
        blocks = []
        if p is not None:
            _emit_blocks(p, blocks, DEFAULT_CONFIG)
        return render(blocks)

    from documentconvert_ray.functions.sniff import GZIP_MAGIC, gunzip_payload

    checked = 0
    for i in range(1500):
        row = doc_row(i)
        if "/html/" not in row["url"]:
            continue
        raw = row["html"]
        if raw[:2] == GZIP_MAGIC:  # transport wrapper, unwrapped pre-parse
            raw, err = gunzip_payload(raw)
            assert err == ""
        assert md_via(parse_html, raw) == md_via(
            parse_html_stdlib, raw), f"doc {i}"
        checked += 1
    assert checked > 1000

    # adversarial constructs the generator never emits (review r2):
    # uppercase attrs, unterminated comments/decls/PIs/end tags,
    # empty-comment form, end tags with junk attributes
    cases = [
        b'<body><div CLASS="menu"><a href="/a">junk link</a></div>'
        b'<p>Real content paragraph here ok.</p></body>',
        b'<body><p>keep this text ok</p><!-- lost tail goes on</body></html>',
        b'<body><p>before</p><!--><p>after empty comment form</p></body>',
        b'<body><p>x</p></ bogus-no-gt',
        b'<body><p>y</p><?php unterminated',
        b'<body><p>z</p><!DOCTYPE junk-no-gt',
        b'<body><div Id="comments"><p>pruned commentary</p></div>'
        b'<p>kept body paragraph text.</p></body>',
        b'<body><P CLASS="x">Upper tag</P><p data-ID="7">mixed</p></body>',
        b'<body><p>close with junk</p class="x"><p>next para text.</p></body>',
        b'<body><p>t</p></><p>after empty endtag.</p></body>',
        b'<body><p>unterminated start <a href="x',
        b'<body><p>amp tail &amp; <!-- c',
        b'<body><p>ws comment close</p><!-- note -- ><p>tail text.</p>',
        b'<body><p>x<!-- a -- > b --><p>more after.</p></body>',
        b'<body><p>nul endtag</p\x00><p>next paragraph here.</p></body>',
    ]
    for c in cases:
        assert md_via(parse_html, c) == md_via(parse_html_stdlib, c), c
