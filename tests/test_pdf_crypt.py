"""Standard-security-handler decryption (empty user password).

Two INDEPENDENT implementations are cross-checked: the extract side
(functions/pdf_crypt.py) against the corpus encrypt side
(sources/corpus.py _pdf_enc_*), with RC4 itself pinned to a published
known-answer vector so a shared misreading of the spec cannot cancel
out silently.
"""

import hashlib
import re

from documentconvert_ray.functions import pdf_crypt as pc
from documentconvert_ray.functions.pdf_extract import extract_pdf
from documentconvert_ray.sources import corpus as C


def test_rc4_known_answer():
    # classic published RC4 test vectors (key/plaintext/ciphertext)
    vectors = [
        (b"Key", b"Plaintext", bytes.fromhex("BBF316E8D940AF0AD3")),
        (b"Wiki", b"pedia", bytes.fromhex("1021BF0420")),
        (b"Secret", b"Attack at dawn",
         bytes.fromhex("45A01F645FC35B383552544B9BF5")),
    ]
    for key, pt, ct in vectors:
        assert pc.rc4(key, pt) == ct
        assert C._rc4_xor(key, pt) == ct  # corpus twin, same vectors
        assert pc.rc4(key, ct) == pt  # symmetric


def test_crypt_sides_agree():
    """file key / U entry / object key: corpus encrypt side ==
    pdf_crypt decrypt side, R2, R3 and R4."""
    o = bytes(range(32))
    id0 = bytes(range(100, 116))
    for rev, bits in ((2, 40), (3, 128), (4, 128)):
        k_enc = C._pdf_enc_file_key(o, -44, id0, rev, bits)
        k_dec = pc.file_key(o, -44, id0, rev, bits)
        assert k_enc == k_dec
        u = C._pdf_enc_user_entry(k_enc, rev, id0)
        assert pc.check_user_password(k_dec, u, rev, id0)
        # a WRONG key must not validate
        bad = pc.file_key(o, -45, id0, rev, bits)
        assert not pc.check_user_password(bad, u, rev, id0)
        for num, gen in ((1, 0), (77, 0), (300, 1)):
            assert (C._pdf_enc_object_key(k_enc, num, gen)
                    == pc.object_key(k_dec, num, gen))


def test_aes_known_answer_and_round_trip():
    """FIPS-197 C.1 (AES-128) and C.3 (AES-256) pin BOTH directions of
    functions/aes.py. The corpus generator encrypts with the same
    forward cipher, so these vectors are what keep a shared bug from
    round-tripping silently; CBC then round-trips the generator's PDF
    layout at every padding length."""
    from documentconvert_ray.functions import aes as A

    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    for key, ct in (
        (bytes(range(16)), "69c4e0d86a7b0430d8cdb78070b4c55a"),
        (bytes(range(32)), "8ea2b7ca516745bfeafc49904b496089"),
    ):
        ct = bytes.fromhex(ct)
        assert A.encrypt_block(A.expand_key(key), pt) == ct
        assert A.cbc_encrypt_nopad(key, bytes(16), pt) == ct
        assert A.decrypt_block(A.expand_key(key), ct) == pt
    key = bytes(range(16))
    iv = bytes(range(16))
    for n in (0, 1, 15, 16, 17, 100):
        data = bytes((7 * i + 3) & 0xFF for i in range(n))
        enc = C._aes_cbc_encrypt_pdf(key, data, iv)
        assert len(enc) % 16 == 0 and enc[:16] == iv
        assert A.cbc_decrypt_pdf(key, enc) == data
    # corrupted padding must refuse, not return garbage
    bad = bytearray(C._aes_cbc_encrypt_pdf(key, b"x" * 20, iv))
    bad[-1] ^= 0xFF
    try:
        A.cbc_decrypt_pdf(key, bytes(bad))
        raise AssertionError("bad padding accepted")
    except ValueError:
        pass


def test_aes_object_key_salt():
    """Algorithm 1's AES branch appends "sAlT" — the AES object key
    must differ from the RC4 one and match the corpus twin's inline
    derivation."""
    import hashlib

    key = bytes(range(16))
    for num in (5, 77):
        k_rc4 = pc.object_key(key, num, 0)
        k_aes = pc.object_key(key, num, 0, aes=True)
        assert k_rc4 != k_aes
        expect = hashlib.md5(
            key + num.to_bytes(3, "little") + (0).to_bytes(2, "little")
            + b"sAlT").digest()[:16]
        assert k_aes == expect


def _pdf_classes(limit: int = 4000):
    """Corpus pdf docs bucketed by encryption class."""
    out = {"pw": [], "empty": [], "plain": []}
    for doc_id in range(limit):
        rr = C._rng(doc_id, C.SEED + 99)
        roll = rr.random()
        if not (0.88 <= roll < 0.96):
            continue
        payload, _naive, _lang = C.make_pdf(doc_id)
        if not payload.rstrip(b" \t\r\n\x00").endswith(b"%%EOF"):
            continue
        if b"/Encrypt" not in payload:
            out["plain"].append((doc_id, payload))
        elif b"/U <" + b"11" * 32 + b">" in payload:
            out["pw"].append((doc_id, payload))
        else:
            out["empty"].append((doc_id, payload))
    return out


def test_corpus_encrypted_classes():
    cls = _pdf_classes()
    assert cls["pw"] and cls["empty"]
    for _doc_id, payload in cls["pw"]:
        res = extract_pdf(payload)
        assert not res.ok and res.error_kind == "encrypted_pdf"
    seen = set()
    for doc_id, payload in cls["empty"]:
        res = extract_pdf(payload)
        assert res.ok and res.text_md, (doc_id, res.error_kind)
        v16 = hashlib.md5(f"r6sel-{doc_id}".encode()).digest()[0] % 16
        seen.add(3 if v16 == 14 else v16 % 3)
    # RC4-40/R2, RC4-128/R3, AES-128/R4 AND AES-256/R6 all exercised
    assert seen == {0, 1, 2, 3}


def test_decrypted_text_matches_plaintext_twin():
    """Manually strip the encryption from an RC4-empty corpus doc
    (decrypt every stream, drop /Encrypt+/ID from the trailer) and
    assert the extractor yields byte-identical markdown for both —
    proves decryption changes nothing but the wire bytes."""
    cls = _pdf_classes()
    checked = 0
    # the manual strip below is RC4-wire surgery; AES twins are
    # covered by test_aes_plaintext_twin's constructed document
    rc4_docs = [(d, p) for d, p in cls["empty"]
                if b"/AESV2" not in p and b"/AESV3" not in p]
    for doc_id, payload in rc4_docs[:6]:
        # recover the file key exactly as the extractor does
        m = re.search(rb"/Encrypt\s+(\d+)\s+0\s+R", payload)
        idm = re.search(rb"/ID\s*\[\s*<([0-9a-fA-F]*)>", payload)
        id0 = bytes.fromhex(idm.group(1).decode())
        encm = re.search(
            rb"/Filter /Standard /V (\d) /R (\d) /Length (\d+) "
            rb"/O <([0-9a-fA-F]+)> /U <([0-9a-fA-F]+)> /P (-?\d+)",
            payload)
        rev = int(encm.group(2))
        bits = int(encm.group(3))
        o = bytes.fromhex(encm.group(4).decode())
        p = int(encm.group(6))
        key = pc.file_key(o, p, id0, rev, bits)
        # decrypt every stream in place
        plain = bytearray(payload)
        for om in re.finditer(rb"(\d+)\s+0\s+obj\b", payload):
            num = int(om.group(1))
            end = payload.find(b"endobj", om.end())
            body = payload[om.end():end]
            sidx = body.find(b">>\nstream\n")
            if sidx < 0 or b"/Type /XRef" in body[:sidx]:
                continue
            start = sidx + len(b">>\nstream\n")
            eidx = body.rfind(b"\nendstream")
            data = pc.rc4(pc.object_key(key, num, 0), body[start:eidx])
            abs_start = om.end() + start
            plain[abs_start:abs_start + (eidx - start)] = data
        # drop the /Encrypt reference so the twin parses as plaintext
        enc_num = m.group(1)
        plain = bytes(plain).replace(
            b" /Encrypt " + enc_num + b" 0 R", b"")
        res_enc = extract_pdf(payload)
        res_plain = extract_pdf(plain)
        assert res_enc.ok and res_plain.ok, (doc_id, res_plain.error_kind)
        assert res_enc.text_md == res_plain.text_md, doc_id
        checked += 1
    assert checked >= 2


def test_aes_plaintext_twin():
    """A constructed one-page document, emitted both plaintext and
    /AESV2-encrypted (corpus forward cipher), must extract to
    byte-identical markdown — decryption changes nothing but the wire
    bytes."""
    import hashlib

    content = b"BT /F1 12 Tf 72 720 Td (Hello AES world) Tj ET"

    def bodies() -> dict[int, bytes]:
        return {
            1: b"<< /Type /Catalog /Pages 2 0 R >>",
            2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792]"
                b" /Resources << /Font << /F1 5 0 R >> >>"
                b" /Contents 4 0 R >>"),
            4: (b"<< /Length " + str(len(content)).encode()
                + b" >>\nstream\n" + content + b"\nendstream"),
            5: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
        }

    def assemble(bod, enc_ref=b"", id_ref=b"") -> bytes:
        out = bytearray(b"%PDF-1.6\n")
        offs = {}
        for num in sorted(bod):
            offs[num] = len(out)
            out += (str(num).encode() + b" 0 obj\n" + bod[num]
                    + b"\nendobj\n")
        xref_pos = len(out)
        maxn = max(bod)
        out += (b"xref\n0 " + str(maxn + 1).encode()
                + b"\n0000000000 65535 f \n")
        for num in range(1, maxn + 1):
            out += f"{offs.get(num, 0):010d} 00000 n \n".encode()
        out += (b"trailer\n<< /Size " + str(maxn + 1).encode()
                + b" /Root 1 0 R" + enc_ref + id_ref
                + b" >>\nstartxref\n" + str(xref_pos).encode()
                + b"\n%%EOF\n")
        return bytes(out)

    plain = assemble(bodies())
    b2 = bodies()
    o_entry = hashlib.md5(b"twinO").digest() * 2
    id0 = hashlib.md5(b"twinID").digest()
    fkey = C._pdf_enc_file_key(o_entry, -44, id0, 4, 128)
    u = C._pdf_enc_user_entry(fkey, 4, id0)
    b2[6] = (b"<< /Filter /Standard /V 4 /R 4 /Length 128"
             b" /CF << /StdCF << /CFM /AESV2 /Length 16 >> >>"
             b" /StmF /StdCF /StrF /StdCF"
             b" /O <" + o_entry.hex().encode() + b">"
             b" /U <" + u.hex().encode() + b"> /P -44 >>")
    C._pdf_encrypt_streams(b2, fkey, aes=True, doc_id=99)
    idh = id0.hex().encode()
    enc = assemble(b2, b" /Encrypt 6 0 R",
                   b" /ID [<" + idh + b"> <" + idh + b">]")
    assert b"Hello AES world" not in enc  # really encrypted
    res_p = extract_pdf(plain)
    res_e = extract_pdf(enc)
    assert res_p.ok and res_e.ok, (res_p.error_kind, res_e.error_kind)
    assert res_p.text_md == res_e.text_md
    assert "Hello AES world" in res_p.text_md
