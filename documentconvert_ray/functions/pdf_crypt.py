"""PDF standard security handler — empty-user-password decryption.

Implements the spec's Algorithm 2 (file key), 4/5 (user-password
check) and 1 (per-object key) for the RC4 cases /V 1 (40-bit, /R 2)
and /V 2 (≤128-bit, /R 3): the overwhelmingly common real-world
"encrypted but readable" class where the USER password is empty and
only owner permissions are restricted. Reference parity: the
reference's MinerU error analyzer classifies password-protected PDFs
as a distinct failure (reference services/document_service.py:394-424
``_analyze_mineru_python_error`` password branch); documents whose
empty user password validates are readable there and must extract
here, not error.

/V 4 /R 4 with the /AESV2 crypt filter (AES-128-CBC) decrypts too —
the block cipher is the self-contained FIPS-197 implementation in
functions/aes.py, the per-object key adds the spec's "sAlT" suffix
(Algorithm 1's AES branch), and the stream layout is IV ‖ CBC
ciphertext with PKCS#7 padding.

/V 5 /R 6 with the /AESV3 crypt filter (AES-256, PDF 2.0) decrypts
as well (VERDICT r4 task 5): the empty user password validates
through Algorithm 2.A — hash_2b (the SHA-256/384/512 iterated
Algorithm 2.B digest) of the password + /U validation salt must equal
/U[0:32] — and the 32-byte FILE key unwraps from /UE with
AES-256-CBC under the intermediate key hash_2b(password, key salt)
and a zero IV. R6 uses the file key DIRECTLY for every string/stream
(Algorithm 1.A: no per-object key derivation). Non-Standard handlers
and wrong-password documents stay classified ``encrypted_pdf``.

Pure stdlib (hashlib.md5 + self-contained RC4/AES). The corpus
generator carries an INDEPENDENT encrypt-side implementation
(sources/corpus.py — forward cipher vs this module's inverse cipher)
so round-trip tests cross-check two readings of the spec;
tests/test_pdf_crypt.py additionally pins RC4 and AES to published
known-answer vectors.
"""

from __future__ import annotations

import hashlib
import struct

# spec's 32-byte password padding constant (Algorithm 2 step a)
PAD = bytes.fromhex(
    "28BF4E5E4E758A4164004E56FFFA0108"
    "2E2E00B6D0683E802F0CA9FE6453697A"
)


def rc4(key: bytes, data: bytes) -> bytes:
    """RC4 stream cipher (symmetric: encrypt == decrypt). The
    keystream is XORed onto the data as one big integer."""
    k = key * (256 // len(key) + 1)
    S = list(range(256))
    j = 0
    for i in range(256):
        si = S[i]
        j = (j + si + k[i]) & 0xFF
        S[i] = S[j]
        S[j] = si
    ks = bytearray(len(data))
    i = j = 0
    for n in range(len(data)):
        i = (i + 1) & 0xFF
        si = S[i]
        j = (j + si) & 0xFF
        sj = S[j]
        S[i] = sj
        S[j] = si
        ks[n] = S[(si + sj) & 0xFF]
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(ks, "big")).to_bytes(len(data), "big")


def file_key(owner_entry: bytes, perms: int, id0: bytes,
             revision: int, length_bits: int = 40,
             user_password: bytes = b"",
             encrypt_metadata: bool = True) -> bytes:
    """Algorithm 2: the file encryption key for ``user_password``
    (default empty — the readable-without-a-password case). R4 with
    /EncryptMetadata false appends 0xFFFFFFFF (spec step f)."""
    h = hashlib.md5()
    h.update((user_password + PAD)[:32])
    h.update(owner_entry[:32])
    h.update(struct.pack("<i", perms))
    h.update(id0)
    if revision >= 4 and not encrypt_metadata:
        h.update(b"\xff\xff\xff\xff")
    key = h.digest()
    n = 5 if revision == 2 else max(5, min(16, length_bits // 8))
    if revision >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:n]).digest()
    return key[:n]


def check_user_password(key: bytes, user_entry: bytes,
                        revision: int, id0: bytes) -> bool:
    """Algorithm 6 via 4 (R2) / 5 (R3+): does ``key`` (derived from a
    candidate user password) reproduce the document's /U entry?"""
    if revision == 2:
        return rc4(key, PAD) == user_entry[:32]
    x = hashlib.md5(PAD + id0).digest()
    x = rc4(key, x)
    for i in range(1, 20):
        x = rc4(bytes(b ^ i for b in key), x)
    # R3+ stores 16 significant bytes + 16 bytes arbitrary padding
    return x[:16] == user_entry[:16]


def object_key(key: bytes, num: int, gen: int,
               aes: bool = False) -> bytes:
    """Algorithm 1: the per-object key — MD5 over the file key + the
    low 3 object-number bytes + 2 generation bytes, plus the constant
    0x73416C54 ("sAlT") when the crypt filter is /AESV2."""
    h = hashlib.md5(
        key + num.to_bytes(3, "little") + gen.to_bytes(2, "little")
        + (b"sAlT" if aes else b"")
    ).digest()
    return h[: min(len(key) + 5, 16)]


def aes_stream_decrypt(key: bytes, data: bytes) -> bytes:
    """/AESV2 (16-byte key) and /AESV3 (32-byte key) stream
    decryption (IV ‖ CBC ciphertext, PKCS#7)."""
    from .aes import cbc_decrypt_pdf

    return cbc_decrypt_pdf(key, data)


def hash_2b(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """PDF 2.0 Algorithm 2.B (ISO 32000-2 §7.6.4.3.4): the iterated
    SHA-256/384/512 password hash for /R 6. Each round CBC-encrypts
    64 copies of (password ‖ K ‖ udata) under K's first 16 bytes with
    K[16:32] as IV, picks the next digest by Σ E[0:16] mod 3, and
    stops once ≥ 64 rounds have run and E's last byte ≤ round − 32.
    ``udata`` is the 48-byte /U entry when hashing OWNER entries,
    empty for user entries."""
    from .aes import cbc_encrypt_nopad

    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    while True:
        k1 = (password + k + udata) * 64
        e = cbc_encrypt_nopad(k[:16], k[16:32], k1)
        k = (hashlib.sha256, hashlib.sha384,
             hashlib.sha512)[sum(e[:16]) % 3](e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


def r6_file_key(u_entry: bytes, ue_entry: bytes,
                password: bytes = b"",
                perms_entry: bytes | None = None,
                p: int | None = None) -> bytes | None:
    """Algorithm 2.A for /R 6 with the USER password (default empty —
    the readable-without-a-password class): validate ``password`` and
    unwrap the 32-byte file key from /UE under the key-salt
    intermediate key (AES-256-CBC, zero IV, no padding). Returns None
    when the password does not validate (caller classifies
    ``encrypted_pdf``).

    Validation order: when /Perms is available the SINGLE key-salt
    hash both unwraps the key and validates it — AES-ECB-decrypting
    /Perms with the candidate file key must yield 'adb' at bytes 9-11
    and the /P value at bytes 0-3 (ISO 32000-2 Algorithm 13's
    integrity check; false-accept ≤ 2⁻⁵⁶). hash_2b is deliberately
    expensive (≥64 AES-CBC-mixed SHA-2 rounds — password hardening),
    so skipping the separate /U validation-salt hash halves the
    per-document cost; documents without /Perms take the classic
    /U-hash path."""
    from .aes import cbc_decrypt_nopad, decrypt_block, expand_key

    if len(u_entry) < 48 or len(ue_entry) < 32:
        return None
    vsalt, ksalt = u_entry[32:40], u_entry[40:48]
    ikey = hash_2b(password, ksalt)
    key = cbc_decrypt_nopad(ikey, bytes(16), ue_entry[:32])
    if perms_entry is not None and len(perms_entry) >= 16:
        blk = decrypt_block(expand_key(key), perms_entry[:16])
        if blk[9:12] == b"adb" and (
                p is None
                or blk[0:4] == (p & 0xFFFFFFFF).to_bytes(4, "little")):
            return key
        return None  # wrong password (or corrupt /Perms)
    if hash_2b(password, vsalt) != u_entry[:32]:
        return None
    return key
