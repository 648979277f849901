"""Pure-Python AES — cipher + inverse cipher + the CBC modes feeding
the PDF standard security handler's /AESV2 (AES-128) and /AESV3
(AES-256, /V 5 /R 6) crypt filters (functions/pdf_crypt.py).
Implemented from FIPS-197 (the published spec: the §5.1 cipher, the
§5.3.5 equivalent inverse cipher and the Nk-general key expansion of
§5.2); tests pin the block cipher to the spec's own C.1/C.3
known-answer vectors. The corpus generator encrypts with this module's
forward cipher, so those vectors, not a generator round trip, are what
pin it.

Both directions run on T-tables: four 256-entry word tables per
direction fuse the byte substitution, the row shift and the column mix
of one round into 16 lookups on a state of four big-endian column
words (the classic public formulation of §5.1 and §5.3.5). There is
one path per direction: the block functions and the CBC modes share
the same word-form rounds.

Scope: 128/192/256-bit keys; CBC with the PDF layout (16-byte IV
prepended to the ciphertext, PKCS#7 padding) plus the no-padding
known-IV CBC that PDF 2.0's Algorithm 2.B hash and /UE key unwrap
require. Not a general crypto library — a wire-format decoder for two
documented PDF classes.
"""

from __future__ import annotations

import struct

# FIPS-197 §5.1.1 S-box (forward, needed for the key schedule) and its
# inverse (§5.3.2)
_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)
_inv = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _inv[_v] = _i
_INV_SBOX = bytes(_inv)
del _inv, _i, _v

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiply (§4.2)."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a = _xtime(a)
        b >>= 1
    return p


def expand_key(key: bytes) -> list[bytes]:
    """§5.2 key expansion, Nk-general → Nr+1 round keys of 16 bytes
    (Nr = Nk + 6: 10/12/14 rounds for AES-128/192/256)."""
    nk = len(key) // 4
    if len(key) not in (16, 24, 32):
        raise ValueError("AES key must be 16, 24 or 32 bytes")
    nr = nk + 6
    w = [key[4 * i: 4 * i + 4] for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        t = w[i - 1]
        if i % nk == 0:
            t = bytes(_SBOX[b] for b in t[1:] + t[:1])
            t = bytes((t[0] ^ _RCON[i // nk - 1],)) + t[1:]
        elif nk > 6 and i % nk == 4:
            t = bytes(_SBOX[b] for b in t)
        w.append(bytes(a ^ b for a, b in zip(w[i - nk], t)))
    return [b"".join(w[4 * r: 4 * r + 4]) for r in range(nr + 1)]


# T-tables. Forward (§5.1): _ET[r][x] is the column that byte x in
# row r contributes after SubBytes and MixColumns, i.e. S[x] times
# column r of the MixColumns matrix (column 0 is 2, 1, 1, 3; each
# next column rotates it down by one). Inverse (§5.3.5): _DT[r][x] is
# InvS[x] times column r of the InvMixColumns matrix (column 0 is
# 14, 9, 13, 11). The equivalent
# inverse cipher applies InvMixColumns before AddRoundKey, so its
# middle round keys are passed through InvMixColumns once per key
# (_dec_rk_words). PDF 2.0's Algorithm 2.B hash CBC-encrypts ~2 KiB
# per round for ≥64 rounds per document and every AES stream is
# CBC-decrypted, so both directions matter: a byte-loop round costs
# ~10× a table round here.
def _ttables(box: bytes, coef: tuple[int, int, int, int]):
    cols = tuple(coef[-r:] + coef[:-r] for r in range(4))
    tabs = tuple([0] * 256 for _ in range(4))
    for x in range(256):
        s = box[x]
        for tab, (c0, c1, c2, c3) in zip(tabs, cols):
            tab[x] = ((_gmul(s, c0) << 24) | (_gmul(s, c1) << 16)
                      | (_gmul(s, c2) << 8) | _gmul(s, c3))
    return tabs


_ET0, _ET1, _ET2, _ET3 = _ttables(_SBOX, (2, 1, 1, 3))
_DT0, _DT1, _DT2, _DT3 = _ttables(_INV_SBOX, (14, 9, 13, 11))


def _rk_words(round_keys: list[bytes]) -> list[tuple[int, int, int, int]]:
    return [struct.unpack(">4I", rk) for rk in round_keys]


def _dec_rk_words(round_keys: list[bytes]) -> list[tuple[int, ...]]:
    """Round keys of the equivalent inverse cipher in the order it
    uses them: last round key first, the middle ones through
    InvMixColumns (_DT of S[b] is InvMixColumns of byte b alone)."""
    sb, d0, d1, d2, d3 = _SBOX, _DT0, _DT1, _DT2, _DT3
    words = _rk_words(round_keys)[::-1]
    return [words[0]] + [
        tuple(d0[sb[w >> 24]] ^ d1[sb[(w >> 16) & 0xFF]]
              ^ d2[sb[(w >> 8) & 0xFF]] ^ d3[sb[w & 0xFF]] for w in k)
        for k in words[1:-1]] + [words[-1]]


def _encrypt_words(rkw, w0: int, w1: int, w2: int, w3: int):
    """One block through the T-table cipher; state = 4 big-endian
    column words."""
    t0, t1, t2, t3 = _ET0, _ET1, _ET2, _ET3
    k = rkw[0]
    w0 ^= k[0]
    w1 ^= k[1]
    w2 ^= k[2]
    w3 ^= k[3]
    nr = len(rkw) - 1
    for r in range(1, nr):
        k = rkw[r]
        n0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
              ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k[0])
        n1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
              ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k[1])
        n2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
              ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k[2])
        n3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
              ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k[3])
        w0, w1, w2, w3 = n0, n1, n2, n3
    sb = _SBOX
    k = rkw[nr]
    n0 = ((sb[w0 >> 24] << 24) | (sb[(w1 >> 16) & 0xFF] << 16)
          | (sb[(w2 >> 8) & 0xFF] << 8) | sb[w3 & 0xFF]) ^ k[0]
    n1 = ((sb[w1 >> 24] << 24) | (sb[(w2 >> 16) & 0xFF] << 16)
          | (sb[(w3 >> 8) & 0xFF] << 8) | sb[w0 & 0xFF]) ^ k[1]
    n2 = ((sb[w2 >> 24] << 24) | (sb[(w3 >> 16) & 0xFF] << 16)
          | (sb[(w0 >> 8) & 0xFF] << 8) | sb[w1 & 0xFF]) ^ k[2]
    n3 = ((sb[w3 >> 24] << 24) | (sb[(w0 >> 16) & 0xFF] << 16)
          | (sb[(w1 >> 8) & 0xFF] << 8) | sb[w2 & 0xFF]) ^ k[3]
    return n0, n1, n2, n3


def _decrypt_words(dkw, w0: int, w1: int, w2: int, w3: int):
    """One block through the T-table equivalent inverse cipher
    (§5.3.5): InvShiftRows rotates row r right by r, so column c
    takes row r from column c − r. ``dkw`` comes from _dec_rk_words."""
    t0, t1, t2, t3 = _DT0, _DT1, _DT2, _DT3
    k = dkw[0]
    w0 ^= k[0]
    w1 ^= k[1]
    w2 ^= k[2]
    w3 ^= k[3]
    nr = len(dkw) - 1
    for r in range(1, nr):
        k = dkw[r]
        n0 = (t0[w0 >> 24] ^ t1[(w3 >> 16) & 0xFF]
              ^ t2[(w2 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k[0])
        n1 = (t0[w1 >> 24] ^ t1[(w0 >> 16) & 0xFF]
              ^ t2[(w3 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k[1])
        n2 = (t0[w2 >> 24] ^ t1[(w1 >> 16) & 0xFF]
              ^ t2[(w0 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k[2])
        n3 = (t0[w3 >> 24] ^ t1[(w2 >> 16) & 0xFF]
              ^ t2[(w1 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k[3])
        w0, w1, w2, w3 = n0, n1, n2, n3
    ib = _INV_SBOX
    k = dkw[nr]
    n0 = ((ib[w0 >> 24] << 24) | (ib[(w3 >> 16) & 0xFF] << 16)
          | (ib[(w2 >> 8) & 0xFF] << 8) | ib[w1 & 0xFF]) ^ k[0]
    n1 = ((ib[w1 >> 24] << 24) | (ib[(w0 >> 16) & 0xFF] << 16)
          | (ib[(w3 >> 8) & 0xFF] << 8) | ib[w2 & 0xFF]) ^ k[1]
    n2 = ((ib[w2 >> 24] << 24) | (ib[(w1 >> 16) & 0xFF] << 16)
          | (ib[(w0 >> 8) & 0xFF] << 8) | ib[w3 & 0xFF]) ^ k[2]
    n3 = ((ib[w3 >> 24] << 24) | (ib[(w2 >> 16) & 0xFF] << 16)
          | (ib[(w1 >> 8) & 0xFF] << 8) | ib[w0 & 0xFF]) ^ k[3]
    return n0, n1, n2, n3


def encrypt_block(round_keys: list[bytes], block: bytes) -> bytes:
    """FIPS-197 §5.1 Cipher over one 16-byte block."""
    return struct.pack(">4I", *_encrypt_words(
        _rk_words(round_keys), *struct.unpack(">4I", block)))


def decrypt_block(round_keys: list[bytes], block: bytes) -> bytes:
    """FIPS-197 §5.3.5 equivalent InvCipher over one 16-byte block
    (``round_keys`` from expand_key, as for encrypt_block)."""
    return struct.pack(">4I", *_decrypt_words(
        _dec_rk_words(round_keys), *struct.unpack(">4I", block)))


def cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC encryption, no padding, explicit IV (data length must
    be a block multiple) — Algorithm 2.B's inner step. The chain
    stays in word form: one unpack of the message, one pack of the
    ciphertext."""
    if len(data) % 16:
        raise ValueError("CBC no-pad data must be a 16-byte multiple")
    rkw = _rk_words(expand_key(key))
    p0, p1, p2, p3 = struct.unpack(">4I", iv)
    words = struct.unpack(f">{len(data) // 4}I", data)
    out = []
    for j in range(0, len(words), 4):
        p0, p1, p2, p3 = _encrypt_words(
            rkw, p0 ^ words[j], p1 ^ words[j + 1],
            p2 ^ words[j + 2], p3 ^ words[j + 3])
        out += (p0, p1, p2, p3)
    return struct.pack(f">{len(out)}I", *out)


def cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC decryption, no padding, explicit IV — the /UE and /OE
    file-key unwrap of PDF 2.0 Algorithm 2.A (step f) and the body of
    every AES stream. Word form like cbc_encrypt_nopad; each
    plaintext block is its decryption XOR the previous ciphertext."""
    if len(data) % 16:
        raise ValueError("CBC no-pad data must be a 16-byte multiple")
    dkw = _dec_rk_words(expand_key(key))
    words = struct.unpack(f">{len(data) // 4}I", data)
    c0, c1, c2, c3 = struct.unpack(">4I", iv)
    out = []
    for j in range(0, len(words), 4):
        b0, b1, b2, b3 = words[j:j + 4]
        d0, d1, d2, d3 = _decrypt_words(dkw, b0, b1, b2, b3)
        out += (d0 ^ c0, d1 ^ c1, d2 ^ c2, d3 ^ c3)
        c0, c1, c2, c3 = b0, b1, b2, b3
    return struct.pack(f">{len(out)}I", *out)


def cbc_decrypt_pdf(key: bytes, data: bytes) -> bytes:
    """PDF /AESV2 and /AESV3 stream layout: the first 16 bytes are
    the IV, the rest is CBC ciphertext with PKCS#7 padding (key length
    selects AES-128 vs AES-256). Returns the plaintext; raises
    ValueError on malformed layout/padding (callers turn that into the
    encrypted_pdf error row)."""
    if len(data) < 32 or len(data) % 16:
        raise ValueError("AES-CBC stream too short or misaligned")
    out = bytearray(cbc_decrypt_nopad(key, data[:16], data[16:]))
    pad = out[-1]
    if not 1 <= pad <= 16 or out[-pad:] != bytearray([pad]) * pad:
        raise ValueError("bad PKCS#7 padding")
    return bytes(out[:-pad])
