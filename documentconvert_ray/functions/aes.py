"""Pure-Python AES — cipher + inverse cipher + the CBC modes feeding
the PDF standard security handler's /AESV2 (AES-128) and /AESV3
(AES-256, /V 5 /R 6) crypt filters (functions/pdf_crypt.py).
Implemented from FIPS-197 (the published spec: the §5.1 cipher, §5.3
inverse cipher and the Nk-general key expansion of §5.2); tests pin
the block cipher to the spec's own C.1/C.3 known-answer vectors. The
corpus generator encrypts with this module's forward cipher, so those
vectors, not a generator round trip, are what pin it.

Scope: 128/192/256-bit keys; CBC with the PDF layout (16-byte IV
prepended to the ciphertext, PKCS#7 padding) plus the no-padding
known-IV CBC that PDF 2.0's Algorithm 2.B hash and /UE key unwrap
require. Not a general crypto library — a wire-format decoder for two
documented PDF classes.
"""

from __future__ import annotations

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
_INV_SBOX = bytes(256)
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


# multiplication tables for InvMixColumns coefficients 9, 11, 13, 14
_M9 = bytes(_gmul(x, 9) for x in range(256))
_M11 = bytes(_gmul(x, 11) for x in range(256))
_M13 = bytes(_gmul(x, 13) for x in range(256))
_M14 = bytes(_gmul(x, 14) for x in range(256))


# forward MixColumns multiplication tables (coefficients 2, 3)
_M2 = bytes(_gmul(x, 2) for x in range(256))
_M3 = bytes(_gmul(x, 3) for x in range(256))


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


def decrypt_block(round_keys: list[bytes], block: bytes) -> bytes:
    """FIPS-197 §5.3 InvCipher over one 16-byte block (equivalent
    straightforward form: rounds of InvShiftRows, InvSubBytes,
    AddRoundKey, InvMixColumns)."""
    nr = len(round_keys) - 1
    s = bytearray(a ^ b for a, b in zip(block, round_keys[nr]))
    for rnd in range(nr - 1, 0, -1):
        # InvShiftRows: row r rotates RIGHT by r (state is
        # column-major: byte index = 4*col + row)
        t = bytearray(16)
        for col in range(4):
            for row in range(4):
                t[4 * ((col + row) % 4) + row] = s[4 * col + row]
        # InvSubBytes
        t = bytearray(_INV_SBOX[b] for b in t)
        # AddRoundKey
        rk = round_keys[rnd]
        t = bytearray(a ^ b for a, b in zip(t, rk))
        # InvMixColumns
        s = bytearray(16)
        for col in range(4):
            c = t[4 * col: 4 * col + 4]
            s[4 * col + 0] = (_M14[c[0]] ^ _M11[c[1]]
                              ^ _M13[c[2]] ^ _M9[c[3]])
            s[4 * col + 1] = (_M9[c[0]] ^ _M14[c[1]]
                              ^ _M11[c[2]] ^ _M13[c[3]])
            s[4 * col + 2] = (_M13[c[0]] ^ _M9[c[1]]
                              ^ _M14[c[2]] ^ _M11[c[3]])
            s[4 * col + 3] = (_M11[c[0]] ^ _M13[c[1]]
                              ^ _M9[c[2]] ^ _M14[c[3]])
    # final round: no InvMixColumns
    t = bytearray(16)
    for col in range(4):
        for row in range(4):
            t[4 * ((col + row) % 4) + row] = s[4 * col + row]
    t = bytearray(_INV_SBOX[b] for b in t)
    return bytes(a ^ b for a, b in zip(t, round_keys[0]))


# Table-driven forward cipher (the classic public T-table
# formulation of §5.1: SubBytes+ShiftRows+MixColumns fused into four
# 256-entry word lookups per column). PDF 2.0's Algorithm 2.B hash
# CBC-encrypts ~2 KiB per round for ≥64 rounds PER DOCUMENT — the
# loop form cost ~1 s/hash in pure Python, which serialized R6
# documents through the PDF actor pool (measured: 6× headline
# regression); the T-table form is ~10× faster and is validated by
# the same FIPS C.1/C.3 vectors.
def _enc_ttables():
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        s = _SBOX[x]
        s2 = _gmul(s, 2)
        s3 = _gmul(s, 3)
        t0[x] = (s2 << 24) | (s << 16) | (s << 8) | s3
        t1[x] = (s3 << 24) | (s2 << 16) | (s << 8) | s
        t2[x] = (s << 24) | (s3 << 16) | (s2 << 8) | s
        t3[x] = (s << 24) | (s << 16) | (s3 << 8) | s2
    return t0, t1, t2, t3


_ET0, _ET1, _ET2, _ET3 = _enc_ttables()


def _rk_words(round_keys: list[bytes]) -> list[tuple[int, int, int, int]]:
    return [(int.from_bytes(rk[0:4], "big"), int.from_bytes(rk[4:8], "big"),
             int.from_bytes(rk[8:12], "big"), int.from_bytes(rk[12:16], "big"))
            for rk in round_keys]


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


def encrypt_block(round_keys: list[bytes], block: bytes) -> bytes:
    """FIPS-197 §5.1 Cipher over one 16-byte block (T-table form)."""
    w = _encrypt_words(
        _rk_words(round_keys),
        int.from_bytes(block[0:4], "big"),
        int.from_bytes(block[4:8], "big"),
        int.from_bytes(block[8:12], "big"),
        int.from_bytes(block[12:16], "big"))
    return b"".join(x.to_bytes(4, "big") for x in w)


def cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC encryption, no padding, explicit IV (data length must
    be a block multiple) — Algorithm 2.B's inner step. The chain
    stays in word form (one round-key conversion per message, no
    per-block byte packing)."""
    if len(data) % 16:
        raise ValueError("CBC no-pad data must be a 16-byte multiple")
    rkw = _rk_words(expand_key(key))
    p0 = int.from_bytes(iv[0:4], "big")
    p1 = int.from_bytes(iv[4:8], "big")
    p2 = int.from_bytes(iv[8:12], "big")
    p3 = int.from_bytes(iv[12:16], "big")
    out = bytearray()
    for off in range(0, len(data), 16):
        p0, p1, p2, p3 = _encrypt_words(
            rkw,
            p0 ^ int.from_bytes(data[off:off + 4], "big"),
            p1 ^ int.from_bytes(data[off + 4:off + 8], "big"),
            p2 ^ int.from_bytes(data[off + 8:off + 12], "big"),
            p3 ^ int.from_bytes(data[off + 12:off + 16], "big"))
        out += p0.to_bytes(4, "big") + p1.to_bytes(4, "big") \
            + p2.to_bytes(4, "big") + p3.to_bytes(4, "big")
    return bytes(out)


def cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC decryption, no padding, explicit IV — the /UE and /OE
    file-key unwrap of PDF 2.0 Algorithm 2.A (step f)."""
    if len(data) % 16:
        raise ValueError("CBC no-pad data must be a 16-byte multiple")
    rks = expand_key(key)
    out = bytearray()
    prev = iv
    for off in range(0, len(data), 16):
        block = data[off:off + 16]
        pt = decrypt_block(rks, block)
        out += bytes(a ^ b for a, b in zip(pt, prev))
        prev = block
    return bytes(out)


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
