"""CSV text of float tables, each number byte for byte as ``"%.17g"`` writes it:
numpy builds the digits where %g uses fixed notation (finite, 1e-4 <= |v| <
1e17), 4096 rows at a time; the stdlib % writes the rest, and short chunks."""

import numpy as np

_CHUNK_ROWS = 4096      # bounds the working set: 41 bytes per value
_MIN_VALUES = 400       # below it numpy's fixed cost (0.15 ms) loses to %
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
# The doubles nearest 10**k, k = -4..20: a double v >= _TENS[k + 4] iff v >= 10**k.
_TENS = np.array([float(f"1e{k}") for k in range(-4, 21)])
# Row 5 * (v < 0) + max(-e, 0): the sign, then "0." to "0.000" for e < 0.
_PREFIX = np.array([s + (b"0." + b"0" * (m - 1) if m else b"") for s in (b"", b"-")
                    for m in range(5)], "S6").view(np.uint8).reshape(10, 6)
_WIDTH = 41     # the prefix, 17 digits each with a "." slot, a separator


def format_csv(header: str, table: np.ndarray) -> str:
    """The header line, then one line per row of the 2-D float table."""
    line = b",".join([b"%.17g"] * table.shape[1]) + b"\n"
    seps = np.frombuffer(line.replace(b"%.17g", b""), np.uint8)
    text = bytearray(header.encode() + b"\n")   # one buffer, freed as one block
    for i in range(0, len(table), _CHUNK_ROWS):
        text += _chunk(table[i:i + _CHUNK_ROWS].ravel(), line, seps)
    return text.decode("ascii")


def _chunk(v: np.ndarray, line: bytes, seps: np.ndarray) -> bytes:
    fast = (np.abs(v) >= 1e-4) & (np.abs(v) < 1e17)     # NaN compares false
    if v.size < _MIN_VALUES or not fast.any():
        return line * (v.size // seps.size) % tuple(v.tolist())
    slow = np.flatnonzero(~fast)
    buf = bytearray(v.size * _WIDTH)
    text = np.frombuffer(buf, np.uint8).reshape(v.size, _WIDTH)
    if slow.size:   # digits for the fixed-notation subset only, "%.17g" for the rest
        text[fast] = _fixed(v[fast], np.zeros((v.size - slow.size, _WIDTH), np.uint8))
        text[slow, :5] = np.frombuffer(b"%.17g", np.uint8)
    else:
        _fixed(v, text)
    text[:, -1] = np.tile(seps, v.size // seps.size)
    return buf.translate(None, b"\0") % tuple(v[slow].tolist())


def _fixed(v: np.ndarray, text: np.ndarray) -> np.ndarray:
    """``"%.17g" % v``, |v| in [1e-4, 1e17), NUL-padded into text's zero rows."""
    a = np.abs(v)
    # The decimal exponent e: log10 may miss by one next to a power of ten.
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    e += (a >= _TENS[e + 5]).astype(np.intp) - (a < _TENS[e + 4])
    # Doubles below 10**(e + 1) are too far apart to round up to it: d < 10**17.
    d = _rounded_product(a, _TENS[20 - e])     # a * 10**(16 - e)
    pairs, quot = np.empty((9, v.size), np.uint16), 0   # "0d", "dd", ... "dd"
    for j in range(9):
        prev, quot = quot, d // 10**(16 - 2 * j)
        np.take(_PAIRS, quot - 100 * prev, out=pairs[j])
    digits = pairs.T.copy().view(np.uint8)[:, 1:]
    # Strip trailing zeros, but not those of the integer part.
    ends, kept = np.flatnonzero(digits[:, -1] == ord("0")), np.full(v.size, 17)
    kept[ends] = np.maximum(17 - np.argmax(digits[ends, ::-1] != ord("0"), axis=1), e[ends] + 1)
    digits[ends] = np.where(np.arange(17) < kept[ends, None], digits[ends], 0)
    text[:, :6] = _PREFIX.take(np.maximum(-e, 0) + 5 * (v < 0), axis=0)
    text[:, 6:40:2] = digits
    point = np.flatnonzero((e >= 0) & (kept > e + 1))
    text.ravel()[point * _WIDTH + 7 + 2 * e[point]] = ord(".")
    return text


def _rounded_product(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """round-half-even(a * t) in [2**53, 2**63): a * t = p + r exactly (Dekker),
    and p is an even integer, so p + rint(r) rounds as CPython's dtoa does."""
    p, ah, th = a * t, 134217729.0 * a, 134217729.0 * t
    ah -= ah - a    # Veltkamp's split at 2**27 + 1: a = ah + al, 26 bits each
    th -= th - t
    al, tl = a - ah, t - th
    r = ((ah * th - p) + ah * tl + al * th) + al * tl
    return p.astype(np.int64) + np.rint(r).astype(np.int64)
