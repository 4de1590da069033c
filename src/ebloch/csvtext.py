"""CSV text of float tables: each entry in the text of ``'%.17g'``.

:func:`format_table` computes that text on whole arrays.  With X the
decimal exponent of x and |x| = m 2^e (``frexp``), the 17 correctly rounded
digits are |x| 10^(16 - X) rounded to an integer.  That product is formed
as the double-double product (Dekker, Numer. Math. 18, 224, 1971) of m with
10^(16 - X) = (hi + lo) 2^s, from a table built from Python ints: its
integer part comes out exact and its fraction good to about 1e-14.  The
digits go to ASCII through a 10^4 lookup, each entry is laid out in words
of ASCII with 0 at every byte that its ``%g`` layout (d.ddde+XX, ddd.ddd or
0.000ddd) leaves empty, and ``bytes.translate`` drops the 0s.  Zeros, nan
and infinities take their text from a mask.  An entry within
``_TIE_MARGIN`` of a rounding tie, or whose X was guessed one off at a
power of ten, is written by ``'%.17g'`` itself, and so is every table with
too few nonzero values to repay the arrays' fixed cost.
"""

from __future__ import annotations

import functools

import numpy as np

# The per-entry template takes about 0.6 us for a 17-digit value and 0.1 us
# for a zero; the arrays take about 0.2 us an entry and a fixed cost, 90 us
# when repeated in a loop (break-even near 170 values) and more in a CLI
# call between other work (a simulate call with 306 values: 1.62 ms per
# entry, 1.64 ms on arrays).  So a table goes to the arrays from
# _MIN_ENTRIES nonzero values on, plus one for every 5 zeros (4 x 531 with
# 140 nonzero: 301 us per entry against 638 us)
_MIN_ENTRIES = 400
# entries laid out per pass at most, unless one row holds more; a table's
# passes share its rows evenly, and each temporary stays within 16 kB
_CHUNK = 2048
# the fraction of |x| 10^(16 - X) is good to about 1e-14; this close to a
# half, the rounding is left to '%.17g'
_TIE_MARGIN = 1e-6
# decimal exponents X of nonzero finite doubles, and the powers 10^(16 - X)
# that scale them to 17 integer digits
_X_MIN, _X_MAX = -324, 308
# an entry is 13 little-endian uint32 words of ASCII, 0 where a layout
# leaves a byte empty: separator, sign and first integer digit | integer
# digits 1-16 | '.' and the fraction's leading zeros | first fraction digit,
# or nan or inf | fraction digits 1-16 | exponent
_WORDS = 13
_ZERO = ord("0")
_NAN, _INF = (int.from_bytes(t, "little") for t in (b"nan\0", b"inf\0"))
# a row's end, after its last entry, in words
_NEWLINE, _TRUE, _FALSE = (np.frombuffer(t, "<u4")[None] for t in (b"\n\0\0\0", b",true\n\0\0",
                                                                   b",false\n\0"))


def fmt(x) -> str:
    """``'%.17g'`` text of one value."""
    return format(float(x), ".17g")


def _float_lines(table, labels=None) -> list[str]:
    """One CSV line per row of a 2-D float table, written with one
    ``%.17g`` format string per row: the text of :func:`fmt` for every
    entry, nan, inf, -0 and subnormals included.  ``labels``, one string
    per row, are appended as a last column through the same template."""
    table = np.asarray(table, dtype=float)
    template = ",".join(["%.17g"] * table.shape[1])
    if labels is None:
        return [template % tuple(row) for row in table.tolist()]
    template += ",%s"
    return [template % (*row, label) for row, label in zip(table.tolist(), labels)]


def format_table(table, flags=None) -> str:
    """CSV body of a 2-D float table: per row ``','.join(fmt(x) for x in
    row)``, then ``true`` or ``false`` when ``flags`` (one bool per row) is
    given, and a newline."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    nonzero = np.count_nonzero(table) if table.size >= _MIN_ENTRIES else 0
    if nonzero < _MIN_ENTRIES + (table.size - nonzero) // 5:
        lines = _float_lines(table, None if flags is None else np.where(flags, "true", "false"))
        return "\n".join(lines) + "\n" if lines else ""
    tail = _NEWLINE if flags is None else np.where(np.asarray(flags)[:, None], _TRUE, _FALSE)
    tail = np.broadcast_to(tail, (rows, tail.shape[1]))
    passes = max(1, -(-table.size // _CHUNK))
    step = max(1, -(-rows // passes))
    return b"".join([_rows(table[lo:lo + step], tail[lo:lo + step]).tobytes()
                     .translate(None, b"\0") for lo in range(0, rows, step)]).decode("ascii")


# per decimal exponent X from _X_MIN, filled on first use of each X (a
# cache of constants): the rows hi, hi's Veltkamp halves and lo of
# 10^(16 - X) = (hi + lo) 2^s, and the rows s + 1023, the digits before the
# point (0 for 0.ddd, 1 for d.ddde+X), '.' with the fraction's leading
# zeros, and the exponent field in two words
_SCALE = np.zeros((4, _X_MAX - _X_MIN + 1))
_LAYOUT = np.zeros((5, _X_MAX - _X_MIN + 1), np.int64)
_FILLED = np.zeros(_X_MAX - _X_MIN + 1, bool)


def _fill(xi):
    """Fill the table columns from ``xi.min()`` to ``xi.max()`` from Python
    ints: hi is rounded from the leading 120 bits of 10^q, lo from the rest."""
    first = int(xi.min())
    for i in (first + np.flatnonzero(~_FILLED[first:xi.max() + 1])).tolist():
        x = i + _X_MIN
        q = 16 - x
        p = 10 ** abs(q)
        b = p.bit_length()
        if q >= 0:
            t = p << (120 - b) if b <= 120 else p >> (b - 120)
        else:
            t, b = (1 << (119 + b)) // p, 1 - b
        hi = float(t)
        _SCALE[:, i] = (hi / 2.0 ** 120, *_split(hi / 2.0 ** 120),
                        float(t - int(hi)) / 2.0 ** 120)
        fixed = -4 <= x < 17
        point = "." + "0" * (-x - 1) if fixed and x < 0 else "."
        expo = "" if fixed else f"e{x:+03d}"
        _LAYOUT[:, i] = (b + 1023, (x + 1 if x >= 0 else 0) if fixed else 1,
                         *(int.from_bytes(t.encode(), "little")
                           for t in (point, expo[:4], expo[4:])))
        _FILLED[i] = True


@functools.cache
def _tables():
    """Lookup tables, built on first use.  ``four``: the ASCII of
    0000..9999 as words; ``tz``: their trailing zeros.  ``keep[g, n]``: the
    bytes of word g of digits 1-16 whose digit index is below n."""
    # four[1000 a + 100 b + 10 c + d] = "abcd", from digit arrays that each
    # vary along one axis
    digit = [np.arange(10, dtype=np.uint32).reshape((10,) + (1,) * (3 - k)) for k in range(4)]
    four = ((digit[0] + _ZERO) | (digit[1] + _ZERO) << 8
            | (digit[2] + _ZERO) << 16 | (digit[3] + _ZERO) << 24).ravel()
    zero = [d == 0 for d in digit]
    tz = (zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.int8))))).ravel()
    keep = np.array([[int.from_bytes(bytes(255 * (1 + 4 * g + b < n) for b in range(4)), "little")
                      for n in range(18)] for g in range(4)], np.uint32)
    return four, tz, keep


def _split(a):
    """Veltkamp split: a = h + l exactly, each half with 26 significant bits."""
    c = a * 134217729.0
    h = c - (c - a)
    return h, a - h


def _digits(a):
    """The 17 significant digits of each |x| in ``a`` (1 where x is 0 or not
    finite) as an integer in [1e16, 1e17), its decimal exponent's index
    into the tables, and a mask of the entries ``'%.17g'`` must write."""
    # log10(a) - _X_MIN > 0, so truncation is floor
    xi = (np.log10(a) - _X_MIN).astype(np.intp)
    _fill(xi)
    hi, h_h, h_l, lo = _SCALE.take(xi, axis=1)
    m, e = np.frexp(a)
    # N = m (hi + lo) 2^(e + s) = |x| 10^(16 - X); p + err is m hi exactly
    p = m * hi
    m_h, m_l = _split(m)
    err = ((m_h * h_h - p) + m_h * h_l + m_l * h_h) + m_l * h_l
    # 2^(e + s) is near 2^56, a normal double built from its biased
    # exponent, which the table holds as s + 1023
    power = ((e + _LAYOUT[0].take(xi)) << 52).view(np.float64)
    whole = p * power  # an integer wherever X is right: N >= 1e16 > 2^53
    part = (err + m * lo) * power
    floor = np.floor(part)
    frac = part - floor
    n_int = whole.astype(np.int64) + floor.astype(np.int64)
    digits = n_int + (frac > 0.5)
    # near a tie, or X one off, so that N is outside [1e16, 1e17 - 1)
    slow = ((np.abs(frac - 0.5) < _TIE_MARGIN)
            | ((n_int - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16 - 1))
    digits[slow] = 10 ** 16
    return xi, digits, slow


def _rows(x, tail):
    """uint8 text of a block of rows, padded with 0: each row's entries,
    comma-separated, then its ``tail`` words (the flag column and newline)."""
    four, tz, keep = _tables()
    rows, cols = x.shape
    x = x.ravel()
    a = np.abs(x)
    special = ~np.isfinite(a) | (a == 0)
    a[special] = 1.0  # written as 1e16 * 10^-16, then given its own text
    xi, digits, slow = _digits(a)
    cut, point, e1, e2 = _LAYOUT[1:].take(xi, axis=1)

    # the first digit, then digits 1-16 in four groups of four
    split = np.empty((5, len(x)), np.int64)
    for k, power in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(digits, power, out=split[k])
    split[4] = digits
    split[1:] -= 10 ** 4 * split[:-1]
    lead, groups = split[0], split[1:]
    # significant digits once trailing zeros go
    n_zero = tz.take(groups[3])
    ends = np.flatnonzero(groups[3] == 0)
    if ends.size:
        g1, g2, g3 = groups[:3, ends]
        n_zero[ends] = 4 + tz[g3] + (g3 == 0) * (tz[g2] + (g2 == 0) * tz[g1])
    n_sig = 17 - n_zero

    words = np.empty((_WORDS, len(x)), np.uint32)
    words[0] = (lead * (cut > 0) << 16 | np.signbit(x) * (ord("-") << 8)
                | (ord(",") | _ZERO << 16))
    text = four.take(groups)
    integer = words[1:5]
    np.bitwise_and(text, keep.take(cut, axis=1), out=integer)
    words[5] = point * (n_sig > cut)
    words[6] = (lead + _ZERO) * (cut == 0)
    np.bitwise_and(text ^ integer, keep.take(n_sig, axis=1), out=words[7:11])
    words[11] = e1
    words[12] = e2
    if special.any():
        i = np.flatnonzero(special)
        v = x[i]
        nan = np.isnan(v)
        words[0, i] = ord(",") | (np.signbit(v) & ~nan) * ord("-") << 8 | (v == 0) * _ZERO << 16
        words[6, i] = np.where(nan, _NAN, np.isinf(v) * _INF)
    # words that no entry of the block uses are dropped whole
    words = words[words.any(axis=1) | slow.any()]
    width = cols * len(words)
    out = np.empty((rows, width + tail.shape[1]), np.uint32)
    out[:, width:] = tail
    out[:, :width].reshape(rows, cols, -1)[...] = words.reshape(-1, rows, cols).transpose(1, 2, 0)
    chars = out.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        text = fmt(x[i]).encode()
        at = 4 * (i % cols) * len(words)
        chars[i // cols, at + 1:at + 4 * len(words)] = 0
        chars[i // cols, at + 1:at + 1 + len(text)] = list(text)
    chars[:, 0] = 0  # a row's first entry has no separator before it
    return chars
