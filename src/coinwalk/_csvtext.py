"""The bytes of every file coinwalk writes: ``write_table`` (CSV) and ``write_json``.

``write_table(path, header, blocks)`` writes the header line, then the rows
of each block of equal-length columns, regrouped into chunks of
``core.BLOCK`` rows (gathering blocks whose dtypes differ raises
``TypeError`` instead of casting).
``render(columns)`` gives a chunk's bytes, those of ``"%d" % v`` for an int64
column and ``"%.17g" % x`` for a float64 one, fields joined by ``,`` and rows
ended by ``\\n``.  ``write_json(path, payload)`` writes the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline, streamed
piece by piece: a dict member by member, a numpy array as its ``tolist()``
``core.BLOCK`` items at a time, whose items ``json_items(values, separator)``
renders (an integer as ``"%d"``, a float as its ``repr``), and any other
value in one ``json.dumps`` call.  Each array that enters a writer meets one
rule, ``_require_writable``, once, empty ones included: 1-D int64 or float64
(else ``TypeError``; nothing is converted), and finite (else
:class:`~coinwalk.core.CoinWalkError`), at the cost of one ``np.isfinite``
pass.  Scalars, such as verify's residuals, go to ``json.dumps``.

Every field is laid out in a 32-byte slot of one ``uint8`` matrix with unused
bytes 0, and deleting the zero bytes (``bytes.translate``, a little faster than
``m[m != 0]``) joins the fields; no text byte is 0.

A float ``x`` with ``10**E <= |x| < 10**(E+1)`` has the 17 digits
``D = round(|x| * 10**(16 - E))``, ``10**16 <= D <= 10**17`` (``10**17`` is a
carry into ``E + 1``).  ``E`` starts from ``floor(log10|x|)`` and is then set
exactly by comparing ``|x|`` with the doubles next above the powers of ten.
The product is formed in double-double: Dekker's ``two_prod`` of ``|x|`` with
the double nearest ``10**(16 - E)``, plus ``|x|`` times the double nearest the
remainder, both built once from exact rationals.  That leaves ``D``'s
fraction within ``2**-45`` of the exact one, so ``D`` is the correctly
rounded integer whenever the fraction is farther than ``2**-30`` from one
half.  Two kinds of value go to ``"%.17g" % x`` one at a time instead: such
near-ties (the exact ties ``%.17g`` breaks to even, like ``2**-25``), and
values outside ``[1e-280, 1e280]``, where the remainder doubles would lose
bits (non-finite ones too, when a test calls the kernel directly).  Zeros
stay in the kernel.  The digits come four at a time from ``// 10000`` by a
scalar and a table of 10000 four-byte strings; the text then follows
``%g``: fixed notation for ``-4 <= E < 17``, otherwise ``d.ddde±XX``,
trailing zeros stripped.

``repr`` keeps the fewest digits that read back as ``x``.  Half an ulp of
``x``, from its exponent field, is scaled like ``D``; the nearest number of
16 digits, and then of 15 (or fewer, with trailing zeros), replaces ``D``
when it lies within that half ulp (see ``_repr_slots``).  The layout is ``repr``'s: fixed notation for
``-4 <= E < 16``, and ``.0`` on an integral value, so zeros print as
``0.0`` and ``-0.0``.  ``json.dumps(x)`` takes single values instead:
near-ties, powers of two and values outside ``[1e-280, 1e280]``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from . import core
from .core import CoinWalkError

SLOT = 32  # bytes per field; the last one holds the ',' or '\n'

# |x| in this range takes the exact double-double route
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# decimal exponents of the tables: the fast range's, one more each way for
# floor(log10) being off by one, and one more above for a carry
_E_MIN, _E_MAX = -281, 282

_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")


def _words(pieces, dtype) -> np.ndarray:
    """The byte strings ``pieces``, concatenated and read as words of ``dtype``."""
    return np.frombuffer(b"".join(pieces), dtype=dtype)


def _ratio_10(k: int) -> tuple[int, int]:
    """``10**k`` as a numerator and a denominator."""
    return (10**k, 1) if k >= 0 else (1, 10**-k)


def _ceil_double(k: int) -> float:
    """The smallest double >= ``10**k`` (int / int division rounds correctly)."""
    n, d = _ratio_10(k)
    f = n / d
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * d < n * fd else f


def _nearest_pair(k: int) -> tuple[float, float]:
    """The double nearest ``10**k`` and the double nearest the rest."""
    n, d = _ratio_10(k)
    hi = n / d
    hn, hd = hi.as_integer_ratio()
    return hi, (n * hd - hn * d) / (d * hd)


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split into a high and a low half of 26 bits each."""
    c = values * 134217729.0  # 2**27 + 1
    hi = c - (c - values)
    return hi, values - hi


def _group_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Four-digit groups ``r`` in 0..9999 as little-endian words, and digit counts.

    Returns ``"%04d" % r`` for floats; the digit count of float groups 0..3
    (digits d1..d16 of ``D``) when ``r`` is the last nonzero group, one row
    per group; and for integers, ``"%04d"`` below the leading group, the
    leading group without its leading zeros, and the last group keeping its
    final digit when it leads.  They are built from bytes, not numpy loops:
    each loop a process first runs maps more of numpy's code into memory.
    """
    r = tuple(range(10000))
    plain = (("%04d" * 10000) % r).encode()
    unpadded = (("%4d" * 10000) % r).encode().replace(b" ", b"\0")
    trailing_zeros = bytearray(10000)  # of r, and 255 for r = 0
    for step, zeros in ((10, 1), (100, 2), (1000, 3), (10000, 255)):
        trailing_zeros[::step] = bytes([zeros]) * (10000 // step)
    ndigits = b"".join(
        trailing_zeros.translate(bytes(max(0, 5 + 4 * j - z) for z in range(256))) for j in range(4)
    )
    ints = plain + b"\0" * 4 + unpadded[4:] + unpadded
    return (
        np.frombuffer(plain, _U32),
        np.frombuffer(ndigits, np.uint8).reshape(4, 10000),
        np.frombuffer(ints, _U32),
    )


_EXPONENTS = range(_E_MIN, _E_MAX + 1)
_POW_CEIL = np.array([_ceil_double(e) for e in _EXPONENTS])
_SCALE, _SCALE_LO = np.array([_nearest_pair(16 - e) for e in _EXPONENTS]).T.copy()
_SCALE_HH, _SCALE_HL = _split(_SCALE)
_GROUP, _NDIGITS, _INT_GROUP = _group_tables()

# Per decimal exponent X (index X - _E_MIN), the pieces of a float slot:
#   bytes 0-7    sign, the "0.000" of -4 <= X < 0, and d0 in byte 7  (word 0)
#   bytes 8-24   d1..d16, with a '.' inserted after d_P              (words 1-3)
#   bytes 26-30  "e+XX" or "e-XXX" in exponent notation              (word 3)
_XS = list(_EXPONENTS)
_HEAD = _words(
    [
        (sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).ljust(8, b"\0")
        for x in _XS
        for sign in (b"", b"-")
    ],
    _U64,
)
_LEAD = _words([b"\0" * 7 + b"%d" % q for q in range(10)], _U64)
_NO_POINT = 16


def _notation(fixed_stop: int, dot_zero: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decimal exponent, the exponent text, the fewest digits and the '.' position.

    Fixed notation covers ``-4 <= X < fixed_stop``; there the integer digits
    d0..dX are kept even when they are zeros, and with ``dot_zero`` one more
    digit, the ``0`` of ``.0``, so an integral value keeps its point.
    """
    fixed = range(-4, fixed_stop)
    tail = _words([b"\0" * 8 if x in fixed else (b"\0\0e%+03d" % x).ljust(8, b"\0") for x in _XS], _U64)
    min_digits = np.array([x + 1 + dot_zero if 0 <= x < fixed_stop else 1 for x in _XS])
    point = np.array([x if 0 <= x < fixed_stop else _NO_POINT if x in fixed else 0 for x in _XS])
    return tail, min_digits, point


_PERCENT_G = _notation(17, False)  # "%.17g": fixed for -4 <= X < 17, zeros stripped
_REPR = _notation(16, True)  # repr: fixed for -4 <= X < 16, and 1.0 keeps its ".0"
# masks on d1..d16 (two words): the first n digits kept; the region below a
# '.' at P, the '.' itself, and the region above it shifted up one byte
_KEEP = _words([(b"\xff" * n).ljust(16, b"\0") for n in range(17)], _U64).reshape(17, 2).T.copy()
_BELOW = _words([(b"\xff" * p).ljust(16, b"\0") for p in range(17)], _U64).reshape(17, 2).T.copy()
_DOT = _words(
    [(b"\0" * p + b".").ljust(16, b"\0")[:16] for p in range(17)], _U64
).reshape(17, 2).T.copy()
_ABOVE = _words(
    [(b"\0" * (p + 1)).ljust(16, b"\xff")[:16] for p in range(16)] + [b"\0" * 16], _U64
).reshape(17, 2).T.copy()
_SIGN = _words([b"\0" * 8, b"-" + b"\0" * 7], _U64)

# a decision this close to a tie (in units of the last of 17 digits) is left
# to the per-value format; the double-double error is below 2**-45
_NEAR = 2.0**-30
_MANTISSA = np.uint64(2**52 - 1)


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(fast, ei, n, t)`` with ``|x| * 10**(16 - E) = n + t``, ``n`` an integer and ``0 <= t < 1``.

    ``ei`` is the decimal exponent ``E`` as a table index, ``E - _E_MIN``;
    ``fast`` marks the ``|x|`` in ``[1e-280, 1e280]``, and the other rows
    hold the figures of ``1.0``.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    ei = np.floor(np.log10(a)).astype(np.intp)
    ei -= _E_MIN
    # np.log10 can be off by an ulp near a power of ten, either way
    ei -= a < _POW_CEIL.take(ei)
    ei += a >= _POW_CEIL.take(ei + 1)

    # |x| * 10**(16 - E) = p + t exactly up to ~2**-48, p an integer >= 2**53
    p = a * _SCALE.take(ei)
    ah, al = _split(a)
    hh, hl = _SCALE_HH.take(ei), _SCALE_HL.take(ei)
    t = ah * hh
    t -= p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * _SCALE_LO.take(ei)
    whole = np.floor(t)
    t -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    return fast, ei, n, t


def _float_slots(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``"%.17g"`` of each ``x`` into the rows of ``out``; returns the fallback count."""
    fast, ei, n, t = _scaled(x)
    n += t > 0.5
    fallback = np.abs(t - 0.5) < _NEAR
    fallback |= ~fast
    return _layout(x, n, ei, fallback, out, _PERCENT_G, lambda v: b"%.17g" % v)


def _repr_slots(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``json.dumps`` of each finite ``x`` (its ``repr``) into the rows of ``out``; returns the fallback count.

    ``repr`` gives the fewest digits that read back as ``x``, and of those the
    nearest.  Half an ulp of ``x``, ``h``, scales like ``n + t``; a number
    reads back when it lies closer than ``h``.  ``h`` lies between 0.55 and
    11.2, so the 17 digits of ``"%.17g"`` always read back; the nearest
    16-digit number (a multiple of 10) replaces them when it reads back, and
    the nearest 15-digit one (a multiple of 100) replaces that.  ``2h`` is
    below 23, so at most one multiple of 100 lies within ``h``: when any
    number of 15 digits or fewer reads back, it is that one, and the layout
    strips its trailing zeros.  Per-value ``json.dumps`` takes near-ties,
    powers of two (whose lower neighbour is half as far) and values outside
    the fast range.
    """
    fast, ei, n, t = _scaled(x)
    bits = x.view(_U64)
    h = np.ldexp(_SCALE.take(ei), ((bits >> 52) & 0x7FF).astype(np.intc) - 1076)
    d = n + (t > 0.5)
    tie = np.abs(t - 0.5) < _NEAR
    fallback = (bits & _MANTISSA) == 0
    fallback |= ~fast
    for g in (10, 100):  # 16 digits, then 15 or fewer
        q = n // g
        s = (n - q * g) + t  # n + t is s past the multiple q * g
        up = s > g / 2
        dist = np.where(up, g - s, s)
        fits = dist < h
        fallback |= np.abs(dist - h) < _NEAR
        q += up
        q *= g
        d = np.where(fits, q, d)
        tie = np.where(fits, np.abs(s - g / 2) < _NEAR, tie)
    fallback |= tie
    return _layout(x, d, ei, fallback, out, _REPR, lambda v: json.dumps(v).encode())


def _layout(x, d, ei, fallback, out, notation, text) -> int:
    """Write the 17-digit ``d`` of each ``x`` (``E`` at index ``ei``) in ``notation``; returns the fallback count.

    The ``fallback`` rows get ``text(v)`` of their value ``v`` instead; zeros
    are laid out here.
    """
    tail, min_digits, point_at = notation
    carry = d == 10**17
    d[carry] = 10**16
    ei += carry
    zero = x == 0  # its E is 0, as for 1.0
    fallback &= ~zero
    d[zero] = 0

    digits = np.empty((len(x), 4), _U32)
    ndigits = np.ones(len(x), np.intp)
    for j in (3, 2, 1, 0):
        q = d // 10000
        r = d - q * 10000
        digits[:, j] = _GROUP.take(r)
        np.maximum(ndigits, _NDIGITS[j].take(r), out=ndigits)
        d = q
    np.maximum(ndigits, min_digits.take(ei), out=ndigits)
    point = point_at.take(ei)
    point[ndigits <= point + 1] = _NO_POINT  # no digit after it
    keep = ndigits - 1
    w = digits.view(_U64)
    w1 = w[:, 0] & _KEEP[0].take(keep)
    w2 = w[:, 1] & _KEEP[1].take(keep)

    words = out.view(_U64)
    words[:, 0] = _HEAD.take(2 * ei + np.signbit(x))
    words[:, 0] |= _LEAD.take(d)
    up1 = w1 << 8
    up2 = (w2 << 8) | (w1 >> 56)
    words[:, 1] = (w1 & _BELOW[0].take(point)) | (up1 & _ABOVE[0].take(point)) | _DOT[0].take(point)
    words[:, 2] = (w2 & _BELOW[1].take(point)) | (up2 & _ABOVE[1].take(point)) | _DOT[1].take(point)
    words[:, 3] = (w2 >> 56) * (point != _NO_POINT)
    words[:, 3] |= tail.take(ei)

    rows = np.flatnonzero(fallback)
    for i in rows.tolist():
        value = text(float(x[i]))
        out[i, :] = 0
        out[i, : len(value)] = np.frombuffer(value, np.uint8)
    return len(rows)


def _int_slots(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%d"`` of each int64 ``v`` into the rows of ``out``."""
    u = np.abs(v).view(np.uint64)  # the int64 minimum wraps to 2**63, its magnitude
    words = out.view(_U32)
    # only the four-digit groups the largest |v| has; the rest stay blank
    ngroups = (len(str(u.max())) + 3) // 4
    words[:, 2 : 7 - ngroups] = 0
    words[:, 7] = 0
    groups = []
    for _ in range(ngroups - 1):
        q = u // 10000
        groups.append(u - q * 10000)
        u = q
    groups.append(u)
    leading = np.ones(len(v), np.intp)  # no nonzero group yet
    for i, r in enumerate(reversed(groups)):
        r = r.view(np.int64)
        last = i == ngroups - 1
        words[:, 7 - ngroups + i] = _INT_GROUP.take(r + leading * (20000 if last else 10000))
        leading &= r == 0
    out.view(_U64)[:, 0] = _SIGN.take(v < 0)


def _require_writable(values) -> None:
    """The writers' one rule: 1-D int64 or float64 (else ``TypeError``), finite (else ``CoinWalkError``)."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype in (np.int64, np.float64)):
        what = getattr(values, "dtype", type(values).__name__)
        raise TypeError(f"the writers take 1-D int64 or float64 arrays, got {what} of shape {np.shape(values)}")
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise CoinWalkError("an output array holds NaN or an infinity; the writers take finite numbers only")


def render(columns) -> bytes:
    """The CSV rows of equal-length nonempty ``columns`` that ``_require_writable`` passed.

    One kernel call per column, so ``write_table`` passes ``core.BLOCK`` rows at most.
    """
    m = np.empty((len(columns), len(columns[0]), SLOT), np.uint8)  # a column's slots are contiguous
    for values, slots in zip(columns, m):
        kernel = _float_slots if values.dtype.kind == "f" else _int_slots
        kernel(values, slots)
    m[:, :, -1] = ord(",")
    m[-1, :, -1] = ord("\n")
    return m.transpose(1, 0, 2).tobytes().translate(None, b"\0")


def json_items(values: np.ndarray, separator: bytes) -> bytes:
    """The items of ``json.dumps(values.tolist())`` joined by ``separator``, for nonempty ``values``.

    ``values`` has passed ``_require_writable``; a float is its ``repr``, an
    integer its ``"%d"``.  Each row of one matrix holds the separator,
    right-aligned in whole words, then the item's slot.
    """
    width = -(-len(separator) // 8) * 8
    m = np.empty((len(values), width + SLOT), np.uint8)
    m.view(_U64)[:, : width // 8] = _words([separator.rjust(width, b"\0")], _U64)
    m[0, :width] = 0  # no separator before the first item
    kernel = _repr_slots if values.dtype.kind == "f" else _int_slots
    kernel(values, m[:, width:])
    return m.tobytes().translate(None, b"\0")


def write_table(path: Path, header: str, blocks) -> None:
    """Write ``header`` and the rows of ``blocks``, each a sequence of equal-length columns."""
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in _table_chunks(blocks):
            fh.write(render(columns))


def _table_chunks(blocks):
    """The rows of ``blocks`` as chunks of ``core.BLOCK`` rows, the last one shorter.

    Short blocks (one per step of ``walk --trajectory``) are gathered, sparing
    ``render``'s cost per call.
    """
    chunk = core.BLOCK
    parts, rows = [], 0
    for columns in blocks:
        for values in columns:
            _require_writable(values)
        start, n = 0, len(columns[0])
        while start < n:
            stop = min(n, start + chunk - rows)
            parts.append([c[start:stop] for c in columns])
            rows += stop - start
            start = stop
            if rows == chunk:
                yield _joined(parts)
                parts, rows = [], 0
    if parts:
        yield _joined(parts)


def _joined(parts: list) -> list:
    return parts[0] if len(parts) == 1 else [np.concatenate(cs, casting="no") for cs in zip(*parts)]


def _json_chunks(value, pad: str = ""):
    """Pieces of ``json.dumps(value, indent=2, sort_keys=True)``, nested at indent ``pad``.

    A dict (string keys) recurses key by key; an array's blocks are joined
    by the item separator that carries the newline and indent.  Any other
    value is one ``json.dumps`` call re-indented by one ``str.replace``: the
    encoder escapes newlines inside strings, so its text breaks lines only
    between items.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        brackets = "{}"
        members = (chain((f"{json.dumps(key)}: ",), _json_chunks(value[key], inner)) for key in sorted(value))
    elif isinstance(value, np.ndarray):
        _require_writable(value)
        brackets = "[]"
        separator = (",\n" + inner).encode()
        members = ((json_items(value[block], separator).decode(),) for block in core.blocks(len(value)))
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
        return
    opened = False
    for member in members:
        yield ",\n" + inner if opened else brackets[0] + "\n" + inner
        yield from member
        opened = True
    yield "\n" + pad + brackets[1] if opened else brackets


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(payload))
        fh.write("\n")
