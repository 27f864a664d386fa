"""Byte tables of formatted cells, for writers that assemble text from `uint8` matrices.

A table holds one text per cell along its last axis, padded with `_PAD`
to the table's width.  `_grid_texts` writes any `[hour][key]` grid of
tables as text.  The kernels write `%.6f` and `repr` of whole float
arrays, exactly, with Python's own formatting as the fallback for the
cells they cannot prove.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PAD = 0xFF  # a cell's padding: never a byte of UTF-8, so deleting it leaves the text


def _byte_table(texts: list[bytes]) -> np.ndarray:
    """`[text][byte]`: the texts left-aligned, each padded with `_PAD` to the longest."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    width = int(lengths.max(initial=0))
    table = np.array(texts, dtype=f"S{max(width, 1)}").view(np.uint8)
    table = table.reshape(len(texts), max(width, 1))[:, :width]
    table[np.arange(width) >= lengths[:, None]] = _PAD
    return table


def _with_fallback(cells: np.ndarray, others: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """`cells` with rows `others` replaced by the `_byte_table` `texts`, widened to fit them."""
    extra = max(0, texts.shape[1] - cells.shape[1])
    cells = np.pad(cells, ((0, 0), (0, extra)), constant_values=_PAD)
    cells[others] = _PAD
    cells[others, : texts.shape[1]] = texts
    return cells


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: `_distinct_rows` mixes a row's bits by it


def _distinct_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """`(index, rows)`: the distinct rows of the stacked float `columns` as
    `[row][column]`, and each row's number among them, in the columns' shape.

    Rows are distinct by bits: -0.0 == 0.0 prints apart.  A row's key is
    its bits mixed as `(c_0 * M + c_1) * M + ...` mod 2**64, numbered by one
    `searchsorted` into the sorted keys.  `M` is odd, so rows of one key that
    agree in `c_1 ..` agree in `c_0`: those columns are checked, and where
    distinct rows share a key, `np.unique` numbers their bytes instead.
    """
    bits = [np.ascontiguousarray(c, dtype=np.float64).view(np.uint64).ravel() for c in columns]
    key = bits[0]
    for column in bits[1:]:
        key = key * _MIX + column  # wraps mod 2**64
    distinct = np.sort(key)
    starts = np.ones(len(distinct), dtype=bool)  # the first of each run of equal keys
    starts[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[starts]
    index = np.searchsorted(distinct, key)
    if len(bits) == 1:  # the distinct keys are the rows
        return index.reshape(np.shape(columns[0])), distinct.view(np.float64)[:, None]
    first = np.empty(len(distinct), dtype=np.intp)
    first[index] = np.arange(len(key))  # a row of each key
    if any((column[first][index] != column).any() for column in bits[1:]):
        rows = np.stack(bits, axis=-1).view(f"V{8 * len(bits)}")[:, 0]
        first, index = np.unique(rows, return_index=True, return_inverse=True)[1:]
    rows = np.stack([column[first] for column in bits], axis=-1).view(np.float64)
    return index.reshape(np.shape(columns[0])), rows


_BLOCK_BYTES = 1 << 16  # a `_grid_texts` block: whole hours up to this size, or one hour


def _grid_texts(segments, shape: tuple, heads=None, block_bytes=_BLOCK_BYTES) -> list[str]:
    """The `[hour][key]` grid of `shape` as text, one string per block of
    whole hours (at most `block_bytes` of matrix, or one hour).

    Hour h is `heads[h]` (an optional `[hour][byte]` table), then its cells,
    each its segments' texts in order.  A segment is a byte table that
    broadcasts to `[hour][key][byte]` (of three axes: a row per hour), or
    `(table, index)`: a `[text][byte]` table and an `[hour][key]` index.  A
    block is one `uint8` matrix, a row per hour, filled with each text as
    one void item; one mask deletes its `_PAD` bytes and one UTF-8 decode
    (lone surrogates let through) makes its string.
    """
    hours, keys = shape
    if not hours:
        return []
    heads = np.empty((hours, 0), np.uint8) if heads is None else heads
    parts = [s if isinstance(s, tuple) else (s, None) for s in segments]
    widths = [table.shape[-1] for table, _ in parts]
    head, width = heads.shape[-1], sum(widths)  # of an hour's head and of a cell
    block = min(hours, max(1, block_bytes // max(1, head + keys * width)))
    rows = np.empty((block, head + keys * width), dtype=np.uint8)  # an hour per row
    cells = rows[:, head:].reshape(block, keys, width)
    places = [rows[:, None, :head], *np.split(cells, np.cumsum(widths)[:-1], axis=-1)]
    fills = []  # (items, index, place) of each table that differs by hour, as void items
    for (table, index), place in zip([(heads[:, None], None), *parts], places):
        if table.shape[-1]:
            void = f"V{table.shape[-1]}"
            items, place = table.view(void)[..., 0], place.view(void)[..., 0]
            if index is None and items.ndim < 2:
                place[...] = items  # the same in every block
            else:
                fills.append((items, index, place))
    texts = []
    for start in range(0, hours, block):
        stop = min(start + block, hours)
        for items, index, place in fills:
            taken = items[start:stop] if index is None else items.take(index[start:stop])
            place[: stop - start] = taken
        data = rows[: stop - start].reshape(-1)
        texts.append(str(data[data != _PAD].data, "utf-8", "surrogatepass"))
    return texts


# "%03d" % i for i below 1000, one 3-byte item each
_DIGITS3 = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), dtype="V3")


def _fixed6_table(values: np.ndarray) -> np.ndarray:
    """`values`' shape plus a byte axis: `b",%.6f" % v` of each float, padded as
    `_byte_table` pads.

    `%.6f` rounds the exact `v * 1e6` to an integer, a tie to even.  Its
    float product `y` is at most half a spacing of `y` away from it, so
    where `|frac(y) - 0.5| > 2 * spacing(y)` the exact product lies on the
    same side of every half-integer as `y`, is no tie, and rounds to
    `floor(y) + (frac(y) > 0.5)`; the six decimals come from `_DIGITS3`.
    Every other value goes through `%`: a negative value or -0.0, NaN, an
    infinity, `y >= 2**53` or `y` close to a tie.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):  # a product past the largest float is inf: not exact
        y = flat * 1e6
    exact = ~np.signbit(flat) & (y < 2.0**53)  # NaN fails the comparison
    y[~exact] = 0.0  # so the integer cast below sees finite values only
    whole = np.floor(y)
    frac = y - whole
    exact &= np.abs(frac - 0.5) > 2 * np.spacing(y)
    units, micros = np.divmod(whole.astype(np.int64) + (frac > 0.5), 10**6)

    width = len("%d" % units.max(initial=0))  # the widest integer part
    cells = np.empty((len(flat), width + 8), dtype=np.uint8)
    cells[:, 0] = ord(",")
    for k in range(width):  # the integer part's digits, the last first
        power = 10**k
        digit = units // power % 10 + ord("0")
        cells[:, width - k] = np.where(units >= power, digit, _PAD) if k else digit
    cells[:, width + 1] = ord(".")
    cells[:, width + 2 : width + 5].view("V3")[:, 0] = np.take(_DIGITS3, micros // 1000)
    cells[:, width + 5 :].view("V3")[:, 0] = np.take(_DIGITS3, micros % 1000)

    others = np.flatnonzero(~exact)
    if len(others):
        texts = _byte_table([b",%.6f" % v for v in flat[others].tolist()])
        cells = _with_fallback(cells, others, texts)
    return cells.reshape(*np.shape(values), cells.shape[1])


_POW5 = np.array([5**s for s in range(21)], dtype=np.int64)  # 5**20 < 2**47
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW2 = np.left_shift(1, np.arange(47, dtype=np.int64))
_LOW32 = np.uint64(2**32 - 1)


@lru_cache(maxsize=None)
def _digit_groups() -> np.ndarray:
    """`[variant * 10**4 + g]`: the text of each g below 10**4 as four bytes in one uint32.

    Variant 0 is `"%04d" % g`.  Variants 1 and 2 write its leading zeros as
    `_PAD`, 3 and 4 its trailing zeros; for g = 0, variant 2 keeps the last
    "0" and variant 4 the first, and 1 and 3 keep none.  It is built when
    first asked for, filled in place, so a process that writes no `repr`
    cell never holds it.
    """
    g = np.arange(10**4)
    groups = np.empty((5, 10**4, 4), dtype=np.uint8)
    for k in range(4):
        groups[..., 3 - k] = g // 10**k % 10 + ord("0")
    place = np.arange(4)
    size = sum(g >= 10**k for k in range(4))[:, None]  # digits without leading zeros
    kept = 4 - sum(g % 10**k == 0 for k in range(1, 5))[:, None]  # up to the last nonzero
    groups[1][place < 4 - size] = _PAD
    groups[2][place < 4 - np.maximum(size, 1)] = _PAD
    groups[3][place >= kept] = _PAD
    groups[4][place >= np.maximum(kept, 1)] = _PAD
    groups.flags.writeable = False  # shared by every caller
    return groups.view(np.uint32).ravel()


_LEAD, _LEAD_UNITS, _TRAIL, _TRAIL_TENTHS = (10**4 * k for k in range(1, 5))


def _repr_texts(floats: list[float]) -> np.ndarray:
    """`float.__repr__` of each float, as a `_byte_table`: `_repr_table`'s
    fallback, and cheaper than its fixed cost for a few dozen floats."""
    return _byte_table([float.__repr__(v).encode("ascii") for v in floats])


def _repr_table(values: np.ndarray) -> np.ndarray:
    """`values`' shape plus a byte axis: `repr(v)` of each float, with `_PAD`
    before and after it.

    `repr` writes the fewest significant digits that read back as `v`,
    and of those the nearest to `v` (Gay's shortest round trip).  The
    kernel finds them exactly for a float `v = m * 2**-q` in [1e-4, 1e15)
    whose mantissa bits are not all zero, so that the floats next to it
    are `2**-q` away on both sides.  With `E = floor(log10 v)`,
    `s = 16 - E` and `t = q - s`, `v * 10**s = P / 2**t` where
    `P = m * 5**s` is one 128-bit product (`t` is 1..46 and `5**s < 2**47`
    in this range); `D = P >> t` has 17 digits (else `E` was off, and the
    cell falls back), and `r = P mod 2**t`.  For p = 15, 16, 17 and
    `u = 10**(17 - p)`, `d_p` is `D // u` rounded by comparing
    `(D mod u) * 2**t + r` with `u * 2**t / 2`, the nearest p-digit
    decimal to `v`; it reads back as `v` iff it is nearer than half the
    gap, `2 * |(u * d_p - D) * 2**t - r| < 5**s`, all in int64.  A shorter
    decimal that reads back is, padded with zeros, a 15-digit one no nearer
    than `d_15`, and no two 15-digit decimals read back as the same float;
    so if any decimal of 15 or fewer digits reads back, `d_15` does, and
    `repr`'s digits are `d_15` without its trailing zeros.  Otherwise `repr`
    writes the nearest decimal of 16 digits, or else of 17, that reads
    back: the first of `d_16` and `d_17` that does.  The chosen digits
    are split at the point into an integer part and 20 decimals, each
    written in fixed columns by 4-digit groups from `_digit_groups`:
    leading zeros of the integer part and trailing zeros of the decimals become
    `_PAD`, except the units digit and the first decimal, so the text is
    `ddd.ddd`, `ddd.0` or `0.000ddd` as `repr` writes it.  Every other
    cell goes through `float.__repr__`: a rounding tie, a read-back test
    that ends in equality, a `d_p` of p + 1 digits, 0.0, -0.0, a negative
    value, a power of two, NaN, an infinity, or a value outside the range.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    exact, e, big, r, t = _scaled(flat)
    cells = _digit_cells(_shortest(exact, e, big, r, t), e)
    others = np.flatnonzero(~exact)
    if len(others):
        cells = _with_fallback(cells, others, _repr_texts(flat[others].tolist()))
    return cells.reshape(*np.shape(values), cells.shape[1])


def _scaled(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """`(exact, E, D, r, t)` of `_repr_table`, with `exact` false where the kernel
    does not apply or `E` was off."""
    bits = flat.view(np.uint64)
    m = bits & np.uint64(2**52 - 1)
    exact = (flat >= 1e-4) & (flat < 1e15) & (m != 0)  # NaN fails the comparisons
    m |= np.uint64(2**52)
    e = np.floor(np.log10(np.where(exact, flat, 1.0))).astype(np.int64).clip(-4, 14)
    t = 1059 + e - (bits >> 52).astype(np.int64)  # q - s, with q = 1075 - the biased exponent
    exact &= (t >= 1) & (t <= 46)  # a wrong `E` can put `t` one step out
    t[~exact] = 1

    # P = m * 5**s from 32-bit halves: every partial product fits in uint64.
    f = _POW5[16 - e].view(np.uint64)
    m_hi, f_hi = m >> 32, f >> 32
    m &= _LOW32
    f &= _LOW32
    low = m * f
    mid = m_hi * f + m * f_hi + (low >> 32)
    high = m_hi * f_hi + (mid >> 32)  # P >> 64
    low &= _LOW32
    low |= mid << 32  # P mod 2**64
    shift = t.view(np.uint64)
    big = (high << (64 - shift)) | (low >> shift)
    low &= _POW2[t].view(np.uint64) - 1
    big, r = big.view(np.int64), low.view(np.int64)  # D < 2**60
    exact &= (big >= 10**16) & (big < 10**17)
    return exact, e, big, r, t


def _shortest(exact, e, big, r, t) -> np.ndarray:
    """The first `u * d_p` of `_repr_table` that reads back, or 0 where `exact`
    is false; clears `exact` where a test is unsure or none reads back."""
    scale = _POW2[t]
    five = _POW5[16 - e]
    digits = np.zeros_like(big)
    open_ = exact.copy()  # exact cells whose digits are not chosen yet
    for p, u in [(15, 100), (16, 10), (17, 1)]:
        below = big // u
        low = (big - u * below) * scale + r  # (D mod u) * 2**t + r
        high = u * scale - low
        d = below + (low > high)
        gap = 2 * np.minimum(low, high)  # 2 * |(u * d_p - D) * 2**t - r|
        unsure = (low == high) | (gap == five) | (d == 10**p)  # d >= 10**(p - 1) always
        exact &= ~(open_ & unsure)
        chosen = open_ & ~unsure & (gap < five)
        digits = np.where(chosen, u * d, digits)
        open_ &= ~(chosen | unsure)
    exact &= ~open_
    return digits


def _digit_cells(digits: np.ndarray, e: np.ndarray) -> np.ndarray:
    """`[cell][byte]`: `digits * 10**(E - 16)` as `repr` writes it, in fixed
    columns with `_PAD` around it, and the columns no cell uses cut off."""
    # The integer part, and the first 20 decimals as `head` (12) and `tail` (8).
    split = _POW10[np.minimum(16 - e, 17)]  # above `digits` when E < 0
    whole = digits // split
    decimals = digits - whole * split
    below = _POW10[np.maximum(4 - e, 0)]
    head = decimals // below
    tail = (decimals - head * below) * _POW10[4 + e]
    head *= _POW10[np.maximum(e - 4, 0)]
    del split, decimals, below

    cells = np.empty((len(digits), 37), dtype=np.uint8)  # 16 + "." + 20
    cells[:, 16] = ord(".")
    table = _digit_groups()
    words = cells[:, :16].view(np.uint32)
    leading = True  # every group so far is 0
    for k, unit in enumerate([10**12, 10**8, 10**4, 1]):
        group = _group(whole, unit)
        words[:, k] = np.take(table, group + (_LEAD_UNITS if k == 3 else _LEAD) * leading)
        leading = leading & (group == 0)
    words = cells[:, 17:].view(np.uint32)
    trailing = True  # every group after this one is 0
    groups = [(head, 10**8), (head, 10**4), (head, 1), (tail, 10**4), (tail, 1)]
    for k in reversed(range(5)):
        group = _group(*groups[k])
        words[:, k] = np.take(table, group + (_TRAIL_TENTHS if k == 0 else _TRAIL) * trailing)
        trailing = trailing & (group == 0)

    end = 37
    while end > 18 and (cells[:, end - 1] == _PAD).all():
        end -= 1
    return cells[:, 16 - len("%d" % whole.max(initial=0)) : end]


def _group(x: np.ndarray, unit: int) -> np.ndarray:
    """`x // unit % 10**4`, by floor divisions by scalars only."""
    x = x // unit if unit > 1 else x
    return x - x // 10**4 * 10**4
