"""The 10-element symmetric key: validation, generation, and text form.

The serialized form (``[12,6,1,1,1,14,4,1,3,2]``) admits no whitespace and is
canonical: message digests are computed over these exact bytes.
"""

import random
import re
from dataclasses import dataclass

from .charsets import charset_for
from .errors import Malformed, NoValidKeyInBounds, OutOfRange, CapacityExceeded, WidthTooSmall

ELEMENTS = (
    "rows",
    "cols",
    "start_with",
    "row_rev",
    "col_rev",
    "symbol_type",
    "group_size",
    "reverse",
    "final_sum",
    "power",
)

#: ranges sampled by generate_key when the caller leaves an element unbounded
DEFAULT_BOUNDS = {
    "rows": (4, 16),
    "cols": (4, 16),
    "start_with": (0, 1),
    "row_rev": (0, 1),
    "col_rev": (0, 1),
    "symbol_type": (0, 63),
    "group_size": (1, 256),
    "reverse": (0, 1),
    "final_sum": (1, 6),
    "power": (1, 3),
}


@dataclass(frozen=True)
class TenElementKey:
    """Immutable symmetric key; both parties derive all tables from it."""

    rows: int
    cols: int
    start_with: int
    row_rev: int
    col_rev: int
    symbol_type: int
    group_size: int
    reverse: int
    final_sum: int
    power: int

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in ELEMENTS)


def max_headers(rows: int, cols: int, start_with: int) -> tuple:
    """Largest row header and column header under the numbering scheme.

    Headers 1..rows+cols are split between columns and rows; start_with=1
    gives columns the low numbers, start_with=0 gives them to rows.
    """
    if start_with == 1:
        return rows + cols, cols
    return rows, rows + cols


def _width_needed(rows, cols, start_with, power, charset_size) -> int:
    """Minimum final_sum passing both the width and capacity checks."""
    max_rh, max_ch = max_headers(rows, cols, start_with)
    width = len(str(max_rh ** power + max_ch ** power))
    while 9 * 10 ** (width - 1) < charset_size:
        width += 1
    return width


def validate_key(candidate) -> TenElementKey:
    """Check all ten elements and the derived capacity/width constraints."""
    values = list(candidate)
    if len(values) != 10 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise Malformed("a key is exactly ten integers")
    (rows, cols, start_with, row_rev, col_rev,
     symbol_type, group_size, reverse, final_sum, power) = values
    if rows < 1:
        raise OutOfRange(0, f"rows must be positive, got {rows}")
    if cols < 1:
        raise OutOfRange(1, f"cols must be positive, got {cols}")
    for index, bit in ((2, start_with), (3, row_rev), (4, col_rev), (7, reverse)):
        if bit not in (0, 1):
            raise OutOfRange(index, f"{ELEMENTS[index]} must be 0 or 1, got {bit}")
    if not 0 <= symbol_type <= 63:
        raise OutOfRange(5, f"symbol_type must be 0..63, got {symbol_type}")
    if not 1 <= group_size <= rows * cols:
        raise OutOfRange(6, f"group_size must be 1..{rows * cols}, got {group_size}")
    if final_sum < 1:
        raise OutOfRange(8, f"final_sum must be positive, got {final_sum}")
    if power < 1:
        raise OutOfRange(9, f"power must be positive, got {power}")

    size = len(charset_for(symbol_type))
    if size > rows * cols:
        raise CapacityExceeded(
            f"arrangement {symbol_type} has {size} characters but the table "
            f"holds only {rows * cols}"
        )
    if 9 * 10 ** (final_sum - 1) < size:
        raise CapacityExceeded(
            f"{final_sum}-digit codes offer {9 * 10 ** (final_sum - 1)} values "
            f"for {size} characters"
        )
    max_rh, max_ch = max_headers(rows, cols, start_with)
    widest = max_rh ** power + max_ch ** power
    if len(str(widest)) > final_sum:
        raise WidthTooSmall(
            f"cell value {widest} has {len(str(widest))} digits, final_sum is {final_sum}"
        )
    return TenElementKey(*values)


def generate_key(bounds=None, rng=None, attempts: int = 1000) -> TenElementKey:
    """Random valid key, uniform within per-element (lo, hi) bounds.

    ``final_sum`` is auto-raised to the minimum passing width when the sampled
    value is too small.  Pass a seeded ``random.Random`` for reproducibility.
    """
    merged = dict(DEFAULT_BOUNDS)
    merged.update(bounds or {})
    empty = [name for name, (lo, hi) in merged.items() if lo > hi]
    if empty:
        raise NoValidKeyInBounds(f"empty range for {', '.join(empty)}")
    rng = rng if rng is not None else random.Random()
    for _ in range(attempts):
        sampled = {name: rng.randint(*merged[name]) for name in ELEMENTS}
        lo, hi = merged["group_size"]
        hi = min(hi, sampled["rows"] * sampled["cols"])
        if lo > hi:
            continue
        sampled["group_size"] = rng.randint(lo, hi)
        needed = _width_needed(
            sampled["rows"], sampled["cols"], sampled["start_with"],
            sampled["power"], len(charset_for(sampled["symbol_type"])),
        )
        sampled["final_sum"] = max(sampled["final_sum"], needed)
        try:
            return validate_key([sampled[name] for name in ELEMENTS])
        except (OutOfRange, CapacityExceeded, WidthTooSmall):
            continue
    raise NoValidKeyInBounds(f"no valid key found in {attempts} attempts")


def serialize_key(key: TenElementKey) -> str:
    """Canonical text form: ``[`` + comma-separated decimals + ``]``, no spaces."""
    return "[" + ",".join(str(v) for v in key.as_tuple()) + "]"


_KEY_RE = re.compile(r"\[(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*)){9}\]")


def parse_key(text: str) -> TenElementKey:
    """Inverse of serialize_key; rejects any non-canonical spelling."""
    if not _KEY_RE.fullmatch(text):
        raise Malformed(f"not a serialized key: {text!r}")
    return validate_key([int(part) for part in text[1:-1].split(",")])
