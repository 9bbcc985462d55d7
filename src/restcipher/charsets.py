"""Character classes and the fixed table of 64 character arrangements.

An arrangement is an ordered selection of character classes; it determines
which characters enter the temporary table and in what order.  The 64 entries
are enumerated by selection size (1, 2, 3, then 4 classes), subsets in rank
order small < capital < digit < special, permutations lexicographic within a
subset.  Entry 14 is pinned to (digit, capital, small) by one swap with entry
21, where that ordering naturally lands.
"""

from itertools import combinations, permutations

from .errors import OutOfRange

SMALL = "abcdefghijklmnopqrstuvwxyz"
CAPITAL = SMALL.upper()
DIGIT = "0123456789"
# the remaining printable ASCII characters, space included, in codepoint order
SPECIAL = "".join(
    chr(c) for c in range(0x20, 0x7F) if chr(c) not in SMALL + CAPITAL + DIGIT
)

CLASS_CHARS = {"small": SMALL, "capital": CAPITAL, "digit": DIGIT, "special": SPECIAL}


def _enumerate() -> tuple:
    ranked = ("small", "capital", "digit", "special")
    table = []
    for size in (1, 2, 3, 4):
        for subset in combinations(ranked, size):
            table.extend(permutations(subset))
    table[14], table[21] = table[21], table[14]
    return tuple(table)


ARRANGEMENTS = _enumerate()


def arrangement_for(symbol_type: int) -> tuple:
    """Ordered character classes selected by a symbol_type of 0..63."""
    if not 0 <= symbol_type <= 63:
        raise OutOfRange(5, f"symbol_type must be 0..63, got {symbol_type}")
    return ARRANGEMENTS[symbol_type]


def charset_for(symbol_type: int) -> str:
    """All characters of an arrangement, concatenated in entry order."""
    return "".join(CLASS_CHARS[name] for name in arrangement_for(symbol_type))


def is_printable(text: str) -> bool:
    """Every character in 0x20..0x7E; for ASCII, isprintable is exactly that."""
    return text.isascii() and text.isprintable()
