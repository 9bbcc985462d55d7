"""Key-derived tables.

``build_tt`` lays the key's charset into a header-numbered grid, ``build_st``
reads the grid into a character ↔ fixed-width-code bijection, and the tag
table maps whole non-variable words to short agreed integers, grown
identically by encoder and decoder.  The temporary table is only an
intermediate: callers normally go straight to ``build_st`` and drop it.
A symbol table is never changed once built, so every holder of an equal key
shares one from ``build_st``'s cache.
No tag code spells a word, so a held code on the wire was sent as one, and
a receiver reads both encodings alike.

Both peers insert every new non-variable word, so the tag table's insert is
a per-word kernel like the symbol table's decode: ``tat_upsert`` finds a
held word with one lookup, a new word's code with one free-code search
(``TagTable.first_free``), and puts it in without checking again what that
search established (``TagTable._put``); only rows read from outside, by
``TagTable.insert``, are checked one by one.
"""

import functools
from dataclasses import dataclass

from .charsets import charset_for
from .errors import CodeSpaceExhausted, MalformedWord, UnknownCode, UnsupportedCharacter
from .keycore import TenElementKey


@dataclass(frozen=True)
class TempTable:
    """Character grid with numbered row/column headers."""

    rows: int
    cols: int
    row_headers: tuple          # top to bottom
    col_headers: tuple          # left to right
    grid: tuple                 # rows of cells; a cell is one character or None

    def cells(self):
        """Yield (char, rh, ch) over non-empty cells, row-major."""
        for r, row in enumerate(self.grid):
            for c, char in enumerate(row):
                if char is not None:
                    yield char, self.row_headers[r], self.col_headers[c]


def _grouped_reverse(chars: list, size: int) -> list:
    out = []
    for i in range(0, len(chars), size):
        out.extend(reversed(chars[i:i + size]))
    return out


def build_tt(key: TenElementKey) -> TempTable:
    """Number the headers, fill the charset row-major, reverse groups in place."""
    if key.start_with == 1:
        col_nums = list(range(1, key.cols + 1))
        row_nums = list(range(key.cols + 1, key.cols + key.rows + 1))
    else:
        row_nums = list(range(1, key.rows + 1))
        col_nums = list(range(key.rows + 1, key.rows + key.cols + 1))
    if key.row_rev:
        row_nums.reverse()
    if key.col_rev:
        col_nums.reverse()

    chars = list(charset_for(key.symbol_type))
    if key.reverse:
        chars = _grouped_reverse(chars, key.group_size)
    chars += [None] * (key.rows * key.cols - len(chars))
    grid = tuple(
        tuple(chars[r * key.cols:(r + 1) * key.cols]) for r in range(key.rows)
    )
    return TempTable(key.rows, key.cols, tuple(row_nums), tuple(col_nums), grid)


def cell_value(tt: TempTable, cell: tuple, power: int) -> int:
    """rh**power + ch**power for a non-empty cell given as (row, col)."""
    r, c = cell
    if tt.grid[r][c] is None:
        raise ValueError(f"cell {cell} is empty")
    return tt.row_headers[r] ** power + tt.col_headers[c] ** power


class _CodeMap(dict):
    """ord(char) -> code string, the translation table of ``str.translate``.

    translate copies a character unchanged when the lookup raises a
    LookupError, so a missing character must raise something else.
    """

    __slots__ = ()

    def __missing__(self, ordinal):
        raise UnsupportedCharacter(f"character {chr(ordinal)!r} not in symbol table")


class _CharMap(dict):
    """code -> char, a code given as its digit string or as the tuple of its
    digits; a missing code raises UnknownCode."""

    __slots__ = ()

    def __missing__(self, code):
        raise UnknownCode(f"no symbol table entry for code {''.join(code)}")


class _ValueMap(dict):
    """char -> code as an int; any other key, a string of another length
    included, raises UnsupportedCharacter."""

    __slots__ = ()

    def __missing__(self, char):
        raise UnsupportedCharacter(f"character {char!r} not in symbol table")


def _reader(width: int, chars: _CharMap):
    """The inverse of a word's code concatenation: a length check, one split
    into ``width``-digit chunks, and one join of their characters, read from
    a map keyed by each code's tuple of digits, the chunks ``zip`` cuts."""
    char_of = _CharMap((tuple(code), char) for code, char in chars.items()).__getitem__

    def decode_chars(digits: str) -> str:
        if not digits or len(digits) % width:
            raise MalformedWord(
                f"payload of {len(digits)} digits is no multiple of width {width}")
        return "".join(map(char_of, zip(*[iter(digits)] * width)))

    return decode_chars


class SymbolTable:
    """Bijection between characters and fixed-width decimal codes.

    Held as three compiled maps and a reader, built once per key: ``codes``
    maps ``ord(char)`` to its code string, so spelling a word is one
    ``str.translate``; ``chars`` maps a code string back to its character,
    so whether a ``width``-digit code spells a word is one ``in``;
    ``decode_chars(digits)`` reads a spelled word back from its own map of
    each code's tuple of digits, one lookup per ``width``-digit chunk, raising
    MalformedWord or UnknownCode; ``values`` maps a character to its code as
    an int, so a word's code sum is one lookup per character.
    """

    def __init__(self, width: int, entries):
        self.width = width
        self.codes = _CodeMap()
        self.chars = _CharMap()
        self.values = _ValueMap()
        for char, code in entries:
            code = str(code)
            if ord(char) in self.codes or code in self.chars:
                raise ValueError("symbol table entries must be bijective")
            if len(code) != width or code[0] == "0":
                raise ValueError(f"code {code} is not a {width}-digit code")
            self.codes[ord(char)] = code
            self.chars[code] = char
            self.values[char] = int(code)
        self.decode_chars = _reader(width, self.chars)

    def __len__(self):
        return len(self.codes)

    def __contains__(self, char):
        return char in self.values

    def code_for(self, char: str) -> int:
        return self.values[char]

    def char_for(self, code: int) -> str:
        return self.chars[str(code)]

    def items(self):
        """(char, code) pairs in construction order."""
        return list(self.values.items())

    def spells(self, code: int) -> bool:
        """Whether the digits of ``code`` split into ``width``-digit codes:
        one ``in`` for a code of ``width`` digits, and no lookup for a code
        whose digit count is no multiple of ``width``."""
        digits, width = str(code), self.width
        if len(digits) == width:
            return digits in self.chars
        return not len(digits) % width and all(
            digits[i:i + width] in self.chars for i in range(0, len(digits), width))


def _adjust_width(value: int, width: int) -> int:
    """Pad with zeros up to width, or floor-truncate down to it."""
    digits = len(str(value))
    if digits <= width:
        return value * 10 ** (width - digits)
    return value // 10 ** (digits - width)


#: how many symbol tables ``build_st`` keeps, the least recently used
#: dropped first
_ST_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_ST_CACHE_SIZE)
def build_st(key: TenElementKey) -> SymbolTable:
    """Derive the symbol table; the temporary table is discarded afterwards.

    Cells are visited row-major; a colliding code is incremented until free,
    wrapping from the largest width-digit value to the smallest.

    Equal keys get the same table: the last ``_ST_CACHE_SIZE`` are kept,
    least recently used out first, and each is shared by every Session,
    ring and peer that holds its key.  No caller changes a SymbolTable once
    it is built.
    """
    tt = build_tt(key)
    lo = 10 ** (key.final_sum - 1)
    hi = 10 ** key.final_sum - 1
    entries = []
    used = set()
    for char, rh, ch in tt.cells():
        code = _adjust_width(rh ** key.power + ch ** key.power, key.final_sum)
        start = code
        while code in used:
            code = lo if code == hi else code + 1
            if code == start:
                raise CodeSpaceExhausted(
                    f"no free {key.final_sum}-digit code for {char!r}"
                )
        used.add(code)
        entries.append((char, code))
    return SymbolTable(key.final_sum, entries)


class TagTable:
    """Map from non-variable words to agreed integers, stable once assigned.

    ``codes`` maps each held word to its code's decimal text, the wire text
    a tag-table encoder sends after the marker, so a held word encodes with
    one lookup; ``word_for`` reads that text back.

    No code it holds spells a word under its symbol table ``st``:
    ``first_free``, the one search for a free code, steps past one, and
    ``insert`` refuses one.  An index of free codes makes that search short:
    for each code held or found to spell a word, ``_skip`` points to a
    higher code, and every code in between is one of the two.
    ``first_free`` follows these pointers and points each code it passed
    straight at the answer, so a later search skips the whole run at once.
    Codes are never removed, so a pointer, once true, stays true.  Every
    word goes in through ``_put``, which points its code at the successor,
    so rows loaded from a state file are as visible to the index as
    assigned ones.
    """

    def __init__(self, st: SymbolTable):
        self.st = st
        self.codes = {}         # word -> decimal text of its code
        self._by_code = {}      # decimal text of a code -> (word, kind)
        self._skip = {}         # held or spelling code -> higher code

    def __len__(self):
        return len(self.codes)

    def __contains__(self, word):
        return word in self.codes

    def code_for(self, word: str) -> int:
        return int(self.codes[word])

    def word_for(self, payload: str):
        """The word whose code reads ``payload`` in decimal, else None."""
        entry = self._by_code.get(payload)
        return None if entry is None else entry[0]

    def first_free(self, code: int) -> int:
        """The smallest code at least ``code`` neither held nor spelling.

        A code whose digit count is no multiple of ``st.width`` spells no
        word, so the search counts digits as it climbs and asks
        ``st.spells`` only of the codes that might."""
        skip, spells, width = self._skip, self.st.spells, self.st.width
        digits = len(str(code))
        top = 10 ** digits          # the least code of more digits
        passed = []
        while True:
            after = skip.get(code)
            if after is None:
                while code >= top:
                    digits += 1
                    top *= 10
                if digits % width or not spells(code):
                    break
                after = code + 1
            passed.append(code)
            code = after
        for held in passed:
            skip[held] = code
        return code

    def insert(self, word: str, code: int, kind: str) -> None:
        """Add a row read from outside, a state file's, checking each fact
        ``tat_upsert`` gets from its search: the word and the code are new,
        the code is positive and spells no word; raises ValueError."""
        if word in self.codes or str(code) in self._by_code:
            raise ValueError("tag table entries must be bijective")
        if code < 1:
            raise ValueError("tag codes are positive")
        if self.st.spells(code):
            raise ValueError(f"tag code {code} spells a word")
        self._put(word, code, kind)

    def _put(self, word: str, code: int, kind: str) -> None:
        """Add a row that is known to be new, positive and spelling no word."""
        text = str(code)
        self.codes[word] = text
        self._by_code[text] = (word, kind)
        self._skip[code] = code + 1

    def items(self):
        """(word, code, kind) in insertion order."""
        return [(w, int(c), k) for c, (w, k) in self._by_code.items()]


@dataclass
class TatContext:
    """Per-message insertion counters for the tag table.

    ``code_digits`` is the width used for new codes, the fewest whose codes
    that spell no word hold every non-variable word in play once the current
    message is fully absorbed; begin_message fixes it before any insertion.
    """

    code_digits: int = 0

    def begin_message(self, existing: int, new: int, st: SymbolTable) -> None:
        count = existing + new
        digits = 0
        # k-character words spell len(st)**k codes of k*width digits
        while count > 10 ** digits - 1 - sum(
                len(st) ** k for k in range(1, digits // st.width + 1)):
            digits += 1
        self.code_digits = digits


def tat_upsert(tat: TagTable, ctx: TatContext, word: str, kind: str) -> int:
    """Return the word's agreed code, inserting it on first sight.

    ctx must already account for every new word of the current message; both
    peers replay the same insertion order and land on identical codes.  A new
    word starts from its code sum cut to ``ctx.code_digits`` digits and takes
    the first free code counting up from there, wrapping from the largest
    such code to 1; a code that spells a word under ``tat.st`` is never free,
    so one decoder reads both encodings.  That is the first free code in
    ``[start, 10**digits)``, else the first in ``[1, start)``: two
    ``first_free`` searches give the code a one-by-one probe would reach.
    A held word costs one ``tat.codes`` lookup; a found code is free by the
    search, so it goes in by ``_put`` with no check repeated.
    """
    text = tat.codes.get(word)
    if text is not None:
        return int(text)
    digits = ctx.code_digits
    total = sum(map(tat.st.values.__getitem__, word))
    start = _adjust_width(total, digits) if digits else 0
    code = tat.first_free(max(start, 1))
    if code >= 10 ** digits:
        code = tat.first_free(1)
    if code >= 10 ** digits:
        raise CodeSpaceExhausted(f"no free {digits}-digit tag code")
    tat._put(word, code, kind)
    return code
