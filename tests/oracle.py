"""Reference implementations the tests compare the library against.

The table oracles recompute the table construction from first principles
(header numbering, fill order, group reversal, cell values, collision
chains) with deliberately different data layouts than the library, so tests
can compare the two implementations entry by entry; they use nothing from
the package under test.  The symbol-table decode reads a payload code by
code, by slicing, as the library did before it cut the payload with ``zip``;
the tag-table replay may start from rows a state file loaded.

The message-loop oracles at the end keep the two encode walks and the two
decode loops the library had before they became one walker each: the
single-key decoder, composition's decoder behind its structural pre-pass, the
ownership generator and the pair-fed encoder.  They reuse the package's
word-level pieces (one word's decoding, the commit of new words), so a
differential test of them checks the message loops alone.  The single-key
loop accepts bodies the walkers refuse by design: several roots, or none.

The ownership oracles keep the two rules the library had before one rule,
``composition.owners``, served every step: the policy rule (a key id per
ordinal, the group key's for the root and every unmapped tag) and the
recipient rule (the one pairwise key for access-listed ordinals, the group
key for the root, foreign otherwise), each asked once per ordinal.  They
differ from the one rule on one input by design: an access list naming the
root gives it to the pairwise key here and is refused there.

The digest oracles keep the index-based structural scan and the verifier
the library had before a message's Layout was scanned once: the scan marks
digest words by their index in the signed words, and the verifier slices
each subtree's segment out of a rebuilt digest-free body by bisecting the
digest indexes.  The kept-subtree check visits every ordinal and skips the
tags inside a copied subtree by that subtree's last ordinal, where the
library steps past them by its count of tags inside.  They reuse the
package's word classes and the paper's keyed digest, ``sign_segment``,
which hashes key and segment in one call.

The splice oracle keeps the sender's assembly as the library had it before
it wrote each reply into its own items by word position: it lays out both
streams by item and copies each outermost granted subtree from the reply,
with the sender's own items for every run inside it.

The document-model oracles keep the recursive ElementTree parser, the
recursive stream validator and the emitters built on them, as the library
had them before it read XML in one pass of expat callbacks and checked a
stream in one flat loop.  The JSON emitter keeps the library's tree builder
from before ``emit_json`` became one pass over the checked stream: it builds
a node tree, then converts it top-down, so of two JSON faults it names the
upper one where the library names the one it meets first in stream order.
They reuse the package's per-word checks (name, printability, escaping), so
a differential test of them checks the walks alone.  Being recursive, they
raise RecursionError on a document nested about a thousand deep.

The edit oracle keeps the provider's edit walk as the library had it before
an edit found its tag's text by the tag's Span: a stack of open ordinals,
with each Variable edited under the innermost one.  On a stream that keeps
the stream rules, each tag holds at most one Variable, just before its
closer, so the two agree.
"""

import functools
import hmac
import json
import xml.etree.ElementTree as ET
from bisect import bisect_left
from itertools import combinations, permutations

from restcipher import codec, docmodel
from restcipher.composition import Status, Verdict, sign_segment
from restcipher.docmodel import CLOSE, AttrName, AttrValue, Close, Open, Variable
from restcipher.errors import (
    EditNotApplied,
    MalformedMessage,
    MalformedStream,
    MalformedXml,
    MissingKey,
    MixedContentUnsupported,
    RestCipherError,
    UnbalancedClosers,
    UnsupportedShape,
)

SMALL = "abcdefghijklmnopqrstuvwxyz"
CAPITAL = SMALL.upper()
DIGIT = "0123456789"
SPECIAL = "".join(
    chr(c) for c in range(0x20, 0x7F) if chr(c) not in SMALL + CAPITAL + DIGIT
)
CLASS_CHARS = {"small": SMALL, "capital": CAPITAL, "digit": DIGIT, "special": SPECIAL}


def oracle_arrangements():
    ranked = ("small", "capital", "digit", "special")
    table = []
    for size in (1, 2, 3, 4):
        for subset in combinations(ranked, size):
            table.extend(permutations(subset))
    table[14], table[21] = table[21], table[14]
    return table


def oracle_charset(symbol_type):
    return "".join(CLASS_CHARS[c] for c in oracle_arrangements()[symbol_type])


def oracle_headers(key):
    """Row headers top-to-bottom and column headers left-to-right."""
    rows, cols, start_with, row_rev, col_rev = key[:5]
    if start_with == 1:
        col_nums = list(range(1, cols + 1))
        row_nums = list(range(cols + 1, cols + rows + 1))
    else:
        row_nums = list(range(1, rows + 1))
        col_nums = list(range(rows + 1, rows + cols + 1))
    if row_rev == 1:
        row_nums = row_nums[::-1]
    if col_rev == 1:
        col_nums = col_nums[::-1]
    return row_nums, col_nums


def oracle_layout(key):
    """Map character -> (rh, ch), using index arithmetic instead of a grid."""
    rows, cols = key[0], key[1]
    group_size, reverse = key[6], key[7]
    chars = oracle_charset(key[5])
    row_nums, col_nums = oracle_headers(key)
    placed = {}
    for i, ch in enumerate(chars):
        if reverse == 1:
            group, offset = divmod(i, group_size)
            last = min(group_size - 1, len(chars) - 1 - group * group_size)
            cell = group * group_size + (last - offset)
        else:
            cell = i
        r, c = divmod(cell, cols)
        if r >= rows:
            raise AssertionError("charset does not fit the table")
        placed[ch] = (row_nums[r], col_nums[c])
    return placed


def oracle_symbol_table(key):
    """Character -> code map with the increment-and-wrap collision rule."""
    rows, cols = key[0], key[1]
    final_sum, power = key[8], key[9]
    placed = oracle_layout(key)
    row_nums, col_nums = oracle_headers(key)
    # visit non-header cells row-major, top-left to bottom-right
    by_cell = {pos: ch for ch, pos in placed.items()}
    lo, hi = 10 ** (final_sum - 1), 10 ** final_sum - 1
    table = {}
    used = set()
    for r in range(rows):
        for c in range(cols):
            ch = by_cell.get((row_nums[r], col_nums[c]))
            if ch is None:
                continue
            value = row_nums[r] ** power + col_nums[c] ** power
            digits = len(str(value))
            if digits <= final_sum:
                code = value * 10 ** (final_sum - digits)
            else:
                code = value // 10 ** (digits - final_sum)
            start = code
            while code in used:
                code = lo if code == hi else code + 1
                if code == start:
                    raise AssertionError("code space exhausted")
            used.add(code)
            table[ch] = code
    return table


def oracle_spelling(st):
    """Predicate: whether the digits of a code split into symbol-table codes."""
    return _spelling(frozenset(str(c) for c in st.values()))


@functools.lru_cache(maxsize=None)
def _spelling(codes):
    width = len(next(iter(codes)))

    @functools.lru_cache(maxsize=None)
    def spells(code):
        text = str(code)
        return len(text) % width == 0 and all(
            text[i:i + width] in codes for i in range(0, len(text), width))

    return spells


def oracle_decode_chars(st, digits):
    """The characters of a payload read code by code, else the (error class
    name, text) the library raises: MalformedWord for a length that is no
    multiple of the width, UnknownCode for the first code the table lacks."""
    char_of = {str(code): char for char, code in st.items()}
    width = len(next(iter(char_of)))
    if not digits or len(digits) % width:
        return "MalformedWord", f"payload of {len(digits)} digits is no multiple of width {width}"
    out = []
    for i in range(0, len(digits), width):
        code = digits[i:i + width]
        if code not in char_of:
            return "UnknownCode", f"no symbol table entry for code {code}"
        out.append(char_of[code])
    return "".join(out)


def oracle_free_codes(st, digits):
    """How many codes of at most ``digits`` digits, counted one by one,
    spell no word."""
    spells = oracle_spelling(st)
    return sum(not spells(code) for code in range(1, 10 ** digits))


def oracle_code_digits(st, word_count):
    """The fewest digits whose codes that spell no word hold ``word_count``."""
    digits = 0
    while oracle_free_codes(st, digits) < word_count:
        digits += 1
    return digits


def oracle_tat_code(st, existing_codes, word, digits_for_words):
    """Tag-table code for one word given the codes already taken; a code
    that spells a word is never taken."""
    total = sum(st[c] for c in word)
    width = len(str(total))
    if width <= digits_for_words:
        code = total * 10 ** (digits_for_words - width)
    else:
        code = total // 10 ** (width - digits_for_words)
    modulus = 10 ** digits_for_words
    spells = oracle_spelling(st)
    for _ in range(modulus + 1):
        if code != 0 and code not in existing_codes and not spells(code):
            return code
        code = (code + 1) % modulus
    raise AssertionError("tag code space exhausted")


def oracle_tat_replay(st, words_per_message, loaded=None):
    """Replay message-by-message insertion after the rows ``loaded`` (word
    -> code) as a state file gives them; returns word -> code."""
    table = dict(loaded or {})
    for words in words_per_message:
        new = [w for w in dict.fromkeys(words) if w not in table]
        digits = oracle_code_digits(st, len(table) + len(new))
        for w in words:
            if w in table:
                continue
            code = oracle_tat_code(st, set(table.values()), w, digits)
            table[w] = code
    return table


def oracle_max_cell_value(key):
    """Largest rh^power + ch^power over every header pair."""
    row_nums, col_nums = oracle_headers(key)
    return max(r ** key[9] + c ** key[9] for r in row_nums for c in col_nums)


# ownership oracles


def _held(ring, key_id) -> bool:
    return any(entry.key_id == key_id for entry in ring)


def oracle_key_for(policy, ordinal: int, ring) -> str:
    """Id of the key the policy gives tag ``ordinal``."""
    key_id = policy.assignments.get(ordinal, ring.group_id)
    if ordinal == 1 and key_id != ring.group_id:
        raise ValueError("the outermost tag always uses the group key")
    if not _held(ring, key_id):
        raise MissingKey(f"tag {ordinal} needs key {key_id!r}")
    return key_id


def oracle_policy_resolver(policy, ring):
    """Key id of each ordinal under the policy, None for a key not held."""
    def resolve(ordinal: int):
        try:
            return oracle_key_for(policy, ordinal, ring)
        except MissingKey:
            return None

    return resolve


def oracle_recipient_resolver(access, ring):
    """Key id of each ordinal for a recipient that knows no policy."""
    pairwise = [entry.key_id for entry in ring if entry.key_id != ring.group_id]
    if len(pairwise) > 1:
        raise ValueError("recipient rule needs a single pairwise key; pass a policy")

    def resolve(ordinal: int):
        if ordinal in access:
            return pairwise[0] if pairwise else None
        if ordinal == 1:
            return ring.group_id
        return None

    return resolve


# message-loop oracles


#: token class -> kind of a non-variable word
TOKEN_KIND = {Open: codec.WordKind.TAG, AttrName: codec.WordKind.ATTR_NAME,
              AttrValue: codec.WordKind.ATTR_VALUE}


def oracle_encode(pairs, short_codes: bool) -> list:
    """Body words of ``(item, owner)`` pairs; an owner of None marks an
    OpaqueRun, copied verbatim.  Commits each owner's new words at the end."""
    words = []
    pending = {}
    owner = None
    for token, who in pairs:
        if who is None:
            words.extend(token.words)
            continue
        cls = type(token)
        if cls is Close:
            words.append("0")
            continue
        if who is not owner:
            owner, codes, tat = who, who.st.codes, who.tat
            new = pending.setdefault(who, {})
        if cls is Variable:
            words.append(token.text.translate(codes))
            continue
        kind = TOKEN_KIND[cls]
        text = token.text if cls is AttrValue else token.name
        if text not in tat:
            new.setdefault(text, kind.value)
        elif short_codes:
            words.append(codec._MARKER[kind] + str(tat.code_for(text)))
            continue
        words.append(codec._MARKER[kind] + text.translate(codes))
    for who, new in pending.items():
        codec._commit(new, who.st, who.tat, who.ctx)
    return words


def oracle_owned(items, policy, ring):
    """(item, owning Session) pairs under a composition policy."""
    stack = []
    ordinal = 0
    for i, item in enumerate(items):
        cls = type(item)
        if cls is codec.OpaqueRun:
            ordinal += 1 + item.opens_inside
            yield item, None
        elif cls is Open:
            ordinal += 1
            stack.append(ring[oracle_key_for(policy, ordinal, ring)])
            yield item, stack[-1]
        elif not stack:
            what = "closer" if cls is Close else cls.__name__
            raise UnbalancedClosers(f"{what} at item {i} outside every tag")
        elif cls is Close:
            yield item, stack.pop()
        else:
            yield item, stack[-1]


def _oracle_decode_word(word, session, new: dict):
    """Token of one word under ``session``'s tables: variable text read by
    its symbol table, a marked word by the package's ``_decode_word``."""
    kind = codec.classify_word(word)
    if kind is codec.WordKind.VARIABLE:
        return Variable(session.st.decode_chars(word))
    return codec._decode_word(word, kind, session.st, session.tat, new)


def oracle_decrypt(words, session) -> tuple:
    """The single-key decode loop: a closer-depth count and nothing more."""
    tokens = []
    new = {}
    seen = {}
    depth = 0
    for i, word in enumerate(words):
        if word == "0":
            if not depth:
                raise UnbalancedClosers(f"closer at word {i} with no open tag")
            depth -= 1
            tokens.append(CLOSE)
            continue
        token = seen.get(word)
        if token is None:
            token = seen[word] = _oracle_decode_word(word, session, new)
        if type(token) is Open:
            depth += 1
        tokens.append(token)
    if depth:
        raise UnbalancedClosers(f"{depth} tags left open at end of message")
    codec._commit(new, session.st, session.tat, session.ctx)
    return tuple(tokens)


def oracle_scan(words):
    """Subtree spans ``{ordinal: (start, end, opens inside)}`` and the kind
    of every word of a digest-free body; raises MalformedMessage."""
    tag, closer = codec.WordKind.TAG, codec.WordKind.CLOSER
    spans = {}
    kinds = []
    stack = []
    ordinal = 0
    for i, word in enumerate(words):
        kind = codec.classify_word(word)
        kinds.append(kind)
        if kind is tag:
            if not stack and spans:
                raise MalformedMessage("multiple roots in one message")
            ordinal += 1
            stack.append((ordinal, i))
        elif kind is closer:
            if not stack:
                raise MalformedMessage(f"closer at word {i} with no open tag")
            opened, start = stack.pop()
            spans[opened] = (start, i, ordinal - opened)
        elif kind is codec.WordKind.DIGEST:
            raise MalformedMessage(f"unexpected digest word at {i}")
        elif not stack:
            raise MalformedMessage(f"word {i} outside any tag")
    if stack:
        raise MalformedMessage(f"{len(stack)} tags left open")
    if not spans:
        raise MalformedMessage("message contains no tags")
    return spans, kinds


def oracle_compose_decrypt(msg, ring, policy=None) -> list:
    """Composition's decode loop behind its structural pre-pass."""
    words = msg.words
    spans, kinds = oracle_scan(words)
    resolve = oracle_policy_resolver(policy, ring) if policy else \
        oracle_recipient_resolver(msg.access, ring)
    held_of = {o: kid for o, kid in ((o, resolve(o)) for o in spans)
               if _held(ring, kid)}
    frames = {}
    items = []
    stack = []
    ordinal = 0
    i = 0
    while i < len(words):
        word = words[i]
        kind = kinds[i]
        if kind is codec.WordKind.CLOSER:
            stack.pop()
            items.append(CLOSE)
            i += 1
            continue
        if kind is codec.WordKind.TAG:
            ordinal += 1
            if ordinal not in held_of:
                _, end, inside = spans[ordinal]
                items.append(codec.OpaqueRun(tuple(words[i:end + 1]), ordinal, inside))
                ordinal += inside
                i = end + 1
                continue
            key_id = held_of[ordinal]
            if key_id not in frames:
                frames[key_id] = (ring[key_id], {}, {})
            stack.append(frames[key_id])
        entry, decoded, new = stack[-1]
        token = decoded.get(word)
        if token is None:
            token = decoded[word] = _oracle_decode_word(word, entry, new)
        items.append(token)
        i += 1
    for entry, _, new in frames.values():
        codec._commit(new, entry.st, entry.tat, entry.ctx)
    return items


# digest oracles


def oracle_subtree_spans(words, allow_digests: bool = False):
    """(spans as {ordinal: (ordinal, start, end, opens inside)}, digests as
    {ordinal: word index}), every index one into ``words``."""
    spans = {}
    digests = {}
    stack = []
    ordinal = 0
    last_closed = None
    tag, closer = codec.WordKind.TAG, codec.WordKind.CLOSER
    for i, word in enumerate(words):
        kind = codec.classify_word(word)
        if (allow_digests and last_closed is not None and kind is not closer
                and (kind is not tag or not stack) and codec._DIGEST_RE.fullmatch(word)):
            kind = codec.WordKind.DIGEST
        if kind is tag:
            if not stack and spans:
                raise MalformedMessage("multiple roots in one message")
            ordinal += 1
            stack.append((ordinal, i))
            last_closed = None
        elif kind is closer:
            if not stack:
                raise MalformedMessage(f"closer at word {i} with no open tag")
            opened, start = stack.pop()
            spans[opened] = (opened, start, i, ordinal - opened)
            last_closed = opened
        elif kind is codec.WordKind.DIGEST:
            if not allow_digests:
                raise MalformedMessage(f"unexpected digest word at {i}")
            if last_closed is None:
                raise MalformedMessage(f"digest at word {i} does not follow a closer")
            if last_closed in digests:
                raise MalformedMessage(f"second digest for tag {last_closed}")
            digests[last_closed] = i
        else:
            if not stack:
                raise MalformedMessage(f"word {i} outside any tag")
            last_closed = None
    if stack:
        raise MalformedMessage(f"{len(stack)} tags left open")
    if not spans:
        raise MalformedMessage("message contains no tags")
    return spans, digests


def oracle_verify_digests(msg, ring, policy=None) -> list:
    """One verdict per digest word present, in word order."""
    try:
        spans, digests = oracle_subtree_spans(msg.words, allow_digests=True)
    except RestCipherError as exc:
        return [Verdict(0, Status.REJECT, f"malformed message: {exc}")]
    if policy is not None:
        resolve = oracle_policy_resolver(policy, ring)
    else:
        try:
            resolve = oracle_recipient_resolver(msg.access, ring)
        except ValueError as exc:
            return [Verdict(0, Status.REJECT, str(exc))]
    words = msg.words
    cuts = sorted(digests.values())
    cut_set = set(cuts)
    body = [w for i, w in enumerate(words) if i not in cut_set]
    verdicts = []
    for ordinal, index in sorted(digests.items(), key=lambda kv: kv[1]):
        key_id = ring.group_id if ordinal == 1 else resolve(ordinal)
        if not _held(ring, key_id):
            verdicts.append(Verdict(ordinal, Status.NOT_CHECKABLE, "key not held"))
            continue
        _, start, end, _ = spans[ordinal]
        segment = body[start - bisect_left(cuts, start):end + 1 - bisect_left(cuts, end)]
        expected = sign_segment(segment, ring[key_id].key)
        if hmac.compare_digest(expected, words[index]):
            verdicts.append(Verdict(ordinal, Status.ACCEPT))
        else:
            verdicts.append(Verdict(ordinal, Status.REJECT, "digest mismatch"))
    return verdicts


def oracle_changed_kept(read, sent, layout) -> list:
    """Each outermost tag ``read`` leaves foreign whose subtree's words in
    ``layout`` differ from those ``sent`` signed, one subtree at a time."""
    spans, end, changed = sent.layout.spans, 0, []
    for ordinal in range(1, len(spans) + 1):
        if ordinal > end and read.get(ordinal) is None:
            end = ordinal + spans[ordinal].opens_inside
            if layout.segment(ordinal) != sent.layout.segment(ordinal):
                changed.append(ordinal)
    return changed


def oracle_splice_subtrees(final, decoded, ordinals) -> tuple:
    """``final`` with the subtrees of ``ordinals`` copied in from
    ``decoded``, a reply's items, each found by its ``item_spans`` Span; a
    listed tag ``final`` lacks is MalformedMessage.  Only the outermost
    listed subtrees are copied, in stream order; an OpaqueRun inside one
    becomes ``final``'s own items, and a listed tag that lies in a run stays
    as ``final`` has it."""
    spans, src = codec.item_spans(final), codec.item_spans(decoded)
    out = []
    pos = 0
    for ordinal in sorted(ordinals):
        if ordinal not in spans:
            raise MalformedMessage(f"tag {ordinal} is missing from the document")
        _, start, end, _ = spans[ordinal]
        if start < pos or ordinal not in src:
            continue            # copied with an enclosing subtree, or in a run
        _, first, last, _ = src[ordinal]
        out += final[pos:start]
        for item in decoded[first:last + 1]:
            if type(item) is codec.OpaqueRun:
                _, copied, closer, _ = spans[item.ordinal]
                out += final[copied:closer + 1]
            else:
                out.append(item)
        pos = end + 1
    out += final[pos:]
    return tuple(out)


# document-model oracles


def oracle_parse_xml(text: str) -> tuple:
    docmodel._reject_unsupported_markup(text)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    tokens = []
    _oracle_walk_xml(root, tokens)
    return tuple(tokens)


def _oracle_walk_xml(elem, tokens: list) -> None:
    name = elem.tag
    if not isinstance(name, str):
        raise MalformedXml("only plain elements are supported")
    if "{" in name or ":" in name:
        raise MalformedXml(f"namespaced element {name!r} is not supported")
    docmodel._check_name(name)
    tokens.append(Open(name))
    for attr, value in elem.attrib.items():
        if "{" in attr or ":" in attr or attr.startswith("xmlns"):
            raise MalformedXml(f"namespaced attribute {attr!r} is not supported")
        docmodel._check_name(attr)
        if value == "":
            raise UnsupportedShape(f"empty value for attribute {attr!r}")
        docmodel._check_printable(value, f"attribute {attr!r}")
        tokens.append(AttrName(attr))
        tokens.append(AttrValue(value))
    children = list(elem)
    if children:
        if elem.text and elem.text.strip():
            raise MixedContentUnsupported(f"element {name!r} mixes text and children")
        for child in children:
            _oracle_walk_xml(child, tokens)
            if child.tail and child.tail.strip():
                raise MixedContentUnsupported(f"element {name!r} mixes text and children")
    elif elem.text and elem.text.strip():
        docmodel._check_printable(elem.text, f"text of {name!r}")
        tokens.append(Variable(elem.text))
    tokens.append(CLOSE)


def oracle_validate_stream(stream) -> None:
    def element(i: int) -> int:
        if i >= len(stream) or not isinstance(stream[i], Open):
            raise MalformedStream(f"expected an opening tag at token {i}")
        docmodel._check_name(stream[i].name, exc=MalformedStream)
        i += 1
        while i < len(stream) and isinstance(stream[i], AttrName):
            docmodel._check_name(stream[i].name, exc=MalformedStream)
            if i + 1 >= len(stream) or not isinstance(stream[i + 1], AttrValue):
                raise MalformedStream(f"attribute name without value at token {i}")
            if stream[i + 1].text == "":
                raise UnsupportedShape("empty attribute value")
            docmodel._check_printable(stream[i + 1].text, "attribute value")
            i += 2
        if i < len(stream) and isinstance(stream[i], Variable):
            if not stream[i].text.strip():
                raise UnsupportedShape("variable text must contain a non-space character")
            docmodel._check_printable(stream[i].text, "variable text")
            i += 1
        else:
            while i < len(stream) and isinstance(stream[i], Open):
                i = element(i)
        if i >= len(stream) or not isinstance(stream[i], Close):
            raise MalformedStream(f"unterminated or mixed element at token {i}")
        return i + 1

    if not stream:
        raise MalformedStream("empty stream")
    end = element(0)
    if end != len(stream):
        raise MalformedStream("content after the root element")


def oracle_emit_xml(stream) -> str:
    oracle_validate_stream(stream)
    parts = []
    stack = []
    i = 0
    while i < len(stream):
        token = stream[i]
        if isinstance(token, Open):
            parts.append(f"<{token.name}")
            stack.append(token.name)
            i += 1
            while isinstance(stream[i], AttrName):
                parts.append(f' {stream[i].name}="{docmodel._escape_attr(stream[i + 1].text)}"')
                i += 2
            parts.append(">")
        elif isinstance(token, Variable):
            parts.append(docmodel._escape_text(token.text))
            i += 1
        else:
            parts.append(f"</{stack.pop()}>")
            i += 1
    return "".join(parts)


class _Node:
    __slots__ = ("name", "attrs", "children", "text")

    def __init__(self, name):
        self.name = name
        self.attrs = []
        self.children = []
        self.text = None


def _build_tree(stream) -> _Node:
    root = None
    stack = []
    i = 0
    while i < len(stream):
        token = stream[i]
        if isinstance(token, Open):
            node = _Node(token.name)
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
            stack.append(node)
        elif isinstance(token, AttrName):
            stack[-1].attrs.append((token.name, stream[i + 1].text))
            i += 1
        elif isinstance(token, Variable):
            stack[-1].text = token.text
        else:
            stack.pop()
        i += 1
    return root


def _node_value(node: _Node):
    if node.text is not None:
        if node.attrs:
            raise UnsupportedShape(
                f"element {node.name!r} has both attributes and text; "
                "JSON cannot represent it"
            )
        return node.text
    if not node.attrs and not node.children:
        return {}
    obj = {}
    for name, value in node.attrs:
        obj["-" + name] = value
    runs = []
    for child in node.children:
        if runs and runs[-1][0] == child.name:
            runs[-1][1].append(child)
        else:
            runs.append((child.name, [child]))
    names = [name for name, _ in runs]
    if len(names) != len(set(names)):
        raise UnsupportedShape(
            "same-name siblings must be adjacent to map onto a JSON array"
        )
    for name, members in runs:
        if len(members) == 1:
            obj[name] = _node_value(members[0])
        else:
            obj[name] = [_node_value(m) for m in members]
    return obj


def oracle_emit_json(stream) -> str:
    oracle_validate_stream(stream)
    root = _build_tree(stream)
    return json.dumps({root.name: _node_value(root)})


def oracle_apply_edits(items, edits: dict, name: str) -> list:
    """``items`` with the variable text directly under each ordinal of
    ``edits`` replaced; EditNotApplied names ``name`` and each ordinal with
    no variable text among the items, one inside an OpaqueRun for instance."""
    out = list(items)
    ordinal = 0
    stack = []          # per open tag, its ordinal
    applied = set()
    for i, item in enumerate(out):
        if isinstance(item, codec.OpaqueRun):
            ordinal += 1 + item.opens_inside
        elif isinstance(item, Open):
            ordinal += 1
            stack.append(ordinal)
        elif isinstance(item, Close):
            stack.pop()
        elif isinstance(item, Variable) and stack and stack[-1] in edits:
            out[i] = Variable(edits[stack[-1]])
            applied.add(stack[-1])
    missed = sorted(edits.keys() - applied)
    if missed:
        tags = ("tag " if len(missed) == 1 else "tags ") + ", ".join(map(str, missed))
        raise EditNotApplied(f"{name} cannot apply its edit of {tags}: "
                             "it reads no variable text there")
    return out
