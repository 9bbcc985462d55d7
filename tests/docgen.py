"""Random document and key generators for the property and acceptance suites.

Documents stay inside the codec's operating envelope: names come from the
key's lowercase letters, all text from the key's charset, and the number of
distinct non-variable words stays below 10**(final_sum-1) so tag codes are
always shorter than character encodings.
"""

from restcipher.charsets import charset_for
from restcipher.docmodel import CLOSE, AttrName, AttrValue, Open, Variable
from restcipher.keycore import generate_key

#: arrangements whose charset contains lowercase letters (usable tag names)
NAME_FRIENDLY_TYPES = [
    t for t in range(64) if any(c.islower() for c in charset_for(t))
]


def random_doc_key(rng):
    """Valid key whose charset supports generated documents."""
    symbol_type = rng.choice(NAME_FRIENDLY_TYPES)
    size = len(charset_for(symbol_type))
    while True:
        rows = rng.randint(2, 14)
        cols = rng.randint(2, 14)
        if rows * cols >= size:
            break
    return generate_key(
        {
            "rows": (rows, rows),
            "cols": (cols, cols),
            "symbol_type": (symbol_type, symbol_type),
            "power": (1, 2),
            "final_sum": (2, 4),
        },
        rng=rng,
    )


def random_stream(rng, key, *, max_depth=3, json_safe=False):
    """Random valid word stream encodable under the key.

    json_safe avoids shapes emit_json rejects: attributes on text-content
    elements and non-adjacent same-name siblings.
    """
    charset = charset_for(key.symbol_type)
    letters = [c for c in charset if c.islower()]
    budget = min(25, 10 ** (key.final_sum - 1) - 1)
    pool = []

    def word():
        if pool and (len(pool) >= budget or rng.random() < 0.5):
            return rng.choice(pool)
        text = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        if text not in pool:
            pool.append(text)
        return text

    def variable_text():
        chars = [rng.choice(charset) for _ in range(rng.randint(1, 8))]
        if not "".join(chars).strip():
            chars[0] = rng.choice(letters)
        return "".join(chars)

    def element(depth, name=None):
        tokens = [Open(name or word())]
        has_children = depth < max_depth and rng.random() < 0.55
        has_variable = not has_children and rng.random() < 0.75
        attr_names = []
        for _ in range(rng.randint(0, 2)):
            if json_safe and has_variable:
                break
            attr = word()
            if attr in attr_names:
                continue
            attr_names.append(attr)
            tokens.append(AttrName(attr))
            tokens.append(AttrValue(word()))
        if has_children:
            if json_safe:
                names = []
                while len(names) < rng.randint(1, 3):
                    candidate = word()
                    if candidate in names:
                        break
                    names.append(candidate)
                for child_name in names:
                    repeats = 1 if rng.random() < 0.7 else rng.randint(2, 3)
                    for _ in range(repeats):
                        tokens.extend(element(depth + 1, child_name))
            else:
                for _ in range(rng.randint(1, 3)):
                    tokens.extend(element(depth + 1))
        elif has_variable:
            tokens.append(Variable(variable_text()))
        tokens.append(CLOSE)
        return tokens

    return tuple(element(1))


def nested_catalog(rng, items: int) -> str:
    """Items with a nested <tags> group: item > name, price, tags > tag*."""
    parts = []
    for j in range(items):
        tags = "".join(f"<tag>t{j}x{k}</tag>" for k in range(rng.randrange(3)))
        parts.append(f'<item id="i{j}"><name>n{j}</name><price>{j}5</price>'
                     f"<tags>{tags}</tags></item>")
    return f"<catalog>{''.join(parts)}</catalog>"


def stream_char_counts(stream):
    """(non-variable chars, variable chars) at the word level."""
    nonvar = variable = 0
    for token in stream:
        if isinstance(token, (Open, AttrName)):
            nonvar += len(token.name)
        elif isinstance(token, AttrValue):
            nonvar += len(token.text)
        elif isinstance(token, Variable):
            variable += len(token.text)
    return nonvar, variable
