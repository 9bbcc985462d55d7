"""One canonical word-stream for XML and JSON payloads.

Equivalent XML and JSON documents tokenize to the identical stream, so both
encrypt to the identical ciphertext and either form can be emitted back.  The
supported subset is deliberately small: elements, attributes, and text
leaves, all within printable ASCII.  Mixed content, comments, processing
instructions, CDATA, DOCTYPEs, and namespaces are rejected.

XML is read in one pass of expat callbacks and a stream is checked in one
flat loop, so neither has a nesting limit.  Tokens are frozen and compare by
value, so one ``parse_xml`` call makes a single ``Open``, ``AttrName`` or
``AttrValue`` per distinct text and checks each distinct name and attribute
value once; ``Close`` is the shared ``CLOSE``.  JSON goes through the
``json`` module, whose nesting limit (the interpreter's recursion limit)
surfaces as ``MalformedJson`` or ``UnsupportedShape``.
"""

import json
import re
from dataclasses import dataclass
from xml.parsers import expat

from .charsets import is_printable
from .errors import (
    MalformedJson,
    MalformedXml,
    MixedContentUnsupported,
    RestCipherError,
    UnsupportedCharacter,
    UnsupportedShape,
)


@dataclass(frozen=True)
class Open:
    name: str


@dataclass(frozen=True)
class AttrName:
    name: str


@dataclass(frozen=True)
class AttrValue:
    text: str


@dataclass(frozen=True)
class Variable:
    text: str


@dataclass(frozen=True)
class Close:
    pass


CLOSE = Close()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


def _check_printable(text: str, what: str) -> None:
    if not is_printable(text):
        bad = next(c for c in text if not is_printable(c))
        raise UnsupportedCharacter(f"{what} contains non-printable {bad!r} (U+{ord(bad):04X})")


def _check_name(name: str, exc=MalformedXml) -> None:
    _check_printable(name, "name")
    if not _NAME_RE.fullmatch(name):
        raise exc(f"invalid name {name!r}")


def _attr_value(value: str, attr: str) -> AttrValue:
    if value == "":
        raise UnsupportedShape(f"empty value for attribute {attr!r}")
    _check_printable(value, f"attribute {attr!r}")
    return AttrValue(value)


# XML side


def _reject_unsupported_markup(text: str) -> None:
    # markup cannot occur unescaped inside text or attributes, so a raw scan
    # is sound for a well-formed document
    if "<!--" in text:
        raise MalformedXml("comments are not supported")
    if "<![CDATA[" in text:
        raise MalformedXml("CDATA sections are not supported")
    if "<!DOCTYPE" in text:
        raise MalformedXml("DOCTYPEs are not supported")
    if re.search(r"<\?(?!xml[\s?])", text):
        raise MalformedXml("processing instructions are not supported")


def _expat_parser():
    # namespace processing as ElementTree configures it: a prefixed name
    # reports as "uri}local", and any other colon is a parse error
    return expat.ParserCreate(None, "}")


def _xml_open(name: str) -> Open:
    if "}" in name:
        raise MalformedXml(f"namespaced element {'{' + name!r} is not supported")
    _check_name(name)
    return Open(name)


def _xml_attr_name(attr: str) -> AttrName:
    if "}" in attr or attr.startswith("xmlns"):
        raise MalformedXml(f"namespaced attribute {attr!r} is not supported")
    _check_name(attr)
    return AttrName(attr)


def parse_xml(text: str) -> tuple:
    """Tokenize an XML document into the canonical word stream.

    Faults are raised in document order.  A document that is also malformed
    anywhere raises MalformedXml, whatever fault comes first.
    """
    _reject_unsupported_markup(text)
    tokens = []
    append = tokens.append
    opens, attr_names, attr_values = {}, {}, {}
    data = []           # character data since the last start or end tag
    names = []          # the open elements

    def start(name, attrs):
        if data:
            # the text before a child, or between two, of the enclosing element
            pending = "".join(data)
            data.clear()
            if pending.strip():
                raise MixedContentUnsupported(f"element {names[-1]!r} mixes text and children")
        token = opens.get(name)
        if token is None:
            token = opens[name] = _xml_open(name)
        append(token)
        names.append(name)
        if attrs:
            pairs = iter(attrs)
            for attr, value in zip(pairs, pairs):
                token = attr_names.get(attr)
                if token is None:
                    token = attr_names[attr] = _xml_attr_name(attr)
                append(token)
                token = attr_values.get(value)
                if token is None:
                    token = attr_values[value] = _attr_value(value, attr)
                append(token)

    def end(name):
        if data:
            pending = "".join(data)
            data.clear()
            # leaf text is kept verbatim; whitespace-only text counts as
            # inter-element whitespace and yields an empty element
            if pending.strip():
                if tokens[-1] is CLOSE:
                    raise MixedContentUnsupported(f"element {name!r} mixes text and children")
                _check_printable(pending, f"text of {name!r}")
                append(Variable(pending))
        append(CLOSE)
        names.pop()

    parser = _expat_parser()
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = data.append
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    except UnicodeEncodeError as exc:
        # a lone surrogate, as text decoded with surrogateescape holds
        raise MalformedXml(f"text is not encodable as UTF-8: {exc.reason}") from None
    except RestCipherError:
        # a fault stops the pass; malformation past it still comes first
        try:
            _expat_parser().Parse(text, True)
        except expat.ExpatError as exc:
            raise MalformedXml(str(exc)) from None
        raise
    return tuple(tokens)


# JSON side


def parse_json(text: str) -> tuple:
    """Tokenize a JSON document (XML-mapping convention) into the stream.

    Names are tags, names prefixed "-" are attributes, scalars are variable
    words, and an array repeats its tag once per element.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedJson(str(exc)) from None
    if not isinstance(data, dict):
        raise UnsupportedShape("top level must be a JSON object")
    if len(data) != 1:
        raise UnsupportedShape("exactly one root name is required")
    ((name, value),) = data.items()
    if name.startswith("-"):
        raise UnsupportedShape("the root name cannot be an attribute")
    if isinstance(value, list):
        raise UnsupportedShape("the root cannot be an array")
    tokens = []
    try:
        _walk_json(name, value, tokens)
    except RecursionError:
        raise UnsupportedShape("the document nests too deeply") from None
    return tuple(tokens)


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    raise UnsupportedShape(f"expected a scalar, got {type(value).__name__}")


def _walk_json(name: str, value, tokens: list) -> None:
    _check_name(name, exc=UnsupportedShape)
    tokens.append(Open(name))
    if isinstance(value, dict):
        seen_child = False
        for key, item in value.items():
            if key.startswith("-"):
                if seen_child:
                    raise UnsupportedShape("attributes must precede child names")
                attr = key[1:]
                if not attr:
                    raise UnsupportedShape("empty attribute name")
                _check_name(attr, exc=UnsupportedShape)
                text = _scalar_text(item)
                if text == "":
                    raise UnsupportedShape(f"empty value for attribute {attr!r}")
                _check_printable(text, f"attribute {attr!r}")
                tokens.append(AttrName(attr))
                tokens.append(AttrValue(text))
            else:
                seen_child = True
                if isinstance(item, list):
                    if not item:
                        raise UnsupportedShape(f"empty array under {key!r}")
                    for member in item:
                        if isinstance(member, list):
                            raise UnsupportedShape("nested arrays are not supported")
                        _walk_json(key, member, tokens)
                else:
                    _walk_json(key, item, tokens)
    else:
        text = _scalar_text(value)
        if not text.strip():
            raise UnsupportedShape("variable text must contain a non-space character")
        _check_printable(text, f"value of {name!r}")
        tokens.append(Variable(text))
    tokens.append(CLOSE)


# stream validation and emission

#: the token types that may follow each one (None: the stream's start)
_FOLLOWERS = {
    None: (Open,),
    Open: (AttrName, Variable, Open, Close),
    AttrName: (AttrValue,),
    AttrValue: (AttrName, Variable, Open, Close),
    Variable: (Close,),
    Close: (Open, Close),
}


def validate_stream(stream) -> None:
    """Assert the word-stream invariants; raises ValueError on structural
    violations and UnsupportedShape on unrepresentable values.

    Faults are raised in stream order; each distinct name and attribute
    value is checked once.
    """
    names, values = set(), set()
    depth = 0
    last = len(stream) - 1
    kind = None
    for i, token in enumerate(stream):
        prev, kind = kind, type(token)
        if kind not in _FOLLOWERS[prev]:
            raise ValueError(f"{kind.__name__} at token {i} cannot follow "
                             f"{prev.__name__ if prev else 'the start'}")
        if kind is Variable:
            if not token.text.strip():
                raise UnsupportedShape("variable text must contain a non-space character")
            _check_printable(token.text, "variable text")
        elif kind is Close:
            depth -= 1
            if not depth and i != last:
                raise ValueError("content after the root element")
        elif kind is AttrValue:
            if token.text not in values:
                if token.text == "":
                    raise UnsupportedShape("empty attribute value")
                _check_printable(token.text, "attribute value")
                values.add(token.text)
        else:
            depth += kind is Open
            if token.name not in names:
                _check_name(token.name, exc=ValueError)
                names.add(token.name)
    if kind is None:
        raise ValueError("empty stream")
    if depth:
        raise ValueError(f"unterminated element at token {last + 1}")


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def emit_xml(stream) -> str:
    """Canonical XML: double-quoted attributes, single spaces, no self-closing."""
    validate_stream(stream)
    parts = []
    append = parts.append
    closers = []
    head = False            # a start tag whose ">" is still to come
    for token in stream:
        kind = type(token)
        if kind is AttrName:
            append(" " + token.name + '="')
        elif kind is AttrValue:
            append(_escape_attr(token.text) + '"')
        else:
            if head:
                append(">")
                head = False
            if kind is Open:
                append("<" + token.name)
                closers.append("</" + token.name + ">")
                head = True
            elif kind is Variable:
                append(_escape_text(token.text))
            else:
                append(closers.pop())
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


def emit_json(stream) -> str:
    """Canonical JSON for the stream; all scalars emit as strings."""
    validate_stream(stream)
    root = _build_tree(stream)
    try:
        return json.dumps({root.name: _node_value(root)})
    except RecursionError:
        raise UnsupportedShape("the document nests too deeply for JSON") from None


def tag_names(stream) -> dict:
    """Ordinal -> tag name, for policy display and configuration."""
    return dict(enumerate((t.name for t in stream if isinstance(t, Open)), start=1))


_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def variable_type(text: str) -> str:
    """Best-effort type tag recovered from decrypted variable text."""
    if text in ("true", "false"):
        return "boolean"
    if text == "null":
        return "null"
    if _NUMBER_RE.fullmatch(text):
        return "number"
    return "string"
