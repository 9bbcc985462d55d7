"""One canonical word-stream for XML and JSON payloads.

Equivalent XML and JSON documents tokenize to the identical stream, so both
encrypt to the identical ciphertext and either form can be emitted back.  The
supported subset is deliberately small: elements, attributes, and text
leaves, all within printable ASCII.  Mixed content, comments, processing
instructions, CDATA, DOCTYPEs, and namespaces are rejected.

XML is read in one pass of expat callbacks, so it has no nesting limit.
JSON goes through the ``json`` module, and nesting deeper than the
interpreter's recursion limit surfaces as ``MalformedJson`` or
``UnsupportedShape``.  Tokens are frozen and compare by value, so one
``parse_xml`` or ``parse_json`` call makes a single ``Open``, ``AttrName`` or
``AttrValue`` per distinct text and checks each distinct name and attribute
value once; ``Close`` is the shared ``CLOSE``.

The stream rules are written down once, in one flat loop that checks a
stream and writes its XML: ``emit_xml`` joins what it writes, and
``validate_stream`` runs it and drops the text.  A stream that breaks them
raises ``MalformedStream``, which is also a ``ValueError``.  Both emitters
walk the checked stream once: ``emit_xml`` in that loop, and ``emit_json``
in one more flat loop over the stream ``validate_stream`` has passed, which
builds the JSON value with a stack of open elements and no node tree.
"""

import json
import re
import sys
from dataclasses import dataclass
from xml.parsers import expat

from .charsets import is_printable
from .errors import (
    MalformedJson,
    MalformedStream,
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
    if not (value.isascii() and value.isprintable()):
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
                if not (pending.isascii() and pending.isprintable()):
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
    words, and an array repeats its tag once per element.  A number keeps
    its literal text, as its XML twin does; NaN and the infinities, which
    are not JSON, are MalformedJson.
    """
    try:
        data = json.loads(text, parse_int=str, parse_float=str, parse_constant=_not_json)
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
    append = tokens.append
    opens, attr_names, attr_values = {}, {}, {}

    def element(name: str, value) -> None:
        token = opens.get(name)
        if token is None:
            _check_name(name, exc=UnsupportedShape)
            token = opens[name] = Open(name)
        append(token)
        if not isinstance(value, dict):
            text = _scalar_text(value)
            if not text.strip():
                raise UnsupportedShape("variable text must contain a non-space character")
            if not (text.isascii() and text.isprintable()):
                _check_printable(text, f"value of {name!r}")
            append(Variable(text))
            append(CLOSE)
            return
        seen_child = False
        for key, item in value.items():
            if key.startswith("-"):
                if seen_child:
                    raise UnsupportedShape("attributes must precede child names")
                attr = key[1:]
                token = attr_names.get(attr)
                if token is None:
                    if not attr:
                        raise UnsupportedShape("empty attribute name")
                    _check_name(attr, exc=UnsupportedShape)
                    token = attr_names[attr] = AttrName(attr)
                text = _scalar_text(item)
                value_token = attr_values.get(text)
                if value_token is None:
                    value_token = attr_values[text] = _attr_value(text, attr)
                append(token)
                append(value_token)
            else:
                seen_child = True
                if isinstance(item, list):
                    if not item:
                        raise UnsupportedShape(f"empty array under {key!r}")
                    for member in item:
                        if isinstance(member, list):
                            raise UnsupportedShape("nested arrays are not supported")
                        element(key, member)
                else:
                    element(key, item)
        append(CLOSE)

    try:
        element(name, value)
    except RecursionError:
        raise UnsupportedShape("the document nests too deeply") from None
    return tuple(tokens)


def _not_json(name: str):
    raise MalformedJson(f"{name} is not a JSON number")


def _scalar_text(value) -> str:
    """The literal text of a scalar; ``parse_json`` reads numbers as text."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    raise UnsupportedShape(f"expected a scalar, got {type(value).__name__}")


# stream checking and emission

#: the token types that may follow each one (None: the stream's start)
_FOLLOWERS = {
    None: (Open,),
    Open: (AttrName, Variable, Open, Close),
    AttrName: (AttrValue,),
    AttrValue: (AttrName, Variable, Open, Close),
    Variable: (Close,),
    Close: (Open, Close),
}


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def _attr_text(value: str) -> str:
    """An attribute value as it is written, closing quote included."""
    if value == "":
        raise UnsupportedShape("empty attribute value")
    if not (value.isascii() and value.isprintable()):
        _check_printable(value, "attribute value")
    if "&" in value or "<" in value or ">" in value or '"' in value:
        value = _escape_attr(value)
    return value + '"'


def _render(stream) -> list:
    """The parts of the stream's canonical XML, in one pass that checks the
    stream rules; raises MalformedStream on a structural fault, and
    UnsupportedShape or UnsupportedCharacter on an unrepresentable value.

    Faults are raised in stream order.  Each distinct name and attribute
    value is checked and rendered once; text is escaped only when it holds
    a character to escape.
    """
    parts = []
    append = parts.append
    tags = {}           # tag name -> (start text, end text)
    names = {}          # attribute name -> its text up to the opening quote
    values = {}         # attribute value -> its text from the opening quote
    ends = []           # the end text of each open element
    head = False        # a start tag whose ">" is still to come
    last = len(stream) - 1
    follows = _FOLLOWERS[None]
    for i, token in enumerate(stream):
        kind = type(token)
        if kind not in follows:
            raise MalformedStream(f"{kind.__name__} at token {i} cannot follow "
                                  f"{type(stream[i - 1]).__name__ if i else 'the start'}")
        follows = _FOLLOWERS[kind]
        if kind is AttrName:
            text = names.get(token.name)
            if text is None:
                _check_name(token.name, exc=MalformedStream)
                text = names[token.name] = " " + token.name + '="'
            append(text)
            continue
        if kind is AttrValue:
            text = values.get(token.text)
            if text is None:
                text = values[token.text] = _attr_text(token.text)
            append(text)
            continue
        if head:
            append(">")
            head = False
        if kind is Open:
            tag = tags.get(token.name)
            if tag is None:
                _check_name(token.name, exc=MalformedStream)
                tag = tags[token.name] = ("<" + token.name, "</" + token.name + ">")
            append(tag[0])
            ends.append(tag[1])
            head = True
        elif kind is Variable:
            text = token.text
            if not text.strip():
                raise UnsupportedShape("variable text must contain a non-space character")
            if not (text.isascii() and text.isprintable()):
                _check_printable(text, "variable text")
            append(_escape_text(text) if "&" in text or "<" in text or ">" in text else text)
        else:
            append(ends.pop())
            if not ends and i != last:
                raise MalformedStream("content after the root element")
    if last < 0:
        raise MalformedStream("empty stream")
    if ends:
        raise MalformedStream(f"unterminated element at token {last + 1}")
    return parts


def validate_stream(stream) -> None:
    """Assert the word-stream invariants; raises MalformedStream (a
    ValueError) on structural violations and UnsupportedShape on
    unrepresentable values.

    Faults are raised in stream order; each distinct name and attribute
    value is checked once.
    """
    _render(stream)


def emit_xml(stream) -> str:
    """Canonical XML: double-quoted attributes, single spaces, no self-closing."""
    return "".join(_render(stream))


def emit_json(stream) -> str:
    """Canonical JSON for the stream; all scalars emit as strings."""
    validate_stream(stream)
    # json.dumps of Python 3.12 and later may nest past the recursion limit
    limit = sys.getrecursionlimit()
    stack = []          # per open element: [name, members or text, last child's name]
    for token in stream:
        kind = type(token)
        if kind is Open:
            if len(stack) == limit:
                raise UnsupportedShape("the document nests too deeply for JSON")
            stack.append([token.name, {}, None])
        elif kind is AttrName:
            attr = "-" + token.name
        elif kind is AttrValue:
            stack[-1][1][attr] = token.text
        elif kind is Variable:
            # the stream rules let no child come before text
            if stack[-1][1]:
                raise UnsupportedShape(f"element {stack[-1][0]!r} has both attributes "
                                       "and text; JSON cannot represent it")
            stack[-1][1] = token.text
        else:
            name, value, _ = stack.pop()
            if not stack:
                break
            parent = stack[-1]
            members = parent[1]
            if parent[2] != name:
                if name in members:
                    raise UnsupportedShape("same-name siblings must be adjacent "
                                           "to map onto a JSON array")
                members[name], parent[2] = value, name
            elif type(members[name]) is list:
                members[name].append(value)
            else:
                members[name] = [members[name], value]
    try:
        return json.dumps({name: value})
    except RecursionError:
        raise UnsupportedShape("the document nests too deeply for JSON") from None
