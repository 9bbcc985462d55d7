import importlib.util
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from restcipher import (
    AttrName,
    AttrValue,
    Close,
    Open,
    Variable,
    emit_json,
    emit_xml,
    parse_json,
    parse_xml,
    tag_names,
    variable_type,
)
from restcipher import docmodel
from restcipher.docmodel import CLOSE, validate_stream
from restcipher.errors import (
    MalformedJson,
    MalformedStream,
    MalformedXml,
    MixedContentUnsupported,
    RestCipherError,
    UnsupportedCharacter,
    UnsupportedShape,
)

from conftest import JSON1, XML1, XML2
from docgen import nested_catalog, random_doc_key, random_stream
from oracle import (
    oracle_emit_json,
    oracle_emit_xml,
    oracle_parse_xml,
    oracle_validate_stream,
)

XML1_STREAM = (
    Open("root"),
    AttrName("attr1"), AttrValue("value1"),
    AttrName("attr2"), AttrValue("value2"),
    Open("name"), Variable("iiti"), Close(),
    Open("value"), Variable("2"), Close(),
    Close(),
)


def test_xml1_tokenizes_in_document_order():
    assert parse_xml(XML1) == XML1_STREAM


def test_pretty_printed_xml1_gives_the_same_stream():
    pretty = (
        '<root attr1="value1" attr2="value2">\n'
        "<name>iiti</name>\n<value>2</value>\n</root>"
    )
    assert parse_xml(pretty) == XML1_STREAM


def test_empty_element():
    assert parse_xml("<a></a>") == (Open("a"), Close())
    assert parse_xml("<a/>") == (Open("a"), Close())


def test_mixed_content_is_rejected():
    with pytest.raises(MixedContentUnsupported):
        parse_xml("<a>x<b/></a>")
    with pytest.raises(MixedContentUnsupported):
        parse_xml("<a><b/>x</a>")


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        parse_xml("<a><b></a></b>")
    with pytest.raises(MalformedXml):
        parse_xml("not xml at all")


UNSUPPORTED_MARKUP = [
    "<a><!-- hidden --><b/></a>",
    "<a><![CDATA[x]]></a>",
    "<?target data?><a/>",
    "<!DOCTYPE a><a/>",
    '<a xmlns:n="u"><n:b/></a>',
]


@pytest.mark.parametrize("text", UNSUPPORTED_MARKUP)
def test_unsupported_markup_is_rejected(text):
    with pytest.raises(MalformedXml):
        parse_xml(text)


def test_standard_escapes_parse_to_literals():
    stream = parse_xml("<a>x&lt;y&amp;z</a>")
    assert stream[1] == Variable("x<y&z")


def test_characters_outside_printable_range():
    with pytest.raises(UnsupportedCharacter):
        parse_xml("<a>café</a>")
    with pytest.raises(UnsupportedCharacter):
        parse_xml("<a>x\ny</a>")  # newline inside non-whitespace leaf text


def test_a_lone_surrogate_is_malformed_xml():
    # what text read with errors="surrogateescape" holds for a stray byte
    with pytest.raises(MalformedXml):
        parse_xml("<a>caf\udce9</a>")


def test_empty_attribute_value_rejected():
    with pytest.raises(UnsupportedShape):
        parse_xml('<a x=""></a>')


def test_json1_equals_xml1():
    assert parse_json(JSON1) == parse_xml(XML1)


def test_array_repeats_the_tag():
    stream = parse_json('{"a":{"b":["1","2"]}}')
    assert stream == (
        Open("a"), Open("b"), Variable("1"), Close(),
        Open("b"), Variable("2"), Close(), Close(),
    )


def test_empty_object_is_unsupported():
    with pytest.raises(UnsupportedShape):
        parse_json("{}")


@pytest.mark.parametrize(
    "text",
    [
        "[1,2]",
        '"scalar"',
        '{"a": "x", "b": "y"}',
        '{"-a": "x"}',
        '{"a": {"b": [[1]]}}',
        '{"a": {"b": []}}',
        '{"a": {"b": "x", "-c": "y"}}',
        '{"a": ""}',
        '{"a": "   "}',
        '{"a": {"-x": ""}}',
        '{"bad name": "x"}',
    ],
)
def test_unsupported_json_shapes(text):
    with pytest.raises(UnsupportedShape):
        parse_json(text)


def test_malformed_json():
    with pytest.raises(MalformedJson):
        parse_json("{nope")
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(MalformedJson, match=f"{constant} is not a JSON number"):
            parse_json(f'{{"r": {{"v": {constant}}}}}')


def test_json_scalars_become_literal_text():
    stream = parse_json('{"a": {"b": 2, "c": true, "d": null, "e": 2.5}}')
    texts = [t.text for t in stream if isinstance(t, Variable)]
    assert texts == ["2", "true", "null", "2.5"]
    # a number is its literal text, as in the equivalent XML, in text and attributes
    for number in ("1.50", "1e2", "-0", "1e999", "12345678901234567890.5"):
        assert parse_json(f'{{"r": {{"v": {number}}}}}') == parse_xml(f"<r><v>{number}</v></r>")
        assert parse_json(f'{{"r": {{"-a": {number}}}}}') == parse_xml(f'<r a="{number}"></r>')


def test_emit_xml_canonical_form():
    assert emit_xml(XML1_STREAM) == XML1
    assert emit_xml((Open("a"), Close())) == "<a></a>"


def test_emit_xml_escapes():
    stream = (Open("a"), AttrName("x"), AttrValue('q"t'), Variable("1<2&3"), Close())
    text = emit_xml(stream)
    assert text == '<a x="q&quot;t">1&lt;2&amp;3</a>'
    assert parse_xml(text) == stream


def test_emit_json_round_trip_of_xml1():
    assert parse_json(emit_json(parse_xml(XML1))) == parse_xml(XML1)


def test_parse_json_makes_one_token_per_distinct_text():
    xml = nested_catalog(random.Random(5), 12)
    stream = parse_json(emit_json(parse_xml(xml)))
    assert stream == parse_xml(xml)
    shared = {}
    for token in stream:
        if type(token) in (Open, AttrName, AttrValue):
            shared.setdefault(token, set()).add(id(token))
    assert all(len(ids) == 1 for ids in shared.values())
    assert sum(type(token) is Open and token.name == "item" for token in stream) == 12


def test_emit_json_arrays_for_adjacent_repeats():
    stream = parse_json('{"a":{"b":["1","2"]}}')
    assert emit_json(stream) == '{"a": {"b": ["1", "2"]}}'


def test_emit_json_rejects_interleaved_siblings():
    stream = (
        Open("a"),
        Open("b"), Close(), Open("c"), Close(), Open("b"), Close(),
        Close(),
    )
    with pytest.raises(UnsupportedShape):
        emit_json(stream)


def test_emit_json_rejects_attributes_with_text():
    stream = (Open("a"), AttrName("x"), AttrValue("1"), Variable("t"), Close())
    with pytest.raises(UnsupportedShape):
        emit_json(stream)


def test_validate_stream_rejects_structural_breaks():
    with pytest.raises(ValueError):
        validate_stream((Open("a"),))
    with pytest.raises(ValueError):
        validate_stream((Open("a"), Close(), Close()))
    with pytest.raises(ValueError):
        validate_stream((Open("a"), Variable("x"), Variable("y"), Close()))
    with pytest.raises(ValueError):
        validate_stream((Open("a"), Variable("x"), Open("b"), Close(), Close()))
    with pytest.raises(ValueError):
        validate_stream((Open("a"), Close(), Open("b"), Close()))


def test_tag_ordinals():
    stream = parse_xml(XML1)
    assert tag_names(stream) == {1: "root", 2: "name", 3: "value"}
    assert tag_names(parse_xml(XML2)) == {1: "root", 2: "name", 3: "value", 4: "nv"}
    assert tag_names(parse_xml("<a/>")) == {1: "a"}


def test_round_trips_on_random_streams():
    rng = random.Random(31)
    for _ in range(100):
        key = random_doc_key(rng)
        stream = random_stream(rng, key)
        assert parse_xml(emit_xml(stream)) == stream
        safe = random_stream(rng, key, json_safe=True)
        assert parse_json(emit_json(safe)) == safe
        assert parse_xml(emit_xml(safe)) == safe


def test_variable_type_tags():
    assert variable_type("2") == "number"
    assert variable_type("-3.5e2") == "number"
    assert variable_type("true") == "boolean"
    assert variable_type("null") == "null"
    assert variable_type("iiti") == "string"
    assert variable_type("02") == "string"


# the one-pass parser and the flat validator against the recursive ones


def _outcome(fn, arg):
    """The result, or the class of the error raised."""
    try:
        return fn(arg)
    except (RestCipherError, ValueError) as exc:
        return type(exc)


def _indented(text: str) -> str:
    """The document as ElementTree writes it indented: whitespace between
    tags, its own escaping, and self-closing empty elements."""
    root = ET.fromstring(text)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def _insert(text, rng, piece, at=None):
    at = rng.choice(at) if at else rng.randrange(len(text) + 1)
    return text[:at] + piece + text[at:]


def _between_tags(text):
    return [i for i in range(1, len(text)) if text[i - 1] == ">" and text[i] == "<"]


def _start_tag_ends(text):
    return [m.end(1) for m in re.finditer(r"<[A-Za-z_][^<>]*?(/?)>", text)
            if not m.group(1)] or None


_XML_MUTATIONS = {
    "control": lambda t, r: _insert(t, r, r.choice(["\t", "\n", "\x7f", "\x0b"])),
    "non-ascii": lambda t, r: _insert(t, r, "é"),
    "char-reference": lambda t, r: _insert(t, r, "&#xE9;"),
    "empty-attribute": lambda t, r: _insert(t, r, ' zz=""', _start_tag_ends(t)),
    "mixed-content": lambda t, r: _insert(t, r, "x", _between_tags(t)),
    "namespace": lambda t, r: _insert(t, r, r.choice(
        [' xmlns="u"', ' xmlns:n="u"', ' xmlns:n="u" n:z="1"', ' xml:lang="en"',
         ' xmlns="urn:é"', ' xmlnsz="1"']),
        _start_tag_ends(t)),
    "name": lambda t, r: _insert(t, r, "<{0}>v</{0}>".format(
        r.choice(["aé", "a·b", "A-1", "_", "x.y", "n:q"])), _between_tags(t)),
    "truncation": lambda t, r: t[:r.randrange(len(t))],
}
#: a fault early in the document, then a parse error at its end
_XML_MUTATIONS["fault-then-malformed"] = lambda t, r: r.choice(
    [_XML_MUTATIONS[k] for k in ("empty-attribute", "mixed-content", "control", "name")]
)(t, r)[:-r.randint(1, 4)]


@settings(max_examples=300, deadline=None)
@given(seed=hs.integers(0, 2**32), layout=hs.sampled_from(["canonical", "indented"]),
       mutation=hs.sampled_from([None, *_XML_MUTATIONS]))
def test_parse_xml_matches_the_recursive_parser(seed, layout, mutation):
    rng = random.Random(seed)
    text = oracle_emit_xml(random_stream(rng, random_doc_key(rng)))
    if layout == "indented":
        text = _indented(text)
    if mutation:
        text = _XML_MUTATIONS[mutation](text, rng)
    assert _outcome(parse_xml, text) == _outcome(oracle_parse_xml, text)


@pytest.mark.parametrize("text", UNSUPPORTED_MARKUP + [
    '<a xmlns:n="u"><b/></a>',      # a declared, unused prefix is accepted
    "<a>\u00a0<b/></a>",             # a no-break space: whitespace to str.strip(),
    "<a>\u00a0</a>",                 # not to XML
    "<?xml version='1.0'?><a>x</a>",
    "<a><?xml version='1.0'?></a>",
    "<a>x</a><b/>",
    "",
])
def test_parse_xml_matches_the_recursive_parser_on_fixed_inputs(text):
    assert _outcome(parse_xml, text) == _outcome(oracle_parse_xml, text)


_TOKEN_POOL = [
    Open("b"), CLOSE, Variable("x"), Variable(" "), Variable(""), Variable("t\n"),
    AttrName("k"), AttrValue("v"), AttrValue(""), AttrValue("\x7f"),
    Open("bad name"), Open("1a"), AttrName("é"),
]
_STREAM_MUTATIONS = {
    "drop": lambda s, r, i: s[:i] + s[i + 1:],
    "repeat": lambda s, r, i: s[:i + 1] + s[i:],
    "swap": lambda s, r, i: s[:i] + s[i + 1:i + 2] + s[i:i + 1] + s[i + 2:],
    "insert": lambda s, r, i: s[:i] + (r.choice(_TOKEN_POOL),) + s[i:],
    "truncate": lambda s, r, i: s[:i],
    "second-root": lambda s, r, i: s + s[:i + 1] + (CLOSE,) * (i + 1),
}


@settings(max_examples=300, deadline=None)
@given(seed=hs.integers(0, 2**32), json_safe=hs.booleans(),
       mutation=hs.sampled_from([None, *_STREAM_MUTATIONS]))
def test_emitters_match_the_recursive_validator(seed, json_safe, mutation):
    rng = random.Random(seed)
    stream = random_stream(rng, random_doc_key(rng), json_safe=json_safe)
    if mutation:
        stream = _STREAM_MUTATIONS[mutation](stream, rng, rng.randrange(len(stream)))
    assert _outcome(validate_stream, stream) == _outcome(oracle_validate_stream, stream)
    assert _outcome(emit_xml, stream) == _outcome(oracle_emit_xml, stream)
    assert _outcome(emit_json, stream) == _outcome(oracle_emit_json, stream)


def test_emitters_match_the_recursive_validator_on_an_empty_stream():
    assert _outcome(emit_xml, ()) == _outcome(oracle_emit_xml, ()) == MalformedStream


def _load_benchmark_generator():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["catalog-steady", "vocab-churn",
                                      "rest-loopback", "three-party"])
def test_benchmark_catalogs_round_trip_as_the_recursive_parser_reads_them(workload):
    inputs = _load_benchmark_generator().inputs(workload, 11)
    docs = {
        "catalog-steady": lambda: inputs["messages"],
        "vocab-churn": lambda: [m for c in inputs["messages"] for m in c],
        "rest-loopback": lambda: [inputs["served"], *inputs["posts"]],
        "three-party": lambda: [d for case in inputs["cases"] for d in (case[0], case[3])],
    }[workload]()
    for text in docs:
        stream = parse_xml(text)
        assert stream == oracle_parse_xml(text)
        assert emit_xml(stream) == text


# nesting depth


def _deep_xml(depth: int) -> str:
    return "<a>" * depth + "x" + "</a>" * depth


def _deep_json(depth: int) -> str:
    return '{"a": ' * depth + '"x"' + "}" * depth


def test_a_5000_deep_xml_document_round_trips():
    text = _deep_xml(5000)
    stream = parse_xml(text)
    assert len(stream) == 10001
    assert emit_xml(stream) == text


def test_deep_json_is_a_named_error(monkeypatch):
    with pytest.raises(MalformedJson):
        parse_json(_deep_json(5000))
    with pytest.raises(UnsupportedShape):
        emit_json(parse_xml(_deep_xml(5000)))
    # a tree json.loads can read but the walk cannot
    tree = "x"
    for _ in range(5000):
        tree = {"a": tree}
    monkeypatch.setattr(docmodel.json, "loads", lambda text, **options: tree)
    with pytest.raises(UnsupportedShape):
        parse_json("")
