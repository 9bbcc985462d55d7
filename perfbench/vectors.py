"""Paper-vector gate: the worked examples must re-encrypt byte for byte.

The constants are copies of those in ``tests/conftest.py`` (which imports
pytest, so it is not imported here).  A speedup that changes a single byte on
the wire fails this gate before any timing starts.
"""

import restcipher as rc

XML1 = '<root attr1="value1" attr2="value2"><name>iiti</name><value>2</value></root>'
XML2 = (
    '<root attr1="value1" attr2="value2">'
    "<name>iiti</name><value>2</value><nv>a1</nv></root>"
)
K1_TEXT = "[12,6,1,1,1,14,4,1,3,2]"
K2_TEXT = "[6,12,1,0,1,14,3,1,3,2]"
K3_TEXT = "[7,10,0,0,1,14,3,0,3,2]"

STENC_XML1 = (
    "1, 0117126126104 00153104104117340 000850153137820146340 "
    "00153104104117349 000850153137820146349 0116153109146 122122104122 0 "
    "0850153137820146 349 0 0"
)
TATENC_XML1 = "1, 04 008 0002 009 0003 05 122122104122 0 06 349 0 0"
TATENC_XML2 = "1, 04 008 0002 009 0003 05 122122104122 0 06 349 0 0116850 153340 0 0"
COMPOSE_ST_BODY = (
    "0232325325180 00137180180232257 000136137126157314257 "
    "00137180180232226 000136137126157314226 0116153109146 122122104122 0 "
    "0291356265326320 313 0 0410291 356290 0 0"
)
D1 = "adc1aeffe1fe867740f976fd55c0c481"
D2 = "72afa9838090da9c5d82d2060c42f48c"
TAT_SEGMENT = ["05", "122122104122", "0"]
TAT_BODY = "01 009 0002 003 0004 05 122122104122 0 07 313 0 08 356290 0 0".split(" ")


def produced() -> dict:
    """Vector name -> the text this build produces for it."""
    k1, k2, k3 = (rc.parse_key(t) for t in (K1_TEXT, K2_TEXT, K3_TEXT))
    out = {}
    s = rc.Session.for_key(k1)
    out["STENC_XML1"] = rc.stbe(rc.parse_xml(XML1), s.st, s.tat, s.ctx, (1,)).serialize()
    out["TATENC_XML1"] = rc.tatbe(rc.parse_xml(XML1), s.st, s.tat, s.ctx, (1,)).serialize()
    out["TATENC_XML2"] = rc.tatbe(rc.parse_xml(XML2), s.st, s.tat, s.ctx, (1,)).serialize()
    ring = rc.KeyRing()
    ring.add_key("K1", k1)
    ring.add_key("K2", k2)
    ring.add_key("K3", k3, is_group=True)
    policy = rc.CompositionPolicy({2: "K1", 3: "K2", 4: "K2"})
    out["COMPOSE_ST_BODY"] = " ".join(rc.compose_encrypt(rc.parse_xml(XML2), policy, ring, "st"))
    out["D1"] = rc.sign_segment(TAT_SEGMENT, k1)
    out["D2"] = rc.sign_segment(TAT_BODY, k3)
    return out


def mismatches() -> list:
    """Names of the vectors this build no longer reproduces exactly."""
    expected = {name: globals()[name] for name in
                ("STENC_XML1", "TATENC_XML1", "TATENC_XML2", "COMPOSE_ST_BODY", "D1", "D2")}
    got = produced()
    return [name for name, text in expected.items() if got[name] != text]
