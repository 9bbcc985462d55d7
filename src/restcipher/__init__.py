"""Table-driven message-level encryption for RESTful XML/JSON payloads.

A 10-element symmetric key derives a character-to-code symbol table; a tag
table of whole-word codes grows identically on both ends of a conversation.
Documents tokenize to one canonical word stream shared by XML and JSON, so
equivalent payloads encrypt to identical text/plain bodies.  Multi-key
composition encrypts different tags for different recipients and seals each
subtree with a keyed digest.
"""

from .charsets import arrangement_for, charset_for
from .codec import (
    EncryptedMessage,
    OpaqueRun,
    Session,
    WordKind,
    classify_word,
    encode_word,
    stbd,
    stbe,
    tatbd,
    tatbe,
)
from .composition import (
    CompositionPolicy,
    KeyRing,
    Status,
    Verdict,
    access_header,
    attach_digests,
    compose_decrypt,
    compose_encrypt,
    compose_reencrypt,
    refresh_digests,
    sign_segment,
    strip_digests,
    verify_digests,
)
from .docmodel import (
    AttrName,
    AttrValue,
    Close,
    Open,
    Variable,
    emit_json,
    emit_xml,
    parse_json,
    parse_xml,
)
from .errors import RestCipherError
from .keycore import TenElementKey, generate_key, parse_key, serialize_key, validate_key
from .keyxchg import GET_KEY_COMMAND, load_ring, request_key
from .restkit import (
    ResourceClient,
    ResourceServer,
    ScenarioConfig,
    ScenarioResult,
    run_composition_scenario,
    serve,
)
from .tables import (
    SymbolTable,
    TagTable,
    TatContext,
    TempTable,
    build_st,
    build_tt,
    cell_value,
    tat_upsert,
)

__version__ = "0.1.0"
