"""Operator command line.

Subcommands: keygen, tables, encrypt, decrypt, sign, verify, bench, serve,
fetch, scenario.  Any library error prints ``error: <Name>: <detail>`` on
stderr and exits nonzero; file I/O failures report as ``Io``.
"""

import argparse
import random
import sys
import time

from .codec import EncryptedMessage, Session, WordKind
from .composition import (
    CompositionPolicy,
    KeyRing,
    Status,
    access_header,
    attach_digests,
    compose_encrypt,
    verify_digests,
)
from .docmodel import AttrValue, Variable, emit_json, emit_xml, parse_json, parse_xml
from .errors import Malformed, RestCipherError
from .keycore import DEFAULT_BOUNDS, MAX_DIGITS, generate_key, parse_key, serialize_key
from .keyxchg import load_store
from .restkit import (
    PLAIN_HTTP_WARNING,
    ResourceClient,
    ScenarioConfig,
    format_transcript,
    run_composition_scenario,
    serve,
)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise Malformed(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _write(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_doc(text: str, fmt: str):
    return parse_json(text) if fmt == "json" else parse_xml(text)


def _emit_doc(stream, fmt: str) -> str:
    return emit_json(stream) if fmt == "json" else emit_xml(stream)


def _parse_bounds(spec: str) -> dict:
    """"rows=4..16,power=1..3" -> per-element (lo, hi) overrides."""
    bounds = {}
    for part in filter(None, spec.split(",")):
        name, _, span = part.partition("=")
        if name not in DEFAULT_BOUNDS:
            raise Malformed(f"unknown key element {name!r}")
        if name in bounds:
            raise Malformed(f"bad bounds {spec!r}: {name} given twice")
        lo, sep, hi = span.partition("..")
        try:
            bounds[name] = (int(lo), int(hi) if sep else int(lo))
        except ValueError:
            raise Malformed(f"bad range {span!r} for {name}") from None
    return bounds


def _parse_access(spec: str) -> tuple:
    if not spec:
        return ()
    try:
        access = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise Malformed(f"bad access list {spec!r}") from None
    if min(access) < 1:
        raise Malformed(f"bad access list {spec!r}: tag ordinals start at 1")
    repeats = [o for i, o in enumerate(access) if o in access[:i]]
    if repeats:
        raise Malformed(f"bad access list {spec!r}: tag {repeats[0]} given twice")
    return access


def _parse_policy(spec: str) -> dict:
    """"2=K1,3=K2" -> {2: "K1", 3: "K2"}."""
    policy = {}
    for part in filter(None, spec.split(",")):
        ordinal, _, key_id = part.partition("=")
        try:
            ordinal = int(ordinal)
        except ValueError:
            raise Malformed(f"bad policy entry {part!r}") from None
        if ordinal in policy:
            raise Malformed(f"bad policy {spec!r}: tag {ordinal} given twice")
        policy[ordinal] = key_id
    if policy and min(policy) < 2:
        # the outermost tag always uses the group key, so it is never a policy choice
        raise Malformed(f"bad policy {spec!r}: policy ordinals start at 2")
    return policy


# session state persistence: key line, then one tag-table row per line


def _save_state(path: str, session: Session) -> None:
    lines = [serialize_key(session.key)]
    for word, code, kind in session.tat.items():
        lines.append(f"{kind}\t{word}\t{code}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


#: the kind of each word a tag table holds, as ``_save_state`` writes it
_TABLE_KINDS = {kind.value for kind in (WordKind.TAG, WordKind.ATTR_NAME, WordKind.ATTR_VALUE)}


def _load_state(path: str) -> Session:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise Malformed(f"state file {path} is not UTF-8 text: {exc.reason}") from None
    if not lines:
        raise Malformed(f"state file {path} is empty")
    session = Session.for_key(parse_key(lines[0]))
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            kind, word, code = line.split("\t")
            if kind not in _TABLE_KINDS:
                raise ValueError(f"unknown tag-table kind {kind!r}")
            if not word:
                raise ValueError("empty tag-table word")
            # only the text _save_state writes: int() would also read "+10",
            # "1_0", " 10", "010" and non-ASCII digits as a code
            if not (code.isascii() and code.isdigit() and code[0] != "0"):
                raise ValueError(f"tag code {code!r} is not written [1-9][0-9]* in ASCII")
            session.tat.insert(word, int(code), kind)
        except ValueError as exc:
            raise Malformed(f"state file {path} line {number}: {exc}") from None
    return session


def _session_for(args) -> Session:
    if getattr(args, "state", None) and not getattr(args, "key", None):
        try:
            return _load_state(args.state)
        except FileNotFoundError:
            raise Malformed(f"state file {args.state} does not exist; "
                            "pass --key to start a session") from None
    if not getattr(args, "key", None):
        raise Malformed("pass --key or --state")
    session = Session.for_key(parse_key(args.key))
    if getattr(args, "state", None):
        try:
            loaded = _load_state(args.state)
        except FileNotFoundError:
            return session
        if loaded.key != session.key:
            raise Malformed("--state was recorded under a different key")
        return loaded
    return session


def _load_ring(path: str) -> KeyRing:
    ring = KeyRing()
    for record in load_store(path).records():
        try:
            ring.add_key(record.key_id, record.key, is_group=(record.role == "group"))
        except ValueError as exc:
            raise Malformed(f"keystore {path} does not form one ring: {exc}") from None
    return ring


# subcommands


def _cmd_keygen(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    bounds = _parse_bounds(args.bounds) if args.bounds else None
    print(serialize_key(generate_key(bounds, rng=rng)))
    return 0


def _cmd_tables(args) -> int:
    session = _session_for(args)
    print(serialize_key(session.key))
    for char, code in session.st.items():
        print(f"{ord(char)} {code}")
    for word, code, kind in session.tat.items():
        print(f"{kind} {word} {code}")
    return 0


def _cmd_encrypt(args) -> int:
    session = _session_for(args)
    stream = _parse_doc(_read(args.infile), args.format)
    message = session.encrypt(stream, mode=args.mode, access=_parse_access(args.access))
    _write(args.outfile, message.serialize())
    if args.state:
        _save_state(args.state, session)
    return 0


def _cmd_decrypt(args) -> int:
    session = _session_for(args)
    message = EncryptedMessage.parse(_read(args.infile).strip("\n"))
    stream = session.decrypt(message)
    _write(args.outfile, _emit_doc(stream, args.format))
    if args.state:
        _save_state(args.state, session)
    return 0


def _cmd_sign(args) -> int:
    ring = _load_ring(args.keyring)
    policy = CompositionPolicy(_parse_policy(args.policy))
    stream = _parse_doc(_read(args.infile), args.format)
    body = compose_encrypt(stream, policy, ring, args.mode)
    signed = attach_digests(body, policy, ring)
    if args.access:
        access = _parse_access(args.access)
    else:
        access = access_header(policy, ring, ring.pairwise_ids(), len(body.spans))
    _write(args.outfile, EncryptedMessage(access, tuple(signed)).serialize())
    return 0


def _cmd_verify(args) -> int:
    ring = _load_ring(args.keyring)
    policy = CompositionPolicy(_parse_policy(args.policy)) if args.policy else None
    message = EncryptedMessage.parse(_read(args.infile).strip("\n"))
    verdicts = verify_digests(message, ring, policy)
    for verdict in verdicts:
        where = "message" if verdict.ordinal == 0 else f"tag {verdict.ordinal}"
        detail = f" ({verdict.detail})" if verdict.detail else ""
        print(f"{where}: {verdict.status.value}{detail}")
    return 1 if any(v.status is Status.REJECT for v in verdicts) else 0


def _bench_row(name: str, text: str, fmt: str, key) -> tuple:
    stream = _parse_doc(text, fmt)
    nonvar = sum(len(t.name) for t in stream if hasattr(t, "name"))
    nonvar += sum(len(t.text) for t in stream if isinstance(t, AttrValue))
    variables = sum(len(t.text) for t in stream if isinstance(t, Variable))
    session = Session.for_key(key)
    st_size = len(session.encrypt(stream, mode="st", access=(1,)).serialize())
    tat_size = len(session.encrypt(stream, mode="tat", access=(1,)).serialize())
    return (name, nonvar, variables, len(text), st_size, tat_size)


def _cmd_bench(args) -> int:
    key = parse_key(args.key)
    print(f"{'document':<24} {'nonvar':>7} {'var':>7} {'original':>9} "
          f"{'stbe':>9} {'tatbe':>9} {'tatbe/orig':>10}")
    for path in args.infiles:
        name, nonvar, variables, orig, st_size, tat_size = _bench_row(
            path, _read(path), args.format, key)
        ratio = tat_size / orig if orig else float("nan")
        print(f"{name:<24} {nonvar:>7} {variables:>7} {orig:>9} "
              f"{st_size:>9} {tat_size:>9} {ratio:>10.2f}")
    return 0


def _cmd_serve(args) -> int:
    print(f"warning: {PLAIN_HTTP_WARNING}", file=sys.stderr)
    server = serve(_read(args.resource), host=args.host, port=args.port)
    print(f"serving on {server.url}/<peer-id>")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_fetch(args) -> int:
    with ResourceClient(args.url.rstrip("/"), args.peer) as client:
        client.exchange_key()
        for _ in range(args.count):
            _, stream = client.fetch()
            _write(None, _emit_doc(stream, args.format))
    return 0


def _cmd_scenario(args) -> int:
    config = ScenarioConfig(mode=args.mode)
    if args.document:
        config.document = _read(args.document)
    if args.tamper:
        name, _, ordinal = args.tamper.partition(":")
        # [1-9][0-9]* in ASCII, as a state file's codes: int() also reads "+3" or "٣"
        if not (ordinal.isascii() and ordinal.isdigit() and ordinal[0] != "0"
                and len(ordinal) <= MAX_DIGITS):
            raise Malformed(f"bad tamper target {args.tamper!r}")
        config.tamper = (name, int(ordinal))
    result = run_composition_scenario(config)
    print(format_transcript(result.transcript))
    for stage, verdicts in result.verdicts.items():
        for verdict in verdicts:
            print(f"{stage} tag {verdict.ordinal}: {verdict.status.value}")
    if result.halted:
        print(f"halted: reject on tags {','.join(map(str, result.reject_ordinals))}")
    else:
        print(f"final: {result.final_document}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restcipher",
        description="table-driven message-level encryption for REST payloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a random 10-element key")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bounds", default="", help="per-element ranges, e.g. rows=4..16,power=1..3")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("tables", help="dump the symbol table (and tag table)")
    p.add_argument("--key", default=None, help="serialized key, e.g. [12,6,1,1,1,14,4,1,3,2]")
    p.add_argument("--state", default=None, help="session state file")
    p.set_defaults(func=_cmd_tables)

    for name, func in (("encrypt", _cmd_encrypt), ("decrypt", _cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} one document")
        p.add_argument("--key", default=None)
        p.add_argument("--state", default=None,
                       help="session state file, read and updated if given")
        p.add_argument("--format", choices=("xml", "json"), default="xml")
        p.add_argument("--in", dest="infile", default="-")
        p.add_argument("--out", dest="outfile", default=None)
        if name == "encrypt":
            p.add_argument("--mode", choices=("st", "tat"), required=True)
            p.add_argument("--access", default="", help="tag ordinals, e.g. 1 or 2,3")
        p.set_defaults(func=func)

    p = sub.add_parser("sign", help="multi-key encrypt and attach digests")
    p.add_argument("--keyring", required=True, help="keystore file with the ring")
    p.add_argument("--policy", required=True, help="tag assignments, e.g. 2=K1,3=K2")
    p.add_argument("--mode", choices=("st", "tat"), default="tat")
    p.add_argument("--format", choices=("xml", "json"), default="xml")
    p.add_argument("--access", default="", help="override the computed access list")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="check the digests of a signed message")
    p.add_argument("--keyring", required=True)
    p.add_argument("--policy", default="", help="tag assignments if known")
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="size comparison per document")
    p.add_argument("--key", required=True)
    p.add_argument("--format", choices=("xml", "json"), default="xml")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="run the encrypting resource server")
    p.add_argument("--resource", required=True, help="document file to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8472)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("fetch", help="exchange a key and fetch the resource")
    p.add_argument("--url", required=True, help="server base url")
    p.add_argument("--peer", default="client")
    p.add_argument("--format", choices=("xml", "json"), default="xml")
    p.add_argument("--count", type=int, default=1, help="number of GETs")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("scenario", help="run the three-party composition pipeline")
    p.add_argument("--mode", choices=("st", "tat"), default="tat")
    p.add_argument("--document", default=None)
    p.add_argument("--tamper", default=None, help="provider:ordinal, e.g. SP1:3")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RestCipherError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: Io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
