"""The four benchmark workloads, driven through restcipher's public API.

Each workload is built from inputs made by ``gen`` before timing starts.
``setup`` does the system's own set-up (tables derived, servers listening,
keys exchanged); ``op`` runs one operation, checks its output and returns a
``Record``; ``Counts`` turns records into the per-layer counts after each
op's timer has stopped.  A failed check raises ``Mismatch``; the runner
counts it with every other exception as a failed op and never retries.
"""

import random
import statistics
from dataclasses import dataclass, field

import restcipher as rc

from . import gen

CONVERSATION = 20          # vocab-churn messages per session pair
REST_PEERS = 20
REST_PATTERN = ("GET", "GET", "GET", "POST")


class Mismatch(Exception):
    """An op completed but its output differs from the expected one."""


@dataclass
class Record:
    """What one op leaves for the metrics: bytes now, counts on demand."""

    wire: object                # ciphertext bytes on the wire, or the message
    plain: int                  # plaintext bytes of the documents carried
    checks: list = field(default_factory=list)   # (message, document, owner)
    tat_inserts: int = 0
    tables: tuple = None        # (tat size, code digits) at a conversation end
    requests: int = 0
    digests: tuple = (0, 0)     # (accepted, checked)


def _expect(got: str, want: str, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what} differs from the input")


def tat_hits(words, stream, sts) -> tuple:
    """(non-variable words sent, of which as tag-table codes).

    ``words`` are a message's body words aligned one to one with ``stream``;
    ``sts[i]`` is the symbol table that owns token i.  A non-variable word
    that differs from its symbol-table spelling was sent as a TAT code.
    """
    sent = hits = 0
    for word, token, st in zip(words, stream, sts):
        if isinstance(token, (rc.Close, rc.Variable)):
            continue
        kind = (rc.WordKind.TAG if isinstance(token, rc.Open) else
                rc.WordKind.ATTR_NAME if isinstance(token, rc.AttrName) else
                rc.WordKind.ATTR_VALUE)
        text = token.text if isinstance(token, rc.AttrValue) else token.name
        sent += 1
        hits += word != rc.encode_word(text, kind, st)
    return sent, hits


class _TwoPeer:
    """In-process sender and receiver sessions under one key."""

    def __init__(self, inputs):
        self.messages = inputs["messages"]
        self.n = 0

    def setup(self):
        self.key = rc.validate_key(gen.SESSION_KEY)
        self._new_pair()

    def _new_pair(self):
        self.sender = rc.Session.for_key(self.key)
        self.receiver = rc.Session.for_key(self.key)
        self.sent = 0

    def _roundtrip(self, text) -> Record:
        before = len(self.sender.tat)
        mode = "st" if self.sent == 0 else "tat"
        self.sent += 1
        stream = rc.parse_xml(text)
        wire = self.sender.encrypt(stream, mode=mode).serialize()
        got = rc.emit_xml(self.receiver.decrypt(rc.EncryptedMessage.parse(wire)))
        _expect(got, text, "decoded message")
        return Record(len(wire), len(text), [(wire, stream, self.sender.st)],
                      tat_inserts=len(self.sender.tat) - before)

    def close(self):
        pass


class CatalogSteady(_TwoPeer):
    """One long session; the TAT is read-only after the first message."""

    def op(self) -> Record:
        text = self.messages[self.n % len(self.messages)]
        self.n += 1
        record = self._roundtrip(text)
        record.tables = (len(self.sender.tat), self.sender.ctx.code_digits)
        return record


class VocabChurn(_TwoPeer):
    """A fresh session pair every CONVERSATION messages of fresh ids."""

    def op(self) -> Record:
        conversations = self.messages
        c, m = divmod(self.n, CONVERSATION)
        self.n += 1
        if m == 0 and self.n > 1:
            self._new_pair()
        record = self._roundtrip(conversations[c % len(conversations)][m])
        if m == CONVERSATION - 1:
            record.tables = (len(self.sender.tat), self.sender.ctx.code_digits)
        return record


class RestLoopback:
    """ResourceServer and 20 ResourceClient peers over loopback HTTP."""

    def __init__(self, inputs):
        self.served = inputs["served"]
        self.posts = inputs["posts"]
        self.key_rng = random.Random(inputs["key_seed"])
        self.n = 0
        self.server = None

    def setup(self):
        self.server = rc.serve(self.served, rng=self.key_rng,
                               bounds=gen.SERVER_KEY_BOUNDS)
        self.current = self.served
        self.clients = [rc.ResourceClient(self.server.url, f"peer{p}")
                        for p in range(REST_PEERS)]
        for client in self.clients:
            client.exchange_key()

    def op(self) -> Record:
        step, self.n = self.n, self.n + 1
        client = self.clients[step % REST_PEERS]
        before = len(client.session.tat)
        if REST_PATTERN[(step // REST_PEERS) % len(REST_PATTERN)] == "GET":
            msg, stream = client.fetch()
            _expect(rc.emit_xml(stream), self.current, "GET reply")
        else:
            text = self.posts[(step // (REST_PEERS * len(REST_PATTERN))) % len(self.posts)]
            msg, stream = client.push(rc.parse_xml(text))
            _expect(rc.emit_xml(stream), text, "POST reply")
            self.current = text
        return Record(msg, len(self.current),
                      [(msg, stream, client.session.st)],
                      tat_inserts=len(client.session.tat) - before,
                      tables=(len(client.session.tat), client.session.ctx.code_digits),
                      requests=1)

    def close(self):
        if self.server is not None:
            self.server.close()


class ThreeParty:
    """run_composition_scenario on a 100-item catalog with two providers."""

    def __init__(self, inputs):
        self.cases = inputs["cases"]
        self.n = 0
        self.sts = None             # per-key symbol tables, for the counts only

    def setup(self):
        self.keys = {kid: rc.validate_key(k) for kid, k in gen.SCENARIO_KEYS.items()}

    def op(self) -> Record:
        document, policy, edits, expected = self.cases[self.n % len(self.cases)]
        self.n += 1
        config = rc.ScenarioConfig(document=document, keys=self.keys, group_id="K3",
                                   policy=policy, providers={"SP1": "K1", "SP2": "K2"},
                                   edits=edits)
        result = rc.run_composition_scenario(config)
        if result.halted:
            raise Mismatch(f"scenario halted, rejected tags {result.reject_ordinals}")
        verdicts = [v for stage in result.verdicts.values() for v in stage]
        accepted = sum(v.status is rc.Status.ACCEPT for v in verdicts)
        if accepted != len(verdicts):
            raise Mismatch("a digest verdict is not ACCEPT")
        _expect(result.final_document, expected, "final document")
        bodies = [e.body for e in result.transcript if e.kind == "message"]
        return Record(sum(map(len, bodies)), len(document) * len(bodies),
                      [(body, document, policy) for body in bodies],
                      requests=len(bodies) // 2, digests=(accepted, len(verdicts)))

    def owner_sts(self, stream, policy) -> list:
        """Symbol table of the key owning each token, as the policy assigns."""
        if self.sts is None:
            self.sts = {kid: rc.build_st(key) for kid, key in self.keys.items()}
        out, stack, ordinal = [], [], 0
        for token in stream:
            if isinstance(token, rc.Open):
                ordinal += 1
                stack.append(self.sts[policy.get(ordinal, "K3")])
                out.append(stack[-1])
            elif isinstance(token, rc.Close):
                out.append(stack.pop())
            else:
                out.append(stack[-1])
        return out

    def close(self):
        pass


WORKLOADS = {
    "catalog-steady": CatalogSteady,
    "vocab-churn": VocabChurn,
    "rest-loopback": RestLoopback,
    "three-party": ThreeParty,
}


def message_checks(workload, record) -> list:
    """(body words, token stream, symbol table per token) for each message.

    A check is (message or its wire text, stream or document text, owner),
    where the owner is the sender's symbol table or a three-party policy.
    """
    out = []
    for msg, stream, owner in record.checks:
        if isinstance(msg, str):
            msg = rc.EncryptedMessage.parse(msg)
        if isinstance(stream, str):
            stream = rc.parse_xml(stream)
        if isinstance(owner, dict):
            words, _ = rc.strip_digests(msg.words)
            out.append((words, stream, workload.owner_sts(stream, owner)))
        else:
            out.append((msg.words, stream, [owner] * len(stream)))
    return out


class Counts:
    """Per-layer counts made from the messages and public table state."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = self.words = self.sent = self.hits = 0
        self.inserts = self.requests = self.accepted = self.checked = 0
        self.tables = []

    def __call__(self, record):
        self.ops += 1
        for words, stream, sts in message_checks(self.workload, record):
            sent, hits = tat_hits(words, stream, sts)
            self.words += len(words)
            self.sent += sent
            self.hits += hits
        self.inserts += record.tat_inserts
        self.requests += record.requests
        self.accepted += record.digests[0]
        self.checked += record.digests[1]
        if record.tables is not None:
            self.tables.append(record.tables)

    def metrics(self) -> dict:
        ops = max(self.ops, 1)
        size = statistics.mean(t[0] for t in self.tables) if self.tables else 0
        digits = statistics.mean(t[1] for t in self.tables) if self.tables else 0
        return {
            "codec.words": (self.words / ops, "count"),
            "codec.tat_hit_ratio": (self.hits / self.sent if self.sent else 0, "ratio"),
            "tables.tat_size": (size, "count"),
            "tables.code_digits": (digits, "count"),
            "tables.tat_inserts": (self.inserts / ops, "count"),
            "composition.digest_accept_ratio":
                (self.accepted / self.checked if self.checked else 0, "ratio"),
            "restkit.requests": (self.requests / ops, "count"),
        }
