"""Spans around the calls into restcipher's public functions.

The tracer lives in the benchmark, not in the program: ``patched`` replaces
each traced function in every restcipher namespace that holds it by name
(``codec`` and ``composition`` each import their own ``tat_upsert``,
``restkit`` its own ``compose_*`` and ``http_post``), and puts every original
back on exit.  Spans stay in memory until the run ends.
"""

import contextlib
import functools
import sys
import threading
import time

from restcipher import codec, composition, docmodel, keycore, keyxchg, restkit, tables

#: span name -> (owner, attribute); the owner is a module or a class
FUNCTIONS = {
    "docmodel.parse_xml": (docmodel, "parse_xml"),
    "docmodel.emit_xml": (docmodel, "emit_xml"),
    "codec.stbe": (codec, "stbe"),
    "codec.tatbe": (codec, "tatbe"),
    "codec.stbd": (codec, "stbd"),
    "codec.tatbd": (codec, "tatbd"),
    "codec.EncryptedMessage.parse": (codec.EncryptedMessage, "parse"),
    "codec.EncryptedMessage.serialize": (codec.EncryptedMessage, "serialize"),
    "tables.tat_upsert": (tables, "tat_upsert"),
    "tables.build_st": (tables, "build_st"),
    "keycore.generate_key": (keycore, "generate_key"),
    "composition.compose_encrypt": (composition, "compose_encrypt"),
    "composition.attach_digests": (composition, "attach_digests"),
    "composition.verify_digests": (composition, "verify_digests"),
    "composition.strip_digests": (composition, "strip_digests"),
    "composition.compose_decrypt": (composition, "compose_decrypt"),
    "composition.compose_reencrypt": (composition, "compose_reencrypt"),
    "composition.refresh_digests": (composition, "refresh_digests"),
    "keyxchg.http_get": (keyxchg, "http_get"),
    "keyxchg.http_post": (keyxchg, "http_post"),
    "restkit.run_composition_scenario": (restkit, "run_composition_scenario"),
    # Session calls made by the server's handler threads only
    "restkit.server.encrypt": (codec.Session, "encrypt"),
    "restkit.server.decrypt": (codec.Session, "decrypt"),
}
SERVER_ONLY = {"restkit.server.encrypt", "restkit.server.decrypt"}
CLIENT_WAIT = ("keyxchg.http_get", "keyxchg.http_post")


class Tracer:
    """Spans as [name, start, end, parent index, op id, main thread, error]."""

    def __init__(self):
        self.spans = []
        self.op = None              # id of the single in-flight client op
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        tracer = self
        server_only = name in SERVER_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            if server_only and on_main:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, on_main, False]
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "restcipher" or name.startswith("restcipher."))]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every traced function wherever restcipher holds it by name."""
    saved = []
    try:
        for name, (owner, attr) in FUNCTIONS.items():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(tracer.wrap(name, original.__func__))
                else:
                    wrapper = tracer.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            for module in _namespaces():
                if vars(module).get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, ops: int) -> dict:
    """Per-op busy ms (self time), calls and errors per traced function,
    plus ``restkit.transport``: client wait minus the server spans in it."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    self_ms = dict.fromkeys(FUNCTIONS, 0.0)
    calls = dict.fromkeys(FUNCTIONS, 0)
    errors = dict.fromkeys(FUNCTIONS, 0)
    transport = 0.0
    for i, (name, start, end, parent, op, on_main, error) in enumerate(spans):
        if op is None:
            continue
        self_ms[name] += (end - start - child_time[i]) * 1e3
        calls[name] += 1
        errors[name] += error
        if on_main and name in CLIENT_WAIT:
            transport += (end - start) * 1e3
        elif not on_main and parent is None:
            transport -= (end - start) * 1e3
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.ms"] = self_ms[name] / ops
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.errors"] = errors[name] / ops
    out["restkit.transport.ms"] = transport / ops
    return out

