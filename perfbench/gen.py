"""Seeded input generators for the benchmark workloads.

Standard library only, so making inputs stays out of the timed set-up of
``probe.py``.  Every generator takes a
``random.Random`` and returns plain strings, so the same seed gives the same
documents byte for byte.  Documents are written in the canonical form that
``restcipher.emit_xml`` produces, so a round trip can be compared as text.
"""

import random
import string

#: the key of the ROADMAP measurements: full printable charset, 3-digit codes
SESSION_KEY = (10, 10, 1, 0, 1, 40, 63, 1, 3, 1)
#: three-party keys; all full-printable (the paper's K1-K3 cannot encode ".")
SCENARIO_KEYS = {
    "K1": (10, 10, 1, 0, 1, 40, 63, 1, 3, 1),
    "K2": (10, 10, 0, 1, 0, 63, 5, 0, 3, 1),
    "K3": (12, 8, 1, 1, 1, 40, 7, 1, 3, 1),
}
#: ResourceServer key-generation bounds: every generated key encodes ".",
#: and has 3-digit codes like the other workloads' keys, so wire_ratio does
#: not depend on which code widths a seed happens to draw
SERVER_KEY_BOUNDS = {"symbol_type": (40, 40), "power": (1, 1), "final_sum": (3, 3)}

TAGS_PER_ITEM = 4          # item, name, price, qty


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _name(rng) -> str:
    return "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(5, 10)))


def _price(rng) -> str:
    return f"{rng.randint(100, 99999) / 100:.2f}"


def _qty(rng) -> str:
    return str(rng.randint(0, 500))


def fresh_items(rng, ids, kinds) -> list:
    """One (id, kind, name, price, qty) row per id, with fresh values."""
    return [(i, kinds[j % len(kinds)], _name(rng), _price(rng), _qty(rng))
            for j, i in enumerate(ids)]


def catalog_xml(items) -> str:
    return "<catalog>" + "".join(
        f'<item id="{i}" kind="{k}"><name>{n}</name><price>{p}</price>'
        f"<qty>{q}</qty></item>"
        for i, k, n, p, q in items
    ) + "</catalog>"


def vocabulary(rng, n_ids: int, n_kinds: int = 7) -> tuple:
    """Distinct id and kind attribute values for a fixed vocabulary."""
    ids = [f"i{n}" for n in rng.sample(range(100, 1000), n_ids)]
    kinds = [f"k{n}" for n in rng.sample(range(10, 100), n_kinds)]
    return ids, kinds


def steady_messages(rng, count: int, items: int = 200) -> list:
    """Catalogs over a fixed 64-word vocabulary; values fresh per message.

    5 tag names + 2 attribute names + 50 ids + 7 kinds = 64 non-variable
    words, and every message uses all of them.
    """
    ids, kinds = vocabulary(rng, 50)
    return [catalog_xml(fresh_items(rng, [ids[j % 50] for j in range(items)], kinds))
            for _ in range(count)]


def churn_conversations(rng, conversations: int, length: int = 20,
                        items: int = 100) -> list:
    """Conversations whose every message carries 100 fresh ``id`` values.

    Ids are random six-digit item numbers, distinct within a conversation.
    """
    _, kinds = vocabulary(rng, 0)
    out = []
    for _ in range(conversations):
        numbers = rng.sample(range(10 ** 5, 10 ** 6), length * items)
        out.append([
            catalog_xml(fresh_items(rng, [str(n) for n in numbers[m * items:(m + 1) * items]],
                                    kinds))
            for m in range(length)
        ])
    return out


def rest_documents(rng, posts: int, items: int = 10) -> tuple:
    """(served catalog, POST bodies): one vocabulary, fresh values each."""
    ids, kinds = vocabulary(rng, items)
    served = catalog_xml(fresh_items(rng, ids, kinds))
    return served, [catalog_xml(fresh_items(rng, ids, kinds)) for _ in range(posts)]


def scenario_cases(rng, count: int, items: int = 100) -> list:
    """Three-party inputs: (document, policy, edits, expected final document).

    Item j's subtree (the item and its three child tags) goes to K1 when
    j % 3 == 0, to K2 when j % 3 == 1 and to the group key K3 otherwise.  SP1
    renames its items; SP2 reprices its items.
    """
    ids, kinds = vocabulary(rng, 50)
    cases = []
    for _ in range(count):
        rows = fresh_items(rng, [ids[j % 50] for j in range(items)], kinds)
        policy, edits, final = {}, {"SP1": {}, "SP2": {}}, []
        for j, (i, k, n, p, q) in enumerate(rows):
            item = 2 + TAGS_PER_ITEM * j            # ordinal 1 is <catalog>
            if j % 3 == 0:
                policy.update({o: "K1" for o in range(item, item + TAGS_PER_ITEM)})
                n = _name(rng)
                edits["SP1"][item + 1] = n
            elif j % 3 == 1:
                policy.update({o: "K2" for o in range(item, item + TAGS_PER_ITEM)})
                p = _price(rng)
                edits["SP2"][item + 2] = p
            final.append((i, k, n, p, q))
        cases.append((catalog_xml(rows), policy, edits, catalog_xml(final)))
    return cases


def inputs(workload: str, seed: int) -> dict:
    """Everything a workload reads, made from the seed alone."""
    rng = rng_for(workload, seed)
    if workload == "catalog-steady":
        return {"messages": steady_messages(rng, 40)}
    if workload == "vocab-churn":
        return {"messages": churn_conversations(rng, 3)}
    if workload == "rest-loopback":
        served, posts = rest_documents(rng, 50)
        return {"served": served, "posts": posts, "key_seed": rng.randrange(2 ** 32)}
    if workload == "three-party":
        return {"cases": scenario_cases(rng, 4)}
    raise ValueError(f"unknown workload {workload!r}")
