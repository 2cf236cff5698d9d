"""Seeded fuzz of the snapshot loader, :meth:`SummarySnapshot.loads`.

Valid snapshots come from a small program (the paper's Figure 2): one
saved from a plain store and one from an LRU store under an entry cap,
each after a cold pass over every local.  A damaged snapshot is such a
file's JSON with one mutation:

* a value at any depth (the top level, ``stats``, an entry, a node
  reference, a field stack, a stack token, a boundary) swapped for one
  of another type: a float equal to an integer, ``true`` or ``false``
  for an integer equal to it, ``true``, a string, ``null``, ±2**63, or
  a list;
* a key dropped from an object at any depth, or one added (an unknown
  name, or one the format reads elsewhere: ``steps``, ``cost``,
  ``eviction``, ``shard_stats``);
* a junk or future ``snapshot_version``;
* an entry duplicated, with the recorded stats made to agree or not;
* a node reference (a key node, an object, a boundary node) renamed to
  one the program lacks.

The property: ``SummarySnapshot.loads`` raises ``SnapshotError``, or
engines warm-started from the file on ``native``, ``array`` and
``reference`` answer every query with no other exception, each with
the same answers and steps.  Where the mutation swapped a value for an
equal one of another type (``1.0`` or ``true`` for ``1``) and the file
still loads, those answers and steps equal the unmutated snapshot's.

Runs derandomized, so tier-1 sees the same examples every time.  Run
the module directly for a longer budget, per store kind:
``PYTHONPATH=src python tests/test_snapshot_fuzz.py [EXAMPLES]``.
"""

import copy
import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_PROGRAMS
from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag, parse_program
from repro.api.protocol import SnapshotError
from repro.api.snapshot import SummarySnapshot

SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SOURCE = EXAMPLE_PROGRAMS["motivating_example:FIGURE2"]

#: The stores a valid snapshot is saved from; warm engines run the same
#: cache policy.
CACHES = {
    "plain": CachePolicy(),
    "lru": CachePolicy(max_entries=40),
}

IMPLS = ("native", "array", "reference")


def fresh_pag():
    return build_pag(parse_program(SOURCE))


def queries(pag):
    return sorted(pag.local_var_nodes(), key=repr)


def answers(engine):
    """Each local's answer and steps, in a fixed order."""
    results = [engine.query(node) for node in queries(engine.pag)]
    return [
        (sorted(map(repr, r.pairs)), r.complete, r.steps) for r in results
    ]


def saved_text(cache):
    """The canonical JSON of a store after a cold pass over every local."""
    engine = PointsToEngine(fresh_pag(), EnginePolicy(cache=CACHES[cache]))
    engine.query_batch(queries(engine.pag))
    return SummarySnapshot.capture(engine.cache).dumps()


TEXTS = {cache: saved_text(cache) for cache in CACHES}


def warm_answers(text, cache):
    """Per impl, the answers of an engine warm-started from ``text``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "snapshot.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        runs = {}
        for impl in IMPLS:
            engine = PointsToEngine(
                fresh_pag(),
                EnginePolicy(
                    cache=CACHES[cache], traversal_impl=impl, warm_start=path
                ),
            )
            runs[impl] = answers(engine)
    return runs


WANT = {cache: warm_answers(text, cache)["reference"] for cache, text in TEXTS.items()}


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------
def paths(node, path=()):
    """Every path into ``node`` (a tuple of keys and indexes), its own
    included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, (*path, index))


def shape(path):
    """A path's place in the format: its keys, each index written
    ``#`` (``entries.#.boundaries.#.state``)."""
    return ".".join(key if isinstance(key, str) else "#" for key in path)


def at(root, path):
    for key in path:
        root = root[key]
    return root


def by_shape(payload, keep):
    """``{shape: [path, ...]}`` of the payload's paths whose value
    passes ``keep``."""
    shapes = {}
    for path in paths(payload):
        if keep(path, at(payload, path)):
            shapes.setdefault(shape(path), []).append(path)
    return shapes


def is_int(value):
    return type(value) is int and abs(value) < 2**53


#: Per store kind, the paths each mutation may pick, by shape: a shape
#: is drawn first, so a rare place (a boundary's state, a cap in
#: ``stats``) is hit as often as a common one (an object's ``id``).
TARGETS = {
    cache: {
        "swap": by_shape(payload, lambda path, value: bool(path)),
        "equal": by_shape(payload, lambda path, value: is_int(value)),
        "drop": by_shape(payload, lambda path, value: bool(path) and isinstance(path[-1], str)),
        "add": by_shape(payload, lambda path, value: isinstance(value, dict)),
    }
    for cache, payload in ((cache, json.loads(text)) for cache, text in TEXTS.items())
}


def draw_path(data, shapes):
    name = data.draw(st.sampled_from(sorted(shapes)))
    return data.draw(st.sampled_from(shapes[name]))


#: Values another type may be swapped for.
SWAPS = [True, "x", None, 2**63, -(2**63), [], {}]
#: Keys a mutation may add to an object: an unknown one, and ones the
#: format reads at some level.
ADDED_KEYS = ["note", "steps", "cost", "eviction", "shard_stats", "shards"]
ADDED_VALUES = [0, 1, 1.5, -1, 2**63, True, None, "lru", "cost", [], {}, [1.0]]
#: Junk and future ``snapshot_version`` values.
VERSIONS = ["1.3", "1.99", "2.0", "0.9", "1", "1.x", "", None, 1.2, ["1.2"], "1.2.0"]
#: Each mutation kind, weighted: swaps are the richest.
KINDS = ["swap"] * 3 + ["equal"] * 3 + ["drop", "add", "version", "duplicate", "missing"]


def node_refs(entry):
    """Every node reference of one entry."""
    refs = [entry["node"], *entry["objects"]]
    refs += [boundary["node"] for boundary in entry["boundaries"]]
    return refs


def mutate(payload, targets, data):
    """Apply one drawn mutation to ``payload`` in place; returns whether
    it swapped a value for an equal one of another type."""
    kind = data.draw(st.sampled_from(KINDS))
    entries = payload["entries"]
    if kind in ("swap", "equal"):
        path = draw_path(data, targets[kind])
        parent = at(payload, path[:-1])
        value = parent[path[-1]]
        if kind == "equal":
            equal = [float(value)] + ([bool(value)] if value in (0, 1) else [])
            parent[path[-1]] = data.draw(st.sampled_from(equal))
            return True
        parent[path[-1]] = data.draw(st.sampled_from([*SWAPS, [value]]))
    elif kind == "drop":
        path = draw_path(data, targets["drop"])
        del at(payload, path[:-1])[path[-1]]
    elif kind == "add":
        path = draw_path(data, targets["add"])
        key = data.draw(st.sampled_from(ADDED_KEYS))
        at(payload, path)[key] = data.draw(st.sampled_from(ADDED_VALUES))
    elif kind == "version":
        payload["snapshot_version"] = data.draw(st.sampled_from(VERSIONS))
    elif kind == "duplicate":
        index = data.draw(st.integers(0, len(entries) - 1))
        entry = copy.deepcopy(entries[index])
        entries.insert(data.draw(st.integers(0, len(entries))), entry)
        if data.draw(st.booleans()):
            payload["stats"]["entries"] += 1
            payload["stats"]["facts"] += len(entry["objects"]) + len(entry["boundaries"])
    else:
        entry = data.draw(st.sampled_from(entries))
        ref = data.draw(st.sampled_from(node_refs(entry)))
        field = {"local": "name", "object": "id", "global": "field"}[ref["kind"]]
        ref[field] = "no_such_" + ref[field]
    return False


def check(cache, text):
    """The property for one snapshot text."""
    try:
        SummarySnapshot.loads(text)
    except SnapshotError:
        return None
    runs = warm_answers(text, cache)
    assert runs["native"] == runs["array"] == runs["reference"]
    return runs["reference"]


@pytest.mark.parametrize("cache", sorted(CACHES))
def test_the_unmutated_snapshot_warm_starts_alike_on_every_impl(cache):
    assert check(cache, TEXTS[cache]) == WANT[cache]
    payload = json.loads(TEXTS[cache])
    assert payload["store"] == ("bounded" if cache == "lru" else "unbounded")
    assert len(payload["entries"]) >= 40


def mutated_case(cache, data):
    payload = json.loads(TEXTS[cache])
    equal = mutate(payload, TARGETS[cache], data)
    got = check(cache, json.dumps(payload))
    if equal and got is not None:
        assert got == WANT[cache]


@pytest.mark.parametrize("cache", sorted(CACHES))
@settings(**SETTINGS, max_examples=200)
@given(data=st.data())
def test_a_mutated_snapshot_is_refused_or_answers_on_every_impl(cache, data):
    mutated_case(cache, data)


# ----------------------------------------------------------------------
# regression cases the fuzz found
# ----------------------------------------------------------------------
def every_state_as(payload, value_of):
    for entry in payload["entries"]:
        for key in (entry, *entry["boundaries"]):
            key["state"] = value_of(key["state"])


@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("written", ["float", "true"])
def test_states_written_as_equal_values_answer_like_ints(cache, written):
    """A key or boundary state of ``1.0`` (or ``true`` for S1) loads as
    the int it equals: on the kernel it raised ``TypeError`` from every
    query."""
    payload = json.loads(TEXTS[cache])
    if written == "float":
        every_state_as(payload, float)
    else:
        every_state_as(payload, lambda state: True if state == 1 else state)
    assert check(cache, json.dumps(payload)) == WANT[cache]


def main(argv):
    examples = int(argv[1]) if len(argv) > 1 else 2000
    for cache in sorted(CACHES):
        settings(**SETTINGS, max_examples=examples)(
            given(data=st.data())(lambda data: mutated_case(cache, data))
        )()
        print(f"snapshot fuzz: {cache}: {examples} examples passed", flush=True)


if __name__ == "__main__":
    main(sys.argv)
