"""Differential fuzz of the compiled wire codec against the interpretive one.

``codec_oracle`` is the codec this package shipped before
:mod:`repro.api.codec` compiled one decoder and one encoder per message
class (test-only; nothing under ``src/`` imports it).  For every
registered kind, seeded ``hypothesis`` strategies derive valid messages
from the dataclass annotations, then damage their JSON: a field dropped
or added, a value's JSON type swapped at any depth (inside arrays and
nested objects too), a non-string or unknown ``kind``, a junk
``protocol_version``, or the line truncated.  Two properties:

* every valid message encodes to the oracle's bytes and decodes back to
  itself through both codecs;
* on every line, ``decode_request`` and ``decode_response`` return the
  oracle's message or raise a :class:`ProtocolError` with the oracle's
  code and text — so no input reachable over the wire surfaces anything
  but a typed error.  That includes a float field holding an integer
  past the float range.

Runs derandomized, so tier-1 sees the same examples every time.
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from repro.api import codec
from repro.api.protocol import REQUEST_KINDS, RESPONSE_KINDS, ProtocolError

SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = sorted(REQUEST_KINDS) + sorted(RESPONSE_KINDS)

#: Integers reach past the float range (±2**1024), where a float field
#: must refuse them with a typed error.
INTS = st.integers(min_value=-(2**1030), max_value=2**1030)
PAST_FLOAT = st.integers(min_value=2**1024, max_value=2**1030) | st.integers(
    min_value=-(2**1030), max_value=-(2**1024)
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
VERSIONS = st.sampled_from(["1.0", "1.7", "1.9"])

#: Replacement values for the type-swap mutation, one or more per JSON
#: type (a value is only ever swapped for one of another type).
SWAPS = [
    None, True, False, 0, -3, 2**40, 1.5, "", "x",
    [], [1], ["x"], [[]], [{}], {}, {"a": 1}, {"kind": "query"},
]
#: A ``kind`` that is not a string, unknown, or of the other direction.
KIND_SWAPS = [["query"], {}, 7, True, None, 1.5, "", "frobnicate", *KINDS]
JUNK_VERSIONS = [
    "", "one.zero", "1", "1.2.3", "2.0", "01.7", 7, 1.7, None, True, [1, 0], {},
]


def _json_type(value):
    if isinstance(value, bool):
        return "boolean"
    return type(value).__name__


def _strategy(annotation):
    """Values of one annotation, as the codec's schema defines them."""
    if annotation is typing.Any:
        return JSON_VALUES
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        (present,) = [a for a in args if a is not type(None)]
        return st.none() | _strategy(present)
    if origin is tuple:
        return st.lists(_strategy(args[0]), max_size=3).map(tuple)
    assert dataclasses.is_dataclass(annotation), annotation
    return _messages(annotation)


_SCALARS = {bool: st.booleans(), int: INTS, float: FLOATS, str: TEXT}


def _messages(cls):
    hints = typing.get_type_hints(cls)
    fields = {f.name: _strategy(hints[f.name]) for f in dataclasses.fields(cls)}
    if "protocol_version" in fields:
        fields["protocol_version"] = VERSIONS
    return st.builds(cls, **fields)


MESSAGES = {
    kind: _messages(cls) for kind, cls in {**REQUEST_KINDS, **RESPONSE_KINDS}.items()
}


def _has_float(annotation):
    if annotation is float:
        return True
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        return any(_has_float(hints[f.name]) for f in dataclasses.fields(annotation))
    return any(_has_float(arg) for arg in typing.get_args(annotation))


#: The kinds whose schema has a float field somewhere.
FLOAT_KINDS = [
    kind for kind, cls in {**REQUEST_KINDS, **RESPONSE_KINDS}.items() if _has_float(cls)
]


def _members(value):
    """Every ``(container, key)`` slot of a JSON tree, depth-first."""
    slots = []
    items = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, item in items:
        slots.append((value, key))
        slots.extend(_members(item))
    return slots


@st.composite
def _damaged(draw, message):
    """One damaged wire line derived from a valid ``message``."""
    line = codec.encode(message)
    payload = json.loads(line)
    how = draw(st.sampled_from(["drop", "add", "swap", "kind", "version", "truncate"]))
    if how == "truncate":
        return line[: draw(st.integers(min_value=0, max_value=len(line) - 1))]
    if how == "kind":
        payload["kind"] = draw(st.sampled_from(KIND_SWAPS))
    elif how == "version":
        payload["protocol_version"] = draw(st.sampled_from(JUNK_VERSIONS))
    elif how == "drop":
        fields = [(obj, key) for obj, key in _members(payload) if isinstance(obj, dict)]
        obj, key = draw(st.sampled_from(fields))
        del obj[key]
    elif how == "add":
        objects = [payload] + [
            obj[key] for obj, key in _members(payload) if isinstance(obj[key], dict)
        ]
        obj = draw(st.sampled_from(objects))
        obj[draw(st.text(min_size=1, max_size=6))] = draw(JSON_VALUES)
    else:
        obj, key = draw(st.sampled_from(_members(payload)))
        was = _json_type(obj[key])
        obj[key] = draw(st.sampled_from([v for v in SWAPS if _json_type(v) != was]))
    return json.dumps(payload, sort_keys=True)


def _outcome(decode, line):
    """The decoded message, or the typed error's code and text."""
    try:
        return "decoded", decode(line)
    except ProtocolError as exc:
        return "refused", exc.code, str(exc)


DECODERS = [
    (codec.decode_request, oracle.decode_request),
    (codec.decode_response, oracle.decode_response),
]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, **SETTINGS)
@given(data=st.data())
def test_valid_messages_encode_and_decode_like_the_oracle(kind, data):
    message = data.draw(MESSAGES[kind])
    line = codec.encode(message)
    assert line == oracle.encode(message)
    compiled, reference = DECODERS[0 if kind in REQUEST_KINDS else 1]
    assert compiled(line) == reference(line) == message


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, **SETTINGS)
@given(data=st.data())
def test_damaged_lines_decode_or_fail_like_the_oracle(kind, data):
    line = data.draw(_damaged(data.draw(MESSAGES[kind])))
    for compiled, reference in DECODERS:
        assert _outcome(compiled, line) == _outcome(reference, line)


@pytest.mark.parametrize("kind", FLOAT_KINDS)
@settings(max_examples=10, **SETTINGS)
@given(data=st.data())
def test_an_integer_past_the_float_range_fails_like_the_oracle(kind, data):
    payload = json.loads(codec.encode(data.draw(MESSAGES[kind])))
    # Every float the encoder wrote; a float field always holds one.
    slots = [(obj, key) for obj, key in _members(payload) if type(obj[key]) is float]
    obj, key = data.draw(st.sampled_from(slots))
    obj[key] = data.draw(PAST_FLOAT)
    line = json.dumps(payload, sort_keys=True)
    for compiled, reference in DECODERS:
        assert _outcome(compiled, line) == _outcome(reference, line)
