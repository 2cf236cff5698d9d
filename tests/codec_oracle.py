# The interpretive wire codec this package shipped before the compiled
# one in ``repro.api.codec``, kept as the differential oracle of
# ``tests/test_codec_fuzz.py``.  Test-only: nothing under ``src/``
# imports it.  It re-derives each message's schema from the dataclass
# annotations for every value; the compiled codec must decode, reject
# and encode exactly as it does.
"""Canonical JSON encoding/decoding for the wire protocol.

One encoding, one validator:

* :func:`encode` renders any protocol dataclass as **canonical JSON** —
  sorted keys, no whitespace, a ``"kind"`` discriminator at the top
  level — so byte-identical messages mean identical requests and
  transcripts diff cleanly;
* :func:`decode_request` / :func:`decode_response` parse and validate a
  line: malformed JSON, a non-object payload, a missing or unknown
  ``kind``, an unsupported major version, missing required fields, or
  ill-typed values all raise a typed
  :class:`~repro.api.protocol.ProtocolError` — never anything else.
  Requests additionally reject *unknown* fields (a server never
  guesses); responses ignore them (a client keeps working when a
  same-major server adds fields — the forward-compatibility half of
  the versioning policy).

The validator derives each message's schema from the dataclass
annotations (``Optional``/``Tuple`` included, nested dataclasses
recursively), so the classes in :mod:`repro.api.protocol` are the single
source of truth for both the Python API and the wire format.  That is
why the annotations must be honest — ``Optional[int]`` where null is
legal — rather than the ``int = None`` drift this layer replaced.
"""

import dataclasses
import json
import typing

from repro.api.protocol import (
    KIND_OF,
    OMIT_DEFAULT,
    REQUEST_KINDS,
    RESPONSE_KINDS,
    ProtocolError,
    check_version,
)

#: ``typing.get_type_hints`` resolved once per dataclass (the protocol
#: classes are module-level constants, so the cache never invalidates).
_HINTS_CACHE = {}


def _type_hints(cls):
    hints = _HINTS_CACHE.get(cls)
    if hints is None:
        hints = typing.get_type_hints(cls)
        _HINTS_CACHE[cls] = hints
    return hints


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def to_wire(message):
    """The JSON-ready dict form of a protocol dataclass.

    The top-level message carries its ``kind``; nested dataclasses are
    plain field dicts (the decoder recovers their type from the field
    annotation, so repeating the discriminator would be noise).
    """
    cls = type(message)
    kind = KIND_OF.get(cls)
    if kind is None:
        raise ProtocolError(
            "invalid-request", f"{cls.__name__} is not a wire message type"
        )
    payload = _value_to_wire(message)
    payload["kind"] = kind
    return payload


#: Marks a field that is encoded whatever its value.
_ALWAYS = object()

#: Per dataclass, ``(name, omit_if)`` for each field — ``omit_if`` is
#: the default of a :func:`~repro.api.protocol.omitted_unless_set`
#: field, ``_ALWAYS`` otherwise.  Built once per class, like the hints.
_FIELDS_CACHE = {}


def _wire_fields(cls):
    plan = _FIELDS_CACHE.get(cls)
    if plan is None:
        plan = tuple(
            (f.name, f.default if f.metadata.get(OMIT_DEFAULT) else _ALWAYS)
            for f in dataclasses.fields(cls)
        )
        _FIELDS_CACHE[cls] = plan
    return plan


def _value_to_wire(value):
    if dataclasses.is_dataclass(value):
        wire = {}
        for name, omit_if in _wire_fields(type(value)):
            item = getattr(value, name)
            if omit_if is _ALWAYS or item != omit_if:
                wire[name] = _value_to_wire(item)
        return wire
    if isinstance(value, (tuple, list)):
        return [_value_to_wire(item) for item in value]
    return value


def encode(message):
    """Canonical JSON for one message: sorted keys, compact separators."""
    return json.dumps(to_wire(message), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# decoding + strict validation
# ----------------------------------------------------------------------
def decode_request(text):
    """Parse one request line; raises :class:`ProtocolError` on anything
    that is not a well-formed, version-compatible request."""
    return _decode(text, REQUEST_KINDS, "request")


def decode_response(text):
    """Parse one response line (the client side of the wire).

    Unlike requests — which a server must validate strictly — responses
    are decoded *forward-compatibly*: fields this build does not know
    are ignored when the major version matches.  That is what makes the
    versioning policy real: a minor revision may add response fields,
    and a client built before the addition must keep decoding the new
    server's replies (requests stay strict, so the old client also
    never emits anything the server would have to guess about).
    """
    return _decode(text, RESPONSE_KINDS, "response", ignore_unknown=True)


def _decode(text, registry, direction, ignore_unknown=False):
    try:
        payload = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        # RecursionError: pathologically nested input must yield the
        # same typed error as any other malformed line, not a crash.
        raise ProtocolError("malformed-json", f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid-request",
            f"a {direction} must be a JSON object, got {type(payload).__name__}",
        )
    version = payload.get("protocol_version")
    if version is None:
        raise ProtocolError(
            "invalid-request", f"{direction} is missing 'protocol_version'"
        )
    check_version(version)
    kind = payload.get("kind")
    if kind is None:
        raise ProtocolError("invalid-request", f"{direction} is missing 'kind'")
    # The one change from the interpretive codec as shipped: a non-string
    # kind is unknown instead of a TypeError from the registry lookup.
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        known = ", ".join(sorted(registry))
        raise ProtocolError(
            "unknown-kind", f"unknown {direction} kind {kind!r}; known: {known}"
        )
    return build_message(cls, payload, path=kind, ignore_unknown=ignore_unknown)


def build_message(cls, payload, path, ignore_unknown=False):
    """Validate ``payload`` against ``cls``'s annotations and build it.

    Exposed for the snapshot layer, which embeds protocol structs
    (:class:`~repro.analysis.summaries.CacheStats`) in its own format.
    ``ignore_unknown`` is the response-side forward-compatibility rule
    (see :func:`decode_response`); known fields are always validated
    strictly either way.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid-request",
            f"{path}: expected an object, got {type(payload).__name__}",
        )
    hints = _type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known - {"kind"}
    if unknown and not ignore_unknown:
        raise ProtocolError(
            "invalid-request",
            f"{path}: unknown field(s) {sorted(unknown)!r}",
        )
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in payload:
            kwargs[f.name] = _coerce(
                payload[f.name], hints[f.name], f"{path}.{f.name}", ignore_unknown
            )
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise ProtocolError(
                "invalid-request", f"{path}: missing required field {f.name!r}"
            )
    return cls(**kwargs)


def _coerce(value, annotation, path, ignore_unknown=False):
    """Check ``value`` against one annotation, recursively; JSON arrays
    become tuples, nested objects become their annotated dataclass."""
    if annotation is typing.Any:
        # Opaque JSON payload: the field carries a foreign format (the
        # store-level ops carry snapshot entries/keys) whose validation
        # belongs to that format's own checker, not the wire schema —
        # the dispatcher validates it before trusting it.
        return value
    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # Optional[X] is Union[X, None]
        args = typing.get_args(annotation)
        if type(None) in args and value is None:
            return None
        non_null = [a for a in args if a is not type(None)]
        if len(non_null) == 1:
            return _coerce(value, non_null[0], path, ignore_unknown)
        raise ProtocolError(
            "invalid-request", f"{path}: unsupported union annotation {annotation!r}"
        )
    if origin is tuple:
        (item_type, ellipsis) = typing.get_args(annotation)
        assert ellipsis is Ellipsis, f"non-variadic tuple annotation at {path}"
        if not isinstance(value, (list, tuple)):
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected an array, got {type(value).__name__}",
            )
        return tuple(
            _coerce(item, item_type, f"{path}[{i}]", ignore_unknown)
            for i, item in enumerate(value)
        )
    if dataclasses.is_dataclass(annotation):
        return build_message(annotation, value, path, ignore_unknown)
    if annotation is bool:
        if not isinstance(value, bool):
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected a boolean, got {type(value).__name__}",
            )
        return value
    if annotation is int:
        # bool is an int subclass; true/false are not integers on the wire.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected an integer, got {type(value).__name__}",
            )
        return value
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected a number, got {type(value).__name__}",
            )
        try:
            return float(value)
        except OverflowError:  # a JSON integer past the float range
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected a number, got an integer out of float range",
            ) from None
    if annotation is str:
        if not isinstance(value, str):
            raise ProtocolError(
                "invalid-request",
                f"{path}: expected a string, got {type(value).__name__}",
            )
        return value
    raise ProtocolError(
        "invalid-request", f"{path}: unsupported annotation {annotation!r}"
    )
