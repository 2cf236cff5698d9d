"""Canonical JSON encoding/decoding for the wire protocol.

One encoding, one validator:

* :func:`encode` renders any protocol dataclass as **canonical JSON** —
  sorted keys, no whitespace, a ``"kind"`` discriminator at the top
  level — so byte-identical messages mean identical requests and
  transcripts diff cleanly;
* :func:`decode_request` / :func:`decode_response` parse and validate a
  line: malformed JSON, a non-object payload, a missing or unknown
  ``kind`` (a non-string one included), an unsupported major version,
  missing required fields, or ill-typed values all raise a typed
  :class:`~repro.api.protocol.ProtocolError` — never anything else.
  Requests additionally reject *unknown* fields (a server never
  guesses); responses ignore them (a client keeps working when a
  same-major server adds fields — the forward-compatibility half of
  the versioning policy).

The classes in :mod:`repro.api.protocol` are the single source of truth
for both the Python API and the wire format: each message class gets
one decoder and one encoder, **compiled once** from its dataclass
annotations (``Optional``/``Tuple[X, ...]``/``Any``, scalars, and
nested dataclasses) the first time the class crosses the wire.  The
compiled decoder runs the field checks the annotations imply and
nothing else — no per-value ``typing`` introspection — and formats a
field's path (``batch.queries[0].var``) only when a check fails.  An
annotation the codec cannot compile (``Dict``, ``bytes``,
``Tuple[int, str]``, a multi-type ``Union``) is a ``TypeError`` naming
``Class.field`` when its class is first used, never a silent fall-open;
lint rule WIRE001 flags the same annotations statically.  That is also
why the annotations must be honest — ``Optional[int]`` where null is
legal — rather than the ``int = None`` drift this layer replaced.
"""

import collections
import dataclasses
import json
import typing

from repro.api.protocol import (
    KIND_OF,
    OMIT_DEFAULT,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    RESPONSE_KINDS,
    ProtocolError,
    check_version,
)

#: The canonical form: sorted keys at every depth (opaque ``Any``
#: payloads included), compact separators.  One encoder instance, so a
#: call does not rebuild it.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def to_wire(message):
    """The JSON-ready dict form of a protocol dataclass.

    The top-level message carries its ``kind``; nested dataclasses are
    plain field dicts (the decoder recovers their type from the field
    annotation, so repeating the discriminator would be noise).  An
    array that holds no dataclass stays the tuple the message holds —
    ``json`` renders it as an array all the same.
    """
    cls = type(message)
    kind = KIND_OF.get(cls)
    if kind is None:
        raise ProtocolError(
            "invalid-request", f"{cls.__name__} is not a wire message type"
        )
    payload = _codec(cls).encode(message)
    payload["kind"] = kind
    return payload


def encode(message):
    """Canonical JSON for one message: sorted keys, compact separators."""
    return _CANONICAL.encode(to_wire(message))


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
    if version != PROTOCOL_VERSION:
        check_version(version)
    kind = payload.get("kind")
    if kind is None:
        raise ProtocolError("invalid-request", f"{direction} is missing 'kind'")
    # An unhashable kind (a JSON array or object) is unknown, not a
    # TypeError escaping the typed-error contract.
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
    try:
        return _codec(cls).decode(payload, ignore_unknown)
    except _Invalid as exc:
        where = "".join(reversed(exc.where))
        raise ProtocolError("invalid-request", f"{path}{where}: {exc}") from None


# ----------------------------------------------------------------------
# the compiler: one decoder and one encoder per dataclass
# ----------------------------------------------------------------------
class _Invalid(Exception):
    """A failed check inside a message.  The text is the failure;
    ``where`` collects the path segments (``.field``, ``[index]``),
    innermost first, as the failure unwinds through the decoders — so a
    path is only ever formatted for a value that failed."""

    def __init__(self, detail):
        super().__init__(detail)
        self.where = []


#: A dataclass's compiled pair: ``decode(payload, ignore_unknown)``
#: validates a JSON object and builds the instance, raising
#: :class:`_Invalid`; ``encode(message)`` returns its field dict,
#: without ``kind``.
_Codec = collections.namedtuple("_Codec", ("decode", "encode"))


#: Compiled codecs by class.  A codec is published only once it is
#: fully built (its nested classes' codecs first), so a thread that
#: finds one here never sees it half-built; two threads compiling the
#: same class at once build equal codecs and either may win.
_CODECS = {}


def _codec(cls):
    codec = _CODECS.get(cls)
    if codec is None:
        codec = _compile(cls)
        _CODECS[cls] = codec
    return codec


def _compile(cls):
    fields = dataclasses.fields(cls)
    # (name, check or None for an opaque value, required)
    plan = []
    # (name, converter or None, omit-if value or _ALWAYS)
    out = []
    for f in fields:
        where = f"{cls.__name__}.{f.name}"
        # The annotation object itself: a postponed (string) annotation
        # is refused like any other the codec cannot compile.
        annotation = f.type
        plan.append(
            (
                f.name,
                _decoder(annotation, where),
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
            )
        )
        omit_if = f.default if f.metadata.get(OMIT_DEFAULT) else _ALWAYS
        out.append((f.name, _encoder(annotation), omit_if))
    plan = tuple(plan)
    out = tuple(out)
    accepted = frozenset(f.name for f in fields) | {"kind"}

    def decode(payload, ignore_unknown):
        if not isinstance(payload, dict):
            raise _Invalid(f"expected an object, got {type(payload).__name__}")
        if not ignore_unknown and not payload.keys() <= accepted:
            raise _Invalid(
                f"unknown field(s) {sorted(payload.keys() - accepted)!r}"
            )
        kwargs = {}
        for name, check, required in plan:
            if name in payload:
                value = payload[name]
                if check is not None:
                    try:
                        value = check(value, ignore_unknown)
                    except _Invalid as exc:
                        exc.where.append("." + name)
                        raise
                kwargs[name] = value
            elif required:
                raise _Invalid(f"missing required field {name!r}")
        return cls(**kwargs)

    def encode(message):
        wire = {}
        for name, convert, omit_if in out:
            value = getattr(message, name)
            if omit_if is _ALWAYS or value != omit_if:
                wire[name] = value if convert is None else convert(value)
        return wire

    return _Codec(decode, encode)


#: Marks a field that is encoded whatever its value.
_ALWAYS = object()


def _decoder(annotation, where):
    """``check(value, ignore_unknown) -> value`` for one annotation, or
    ``None`` when any JSON value passes (``Any``)."""
    if annotation is typing.Any:
        # Opaque JSON payload: the field carries a foreign format (the
        # store-level ops carry snapshot entries/keys) whose validation
        # belongs to that format's own checker, not the wire schema —
        # the dispatcher validates it before trusting it.
        return None
    scalar = _SCALARS.get(annotation)
    if scalar is not None:
        return scalar
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X] is Union[X, None]
        present = [a for a in args if a is not type(None)]
        if len(present) == 1 and len(args) == 2:
            return _optional(_decoder(present[0], where))
    elif origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _array(_decoder(args[0], where), args[0])
    elif dataclasses.is_dataclass(annotation):
        return _codec(annotation).decode
    raise TypeError(f"{where}: the wire codec cannot compile {annotation!r}")


def _encoder(annotation):
    """``convert(value) -> JSON-ready value`` for an annotation
    :func:`_decoder` compiled, or ``None`` when the value is JSON-ready
    as it stands (scalars, opaque payloads, and arrays or optionals of
    those)."""
    if annotation is typing.Any or annotation in _SCALARS:
        return None
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        inner = _encoder(next(a for a in args if a is not type(None)))
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        inner = _encoder(args[0])
        if inner is None:
            return None
        return lambda value: [inner(item) for item in value]
    return _codec(annotation).encode


def _failure(expected, value):
    return _Invalid(f"expected {expected}, got {type(value).__name__}")


def _check_bool(value, ignore_unknown):
    if value is True or value is False:
        return value
    raise _failure("a boolean", value)


def _check_int(value, ignore_unknown):
    # bool is an int subclass; true/false are not integers on the wire.
    if isinstance(value, int) and value is not True and value is not False:
        return value
    raise _failure("an integer", value)


def _check_float(value, ignore_unknown):
    if isinstance(value, (int, float)) and value is not True and value is not False:
        try:
            return float(value)
        except OverflowError:  # a JSON integer past the float range
            raise _Invalid("expected a number, got an integer out of float range")
    raise _failure("a number", value)


def _check_str(value, ignore_unknown):
    if isinstance(value, str):
        return value
    raise _failure("a string", value)


_SCALARS = {
    bool: _check_bool,
    int: _check_int,
    float: _check_float,
    str: _check_str,
}


def _optional(check):
    if check is None:
        return None

    def optional(value, ignore_unknown):
        if value is None:
            return None
        return check(value, ignore_unknown)

    return optional


def _array(check, item_type):
    exact = item_type if item_type in (bool, int, str) else None

    def array(value, ignore_unknown):
        if not isinstance(value, (list, tuple)):
            raise _failure("an array", value)
        if check is None:
            return tuple(value)
        if exact is not None:
            # JSON scalars have exactly their type; anything else (a
            # wrong type, or a subclass passed in process) takes the
            # per-item path below.
            for item in value:
                if type(item) is not exact:
                    break
            else:
                return tuple(value)
        items = []
        try:
            for item in value:
                items.append(check(item, ignore_unknown))
        except _Invalid as exc:
            exc.where.append(f"[{len(items)}]")  # the failing item's index
            raise
        return tuple(items)

    return array
