"""Deterministic fault injection + unified retry/backoff/circuit breaking.

The serving stack's resilience story ("fail-open, always") accumulated
across PRs 4-7 as ad-hoc mechanisms: fixed ``retry_interval`` backoff,
reconnect-and-seed, epoch self-heal.  None of it was exercisable on
demand — there was no way to inject a timeout or a half-written line,
so the failure paths were asserted in prose rather than in tests.
This module turns failure into a first-class, *deterministic* input:

* :class:`FaultSchedule` — a frozen, seeded description of *which*
  operations fail and *how*.  Decisions are a pure function of
  ``(seed, shard, op_index)``, so a schedule replays identically across
  runs, in-process servers and shard processes.  Schedules round-trip
  through a compact spec grammar (``repro-cached --faults SPEC``, env
  ``REPRO_FAULTS``) so child shard processes can be told to misbehave.
* :class:`FaultInjector` — the stateful, thread-safe counterpart: one
  per transport end, numbering that end's operation stream and counting
  every injected fault (surfaced as ``stats-result.faults``).
* :class:`RetryPolicy` — jittered exponential backoff with a cap and
  optional deadline/attempt budget, replacing the fixed
  ``retry_interval``.  Jitter is *deterministic per key* (a link hashes
  its address), so N links to a dead fleet spread out instead of
  retrying in lockstep, while a given link stays reproducible.
* :class:`CircuitBreaker` — closed → open on a consecutive-failure
  threshold → half-open single probe.  Reconnect-and-seed rides the
  probe.  The clock is injectable so tests can bound the error cost of
  a dead fleet exactly.

Injected faults raise :class:`InjectedFault` subclasses that inherit
from ``OSError`` (and ``ConnectionError`` for disconnects), so they
flow through exactly the teardown/fall-open paths a real network
failure would — the injection layer cannot take a path production
traffic could not.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple
from zlib import crc32

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CLIENT_KINDS",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultError",
    "FaultInjector",
    "FaultRule",
    "FaultSchedule",
    "InjectedDisconnect",
    "InjectedFault",
    "InjectedTimeout",
    "RetryPolicy",
    "SERVER_KINDS",
    "corrupt_line",
    "truncate_line",
    "wait_until",
]

FAULTS_ENV = "REPRO_FAULTS"

#: Every fault kind the layer can inject, client- or server-side.
FAULT_KINDS = (
    "connect-refused",
    "read-timeout",
    "write-timeout",
    "disconnect",
    "truncate",
    "corrupt",
    "delay",
    "blank-restart",
)

#: Kinds meaningful on the client (link) side of the socket seam.
CLIENT_KINDS = (
    "connect-refused",
    "read-timeout",
    "write-timeout",
    "disconnect",
    "truncate",
    "corrupt",
    "delay",
)

#: Kinds meaningful inside a shard server's transport.
SERVER_KINDS = (
    "disconnect",
    "truncate",
    "corrupt",
    "delay",
    "blank-restart",
)


class FaultError(Exception):
    """Base of the injected-fault hierarchy.

    Client code that wants to fall open on *any* injected condition can
    catch this one name; ERR002 recognises it as a fail-open trigger.
    """


class InjectedFault(FaultError, OSError):
    """An injected transport fault.

    Subclasses ``OSError`` on purpose: the link and server teardown
    paths already catch ``OSError`` for real network failures, so an
    injected fault exercises exactly those paths rather than a parallel
    test-only code path.
    """

    def __init__(self, kind: str, detail: str = "") -> None:
        message = f"injected {kind}" + (f": {detail}" if detail else "")
        super().__init__(message)
        self.kind = kind


class InjectedTimeout(InjectedFault, TimeoutError):
    """An injected read/write timeout (raises immediately — no waiting)."""


class InjectedDisconnect(InjectedFault, ConnectionError):
    """An injected mid-flight disconnect (connection must be torn down)."""


def truncate_line(line: str) -> str:
    """Cut a wire line in half — a half-written response."""
    return line[: max(1, len(line) // 2)]


def corrupt_line(line: str) -> str:
    """Prepend junk that no JSON decoder will accept."""
    return "!corrupt!" + line


@dataclass(frozen=True)
class FaultRule:
    """Force fault ``kind`` on operation ``op`` (of ``shard``, or any)."""

    kind: str
    op: int
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.op < 0:
            raise ValueError("fault rule op index must be >= 0")

    def to_spec(self) -> str:
        shard = "*" if self.shard is None else str(self.shard)
        return f"rule={self.kind}:{shard}:{self.op}"


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, deterministic description of which operations fail.

    ``decide(shard, op_index)`` is a pure function: explicit
    :class:`FaultRule` entries win, then (for ``op_index >= start`` on a
    targeted shard) a crc32 draw over ``(seed, shard, op_index)`` fires
    with probability ``rate`` and picks uniformly among ``kinds``.
    Frozen and hashable so it can live inside ``CachePolicy``.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: Tuple[str, ...] = CLIENT_KINDS
    shards: Optional[Tuple[int, ...]] = None
    rules: Tuple[FaultRule, ...] = ()
    start: int = 0
    limit: Optional[int] = None
    delay_sec: float = 0.005

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.shards is not None:
            object.__setattr__(self, "shards", tuple(self.shards))
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if self.rate > 0.0 and not self.kinds:
            raise ValueError("a rated schedule needs at least one kind")

    def decide(self, shard: int, op_index: int) -> Optional[str]:
        """The fault to inject on ``shard``'s ``op_index``-th op, if any."""
        for rule in self.rules:
            if rule.op == op_index and rule.shard in (None, shard):
                return rule.kind
        if self.rate <= 0.0 or op_index < self.start:
            return None
        if self.shards is not None and shard not in self.shards:
            return None
        draw = crc32(f"fault:{self.seed}:{shard}:{op_index}".encode())
        if draw / 2**32 >= self.rate:
            return None
        pick = crc32(f"kind:{self.seed}:{shard}:{op_index}".encode())
        return self.kinds[pick % len(self.kinds)]

    # -- spec grammar ------------------------------------------------
    #
    #   spec      = item ("," item)*
    #   item      = "seed=" INT | "rate=" FLOAT | "start=" INT
    #             | "limit=" INT | "delay=" FLOAT
    #             | "kinds=" KIND ("|" KIND)*
    #             | "shards=" INT ("|" INT)*
    #             | "rule=" KIND ":" ("*" | INT) ":" INT
    #
    # e.g.  "seed=7,rate=0.25,kinds=disconnect|corrupt,rule=blank-restart:*:3"

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse the ``--faults`` / ``REPRO_FAULTS`` spec grammar."""
        kwargs: Dict[str, object] = {}
        rules = []
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault spec item {item!r} (want key=value)")
            key, value = item.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "start":
                kwargs["start"] = int(value)
            elif key == "limit":
                kwargs["limit"] = int(value)
            elif key == "delay":
                kwargs["delay_sec"] = float(value)
            elif key == "kinds":
                kwargs["kinds"] = tuple(k.strip() for k in value.split("|") if k.strip())
            elif key == "shards":
                kwargs["shards"] = tuple(int(s) for s in value.split("|") if s.strip())
            elif key == "rule":
                parts = value.split(":")
                if len(parts) != 3:
                    raise ValueError(f"bad fault rule {value!r} (want KIND:SHARD:OP)")
                kind, shard_text, op_text = parts
                shard = None if shard_text == "*" else int(shard_text)
                rules.append(FaultRule(kind=kind, op=int(op_text), shard=shard))
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        if rules:
            kwargs["rules"] = tuple(rules)
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_spec(self) -> str:
        """The inverse of :meth:`parse` (to hand schedules to children)."""
        items = []
        if self.seed:
            items.append(f"seed={self.seed}")
        if self.rate:
            items.append(f"rate={self.rate!r}")
        if self.kinds != CLIENT_KINDS:
            items.append("kinds=" + "|".join(self.kinds))
        if self.shards is not None:
            items.append("shards=" + "|".join(str(s) for s in self.shards))
        if self.start:
            items.append(f"start={self.start}")
        if self.limit is not None:
            items.append(f"limit={self.limit}")
        if self.delay_sec != 0.005:
            items.append(f"delay={self.delay_sec!r}")
        items.extend(rule.to_spec() for rule in self.rules)
        return ",".join(items)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultSchedule"]:
        """The schedule named by ``REPRO_FAULTS``, or None."""
        env = os.environ if environ is None else environ
        spec = env.get(FAULTS_ENV, "").strip()
        return cls.parse(spec) if spec else None


def coerce_schedule(schedule) -> Optional[FaultSchedule]:
    """Accept a :class:`FaultSchedule`, a spec string, or None."""
    if schedule is None:
        return None
    if isinstance(schedule, FaultSchedule):
        return schedule
    if isinstance(schedule, str):
        return FaultSchedule.parse(schedule)
    raise TypeError(f"fault schedule must be FaultSchedule or spec str, got {type(schedule).__name__}")


class FaultInjector:
    """The stateful end of a schedule: numbers one transport's operation
    stream and injects what :meth:`FaultSchedule.decide` dictates.

    One injector per transport end (all of a client's links share one;
    each shard server owns one), ``side`` filtering the schedule down to
    the kinds that end can express.  Filtered-out decisions still
    consume their op index, so a mixed schedule replays the same
    op-numbering on both sides.  Thread-safe: links and server worker
    threads hit ``begin_op`` concurrently.
    """

    def __init__(self, schedule: FaultSchedule, side: str = "client") -> None:
        if side not in ("client", "server"):
            raise ValueError(f"fault injector side must be client|server, got {side!r}")
        self.schedule = schedule
        self.side = side
        self._allowed = frozenset(CLIENT_KINDS if side == "client" else SERVER_KINDS)
        self._lock = threading.Lock()
        self._ops: Dict[int, int] = {}  # guarded-by: _lock
        self._counts: Dict[str, int] = {}  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock

    def begin_op(self, shard: int) -> Optional[str]:
        """Advance ``shard``'s op counter; return the fault to inject, if any."""
        with self._lock:
            index = self._ops.get(shard, 0)
            self._ops[shard] = index + 1
            if self.schedule.limit is not None and self._total >= self.schedule.limit:
                return None
            kind = self.schedule.decide(shard, index)
            if kind is None or kind not in self._allowed:
                return None
            self._counts[kind] = self._counts.get(kind, 0) + 1
            self._total += 1
            return kind

    @property
    def delay_sec(self) -> float:
        return self.schedule.delay_sec

    def total_injected(self) -> int:
        with self._lock:
            return self._total

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with a cap and optional budgets.

    ``delay_for(cycle, key)`` is deterministic: the jitter fraction is a
    crc32 draw over ``(key, cycle)``, so a link keyed by its address
    gets a reproducible schedule that still differs from its siblings'
    (no lockstep retry storms).  ``deadline`` bounds total elapsed time
    and ``budget`` total attempts for retry loops built on
    :func:`wait_until`.
    """

    initial: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    deadline: Optional[float] = None
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial <= 0.0:
            raise ValueError("retry initial delay must be > 0")
        if self.multiplier < 1.0:
            raise ValueError("retry multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("retry jitter must be within [0, 1)")

    @classmethod
    def from_interval(cls, interval: float) -> "RetryPolicy":
        """Backoff starting at ``interval`` and capped at eight times
        it — what a shard link without an explicit policy derives from
        its socket timeout."""
        return cls(initial=interval, multiplier=2.0, max_delay=interval * 8)

    def delay_for(self, cycle: int, key: int = 0) -> float:
        """The backoff delay after ``cycle`` consecutive failures."""
        base = min(self.max_delay, self.initial * self.multiplier ** max(0, cycle))
        if self.jitter <= 0.0:
            return base
        frac = crc32(f"jitter:{key}:{cycle}".encode()) / 2**32
        return base * (1.0 - self.jitter * frac)

    def attempts_within(self, window: float, key: int = 0) -> int:
        """Upper bound on attempts a breaker driving this policy makes
        against a dead endpoint over ``window`` seconds (1 probe per
        backoff window)."""
        attempts, elapsed, cycle = 1, 0.0, 0
        while True:
            elapsed += self.delay_for(cycle, key=key)
            if elapsed >= window:
                return attempts
            attempts += 1
            cycle += 1

    def as_spec(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def wait_until(predicate, policy: RetryPolicy, key: int = 0, clock=None, sleep=None) -> bool:
    """Poll ``predicate`` under ``policy``'s backoff schedule until it
    returns truthy, the deadline elapses, or the budget is exhausted."""
    import time

    clock = time.monotonic if clock is None else clock
    sleep = time.sleep if sleep is None else sleep
    started = clock()
    cycle = 0
    while True:
        if predicate():
            return True
        if policy.budget is not None and cycle + 1 >= policy.budget:
            return False
        delay = policy.delay_for(cycle, key=key)
        if policy.deadline is not None and (clock() - started) + delay > policy.deadline:
            return False
        sleep(delay)
        cycle += 1


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """A per-link circuit breaker: closed → open on ``threshold``
    consecutive failures → half-open single probe.

    While open, :meth:`allow` refuses instantly (the caller fails fast
    and falls open locally).  When the backoff window lapses the next
    caller becomes the half-open probe; its success closes the circuit,
    its failure reopens it for the *next* (longer, jittered) window —
    so a dead fleet costs at most one connect attempt per link per
    backoff window.  Reconnect-and-seed rides the probe: the link's
    seed flight happens on the same attempt.

    Not internally locked — the owning link serialises calls under its
    own lock.  ``clock`` is injectable so tests can drive the schedule
    exactly.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None, threshold: int = 1,
                 clock=None, key: int = 0) -> None:
        import time

        self.retry = retry if retry is not None else RetryPolicy()
        self.threshold = max(1, threshold)
        self._clock = time.monotonic if clock is None else clock
        self._key = key
        self.state = BREAKER_CLOSED
        self.failures = 0  # consecutive failures since the last success
        self.cycles = 0  # consecutive open windows (drives the backoff)
        self.opened_until = 0.0
        self.probes = 0  # half-open probes granted
        self.trips = 0  # closed/half-open -> open transitions

    def allow(self) -> bool:
        """May the caller attempt the operation right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN and self._clock() >= self.opened_until:
            self.state = BREAKER_HALF_OPEN
            self.probes += 1
            return True
        return False

    def record_success(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.cycles = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or self.failures >= self.threshold:
            delay = self.retry.delay_for(self.cycles, key=self._key)
            self.cycles += 1
            self.trips += 1
            self.opened_until = self._clock() + delay
            self.state = BREAKER_OPEN

    def reset(self) -> None:
        """Forget all failure history (tests use this to clear backoff)."""
        self.record_success()
        self.opened_until = 0.0

    @property
    def retry_at(self) -> float:
        return self.opened_until

    @property
    def key(self) -> int:
        """The jitter key (the owning link's address hash) — what to
        pass to :meth:`RetryPolicy.attempts_within` to reproduce this
        breaker's exact ladder."""
        return self._key
