"""Persistent stacks for CFL-reachability traversals.

Both the *field stack* (unmatched ``load(f)``/``store(f)`` parentheses of
the LFT language) and the *context stack* (unmatched ``entry_i``/``exit_i``
parentheses of the RRP language) are immutable: every traversal step derives
a new stack by pushing or popping, and many in-flight traversal states share
structure.  A singly linked persistent list with a precomputed hash gives
O(1) ``push``/``pop``/``peek`` and O(1) hashing, which matters because
stacks are used as dictionary keys in the DYNSUM summary cache and in every
visited set.

The empty stack is the singleton :data:`EMPTY_STACK`.

Two allocation-avoidance devices serve the traversal hot paths:

* :func:`intern_token` interns the ``(field, family)`` push tokens the
  analyses stack, so pushing the same token twice reuses one tuple and
  token equality inside ``Stack.__eq__`` short-circuits on identity;
* ``Stack.push`` hash-conses its children — pushing the same value onto
  the same stack returns the *same* ``Stack`` object, so the visited-set
  keys built from stacks compare by identity on the fast path.

Both are pure caches: equality and hashing stay structural, so interned
and non-interned stacks with equal contents remain interchangeable.

Hash-consing also makes stacks *canonical*: every stack in the process
is built by ``push``/``of`` chains rooted at :data:`EMPTY_STACK` (the
constructor is internal to ``push``), so two structurally equal stacks
are the same object, and the per-stack ``_uid`` below is a faithful
identity key.  The DYNSUM worklist keys its visited set on those integer
uids — a C-hashed int tuple instead of a Python-level ``__hash__`` call
per probe.  Code outside this module must therefore never call the
``Stack`` constructor directly.
"""

import itertools

#: Monotone uid supply for stacks (``count().__next__`` is atomic under
#: the GIL, so concurrent pushes get distinct uids).
_NEXT_UID = itertools.count()

#: Intern table for ``(field, family)`` push tokens (see
#: :func:`intern_token`).  Bounded by the number of distinct
#: field/family pairs in the program — a few hundred in practice.
_TOKENS = {}


def intern_token(field, family):
    """The canonical tuple for a field-stack entry ``(field, family)``.

    ``dict.setdefault`` keeps the intern race-free when a host queries
    from threads of its own (two racing calls return the same tuple).
    """
    token = (field, family)
    return _TOKENS.setdefault(token, token)


#: Process-global dense ids for interned tokens and field names, used by
#: the CSR traversal image (:mod:`repro.pag.csr`).  Ids are assigned on
#: first intern and NEVER reassigned or reset: a CSR recompile (every
#: ``edit_session`` edit patches the PAG and lowers it again) or a fresh
#: PAG reuses the ids minted before, so compiled images of successive
#: program versions agree on token numbering and the intern tables never
#: have to be rebuilt alongside the adjacency.
_TOKEN_IDS = {}
_TOKEN_LIST = []
_FIELD_IDS = {}
_FIELD_LIST = []


def token_id(field, family):
    """The stable dense id of interned token ``(field, family)``."""
    token = intern_token(field, family)
    tid = _TOKEN_IDS.get(token)
    if tid is None:
        # Appends under the GIL; re-check inside so two racing interns
        # of a new token agree on one id.
        tid = _TOKEN_IDS.setdefault(token, len(_TOKEN_LIST))
        if tid == len(_TOKEN_LIST):
            _TOKEN_LIST.append(token)
    return tid


def field_id(field):
    """The stable dense id of field name ``field``."""
    fid = _FIELD_IDS.get(field)
    if fid is None:
        fid = _FIELD_IDS.setdefault(field, len(_FIELD_LIST))
        if fid == len(_FIELD_LIST):
            _FIELD_LIST.append(field)
    return fid


#: ``lookup_field_id(field, default)`` — a field name's id, or
#: ``default`` for a name never interned (no CSR row can carry it), so
#: a traversal matching a stack top mints no id.
lookup_field_id = _FIELD_IDS.get


def token_table():
    """Snapshot of the token table: ``tid -> (field, family)``."""
    return list(_TOKEN_LIST)


class Stack:
    """An immutable stack (persistent linked list).

    Elements may be any hashable value; analyses push field names
    (strings) or call-site ids (ints).  Equality and hashing are
    structural, so two independently built stacks with the same elements
    compare equal — a requirement for summary-cache keys.
    """

    __slots__ = ("_top", "_rest", "_size", "_hash", "_children", "_uid")

    def __init__(self, top=None, rest=None):
        self._top = top
        self._rest = rest
        # Eager, so no thread can ever observe (and replace) a half-
        # published table — the canonicity of hash-consed stacks, which
        # the uid-keyed visited sets depend on, needs the table to be
        # written exactly once per node.
        self._children = {}
        self._uid = next(_NEXT_UID)
        if rest is None:
            self._size = 0
            self._hash = hash(())
        else:
            self._size = rest._size + 1
            self._hash = hash((rest._hash, top))

    def push(self, value):
        """Return a new stack with ``value`` on top.

        Children are hash-consed: pushing an equal ``value`` onto this
        stack again returns the same object, which makes the visited-set
        churn of the traversal loops identity-cheap and keeps stacks
        canonical (equal ⟹ identical).  ``setdefault`` is atomic under
        the GIL, so concurrent pushes of the same value return the same
        child — a racing loser's freshly built node never escapes.
        """
        children = self._children
        child = children.get(value)
        if child is None:
            child = children.setdefault(value, Stack(value, self))
        return child

    def push_uncached(self, value):
        """The pre-consing push: a fresh node (and hash) per call.

        Retained for the reference traversal loops
        (:func:`repro.analysis.ppta.run_ppta_reference`), so the
        pre-optimization baseline ``repro-perf`` measures against pays
        the allocation cost the production ``push`` eliminated.
        Structurally interchangeable with :meth:`push`; the returned
        stack is *not* canonical, so reference-mode runs must not share
        an engine with ``array``/``native`` runs being measured.
        """
        return Stack(value, self)

    def pop(self):
        """Return the stack without its top element.

        Popping the empty stack returns the empty stack.  This mirrors the
        paper's treatment of partially balanced paths (Algorithm 1, line
        12): a realizable path may begin with unmatched closing
        parentheses, so an "underflow" pop simply stays empty.
        """
        if self._rest is None:
            return self
        return self._rest

    def peek(self):
        """Return the top element, or ``None`` when empty."""
        return self._top if self._rest is not None else None

    @property
    def is_empty(self):
        return self._rest is None

    def __len__(self):
        return self._size

    def __iter__(self):
        """Iterate from top of stack to bottom."""
        node = self
        while node._rest is not None:
            yield node._top
            node = node._rest

    def to_tuple(self):
        """Return the contents bottom-to-top as a plain tuple."""
        return tuple(reversed(list(self)))

    @classmethod
    def of(cls, *values):
        """Build a stack by pushing ``values`` in order (last is top)."""
        stack = EMPTY_STACK
        for value in values:
            stack = stack.push(value)
        return stack

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Stack):
            return NotImplemented
        if self._hash != other._hash or self._size != other._size:
            return False
        a, b = self, other
        while a._rest is not None:
            if b._rest is None or a._top != b._top:
                return False
            a, b = a._rest, b._rest
        return b._rest is None

    def __hash__(self):
        return self._hash

    def __repr__(self):
        items = ",".join(str(v) for v in self.to_tuple())
        return f"[{items}]"


#: The shared empty stack.  ``EMPTY_STACK.push(x)`` starts any traversal.
EMPTY_STACK = Stack()
