"""Abstract syntax of PIR programs.

A :class:`Program` is a set of classes; a :class:`ClassDef` declares
instance fields, static fields and methods; a :class:`Method` is a flat
list of three-address statements.  The statement forms mirror Figure 1 of
the paper:

=====================  ============================  ====================
PIR statement          Java analogue                 PAG edge(s)
=====================  ============================  ====================
``x = new C``          allocation                    ``o --new--> x``
``x = null``           null constant                 ``o_null --new--> x``
``x = y``              local assignment              ``y --assign--> x``
``x = (C) y``          checked downcast              ``y --assign--> x``
``x = y.f``            instance-field load           ``y --load(f)--> x``
``x.f = y``            instance-field store          ``y --store(f)--> x``
``x = C::g``           static-field read             ``C.g --assignglobal--> x``
``C::g = x``           static-field write            ``x --assignglobal--> C.g``
``x = y.m(a, ...)``    virtual call at site *i*      ``entry_i``/``exit_i``
``x = C::m(a, ...)``   static call at site *i*       ``entry_i``/``exit_i``
``return x``           method return                 feeds ``exit_i`` edges
=====================  ============================  ====================

The AST is deliberately flow-insensitive-friendly: statement order never
matters to any analysis in this library, matching the paper's Section 2.

Every call statement is assigned a globally unique integer *call-site id*
by :meth:`Program.finalize`; these ids are the ``i`` subscripts of
``entry_i``/``exit_i`` edges.  Allocation statements are likewise given
unique object labels (``o1``, ``o2``, ...).
"""

from repro.util.errors import IRError

#: Name of the implicit receiver parameter of instance methods.
THIS = "this"

#: Class name used for the singleton null object.
NULL_CLASS = "<null>"


class Statement:
    """Base class for PIR statements.

    ``label`` is an optional source annotation (e.g. a line number or a
    generator tag) used only for diagnostics and client reports.
    """

    __slots__ = ("label",)

    kind = "statement"

    def __init__(self, label=None):
        self.label = label

    def _fmt(self, body):
        return body if self.label is None else f"{body}  /*{self.label}*/"


class Alloc(Statement):
    """``target = new class_name`` — heap allocation."""

    __slots__ = ("target", "class_name", "object_id")

    kind = "alloc"

    def __init__(self, target, class_name, label=None):
        super().__init__(label)
        self.target = target
        self.class_name = class_name
        #: Unique object label, assigned by :meth:`Program.finalize`.
        self.object_id = None

    def __repr__(self):
        return self._fmt(f"{self.target} = new {self.class_name}")


class NullAssign(Statement):
    """``target = null`` — allocation of a distinct null object.

    Each null assignment produces its own object of class
    :data:`NULL_CLASS`, so a null object has exactly one ``new`` edge
    (like every other allocation) and the NullDeref client can report
    *which* null assignment reaches a dereference.
    """

    __slots__ = ("target", "object_id")

    kind = "null"

    def __init__(self, target, label=None):
        super().__init__(label)
        self.target = target
        #: Unique object label, assigned by :meth:`Program.finalize`.
        self.object_id = None

    @property
    def class_name(self):
        """Null objects all have the pseudo-class :data:`NULL_CLASS`."""
        return NULL_CLASS

    def __repr__(self):
        return self._fmt(f"{self.target} = null")


class Copy(Statement):
    """``target = source`` — local assignment."""

    __slots__ = ("target", "source")

    kind = "copy"

    def __init__(self, target, source, label=None):
        super().__init__(label)
        self.target = target
        self.source = source

    def __repr__(self):
        return self._fmt(f"{self.target} = {self.source}")


class Cast(Statement):
    """``target = (class_name) source`` — downcast; flows like a copy.

    Cast statements are additionally registered as *cast sites* so the
    SafeCast client can enumerate them.
    """

    __slots__ = ("target", "source", "class_name")

    kind = "cast"

    def __init__(self, target, class_name, source, label=None):
        super().__init__(label)
        self.target = target
        self.class_name = class_name
        self.source = source

    def __repr__(self):
        return self._fmt(f"{self.target} = ({self.class_name}) {self.source}")


class Load(Statement):
    """``target = base.field`` — instance-field load."""

    __slots__ = ("target", "base", "field")

    kind = "load"

    def __init__(self, target, base, field, label=None):
        super().__init__(label)
        self.target = target
        self.base = base
        self.field = field

    def __repr__(self):
        return self._fmt(f"{self.target} = {self.base}.{self.field}")


class Store(Statement):
    """``base.field = source`` — instance-field store."""

    __slots__ = ("base", "field", "source")

    kind = "store"

    def __init__(self, base, field, source, label=None):
        super().__init__(label)
        self.base = base
        self.field = field
        self.source = source

    def __repr__(self):
        return self._fmt(f"{self.base}.{self.field} = {self.source}")


class StaticGet(Statement):
    """``target = class_name::field`` — read of a static (global) field."""

    __slots__ = ("target", "class_name", "field")

    kind = "staticget"

    def __init__(self, target, class_name, field, label=None):
        super().__init__(label)
        self.target = target
        self.class_name = class_name
        self.field = field

    def __repr__(self):
        return self._fmt(f"{self.target} = {self.class_name}::{self.field}")


class StaticPut(Statement):
    """``class_name::field = source`` — write of a static (global) field."""

    __slots__ = ("class_name", "field", "source")

    kind = "staticput"

    def __init__(self, class_name, field, source, label=None):
        super().__init__(label)
        self.class_name = class_name
        self.field = field
        self.source = source

    def __repr__(self):
        return self._fmt(f"{self.class_name}::{self.field} = {self.source}")


class Call(Statement):
    """A call statement, virtual or static.

    Virtual: ``target = receiver.method_name(args)`` — dispatched on the
    runtime class of ``receiver``'s pointees.
    Static: ``target = class_name::method_name(args)`` — a direct call.
    ``target`` may be ``None`` when the result is discarded.
    """

    __slots__ = ("target", "receiver", "class_name", "method_name", "args", "site_id")

    kind = "call"

    def __init__(self, target, receiver, class_name, method_name, args, label=None):
        super().__init__(label)
        if (receiver is None) == (class_name is None):
            raise IRError(
                "a call must have exactly one of receiver (virtual) or "
                f"class_name (static): {method_name}"
            )
        self.target = target
        self.receiver = receiver
        self.class_name = class_name
        self.method_name = method_name
        self.args = list(args)
        #: Unique call-site id, assigned by :meth:`Program.finalize`.
        self.site_id = None

    @property
    def is_virtual(self):
        return self.receiver is not None

    def __repr__(self):
        callee = (
            f"{self.receiver}.{self.method_name}"
            if self.is_virtual
            else f"{self.class_name}::{self.method_name}"
        )
        prefix = f"{self.target} = " if self.target is not None else ""
        args = ", ".join(self.args)
        site = f"@{self.site_id}" if self.site_id is not None else ""
        return self._fmt(f"{prefix}{callee}({args}){site}")


class Return(Statement):
    """``return source`` — hands ``source`` back to every caller."""

    __slots__ = ("source",)

    kind = "return"

    def __init__(self, source, label=None):
        super().__init__(label)
        self.source = source

    def __repr__(self):
        return self._fmt(f"return {self.source}")


class Method:
    """A PIR method: parameters plus a flat statement list.

    Instance methods implicitly take :data:`THIS` as their first
    parameter; ``params`` lists only the declared parameters.
    """

    __slots__ = ("name", "class_name", "params", "statements", "is_static")

    def __init__(self, name, class_name, params=(), is_static=False):
        self.name = name
        self.class_name = class_name
        self.params = list(params)
        self.statements = []
        self.is_static = is_static

    @property
    def qualified_name(self):
        return f"{self.class_name}.{self.name}"

    @property
    def all_params(self):
        """Parameters including the implicit receiver for instance methods."""
        if self.is_static:
            return list(self.params)
        return [THIS] + list(self.params)

    def add(self, statement):
        self.statements.append(statement)
        return statement

    def return_statements(self):
        return [s for s in self.statements if s.kind == "return"]

    def local_names(self):
        """All variable names referenced in this method (params included).

        PIR has no declarations; any name mentioned is a local of the
        enclosing method.
        """
        names = list(self.all_params)
        seen = set(names)

        def visit(name):
            if name is not None and name not in seen:
                seen.add(name)
                names.append(name)

        for stmt in self.statements:
            for attr in ("target", "source", "base", "receiver"):
                visit(getattr(stmt, attr, None))
            for arg in getattr(stmt, "args", ()):
                visit(arg)
        return names

    def __repr__(self):
        return f"Method({self.qualified_name}/{len(self.params)})"


class ClassDef:
    """A PIR class: fields, static fields and methods, with one superclass."""

    __slots__ = ("name", "superclass", "fields", "static_fields", "methods")

    def __init__(self, name, superclass=None):
        self.name = name
        self.superclass = superclass
        self.fields = []
        self.static_fields = []
        self.methods = {}

    def add_field(self, name):
        if name in self.fields:
            raise IRError(f"duplicate field {self.name}.{name}")
        self.fields.append(name)

    def add_static_field(self, name):
        if name in self.static_fields:
            raise IRError(f"duplicate static field {self.name}::{name}")
        self.static_fields.append(name)

    def add_method(self, method):
        if method.name in self.methods:
            raise IRError(f"duplicate method {self.name}.{method.name}")
        self.methods[method.name] = method
        return method

    def __repr__(self):
        return f"ClassDef({self.name})"


class Program:
    """A complete PIR program.

    ``entry`` names the entry method as ``"Class.method"``; it must be a
    static method.  Call :meth:`finalize` (done automatically by the
    parser and builder) before handing the program to any analysis: it
    assigns call-site ids and object labels and freezes lookup tables.
    """

    def __init__(self, entry="Main.main"):
        self.classes = {}
        self.entry = entry
        self._finalized = False
        self._methods_by_qname = {}
        self._call_sites = {}
        self._method_sites = {}
        self._allocations = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, class_def):
        if class_def.name in self.classes:
            raise IRError(f"duplicate class {class_def.name}")
        self.classes[class_def.name] = class_def
        self._finalized = False
        return class_def

    def finalize(self):
        """Assign call-site ids / object labels and build lookup tables.

        Idempotent: re-finalizing an unchanged program keeps existing ids
        stable (they are reassigned deterministically in program order).
        """
        self._methods_by_qname = {}
        self._call_sites = {}
        self._method_sites = {}
        self._allocations = {}
        site_id = 0
        for class_name in sorted(self.classes):
            class_def = self.classes[class_name]
            for method_name in class_def.methods:
                method = class_def.methods[method_name]
                self._methods_by_qname[method.qualified_name] = method
                site_id = self._number(method, site_id)
        self._finalized = True
        return self

    def refinalize(self, method):
        """Re-number one edited method exactly as :meth:`finalize` would,
        in O(method).  Possible only while the method keeps its number of
        call statements (otherwise every later site id shifts); returns
        False and changes nothing when it did not — call
        :meth:`finalize` then."""
        self._require_finalized()
        sites = self._method_sites[method.qualified_name]
        if sum(1 for stmt in method.statements if stmt.kind == "call") != len(sites):
            return False
        self._number(method, sites.start - 1)
        return True

    def _number(self, method, site_id):
        """Number ``method``'s call sites after ``site_id`` and its
        object labels, and index them; returns the last site id used."""
        qname = method.qualified_name
        first = site_id + 1
        allocations = []
        # Object labels are numbered *per method* so that editing one
        # method never renumbers another's allocations — the stability
        # incremental re-analysis relies on.
        object_seq = 0
        for stmt in method.statements:
            if stmt.kind == "call":
                site_id += 1
                stmt.site_id = site_id
                self._call_sites[site_id] = (method, stmt)
            elif stmt.kind == "alloc":
                object_seq += 1
                stmt.object_id = f"o{object_seq}@{qname}"
                allocations.append((method, stmt))
            elif stmt.kind == "null":
                object_seq += 1
                stmt.object_id = f"o{object_seq}@{qname}#null"
                allocations.append((method, stmt))
        self._allocations[qname] = allocations
        self._method_sites[qname] = range(first, site_id + 1)
        return site_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require_finalized(self):
        if not self._finalized:
            raise IRError("program not finalized; call Program.finalize() first")

    @property
    def is_finalized(self):
        return self._finalized

    def lookup_class(self, name):
        try:
            return self.classes[name]
        except KeyError:
            raise IRError(f"unknown class {name!r}") from None

    def lookup_method(self, qualified_name):
        self._require_finalized()
        try:
            return self._methods_by_qname[qualified_name]
        except KeyError:
            raise IRError(f"unknown method {qualified_name!r}") from None

    @property
    def entry_method(self):
        return self.lookup_method(self.entry)

    def methods(self):
        """All methods, in deterministic (class, declaration) order."""
        self._require_finalized()
        return list(self._methods_by_qname.values())

    def call_sites(self):
        """Mapping site_id -> (enclosing method, Call statement)."""
        self._require_finalized()
        return dict(self._call_sites)

    def call_site(self, site_id):
        self._require_finalized()
        try:
            return self._call_sites[site_id]
        except KeyError:
            raise IRError(f"unknown call site {site_id}") from None

    def allocations(self):
        """All ``(enclosing method, Alloc)`` pairs, in program order."""
        self._require_finalized()
        return [pair for qname in self._methods_by_qname for pair in self._allocations[qname]]

    def statements(self):
        """Iterate ``(method, statement)`` over the whole program."""
        self._require_finalized()
        for method in self._methods_by_qname.values():
            for stmt in method.statements:
                yield method, stmt

    def counts(self):
        """Summary sizes used in reports: classes/methods/statements."""
        self._require_finalized()
        n_statements = sum(len(m.statements) for m in self._methods_by_qname.values())
        return {
            "classes": len(self.classes),
            "methods": len(self._methods_by_qname),
            "statements": n_statements,
        }

    def __repr__(self):
        state = "finalized" if self._finalized else "building"
        return f"Program({len(self.classes)} classes, entry={self.entry!r}, {state})"
