"""WIRE001: protocol drift.

The wire contract is one schema in three places: the frozen dataclasses
of :mod:`repro.api.protocol` (the source of truth — the codec compiles
its decoders and encoders from their annotations), the kind registries
that route decoding, and the human-facing protocol-version story
(``PROTOCOL_VERSION``, the README version table).  WIRE001 pins the
ways they can drift:

* every ``*Request`` / ``*Response`` dataclass must be registered in
  ``REQUEST_KINDS`` / ``RESPONSE_KINDS`` (an unregistered message
  encodes but can never be decoded), and every registry entry must
  name a defined dataclass;
* every registered message must carry a ``protocol_version`` field
  defaulting to the ``PROTOCOL_VERSION`` constant — a hardcoded
  ``"1.3"`` default is exactly the silent skew this rule exists for;
* every field annotation must be one the codec compiles: built from
  ``bool``/``int``/``float``/``str``, ``Optional``, variadic
  ``Tuple[X, ...]``, ``Any`` and the protocol's own dataclasses — the
  codec refuses to build a class with any other field (``Dict``,
  ``bytes``, a fixed-length ``Tuple[int, str]``, an ``X | None``
  union), so this catches the drift before the first message does;
* the version literal lives in ``protocol.py`` **only**: ``service.py``
  must import it, never re-state it; and the README's protocol version
  table must list ``PROTOCOL_VERSION`` as its newest row (docstrings
  and doc examples showing *old* versions are fine — old minors stay
  accepted on the wire).
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyzer import Finding, Module, Project, Rule
from repro.devtools.registry import WIRE_PROTOCOL_SUFFIX, WIRE_SERVICE_SUFFIX

_VERSION_RE = re.compile(r"^\d+\.\d+$")
_TABLE_ROW_RE = re.compile(r"^\|\s*(\d+\.\d+)\s*\|")

#: Annotation atoms the codec compiles.
_CODEC_ATOMS = frozenset(
    {
        "Any",
        "Optional",
        "Tuple",
        "bool",
        "float",
        "int",
        "str",
        "None",
    }
)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            return True
    return False


def _dict_value_names(node: ast.expr) -> List[Tuple[str, Optional[str]]]:
    """``(kind, class name)`` pairs from a ``{"kind": Class}`` literal."""
    pairs: List[Tuple[str, Optional[str]]] = []
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            kind = (
                key.value
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
                else ""
            )
            name = value.id if isinstance(value, ast.Name) else None
            pairs.append((kind, name))
    return pairs


def _annotation_atoms(annotation: ast.expr) -> Set[str]:
    atoms: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            atoms.add(node.id)
        elif isinstance(node, ast.Attribute):
            atoms.add(node.attr)
        elif isinstance(node, ast.Constant) and node.value is None:
            atoms.add("None")
    return atoms


def _is_tuple_name(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "Tuple") or (
        isinstance(node, ast.Attribute) and node.attr == "Tuple"
    )


def _uncompiled_shapes(annotation: ast.expr) -> List[str]:
    """Annotation shapes built from admitted atoms that the codec still
    cannot compile: a ``Tuple`` that is not ``Tuple[X, ...]``, and the
    ``X | Y`` union form."""
    variadic: Set[int] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Subscript) and _is_tuple_name(node.value):
            items = node.slice
            if (
                isinstance(items, ast.Tuple)
                and len(items.elts) == 2
                and isinstance(items.elts[1], ast.Constant)
                and items.elts[1].value is Ellipsis
            ):
                variadic.add(id(node.value))
    shapes: List[str] = []
    for node in ast.walk(annotation):
        if _is_tuple_name(node) and id(node) not in variadic:
            shapes.append("a Tuple without '...' (only Tuple[X, ...] compiles)")
        elif isinstance(node, ast.BinOp):
            shapes.append("an 'X | Y' union (write Optional[X])")
    return shapes


class ProtocolDrift(Rule):
    id = "WIRE001"
    summary = (
        "wire dataclasses, kind registries, the PROTOCOL_VERSION "
        "constant and the README version table must agree"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        protocol = project.by_suffix(WIRE_PROTOCOL_SUFFIX)
        if protocol is None:
            return
        dataclasses: Dict[str, ast.ClassDef] = {}
        registries: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        version: Optional[str] = None
        version_line = 1
        imported: Set[str] = set()
        for stmt in protocol.tree.body:
            # Imported names may be dataclasses from other modules
            # (``CacheStats``); typing's own names are judged as atoms.
            if isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module != "typing"
            ):
                for alias in stmt.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
            if isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt):
                dataclasses[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "PROTOCOL_VERSION":
                    version_line = stmt.lineno
                    if isinstance(stmt.value, ast.Constant) and isinstance(
                        stmt.value.value, str
                    ):
                        version = stmt.value.value
                elif target.id in ("REQUEST_KINDS", "RESPONSE_KINDS"):
                    registries[target.id] = _dict_value_names(stmt.value)

        if version is None or not _VERSION_RE.match(version):
            yield Finding(
                file=protocol.relpath,
                line=version_line,
                col=0,
                rule=self.id,
                message=(
                    "PROTOCOL_VERSION must be a '<major>.<minor>' string "
                    "literal assigned at module level"
                ),
            )
            version = None

        registered: Set[str] = set()
        for registry_name in ("REQUEST_KINDS", "RESPONSE_KINDS"):
            entries = registries.get(registry_name)
            if entries is None:
                yield Finding(
                    file=protocol.relpath,
                    line=1,
                    col=0,
                    rule=self.id,
                    message=f"missing dict-literal registry {registry_name}",
                )
                continue
            seen_kinds: Set[str] = set()
            for kind, class_name in entries:
                if kind in seen_kinds:
                    yield Finding(
                        file=protocol.relpath,
                        line=1,
                        col=0,
                        rule=self.id,
                        message=(
                            f"{registry_name} registers kind {kind!r} twice"
                        ),
                    )
                seen_kinds.add(kind)
                if class_name is None or class_name not in dataclasses:
                    yield Finding(
                        file=protocol.relpath,
                        line=1,
                        col=0,
                        rule=self.id,
                        message=(
                            f"{registry_name}[{kind!r}] names "
                            f"{class_name!r}, which is not a protocol "
                            f"dataclass"
                        ),
                    )
                else:
                    registered.add(class_name)

        suffix_of = {"Request": "REQUEST_KINDS", "Response": "RESPONSE_KINDS"}
        for name, cls in dataclasses.items():
            for suffix, registry_name in suffix_of.items():
                if name.endswith(suffix) and name not in registered:
                    yield Finding(
                        file=protocol.relpath,
                        line=cls.lineno,
                        col=cls.col_offset,
                        rule=self.id,
                        message=(
                            f"wire dataclass {name} is not registered in "
                            f"{registry_name} — it can be encoded but "
                            f"never decoded"
                        ),
                    )
            yield from self._check_fields(
                protocol, cls, name in registered, set(dataclasses) | imported
            )

        yield from self._check_service(project)
        if version is not None:
            yield from self._check_readme(project, protocol, version)

    def _check_fields(
        self,
        protocol: Module,
        cls: ast.ClassDef,
        is_registered: bool,
        class_names: Set[str],
    ) -> Iterator[Finding]:
        has_version_field = False
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            field_name = stmt.target.id
            unknown = _annotation_atoms(stmt.annotation) - _CODEC_ATOMS - class_names
            if unknown:
                yield Finding(
                    file=protocol.relpath,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    rule=self.id,
                    message=(
                        f"{cls.name}.{field_name}: annotation uses "
                        f"{sorted(unknown)!r}, which the codec cannot "
                        f"compile"
                    ),
                )
            for shape in _uncompiled_shapes(stmt.annotation):
                yield Finding(
                    file=protocol.relpath,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    rule=self.id,
                    message=(
                        f"{cls.name}.{field_name}: annotation uses {shape}, "
                        f"which the codec cannot compile"
                    ),
                )
            if field_name == "protocol_version":
                has_version_field = True
                default = stmt.value
                if not (
                    isinstance(default, ast.Name)
                    and default.id == "PROTOCOL_VERSION"
                ):
                    yield Finding(
                        file=protocol.relpath,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        rule=self.id,
                        message=(
                            f"{cls.name}.protocol_version must default to "
                            f"the PROTOCOL_VERSION constant, not a literal"
                        ),
                    )
            elif isinstance(stmt.value, ast.Constant) and isinstance(
                stmt.value.value, str
            ):
                if _VERSION_RE.match(stmt.value.value):
                    yield Finding(
                        file=protocol.relpath,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        rule=self.id,
                        message=(
                            f"{cls.name}.{field_name}: hardcoded protocol "
                            f"version literal {stmt.value.value!r}"
                        ),
                    )
        if is_registered and not has_version_field:
            yield Finding(
                file=protocol.relpath,
                line=cls.lineno,
                col=cls.col_offset,
                rule=self.id,
                message=(
                    f"registered wire dataclass {cls.name} lacks a "
                    f"protocol_version field"
                ),
            )

    def _check_service(self, project: Project) -> Iterator[Finding]:
        service = project.by_suffix(WIRE_SERVICE_SUFFIX)
        if service is None:
            return
        imports_version = False
        for node in ast.walk(service.tree):
            if isinstance(node, ast.ImportFrom):
                if any(
                    alias.name == "PROTOCOL_VERSION" for alias in node.names
                ):
                    imports_version = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "PROTOCOL_VERSION"
                    ):
                        yield Finding(
                            file=service.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            rule=self.id,
                            message=(
                                "service.py redefines PROTOCOL_VERSION — "
                                "import it from the protocol module"
                            ),
                        )
        if not imports_version:
            yield Finding(
                file=service.relpath,
                line=1,
                col=0,
                rule=self.id,
                message=(
                    "service.py must import PROTOCOL_VERSION from the "
                    "protocol module (never restate the version)"
                ),
            )

    @staticmethod
    def _check_readme(
        project: Project, protocol: Module, version: str
    ) -> Iterator[Finding]:
        readme = project.root / "README.md"
        if not readme.exists():
            return
        rows: List[str] = []
        for line in readme.read_text(encoding="utf-8").splitlines():
            match = _TABLE_ROW_RE.match(line.strip())
            if match:
                rows.append(match.group(1))
        if not rows:
            yield Finding(
                file="README.md",
                line=1,
                col=0,
                rule=ProtocolDrift.id,
                message=(
                    "README has no protocol version table "
                    "(rows of the form '| <major>.<minor> | ... |')"
                ),
            )
            return
        newest = max(rows, key=lambda v: tuple(int(p) for p in v.split(".")))
        if newest != version:
            yield Finding(
                file="README.md",
                line=1,
                col=0,
                rule=ProtocolDrift.id,
                message=(
                    f"README version table tops out at {newest} but "
                    f"PROTOCOL_VERSION is {version}"
                ),
            )
