"""LOCK001: the locking discipline rule.

**LOCK001** — a field declared guarded (a ``# guarded-by: <lock_attr>``
comment on its ``self.<field> = ...`` line, conventionally in
``__init__``) may only be mutated

* inside a ``with self.<lock_attr>:`` (or ``with <lock_attr>:``) block,
* in a method whose name ends in ``_locked`` (the
  :class:`~repro.cacheserver.store.WireSummaryStore` convention: the
  caller holds the lock), or
* in ``__init__`` (construction happens-before publication).

Reads are deliberately out of scope: the codebase's counters are
documented lock-free monotonic reads, and the GIL makes a stale read
benign where a lost update is not.
"""

import ast
import re
from typing import Dict, Iterator, List

from repro.devtools.analyzer import (
    Finding,
    Module,
    Project,
    Rule,
    mutated_self_attr,
)

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _class_functions(
    cls: ast.ClassDef,
) -> Iterator[ast.stmt]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _guarded_fields(module: Module, cls: ast.ClassDef) -> Dict[str, str]:
    """``field -> lock_attr`` declared via ``# guarded-by:`` comments
    on ``self.<field> = ...`` lines anywhere in the class."""
    guards: Dict[str, str] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                match = _GUARD_RE.search(module.line_text(target.lineno))
                if match:
                    guards[target.attr] = match.group(1)
    return guards


def _with_item_names(stmt: ast.stmt) -> List[str]:
    names: List[str] = []
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            names.append(ast.unparse(item.context_expr))
    return names


class LockDiscipline(Rule):
    id = "LOCK001"
    summary = (
        "fields declared '# guarded-by: <lock>' may only be mutated "
        "under 'with self.<lock>'"
    )

    def check_module(self, module: Module, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                guards = _guarded_fields(module, node)
                if guards:
                    yield from self._check_class(module, node, guards)

    def _check_class(
        self, module: Module, cls: ast.ClassDef, guards: Dict[str, str]
    ) -> Iterator[Finding]:
        for func in _class_functions(cls):
            assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            exempt = func.name == "__init__" or func.name.endswith("_locked")
            yield from self._walk(
                module, cls, func.name, func.body, guards, [], exempt
            )

    def _walk(
        self,
        module: Module,
        cls: ast.ClassDef,
        func_name: str,
        body: List[ast.stmt],
        guards: Dict[str, str],
        held: List[str],
        exempt: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function runs later, under whatever locks its
                # *caller* holds — analyze it with no inherited locks,
                # honoring the ``_locked`` naming escape.
                yield from self._walk(
                    module,
                    cls,
                    stmt.name,
                    stmt.body,
                    guards,
                    [],
                    stmt.name.endswith("_locked"),
                )
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = _with_item_names(stmt)
                yield from self._walk(
                    module, cls, func_name, stmt.body, guards,
                    held + acquired, exempt,
                )
            elif isinstance(
                stmt, (ast.For, ast.AsyncFor, ast.While, ast.If)
            ):
                header: List[ast.AST] = []
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    header = [stmt.iter, stmt.target]
                else:
                    header = [stmt.test]
                for node in header:
                    yield from self._check_leaf(
                        module, cls, func_name, node, guards, held, exempt
                    )
                yield from self._walk(
                    module, cls, func_name, stmt.body, guards, held, exempt
                )
                yield from self._walk(
                    module, cls, func_name, stmt.orelse, guards, held, exempt
                )
            elif isinstance(stmt, ast.Try):
                yield from self._walk(
                    module, cls, func_name, stmt.body, guards, held, exempt
                )
                for handler in stmt.handlers:
                    yield from self._walk(
                        module, cls, func_name, handler.body, guards,
                        held, exempt,
                    )
                yield from self._walk(
                    module, cls, func_name, stmt.orelse, guards, held, exempt
                )
                yield from self._walk(
                    module, cls, func_name, stmt.finalbody, guards,
                    held, exempt,
                )
            else:
                yield from self._check_leaf(
                    module, cls, func_name, stmt, guards, held, exempt
                )

    def _check_leaf(
        self,
        module: Module,
        cls: ast.ClassDef,
        func_name: str,
        node: ast.AST,
        guards: Dict[str, str],
        held: List[str],
        exempt: bool,
    ) -> Iterator[Finding]:
        if exempt:
            return
        for attr, site in mutated_self_attr(node):
            lock = guards.get(attr)
            if lock is None:
                continue
            if any(self._covers(expr, lock) for expr in held):
                continue
            yield Finding(
                file=module.relpath,
                line=getattr(site, "lineno", 1),
                col=getattr(site, "col_offset", 0),
                rule=self.id,
                message=(
                    f"{cls.name}.{func_name} mutates guarded field "
                    f"'{attr}' outside 'with self.{lock}'"
                ),
            )

    @staticmethod
    def _covers(held_expr: str, lock: str) -> bool:
        return (
            held_expr == lock
            or held_expr == f"self.{lock}"
            or held_expr.endswith(f".{lock}")
        )
