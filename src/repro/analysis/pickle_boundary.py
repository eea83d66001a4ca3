"""pickle-boundary: strategies must survive the remote fit boundary.

``fit_executor="process"`` pickles the strategy instance into a spawned
local fleet worker (``fleet/local.py``), so every
:class:`~repro.strategies.SelectionStrategy` subclass carries a hard
contract, documented in ``strategies/base.py``: module-level classes
with plain data attributes — no closures, no lambdas, no locks, no
open handles.  Violating it is a runtime :class:`FitPlaneError` on the
first cold fit routed to a worker; this rule turns that into a
review-time finding.

Two checks:

- **strategy state** — inside any class that (transitively) subclasses
  ``SelectionStrategy`` across ``strategies/`` and ``baselines/``,
  flag ``self.x = <lambda>``, ``self.x = <nested def>``,
  ``self.x = threading.Lock()`` (or any lock/semaphore sibling),
  ``self.x = open(...)``, and ``self.x = ThreadPoolExecutor(...)``;
- **spawn targets** — in ``fleet/local.py``, a ``Process(target=fn)``
  or ``pool.submit(fn, ...)`` whose callable is a lambda or a function
  defined inside the enclosing scope cannot be pickled to a spawn
  worker; workers take module-level functions only.  The file itself
  must exist: a rule pinned to a moved module would silently check
  nothing, so its absence is a finding.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.core import Finding, Project, Rule, SourceFile

__all__ = ["PickleBoundaryRule"]

_STRATEGY_SCOPE = ("src/repro/strategies/*.py", "src/repro/baselines/*.py")
_SPAWN_MODULE = "src/repro/fleet/local.py"

_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}
_EXECUTOR_FACTORIES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

_HINT = (
    "strategy instances cross the remote fit boundary by pickle: keep "
    "attributes to plain data (see strategies/base.py)"
)


def _call_name(node: ast.AST) -> str | None:
    """Terminal name of a ``Call``'s callee (``threading.Lock`` -> Lock)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _unpicklable_reason(value: ast.AST, nested_defs: set[str]) -> str | None:
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(value, ast.Name) and value.id in nested_defs:
        return f"nested function {value.id!r} (closures do not pickle)"
    name = _call_name(value)
    if name in _LOCK_FACTORIES:
        return f"a threading.{name} (locks do not pickle)"
    if name in _EXECUTOR_FACTORIES:
        return f"a {name} (executors do not pickle)"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "open":
            return "an open file handle (handles do not pickle)"
    return None


def _spawned_callable(node: ast.AST) -> ast.AST | None:
    """The callable a ``Process(target=fn)`` or ``x.submit(fn, ...)``
    hands to another process; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    if _call_name(node) == "Process":
        for keyword in node.keywords:
            if keyword.arg == "target":
                return keyword.value
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
        and node.args
    ):
        return node.args[0]
    return None


def _strategy_classes(sources: list[SourceFile]) -> dict[str, ast.ClassDef]:
    """(source rel, class) for every transitive SelectionStrategy subclass."""
    classes: list[tuple[SourceFile, ast.ClassDef]] = []
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                classes.append((source, node))
    known = {"SelectionStrategy"}
    grew = True
    while grew:
        grew = False
        for _, klass in classes:
            if klass.name in known:
                continue
            base_names = {
                base.id if isinstance(base, ast.Name) else base.attr
                for base in klass.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            }
            if base_names & known:
                known.add(klass.name)
                grew = True
    return {
        f"{source.rel}:{klass.name}": klass
        for source, klass in classes
        if klass.name in known and klass.name != "SelectionStrategy"
    }


class PickleBoundaryRule(Rule):
    """Nothing unpicklable on strategies or across the fit executor."""

    id: ClassVar[str] = "pickle-boundary"
    description: ClassVar[str] = (
        "no lambdas, closures, locks, or open handles stored on "
        "SelectionStrategy subclasses or handed to a spawn worker"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        sources = project.files(*_STRATEGY_SCOPE)
        by_rel = {source.rel: source for source in sources}
        for key, klass in sorted(_strategy_classes(sources).items()):
            rel = key.rsplit(":", 1)[0]
            findings.extend(self._check_class(by_rel[rel], klass))
        spawner = project.source(_SPAWN_MODULE)
        if spawner is None:
            findings.append(
                Finding(
                    rule=self.id,
                    path=_SPAWN_MODULE,
                    line=1,
                    message=f"{_SPAWN_MODULE} is missing; spawn targets go unchecked",
                    hint=(
                        "point _SPAWN_MODULE in analysis/pickle_boundary.py "
                        "at the module that spawns the fit workers"
                    ),
                )
            )
        else:
            findings.extend(self._check_spawn_targets(spawner))
        return findings

    def _check_class(self, source: SourceFile, klass: ast.ClassDef) -> list[Finding]:
        findings: list[Finding] = []
        for method in klass.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested_defs = {
                node.name
                for node in ast.walk(method)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not method
            }
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                stored = [
                    t
                    for t in node.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not stored:
                    continue
                reason = _unpicklable_reason(node.value, nested_defs)
                if reason is None:
                    continue
                for target in stored:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            message=f"{klass.name}.{target.attr} stores {reason}",
                            hint=_HINT,
                        )
                    )
        return findings

    def _check_spawn_targets(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for scope in ast.walk(source.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested_defs = {
                node.name
                for node in ast.walk(scope)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not scope
            }
            for node in ast.walk(scope):
                fn = _spawned_callable(node)
                if fn is None:
                    continue
                reason = None
                if isinstance(fn, ast.Lambda):
                    reason = "a lambda"
                elif isinstance(fn, ast.Name) and fn.id in nested_defs:
                    reason = f"nested function {fn.id!r}"
                if reason is not None:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            message=(
                                f"spawn target is {reason}; spawn "
                                f"workers can only import module-level "
                                f"callables"
                            ),
                            hint=(
                                "lift the task function to module level "
                                "(like run_fit)"
                            ),
                        )
                    )
        return findings
