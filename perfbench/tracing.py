"""In-memory spans around the serving stack's public entry points.

:class:`Tracer` wraps, in the server process only, the calls where one
layer hands work to the next:

=======================  ==============================================
span                     wrapped entry point
=======================  ==============================================
``gateway.handle``       ``SelectionGateway.handle`` and the ``rank`` /
                         ``score_batch`` methods the HTTP front door
                         calls directly
``protocol.decode``      ``message_from_json`` and every message class's
                         ``from_json``
``protocol.encode``      every message class's ``to_json``
``registry.load/save``   ``ArtifactRegistry.load`` / ``save``
``graph.build``          ``GraphBuilder.build``
``graph.walks/sgns``     ``generate_walks`` / ``train_skipgram`` as
                         imported by ``repro.graph.learners``
``features.assemble``    ``FeatureAssembler.assemble``
``predictors.fit/...``   ``fit`` / ``predict`` of every ``Regressor``
                         subclass (outermost predictor call only: an
                         ensemble's member trees are inside its span)
=======================  ==============================================

A span is ``(name, start, end, span_id, parent_id, request_id, attr)``:
the parent is whichever span was open in the calling context (context
variables follow the router's executor hops), and the request id is the
``X-Request-Id`` the gateway was called with.  Spans stay in a list
until the server process writes them out.  :func:`self_times` derives
each span's time not covered by its children.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time

#: (span_id, request_id, name) of the innermost open span
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Installs and removes the wrappers; collects their spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _record(self, name, fn, *, attr=None, rid=None, outermost=False):
        """Wrap ``fn`` (a function or coroutine function) to record spans.

        ``attr(args, kwargs)`` and ``rid(args, kwargs)`` fill the span's
        attribute and request id.  With ``outermost``, a call made inside
        an open span of the same layer (the part of ``name`` before the
        dot) records nothing, so an ensemble's member-tree fits and
        predicts stay inside its span.
        """
        spans, ids = self.spans, self._ids
        layer = name.split(".")[0] + "."

        def enter(args, kwargs):
            parent = _CURRENT.get()
            if outermost and parent is not None and parent[2].startswith(layer):
                return None
            sid = next(ids)
            request_id = rid(args, kwargs) if rid is not None else None
            if request_id is None and parent is not None:
                request_id = parent[1]
            extra = attr(args, kwargs) if attr is not None else None
            token = _CURRENT.set((sid, request_id, name))
            return token, sid, parent[0] if parent else 0, request_id, extra

        def leave(frame, start):
            end = time.perf_counter()
            token, sid, parent_id, request_id, extra = frame
            _CURRENT.reset(token)
            spans.append((name, start, end, sid, parent_id, request_id, extra))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                frame = enter(args, kwargs)
                if frame is None:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(frame, start)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(args, kwargs)
                if frame is None:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, start)

        return wrapper

    def _wrap(self, owner, attr_name: str, name: str, **options) -> None:
        """Replace ``owner.attr_name`` by its recording wrapper."""
        own = attr_name in vars(owner)
        self._patches.append((owner, attr_name, vars(owner).get(attr_name), own))
        fn = getattr(owner, attr_name)
        wrapped = self._record(name, fn, **options)
        if inspect.ismethod(fn):  # a classmethod, already bound to ``owner``
            wrapped = staticmethod(wrapped)
        setattr(owner, attr_name, wrapped)

    def install(self) -> None:
        """Wrap every entry point in the table above (idempotent)."""
        if self._patches:
            return
        from repro.core.features import FeatureAssembler
        from repro.graph import learners
        from repro.graph.builder import GraphBuilder
        from repro.predictors import Regressor
        from repro.serving import protocol
        from repro.serving.gateway import SelectionGateway
        from repro.serving.registry import ArtifactRegistry

        def request_id(args, kwargs):
            request = args[1] if len(args) > 1 else None
            return getattr(request, "request_id", None) or kwargs.get("request_id")

        def constant(value):
            return lambda args, kwargs: value

        def is_fit(args, kwargs):
            return bool(kwargs.get("fit", args[2] if len(args) > 2 else False))

        def rows(args, kwargs):
            return len(args[1]) if len(args) > 1 else len(kwargs["x"])

        for method in ("handle", "rank", "score_batch"):
            self._wrap(
                SelectionGateway,
                method,
                "gateway.handle",
                rid=request_id,
                outermost=True,
            )
        for cls in protocol.MESSAGE_TYPES.values():
            self._wrap(cls, "from_json", "protocol.decode", attr=constant(cls.kind))
            self._wrap(cls, "to_json", "protocol.encode", attr=constant(cls.kind))
        self._wrap(
            protocol, "message_from_json", "protocol.decode", attr=constant("message")
        )
        self._wrap(ArtifactRegistry, "load", "registry.load")
        self._wrap(ArtifactRegistry, "save", "registry.save")
        self._wrap(GraphBuilder, "build", "graph.build")
        self._wrap(learners, "generate_walks", "graph.walks")
        self._wrap(learners, "train_skipgram", "graph.sgns")
        self._wrap(FeatureAssembler, "assemble", "features.assemble", attr=is_fit)
        for cls in _subclasses(Regressor):
            for method in ("fit", "predict"):
                if method in vars(cls):
                    name = f"predictors.{method}"
                    self._wrap(cls, method, name, attr=rows, outermost=True)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (spans are kept)."""
        for owner, attr_name, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr_name, original)
            else:
                delattr(owner, attr_name)
        self._patches.clear()


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def self_times(spans) -> dict[int, float]:
    """span_id -> seconds of the span not covered by any child span.

    Children may overlap (a score_batch predicts several targets
    concurrently), so the covered part is the union of their intervals,
    clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, _sid, parent, _rid, _attr in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for _name, start, end, sid, _parent, _rid, _attr in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out
