"""Spans around the public alignbound functions the command line calls.

The tracer replaces names in the program's module namespaces with timing
wrappers (the way the acceptance tests count ``optimal_alignment`` calls),
so nothing inside the program changes.  Spans stay in memory until the run
ends.  A name that no longer exists is recorded as missing, and the layer
metrics that depend on it are then reported as absent with that reason.
"""

import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

# (module, attribute path, span name, what to record from (args, result))
WRAPS = (
    ("alignbound.cli", "parse_xes", "log.parse", lambda a, r: {"bytes": len(a[0])}),
    ("alignbound.cli", "parse_csv", "log.parse", lambda a, r: {"bytes": len(a[0])}),
    ("alignbound.cli", "parse_pnml", "model.parse", None),
    ("alignbound.cli", "parse_explicit_language", "model.parse", None),
    ("alignbound.model", "PetriNetModel.probe_fired", "model.probe", None),
    (
        "alignbound.proxy",
        "distance_matrix",
        "distance.matrix",
        lambda a, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2},
    ),
    ("alignbound.bounds", "generate_proxy", "proxy.generate", lambda a, r: {"k": len(r)}),
    (
        "alignbound.bounds",
        "optimal_alignment",
        "aligner.ref_align",
        lambda a, r: {"states": r.states_expanded},
    ),
    (
        "alignbound.cli",
        "optimal_alignment",
        "aligner.exact",
        lambda a, r: {"states": r.states_expanded, "moves": len(r.alignment.moves)},
    ),
    (
        "alignbound.bounds",
        "approximate_cost",
        "bounds.bracket",
        lambda a, r: {"members": len(a[1])},
    ),
    ("alignbound.cli", "write_report", "report.write", lambda a, r: {"bytes": len(r)}),
)

# every module that calls edit_distance through its own global name
EDIT_DISTANCE_USERS = (
    "alignbound.distance",
    "alignbound.proxy",
    "alignbound.bounds",
    "alignbound.aligner",
)


@dataclass
class Span:
    id: int
    name: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans for one run.  ``install`` wraps the program's names,
    ``uninstall`` restores them; spans of one CLI invocation share ``run``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}  # span or counter name -> reason
        self.edit_distance_calls = 0
        # span name -> (args, result) of its latest call
        self.last: dict[str, tuple] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run = 0
        self._root: int | None = None
        self._undo: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # calls on the CLI's worker threads hang off the invocation span
        parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), name, self._run, parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def invocation(self, run: int, name: str, call):
        """Run ``call()`` inside a root span and return its result."""
        self._run = run
        span = self._open(name)
        self._root = span.id
        try:
            return call()
        finally:
            self._close(span)
            self._root = None

    def timed(self, name: str, call):
        """Run ``call()`` as a span of its own and return its result."""
        span = self._open(name)
        try:
            return call()
        finally:
            self._close(span)

    def install(self) -> None:
        for module, path, name, observe in WRAPS:
            target = _resolve(module, path)
            if target is None:
                self.missing[name] = f"{module}.{path} no longer exists"
                continue
            self._replace(*target, self._span_wrapper(getattr(*target), name, observe))
        for module in EDIT_DISTANCE_USERS:
            target = _resolve(module, "edit_distance")
            if target is None:
                self.missing["distance.edit_distance"] = (
                    f"{module}.edit_distance no longer exists"
                )
                continue
            self._replace(*target, self._counting_wrapper(getattr(*target)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, func, name, observe):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
                tracer.last[name] = (args, result)
                if observe is not None:
                    try:
                        span.attrs = observe(args, result)
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        tracer.missing[name] = f"cannot read {name} result: {exc!r}"
                return result
            finally:
                tracer._close(span)

        return traced

    def _counting_wrapper(self, func):
        tracer = self

        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.edit_distance_calls += 1
            return func(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out
