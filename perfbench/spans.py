"""In-memory spans for the traced run, recorded around public layer calls.

The traced run wraps the public functions of each layer from outside the
program (:data:`LAYER_CALLS`), so the program itself carries no tracing.
Each call becomes one span: name, start, end and the index of the span
that was open when it began (its caller).  Spans stay in flat arrays
until :meth:`SpanLog.dump` writes them out.

Derived times:

* *busy* time of a set of span names sums the spans with one of those
  names that have no ancestor with one of those names, so recursion or
  one wrapped call inside another of the same layer is not counted twice;
* *self* time of a span is its duration minus the durations of its direct
  children.  The recorder is single-threaded and strictly nested, so the
  children of one span never overlap and their summed durations are the
  part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

#: (module, attribute path, span name) of every wrapped call.  Module
#: functions are wrapped where the calling module looks them up.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.scenarios.runtime", "load_backbone", "topology.load_backbone"),
    ("repro.scenarios.runtime", "build_session", "session.build_session"),
    ("repro.scenarios.runtime", "ScenarioRuntime.run", "runtime.run"),
    ("repro.sim.engine", "Simulator.run", "engine.run"),
    ("repro.pubsub.rp", "RPAgent.advertisement", "rp.advertisement"),
    ("repro.pubsub.rp", "RPAgent.aggregate_subscription", "rp.aggregate_subscription"),
    ("repro.pubsub.rp", "RPAgent.apply_directive", "rp.apply_directive"),
    (
        "repro.pubsub.membership",
        "MembershipServer.register_advertisement",
        "membership.register_advertisement",
    ),
    (
        "repro.pubsub.membership",
        "MembershipServer.register_subscription",
        "membership.register_subscription",
    ),
    ("repro.pubsub.membership", "MembershipServer.build_overlay", "membership.build_overlay"),
    ("repro.core.problem", "ForestProblem.from_workload", "problem.from_workload"),
    ("repro.core.problem", "ForestProblem.evolve_delta", "problem.evolve_delta"),
    ("repro.core.base", "OverlayBuilder.build", "builder.build"),
    ("repro.core.incremental", "IncrementalRepairer.repair", "incremental.repair"),
    ("repro.pubsub.membership", "churn_rate", "incremental.churn_rate"),
    ("repro.sim.invariants", "InvariantAuditor.audit_round", "audit.audit_round"),
    ("repro.sim.dataplane", "FastDataPlane.run", "dataplane.run"),
    ("repro.sim.dataplane", "ForestDataPlane.run", "dataplane.run"),
    ("repro.pubsub.faults", "FaultyLink.transmit", "faults.transmit"),
)


class SpanLog:
    """Spans of one traced run, in begin order (a parent precedes its children)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self.name_id)

    def begin(self, name: str, now: float | None = None) -> int:
        """Open a span under the innermost open one; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter() if now is None else now)
        self.end.append(0.0)
        self._open.append(index)
        self.max_depth = max(self.max_depth, len(self._open))
        return index

    def finish(self, index: int, now: float | None = None) -> None:
        """Close span ``index``, which must be the innermost open span."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.end[index] = time.perf_counter() if now is None else now

    def clear(self) -> None:
        """Forget every closed span (open spans are a caller bug)."""
        if self._open:
            raise RuntimeError("clear() with spans still open")
        self.__init__()

    # -- derived times ------------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return duration, parent

    def _mask(self, names: Iterable[str]) -> np.ndarray:
        wanted = [self._name_ids[name] for name in names if name in self._name_ids]
        return np.isin(np.frombuffer(self.name_id, dtype=np.int32), wanted)

    def count(self, *names: str) -> int:
        """Number of spans with any of ``names``."""
        return int(self._mask(names).sum()) if len(self) else 0

    def busy_s(self, *names: str) -> float:
        """Seconds inside any of ``names``, outermost occurrences only."""
        if not len(self):
            return 0.0
        duration, parent = self._arrays()
        member = self._mask(names)
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        # inside[i]: some ancestor of span i is a member.  One pass per
        # nesting level propagates the flag from the root downwards.
        inside = np.zeros(len(self), dtype=bool)
        for _ in range(self.max_depth):
            inside = has_parent & (member[safe_parent] | inside[safe_parent])
        return float(duration[member & ~inside].sum())

    def self_s(self, *names: str) -> float:
        """Summed self time of every span with any of ``names``."""
        if not len(self):
            return 0.0
        duration, parent = self._arrays()
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(self)
        )
        return float((duration - covered)[self._mask(names)].sum())

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``: names + columns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _spanned(log: SpanLog, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = log.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            log.finish(index)

    return wrapper


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(owner, attribute):
        raise AttributeError(f"{module_name}.{path} no longer exists")
    return owner, attribute


@contextmanager
def patched(
    replacements: Iterable[tuple[str, str, Callable[[Callable], Callable]]],
) -> Iterator[None]:
    """Replace each ``module.path`` attribute by ``wrap(original)``.

    Class- and static methods keep their descriptor type.  Everything is
    restored on exit, also when the body raises.
    """
    undo: list[tuple[object, str, object, bool]] = []
    try:
        for module_name, path, wrap in replacements:
            owner, attribute = _resolve(module_name, path)
            own = vars(owner).get(attribute)
            if isinstance(own, (classmethod, staticmethod)):
                replacement = type(own)(wrap(own.__func__))
            else:
                replacement = wrap(getattr(owner, attribute))
            undo.append((owner, attribute, own, attribute in vars(owner)))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


@contextmanager
def traced(log: SpanLog) -> Iterator[SpanLog]:
    """Record a span in ``log`` around every call in :data:`LAYER_CALLS`."""
    replacements = [
        (module_name, path, functools.partial(_spanned, log, name))
        for module_name, path, name in LAYER_CALLS
    ]
    with patched(replacements):
        yield log
