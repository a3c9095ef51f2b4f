"""Declarative counters: each stats field is declared once, with its semantics.

A stats class is a dataclass whose counters are fields made by
:func:`counter`.  The declaration records the merge kind (``ADD``
accumulates; ``MAX`` keeps watermarks, bounds and decisions), whether the
field is *run-local* (wall clocks and machine-speed outcomes, excluded
from deterministic views and output hashes), its wire name and scale in a
JSON snapshot (``latency_max`` travels as ``latency_max_ms`` at x1e3) and
the telemetry metric it is summarised as.  Merge, reset, the raw dict,
the wire snapshot and its reader, and the run-local split below are all
derived from it.  Dict-valued counters (``counter(dict)``) merge per key
by addition.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Collection, Dict, Iterator, Mapping, Optional, Tuple

ADD = "add"
MAX = "max"


class CounterError(ValueError):
    """A wire dict that does not describe a valid counter record."""


@dataclasses.dataclass(frozen=True)
class Counter:
    """What :func:`counter` records in a field's metadata."""

    kind: str = ADD
    run_local: bool = False
    wire: Optional[str] = None
    scale: float = 1
    metric: Optional[str] = None


def counter(default: Any = 0, kind: str = ADD, **meta: Any) -> Any:
    """A counter field; a callable ``default`` (``dict``) is a factory."""
    metadata = {"counter": Counter(kind, **meta)}
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@functools.lru_cache(maxsize=None)
def declared(cls: type) -> Tuple[Tuple[dataclasses.Field, Counter], ...]:
    """``(field, declaration)`` of every counter of ``cls``."""
    fields = dataclasses.fields(cls)
    return tuple((f, f.metadata["counter"]) for f in fields if "counter" in f.metadata)


def names(cls: type, **match: Any) -> Tuple[str, ...]:
    """Counter names whose declaration matches, e.g. ``run_local=True``."""
    return tuple(
        f.name
        for f, c in declared(cls)
        if all(getattr(c, key) == value for key, value in match.items())
    )


def raw(record: Any) -> Dict[str, Any]:
    """Every counter by field name (dict counters copied)."""
    out = {}
    for f, _ in declared(type(record)):
        value = getattr(record, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def merge(record: Any, contribution: Mapping[str, Any]) -> Any:
    """Fold a raw dict into ``record`` (returns ``record``)."""
    for f, c in declared(type(record)):
        if f.name not in contribution:
            continue
        value, current = contribution[f.name], getattr(record, f.name)
        if isinstance(current, dict):
            for key, count in value.items():
                current[key] = current.get(key, 0) + count
        elif c.kind == MAX:
            setattr(record, f.name, max(current, value))
        else:
            setattr(record, f.name, current + value)
    return record


def zero(record: Any) -> None:
    """Reset every counter of ``record`` to its declared default, in place."""
    for f, _ in declared(type(record)):
        factory = f.default_factory
        value = f.default if factory is dataclasses.MISSING else factory()
        setattr(record, f.name, value)


def wire(record: Any) -> Dict[str, Any]:
    """The JSON snapshot: wire names, scaled values."""
    out = {}
    for f, c in declared(type(record)):
        value = getattr(record, f.name)
        if isinstance(value, dict):
            value = dict(value)
        out[c.wire or f.name] = value * c.scale if c.scale != 1 else value
    return out


def read_wire(cls: type, snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`wire`: the raw dict a snapshot carries.

    Keys the snapshot lacks are left out.  The whole snapshot is checked
    before anything is returned, so a malformed one is never half-merged.
    """
    if not isinstance(snapshot, Mapping):
        raise CounterError(f"counter snapshot is not a dict: {snapshot!r}")
    out: Dict[str, Any] = {}
    for f, c in declared(cls):
        key = c.wire or f.name
        if key not in snapshot:
            continue
        value = snapshot[key]
        try:
            if f.default_factory is not dataclasses.MISSING:
                out[f.name] = {name: int(count) for name, count in value.items()}
            elif isinstance(f.default, float):
                out[f.name] = (1 / c.scale) * float(value)
            else:
                out[f.name] = int(value)
        except (AttributeError, TypeError, ValueError) as error:
            raise CounterError(f"bad counter {key!r}: {error}") from None
    return out


def split(values: Mapping[str, Any], run_local: Collection[str]) -> Tuple[Dict, Dict]:
    """``(deterministic, run_local)`` halves of a dict of fields."""
    deterministic = {k: v for k, v in values.items() if k not in run_local}
    return deterministic, {k: v for k, v in values.items() if k in run_local}


def metrics(record: Any) -> Iterator[Tuple[str, Any]]:
    """``(metric name, value)`` of every counter that declares a metric."""
    for f, c in declared(type(record)):
        if c.metric:
            yield c.metric, getattr(record, f.name)
