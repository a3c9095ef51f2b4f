"""Thread-safe serving metrics: latency, batch occupancy, cache behaviour.

One :class:`ServingStats` instance is shared by every component of a
:class:`~repro.serving.service.PredictionService` — admission control,
the per-machine micro-batching lanes, the hot-mapping and kernel-lowering
caches — and aggregates under a single lock.  The hot path touches the
lock once per submitted request and once per flushed batch (with the
per-request latencies pre-aggregated outside the lock), so the accounting
costs a fraction of a microsecond per request.

:meth:`ServingStats.snapshot` returns a plain dict (JSON-ready, used by
the ``stats`` op of the line protocol and the CLI), and
:meth:`ServingStats.format_table` renders the operator view.

Cross-node aggregation
----------------------
A cluster coordinator reads each node's snapshot over the wire and folds
them into one view with :meth:`ServingStats.merge` (or
:meth:`merge_snapshot` directly from the wire dict).  The semantics
are declared on each field (:mod:`repro.telemetry.counters`): **counters
and durations merge additively** (requests, batches, cache hits, latency
totals — quantities that accumulate across nodes), **watermarks merge
with max** (``pending_peak``, ``batch_occupancy_max``, ``latency_max``,
``republish_pending_peak`` — per-node observations of a bound, which are
not additive across machines).  Derived rates (means, hit rates) are
never merged — they are recomputed from the merged raw counters, so the
aggregate view is exactly what one node observing all the traffic would
have reported.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.telemetry import counters
from repro.telemetry.counters import MAX, counter


@dataclass(eq=False)
class ServingStats:
    """Mutable, thread-safe accumulator of serving metrics."""

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    # admission
    requests_submitted: int = counter()
    requests_admitted: int = counter()
    requests_refused: int = counter()
    requests_completed: int = counter()
    requests_failed: int = counter()
    pending_peak: int = counter(0, MAX)
    # batching
    batches_flushed: int = counter()
    batch_occupancy_total: int = counter()
    batch_occupancy_max: int = counter(0, MAX)
    # latency (seconds, monotonic-clock submit -> response)
    latency_total: float = counter(0.0, wire="latency_total_s")
    latency_max: float = counter(0.0, MAX, wire="latency_max_ms", scale=1e3)
    # flush-phase attribution (seconds, scheduler-side): building the
    # lowered batch, evaluating it, resolving futures
    flush_build_s: float = counter(0.0, wire="flush_build_ms_total", scale=1e3)
    flush_predict_s: float = counter(0.0, wire="flush_predict_ms_total", scale=1e3)
    flush_resolve_s: float = counter(0.0, wire="flush_resolve_ms_total", scale=1e3)
    # hot-mapping cache
    mapping_cache_hits: int = counter()
    mapping_cache_misses: int = counter()
    mapping_cache_evictions: int = counter()
    # kernel-lowering cache
    lowering_cache_hits: int = counter()
    lowering_cache_misses: int = counter()
    lowering_cache_evictions: int = counter()
    # zero-downtime republish: hot mapping swaps and the drain
    # watermark (kernels still in flight against the old compiled
    # mapping at the moment of the swap)
    mapping_republishes: int = counter()
    republish_pending_peak: int = counter(0, MAX)
    # replica maintenance: sync attempts the republish watcher (or an
    # explicit republish op) failed — a wedged watcher shows up here
    # instead of dying silently
    replica_sync_failures: int = counter()
    # per-machine routed request counts, keyed by fingerprint
    requests_by_fingerprint: Dict[str, int] = counter(dict)

    # -- admission -----------------------------------------------------------
    def record_admitted(self, fingerprint: str, count: int, pending: int) -> None:
        with self._lock:
            self.requests_submitted += count
            self.requests_admitted += count
            self.pending_peak = max(self.pending_peak, pending)
            by_machine = self.requests_by_fingerprint
            by_machine[fingerprint] = by_machine.get(fingerprint, 0) + count

    def record_refused(self, count: int) -> None:
        with self._lock:
            self.requests_submitted += count
            self.requests_refused += count

    # -- batching ------------------------------------------------------------
    def record_batch(
        self,
        occupancy: int,
        latency_total: float,
        latency_max: float,
        failed: int = 0,
    ) -> None:
        """One flushed batch: occupancy plus pre-aggregated latencies."""
        with self._lock:
            self.batches_flushed += 1
            self.batch_occupancy_total += occupancy
            self.batch_occupancy_max = max(self.batch_occupancy_max, occupancy)
            self.requests_completed += occupancy - failed
            self.requests_failed += failed
            self.latency_total += latency_total
            self.latency_max = max(self.latency_max, latency_max)

    def record_flush_phases(
        self, build: float = 0.0, predict: float = 0.0, resolve: float = 0.0
    ) -> None:
        """Attribute scheduler wall time to the phases of one flush.

        This is what ``benchmarks/profile_serving.py`` reads to attribute
        a concurrency ladder's wall time; the serving hot path records one
        call per flush, never per request.
        """
        with self._lock:
            self.flush_build_s += build
            self.flush_predict_s += predict
            self.flush_resolve_s += resolve

    def record_abandoned(self, count: int) -> None:
        """Admitted kernels failed at shutdown without reaching a batch.

        Counted as failures so ``requests_admitted == requests_completed +
        requests_failed`` holds across an abandoning close.
        """
        with self._lock:
            self.requests_failed += count

    # -- caches --------------------------------------------------------------
    def record_mapping_cache(self, hit: bool, evicted: int = 0) -> None:
        with self._lock:
            if hit:
                self.mapping_cache_hits += 1
            else:
                self.mapping_cache_misses += 1
            self.mapping_cache_evictions += evicted

    def record_lowering_cache_many(
        self, hits: int, misses: int, evicted: int = 0
    ) -> None:
        """Lowering-cache outcomes of a whole multi-kernel submission,
        recorded under one lock instead of one per kernel."""
        with self._lock:
            self.lowering_cache_hits += hits
            self.lowering_cache_misses += misses
            self.lowering_cache_evictions += evicted

    # -- republish -----------------------------------------------------------
    def record_republish(self, pending: int) -> None:
        """One hot mapping swap; ``pending`` kernels drain on the old one.

        The pending watermark is the zero-downtime evidence: those
        kernels were in flight when the new version swapped in, and every
        one of them still resolves (against whichever compiled mapping
        its flush had already taken) — the republish test asserts the
        counters balance afterwards.
        """
        with self._lock:
            self.mapping_republishes += 1
            self.republish_pending_peak = max(self.republish_pending_peak, pending)

    def record_sync_failure(self) -> None:
        """One failed replica sync (watcher poll or explicit republish)."""
        with self._lock:
            self.replica_sync_failures += 1

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "ServingStats") -> "ServingStats":
        """Accumulate another node's record into this one (returns ``self``).

        Counters and durations merge additively; the watermarks
        (:attr:`WATERMARK_FIELDS`) merge with ``max``, as declared on each
        field (see :mod:`repro.telemetry.counters`).  Derived rates are not
        state and simply fall out of the merged counters on the next
        :meth:`snapshot`.
        """
        with other._lock:
            contribution = counters.raw(other)
        with self._lock:
            counters.merge(self, contribution)
        return self

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> "ServingStats":
        """Merge a wire-form :meth:`snapshot` dict (a remote node's stats).

        The coordinator's aggregation path: node stats travel as JSON
        snapshots, so the raw counters are read back out of the snapshot
        (derived rates are ignored) and merged with the same
        additive-vs-max semantics as :meth:`merge`.  A malformed snapshot
        raises :class:`~repro.telemetry.counters.CounterError` (a
        ``ValueError``) and leaves this record unchanged.
        """
        contribution = counters.read_wire(ServingStats, snapshot)
        with self._lock:
            counters.merge(self, contribution)
        return self

    # -- views ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A consistent, JSON-ready view of every counter plus derived rates."""
        with self._lock:
            snap = counters.wire(self)
            completed = self.requests_completed
            batches = self.batches_flushed
            mapping_lookups = self.mapping_cache_hits + self.mapping_cache_misses
            lowering_lookups = self.lowering_cache_hits + self.lowering_cache_misses
            snap["batch_occupancy_mean"] = (
                self.batch_occupancy_total / batches if batches else 0.0
            )
            snap["latency_mean_ms"] = (
                1e3 * self.latency_total / completed if completed else 0.0
            )
            snap["mapping_cache_hit_rate"] = (
                self.mapping_cache_hits / mapping_lookups if mapping_lookups else 0.0
            )
            snap["lowering_cache_hit_rate"] = (
                self.lowering_cache_hits / lowering_lookups
                if lowering_lookups
                else 0.0
            )
            return snap

    def format_table(self, title: Optional[str] = None) -> str:
        """The operator-facing summary table."""
        snap = self.snapshot()
        lines = [title or "Serving statistics", "-" * 46]
        rows = (
            ("Requests admitted", f"{snap['requests_admitted']}"),
            ("Requests refused (overload)", f"{snap['requests_refused']}"),
            ("Requests completed", f"{snap['requests_completed']}"),
            ("Requests failed", f"{snap['requests_failed']}"),
            ("Batches flushed", f"{snap['batches_flushed']}"),
            ("Batch occupancy (mean/max)",
             f"{snap['batch_occupancy_mean']:.1f} / {snap['batch_occupancy_max']}"),
            ("Latency ms (mean/max)",
             f"{snap['latency_mean_ms']:.2f} / {snap['latency_max_ms']:.2f}"),
            ("Mapping cache hit rate",
             f"{100.0 * snap['mapping_cache_hit_rate']:.1f}% "
             f"({snap['mapping_cache_evictions']} evictions)"),
            ("Lowering cache hit rate",
             f"{100.0 * snap['lowering_cache_hit_rate']:.1f}% "
             f"({snap['lowering_cache_evictions']} evictions)"),
            ("Mapping republishes",
             f"{snap['mapping_republishes']} "
             f"(drain peak {snap['republish_pending_peak']})"),
            ("Replica sync failures", f"{snap['replica_sync_failures']}"),
            ("Machines served", f"{len(snap['requests_by_fingerprint'])}"),
        )
        width = max(len(label) for label, _ in rows)
        lines.extend(f"{label.ljust(width)}  {value}" for label, value in rows)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"ServingStats(admitted={snap['requests_admitted']}, "
            f"refused={snap['requests_refused']}, "
            f"batches={snap['batches_flushed']})"
        )


#: Raw fields that merge with ``max`` (per-node watermarks); every other
#: numeric field is additive.
ServingStats.WATERMARK_FIELDS = frozenset(counters.names(ServingStats, kind=MAX))
