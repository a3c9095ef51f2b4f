"""Coordinator-side metrics: routing, failover and fleet health counters.

The coordinator keeps two kinds of state about its fleet:

* its **own** routing ledger — :class:`ClusterStats`, the thread-safe
  counters below (requests routed, per-node forwards and failures,
  failovers, retries, upstream refusals, health polls, republish
  broadcasts);
* the **nodes'** serving ledgers — each node's ``stats`` op returns a
  :class:`~repro.serving.stats.ServingStats` snapshot, and the
  coordinator folds them into one fleet view with
  :meth:`~repro.serving.stats.ServingStats.merge_snapshot` (additive
  counters, max-merged watermarks, as each counter declares in
  :mod:`repro.telemetry.counters`).

Keeping the two separate keeps the semantics honest: a *routed* request
that failed over counts once here and once on **each** node that touched
it, so ``requests_routed <= sum(node requests)`` by design, not by bug.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict

from repro.telemetry import TRACER, counters
from repro.telemetry.counters import counter


@dataclass(eq=False)
class ClusterStats:
    """Thread-safe routing/failover counters for one coordinator."""

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    #: Requests the coordinator accepted and attempted to route.
    requests_routed: int = counter()
    #: Requests answered by a non-primary replica (>= 1 node failed).
    failovers: int = counter()
    #: Same-node retry attempts (transport error within the budget).
    retries: int = counter()
    #: Requests refused upstream: every replica exhausted.
    refused_upstream: int = counter()
    #: Health poll sweeps completed.
    health_polls: int = counter()
    #: Republish broadcasts fanned out to the fleet.
    republish_broadcasts: int = counter()
    #: node_id -> requests forwarded to it (counting retries once).
    forwards_by_node: Dict[str, int] = counter(dict)
    #: node_id -> times it was declared unavailable for a request.
    failures_by_node: Dict[str, int] = counter(dict)

    # -- recording -----------------------------------------------------------
    def record_routed(self) -> None:
        with self._lock:
            self.requests_routed += 1

    def record_forward(self, node_id: str) -> None:
        with self._lock:
            self.forwards_by_node[node_id] = (
                self.forwards_by_node.get(node_id, 0) + 1
            )

    def record_retry(self, node_id: str) -> None:
        with self._lock:
            self.retries += 1
        if TRACER.enabled:
            TRACER.metric("cluster.retry", 1, node=node_id)

    def record_node_failure(self, node_id: str) -> None:
        with self._lock:
            self.failures_by_node[node_id] = (
                self.failures_by_node.get(node_id, 0) + 1
            )
        if TRACER.enabled:
            TRACER.metric("cluster.node_failure", 1, node=node_id)

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1
        if TRACER.enabled:
            TRACER.metric("cluster.failover", 1)

    def record_refused_upstream(self) -> None:
        with self._lock:
            self.refused_upstream += 1

    def record_health_poll(self) -> None:
        with self._lock:
            self.health_polls += 1

    def record_republish_broadcast(self) -> None:
        with self._lock:
            self.republish_broadcasts += 1

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready copy of every counter (consistent under the lock)."""
        with self._lock:
            return counters.wire(self)
