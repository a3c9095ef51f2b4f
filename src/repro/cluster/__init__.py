"""Distributed serving: fingerprint-sharded coordination over node fleets.

The cluster tier scales the single-node serving stack horizontally
without changing its contracts: every routed answer is bitwise-identical
to an offline prediction against the same artifacts, every failure is a
typed refusal, and a new artifact version reaches the whole fleet with
zero dropped requests.

Layout
------
:mod:`~repro.cluster.shard`
    Rendezvous-hash shard map: fingerprint -> replica-ordered node list.
:mod:`~repro.cluster.sync`
    Hash-validated artifact replication (each node serves a local
    read-only copy).
:mod:`~repro.cluster.node`
    One serving node: replica + :class:`~repro.serving.service.
    PredictionService` + the existing TCP frontend + republish watcher.
:mod:`~repro.cluster.coordinator`
    The edge: routing, per-node retry, failover, health-fed admission,
    fleet management ops, and the coordinator's own TCP frontend.
:mod:`~repro.cluster.failpoints`
    Deterministic in-process fault injection (node death, slow node,
    partial write, corrupted replica) for the test harness.
:mod:`~repro.cluster.errors`
    The typed degradation ladder (:class:`NodeUnavailableError` ->
    failover -> :class:`ClusterOverloadedError` upstream).
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    CoordinatorServer,
    NodeSpec,
    RetryPolicy,
    handle_cluster_line,
)
from repro.cluster.errors import (
    ClusterError,
    ClusterOverloadedError,
    NodeUnavailableError,
    ReplicaSyncError,
)
from repro.cluster.failpoints import (
    FAILPOINTS,
    Failpoints,
    corrupt,
    delay,
    fail,
    truncate,
)
from repro.cluster.node import ClusterNode
from repro.cluster.shard import ShardMap, rendezvous_score
from repro.cluster.stats import ClusterStats
from repro.cluster.sync import (
    SyncReport,
    load_replica,
    replica_artifacts,
    replicate_registry,
    verify_replica,
)

__all__ = [
    "FAILPOINTS",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterNode",
    "ClusterOverloadedError",
    "ClusterStats",
    "CoordinatorServer",
    "Failpoints",
    "NodeSpec",
    "NodeUnavailableError",
    "ReplicaSyncError",
    "RetryPolicy",
    "ShardMap",
    "SyncReport",
    "corrupt",
    "delay",
    "fail",
    "handle_cluster_line",
    "load_replica",
    "replica_artifacts",
    "replicate_registry",
    "rendezvous_score",
    "truncate",
    "verify_replica",
]
