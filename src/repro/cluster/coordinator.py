"""The coordinator/edge tier: fingerprint-sharded routing with failover.

A :class:`ClusterCoordinator` fronts a fleet of serving nodes (each a
plain ``python -m repro serve --node`` process running the existing
:class:`~repro.serving.frontend.LineProtocolServer` over its local
artifact replica).  Coordination is intentionally thin — the nodes own
all prediction state; the coordinator owns only *placement*:

* **sharding** — every request is routed by its machine fingerprint
  through a :class:`~repro.cluster.shard.ShardMap` (rendezvous hashing
  over the static node table), so a fingerprint's traffic concentrates
  on ``replicas`` nodes and their hot caches, while every node *can*
  serve every fingerprint (replicas are full copies — routing is an
  optimization, never a correctness dependency);
* **failover** — a node that fails its per-request retry budget becomes
  a :class:`~repro.cluster.errors.NodeUnavailableError` and the request
  moves to the next node in the fingerprint's preference order; only
  when every candidate is exhausted does the coordinator refuse
  upstream with :class:`~repro.cluster.errors.ClusterOverloadedError`
  (a :class:`~repro.serving.errors.ServiceOverloadedError`, so clients
  keep their single-node backoff logic).  Requests are **never silently
  dropped**;
* **admission** — node ``health`` reports (pending load vs the
  admission bound) feed routing: a node reporting saturation is
  deprioritized among the candidates, and a node that just failed
  transport sits out a cooldown window before being tried first again
  (it is still tried *last* rather than letting the cluster refuse a
  request it might have served);
* **zero-downtime republish** — one ``republish`` broadcast makes every
  node hot-swap the mappings whose artifact files changed, draining
  in-flight work on the old version (see
  :meth:`~repro.serving.service.PredictionService.republish`).

Node-to-node wire: the same protocols clients already speak.  JSON per
line (the default) reuses the management ops verbatim and **relays
predict traffic as bytes**: the client's request line goes to the node
as received (with the resolved ``fingerprint`` spliced in once the
coordinator has learned it), and the node's reply line comes back to
the client verbatim — parsed once for failover classification, never
re-encoded.  ``node_wire="binary"`` upgrades fingerprint-pinned predict
traffic to the negotiated length-prefixed binary framing for bulk
throughput, falling back to JSON for management and name-addressed
requests.

Fault injection: the coordinator calls the documented
:mod:`~repro.cluster.failpoints` sites (``node.connect``,
``node.request``, ``node.send``) so node death, slow links and partial
writes are testable in-process, deterministically.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.errors import ClusterOverloadedError, NodeUnavailableError
from repro.cluster.failpoints import FAILPOINTS, Failpoints
from repro.cluster.shard import ShardMap
from repro.cluster.stats import ClusterStats
from repro.serving.errors import InvalidRequestError
from repro.serving.frontend import BinaryServingClient
from repro.serving.stats import ServingStats
from repro.telemetry import TRACER
from repro.telemetry.counters import CounterError

#: Error types a node answers that no replica would answer differently —
#: malformed requests and unknown machine names pass through to the
#: client untouched instead of burning failover attempts.
_CLIENT_ERROR_TYPES = frozenset({"InvalidRequestError", "UnknownMachineError"})


@dataclass(frozen=True)
class NodeSpec:
    """One serving node's identity and address in the static node table."""

    node_id: str
    host: str
    port: int

    @classmethod
    def parse(cls, spec: str, index: int = 0) -> "NodeSpec":
        """``[node_id=]host:port`` -> a spec (CLI/table convenience)."""
        name, _, address = spec.rpartition("=")
        host, _, port = address.rpartition(":")
        if not host or not port:
            raise ValueError(
                f"node spec {spec!r} must look like [node_id=]host:port"
            )
        return cls(name or f"node{index}", host, int(port))


@dataclass(frozen=True)
class RetryPolicy:
    """Per-node transport behaviour: budget, timeout, backoff, cooldown."""

    #: Attempts against one node before declaring it unavailable (>= 1).
    attempts: int = 2
    #: Socket timeout per connect/exchange, seconds.
    timeout_s: float = 10.0
    #: Sleep before the k-th retry is ``backoff_s * k`` (linear, bounded
    #: by the small budget; no jitter — determinism beats thundering-herd
    #: theory at this fleet size).
    backoff_s: float = 0.05
    #: After a node exhausts its budget it is routed *last* for this many
    #: seconds (it is still tried when every other candidate failed).
    cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")


class _NodeConnection:
    """One pooled JSON-line connection to a serving node."""

    def __init__(
        self, spec: NodeSpec, timeout_s: float, failpoints: Failpoints
    ) -> None:
        self.spec = spec
        self._failpoints = failpoints
        failpoints.fire(("node.connect", spec.node_id))
        self._socket = socket.create_connection(
            (spec.host, spec.port), timeout=timeout_s
        )
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")

    def exchange(self, raw: bytes) -> bytes:
        """Send one request line, return the reply line; transport faults raise."""
        self._failpoints.fire(("node.request", self.spec.node_id))
        sent = self._failpoints.transform(("node.send", self.spec.node_id), raw)
        self._socket.sendall(sent)
        if not sent.endswith(b"\n"):
            # A partial write has no response to wait for: the sender
            # "crashed" mid-line.  Poison the link so nobody reuses a
            # stream whose framing is broken.
            self.close()
            raise ConnectionError(
                f"partial write to node {self.spec.node_id!r} "
                f"({len(sent)}/{len(raw)} bytes); connection poisoned"
            )
        line = self._reader.readline()
        if not line:
            raise ConnectionError(
                f"node {self.spec.node_id!r} closed the connection"
            )
        return line

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            try:
                self._socket.close()
            except OSError:
                pass


class ClusterCoordinator:
    """Routes prediction traffic across a static fleet of serving nodes.

    Parameters
    ----------
    nodes:
        The static node table (:class:`NodeSpec` per node).  Node ids
        are the rendezvous-hash identities: keep them stable across
        restarts or shard assignments move.
    replicas:
        Candidate nodes per fingerprint (primary + failover targets).
    retry:
        Transport policy applied per node per request.
    node_wire:
        ``"json"`` (default) or ``"binary"`` for fingerprint-pinned
        predict forwards.
    failpoints:
        Fault-injection registry (tests pass their own instance).
    """

    def __init__(
        self,
        nodes: List[NodeSpec],
        replicas: int = 2,
        retry: Optional[RetryPolicy] = None,
        node_wire: str = "json",
        failpoints: Optional[Failpoints] = None,
    ) -> None:
        if node_wire not in ("json", "binary"):
            raise ValueError(
                f"node_wire must be 'json' or 'binary', got {node_wire!r}"
            )
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.nodes: Dict[str, NodeSpec] = {}
        for spec in nodes:
            if spec.node_id in self.nodes:
                raise ValueError(f"duplicate node id {spec.node_id!r}")
            self.nodes[spec.node_id] = spec
        self.shard_map = ShardMap(list(self.nodes), replicas=replicas)
        self.retry = retry or RetryPolicy()
        self.node_wire = node_wire
        self.failpoints = failpoints or FAILPOINTS
        self.stats = ClusterStats()
        self._lock = threading.Lock()
        #: node_id -> idle pooled JSON connections (LIFO: warm first).
        self._idle: Dict[str, List[_NodeConnection]] = {}
        #: (node_id, fingerprint) -> idle pooled binary clients.
        self._idle_binary: Dict[Tuple[str, str], List[BinaryServingClient]] = {}
        #: node_id -> monotonic deadline until which it routes last.
        self._cooldown_until: Dict[str, float] = {}
        #: node_id -> last health report (the admission signal).
        self._health: Dict[str, Dict[str, object]] = {}
        #: machine name -> fingerprint, learned from node responses.
        self._resolved: Dict[str, str] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop every pooled connection (nodes keep running)."""
        with self._lock:
            self._closed = True
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
            binary = [
                client
                for clients in self._idle_binary.values()
                for client in clients
            ]
            self._idle_binary.clear()
        for conn in idle:
            conn.close()
        for client in binary:
            client.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection pooling ---------------------------------------------------
    def _checkout(self, node_id: str) -> _NodeConnection:
        with self._lock:
            pool = self._idle.get(node_id)
            if pool:
                return pool.pop()
        return _NodeConnection(
            self.nodes[node_id], self.retry.timeout_s, self.failpoints
        )

    def _checkin(self, node_id: str, conn: _NodeConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault(node_id, []).append(conn)
                return
        conn.close()

    # -- per-node exchange (retry budget) -------------------------------------
    def _request_node(
        self, node_id: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """One management request against one node (see :meth:`_exchange`)."""
        return self._exchange(node_id, _encode_line(payload))[1]

    def _exchange(
        self, node_id: str, raw: bytes
    ) -> Tuple[bytes, Dict[str, object]]:
        """One request line against one node, inside its retry budget.

        Returns the node's reply line and its decoding.  Transport
        failures (refused connect, timeout, dead link, garbage on the
        wire) burn attempts; after the budget the node enters its
        cooldown window and :class:`NodeUnavailableError` tells the
        caller to fail over.  A decoded response — even an error
        envelope — returns as-is: protocol-level refusals are the
        *node's* answer, not a transport fault.
        """
        policy = self.retry
        last_error: Optional[BaseException] = None
        for attempt in range(policy.attempts):
            if attempt:
                self.stats.record_retry(node_id)
                time.sleep(policy.backoff_s * attempt)
            try:
                conn = self._checkout(node_id)
            except (OSError, ConnectionError) as error:
                last_error = error
                continue
            try:
                line = conn.exchange(raw)
                response = json.loads(line)
            except (OSError, ConnectionError, ValueError) as error:
                # ValueError covers JSON garbage: the stream is not
                # trustworthy, drop the connection with the attempt.
                last_error = error
                conn.close()
                continue
            self._checkin(node_id, conn)
            return line, response
        self._mark_down(node_id)
        self.stats.record_node_failure(node_id)
        raise NodeUnavailableError(node_id, policy.attempts, last_error)

    def _mark_down(self, node_id: str) -> None:
        with self._lock:
            self._cooldown_until[node_id] = (
                time.monotonic() + self.retry.cooldown_s
            )
            # A failed node's pooled connections are suspect: drop them so
            # recovery starts from fresh links.
            stale = self._idle.pop(node_id, [])
            stale_binary: List[BinaryServingClient] = []
            for key in [k for k in self._idle_binary if k[0] == node_id]:
                stale_binary.extend(self._idle_binary.pop(key))
        for conn in stale:
            conn.close()
        for client in stale_binary:
            client.close()

    # -- candidate ordering ---------------------------------------------------
    def _candidates(self, routing_key: str) -> List[str]:
        """The fingerprint's replica set, reordered by the health signal.

        Stable two-pass sort over the rendezvous preference: nodes that
        are neither cooling down nor reporting saturation keep their
        shard order up front; deprioritized nodes follow, still in shard
        order — tried only when every healthy candidate failed.
        """
        assigned = self.shard_map.assign(routing_key)
        now = time.monotonic()
        with self._lock:
            cooldown = dict(self._cooldown_until)
            health = {
                node_id: report for node_id, report in self._health.items()
            }
        healthy: List[str] = []
        deprioritized: List[str] = []
        for node_id in assigned:
            if cooldown.get(node_id, 0.0) > now:
                deprioritized.append(node_id)
                continue
            report = health.get(node_id)
            if report is not None:
                bound = report.get("max_pending")
                pending = report.get("pending", 0)
                if (
                    isinstance(bound, int)
                    and isinstance(pending, int)
                    and pending >= bound > 0
                ):
                    deprioritized.append(node_id)
                    continue
            healthy.append(node_id)
        return healthy + deprioritized

    # -- prediction routing ---------------------------------------------------
    def predict_blocks(
        self,
        blocks: List[Dict[str, float]],
        machine: Optional[str] = None,
        fingerprint: Optional[str] = None,
        request_id: Optional[object] = None,
    ) -> Dict[str, object]:
        """Route one prediction request; returns the node's envelope.

        Raises :class:`ClusterOverloadedError` only after every candidate
        node failed or refused; client errors (malformed blocks, unknown
        machine name) come back as the node's own error envelope.
        """
        request: Dict[str, object] = {"id": request_id, "blocks": blocks}
        if machine is not None:
            request["machine"] = machine
        if fingerprint is not None:
            request["fingerprint"] = fingerprint
        return self._route(request, _encode_line(request))[1]

    def relay_predict(self, request: Dict[str, object], line: bytes) -> bytes:
        """Route a client's predict line; returns the reply line to send back.

        ``line`` is one newline-terminated JSON object and ``request`` its
        decoding.  On the JSON node wire the line itself is forwarded and
        the chosen node's reply line is returned as received, so neither
        direction is re-encoded.
        """
        raw, response = self._route(request, line)
        return raw if raw is not None else _encode_line(response)

    def _route(
        self, request: Dict[str, object], line: bytes
    ) -> Tuple[Optional[bytes], Dict[str, object]]:
        """Fail over across a request's candidates: ``(reply line, reply)``.

        The reply line is ``None`` when the answer came over the binary
        node wire (there is no node line to relay).
        """
        blocks = request.get("blocks")
        if not isinstance(blocks, list):
            raise InvalidRequestError(
                "request needs a non-empty 'blocks' list of "
                "{mnemonic: multiplicity} objects"
            )
        machine = request.get("machine")
        fingerprint = request.get("fingerprint")
        if fingerprint is None and machine is None:
            raise InvalidRequestError(
                "a routed predict request needs 'fingerprint' or 'machine'"
            )
        if fingerprint is None:
            with self._lock:
                fingerprint = self._resolved.get(str(machine))
            if fingerprint is not None and "fingerprint" not in request:
                line = _splice_fingerprint(line, fingerprint)
        # Name-addressed requests route by the name until a response
        # teaches us the fingerprint; every node resolves names against
        # the same replica, so the answer is identical either way.
        routing_key = str(fingerprint) if fingerprint is not None else str(machine)
        request_id = request.get("id")

        self.stats.record_routed()
        candidates = self._candidates(routing_key)
        attempted: List[str] = []
        last_error: Optional[BaseException] = None
        for position, node_id in enumerate(candidates):
            attempted.append(node_id)
            self.stats.record_forward(node_id)
            try:
                if self.node_wire == "binary" and fingerprint is not None:
                    raw = None
                    response = self._predict_binary(
                        node_id, str(fingerprint), blocks, request_id
                    )
                else:
                    raw, response = self._exchange(node_id, line)
            except NodeUnavailableError as error:
                last_error = error
                continue
            if response.get("ok"):
                if position > 0:
                    self.stats.record_failover()
                if machine is not None and "fingerprint" in response:
                    with self._lock:
                        self._resolved[str(machine)] = str(
                            response["fingerprint"]
                        )
                return raw, response
            error_info = response.get("error") or {}
            if error_info.get("type") in _CLIENT_ERROR_TYPES:
                # No replica would answer differently; pass it through.
                return raw, response
            # Anything else — overload, a stale or corrupted replica
            # (registry refusals), a closing node — is this node's
            # problem, not the request's: fail over.
            self.stats.record_node_failure(node_id)
            last_error = NodeUnavailableError(
                node_id,
                1,
                RuntimeError(
                    f"{error_info.get('type')}: {error_info.get('message')}"
                ),
            )
            continue
        self.stats.record_refused_upstream()
        raise ClusterOverloadedError(routing_key, attempted, last_error)

    # -- binary node wire ------------------------------------------------------
    def _predict_binary(
        self,
        node_id: str,
        fingerprint: str,
        blocks: List[Dict[str, float]],
        request_id: Optional[object],
    ) -> Dict[str, object]:
        """Forward one predict over the negotiated binary framing.

        Pooled per ``(node, fingerprint)`` — the dense instruction table
        is pinned at hello time.  Transport faults (including a hello
        that cannot complete) spend the retry budget like the JSON path;
        a server-side typed refusal surfaces as a JSON-shaped error
        envelope so the failover classification stays uniform.
        """
        policy = self.retry
        key = (node_id, fingerprint)
        last_error: Optional[BaseException] = None
        for attempt in range(policy.attempts):
            if attempt:
                self.stats.record_retry(node_id)
                time.sleep(policy.backoff_s * attempt)
            client: Optional[BinaryServingClient] = None
            with self._lock:
                pool = self._idle_binary.get(key)
                if pool:
                    client = pool.pop()
            try:
                if client is None:
                    self.failpoints.fire(("node.connect", node_id))
                    spec = self.nodes[node_id]
                    client = BinaryServingClient(
                        spec.host,
                        spec.port,
                        fingerprint=fingerprint,
                        timeout=policy.timeout_s,
                    )
                self.failpoints.fire(("node.request", node_id))
                predictions = client.predict_blocks(
                    blocks,
                    request_id=int(request_id)
                    if isinstance(request_id, int)
                    else 0,
                )
            except (OSError, ConnectionError, ValueError) as error:
                last_error = error
                if client is not None:
                    client.close()
                continue
            except Exception as error:  # noqa: BLE001 - server-side refusal
                # ServingError from the binary status frame: the stream
                # stays framed, the connection is reusable, and the
                # refusal must flow through the same envelope-based
                # failover classification as the JSON wire.
                self._checkin_binary(key, client)
                return {
                    "id": request_id,
                    "ok": False,
                    "error": {
                        "type": _embedded_error_type(error),
                        "message": str(error),
                    },
                }
            self._checkin_binary(key, client)
            return {
                "id": request_id,
                "ok": True,
                "machine": client.machine,
                "fingerprint": client.fingerprint,
                "predictions": [
                    {
                        "ipc": prediction.ipc,
                        "supported_fraction": prediction.supported_fraction,
                    }
                    for prediction in predictions
                ],
            }
        self._mark_down(node_id)
        self.stats.record_node_failure(node_id)
        raise NodeUnavailableError(node_id, policy.attempts, last_error)

    def _checkin_binary(
        self, key: Tuple[str, str], client: BinaryServingClient
    ) -> None:
        with self._lock:
            if not self._closed:
                self._idle_binary.setdefault(key, []).append(client)
                return
        client.close()

    # -- fleet management ------------------------------------------------------
    def poll_health(self) -> Dict[str, Dict[str, object]]:
        """One health sweep; feeds admission and returns the fleet view.

        Unreachable nodes report ``{"status": "unreachable"}`` (and enter
        their cooldown window via the failed exchange); reachable reports
        replace the previous admission signal atomically per node.
        """
        fleet: Dict[str, Dict[str, object]] = {}
        with TRACER.span("cluster.poll_health", nodes=len(self.nodes)) as span:
            for node_id in self.nodes:
                try:
                    response = self._request_node(node_id, {"op": "health"})
                except NodeUnavailableError as error:
                    fleet[node_id] = {
                        "status": "unreachable", "error": str(error)
                    }
                    continue
                report = response.get("health")
                if isinstance(report, dict):
                    fleet[node_id] = report
                    with self._lock:
                        self._health[node_id] = report
                else:
                    fleet[node_id] = {"status": "invalid", "response": response}
            self.stats.record_health_poll()
            span.set(
                unreachable=sum(
                    1
                    for report in fleet.values()
                    if report.get("status") == "unreachable"
                )
            )
        return fleet

    def broadcast_republish(self) -> Dict[str, Dict[str, object]]:
        """Tell every node to hot-swap changed mappings; per-node outcome."""
        outcome: Dict[str, Dict[str, object]] = {}
        with TRACER.span(
            "cluster.broadcast_republish", nodes=len(self.nodes)
        ):
            for node_id in self.nodes:
                try:
                    response = self._request_node(node_id, {"op": "republish"})
                except NodeUnavailableError as error:
                    outcome[node_id] = {"ok": False, "error": str(error)}
                    continue
                outcome[node_id] = {
                    "ok": bool(response.get("ok")),
                    "swapped": response.get("swapped", {}),
                    "failed": response.get("failed", {}),
                }
            self.stats.record_republish_broadcast()
        return outcome

    def fleet_stats(self) -> Dict[str, object]:
        """The coordinator's ledger plus the merged node serving stats."""
        merged = ServingStats()
        nodes: Dict[str, object] = {}
        for node_id in self.nodes:
            try:
                response = self._request_node(node_id, {"op": "stats"})
            except NodeUnavailableError as error:
                nodes[node_id] = {"status": "unreachable", "error": str(error)}
                continue
            try:
                merged.merge_snapshot(response.get("stats"))
            except CounterError as error:
                # One malformed node snapshot is reported, never merged
                # in part, and never fails the fleet view.
                nodes[node_id] = {"status": "invalid", "error": str(error)}
                continue
            nodes[node_id] = {"status": "ok"}
        return {
            "cluster": self.stats.snapshot(),
            "fleet": merged.snapshot(),
            "nodes": nodes,
        }

    def shutdown_fleet(self) -> Dict[str, bool]:
        """Broadcast shutdown to every node (CI teardown; best effort)."""
        outcome: Dict[str, bool] = {}
        for node_id in self.nodes:
            try:
                response = self._request_node(node_id, {"op": "shutdown"})
                outcome[node_id] = bool(response.get("ok"))
            except NodeUnavailableError:
                outcome[node_id] = False
        return outcome


def _answer_fleet_op(
    coordinator: ClusterCoordinator, request: Dict[str, object]
) -> Tuple[Dict[str, object], bool]:
    """Answer one decoded non-predict request; returns (response, shutdown).

    The management ops are reinterpreted fleet-wide: ``stats`` merges
    every node's serving ledger, ``health`` sweeps the fleet,
    ``republish`` broadcasts the hot swap, and ``shutdown`` stops the
    coordinator (``{"op": "shutdown", "fleet": true}`` takes the nodes
    down with it).  Binary framing is a node-level negotiation; the
    coordinator refuses it with a typed error pointing clients at the
    nodes.
    """
    op = request.get("op")
    request_id = request.get("id")
    if op == "ping":
        return (
            {"id": request_id, "ok": True, "pong": True, "role": "coordinator"},
            False,
        )
    if op == "stats":
        return (
            {"id": request_id, "ok": True, **coordinator.fleet_stats()},
            False,
        )
    if op == "health":
        return (
            {"id": request_id, "ok": True, "nodes": coordinator.poll_health()},
            False,
        )
    if op == "republish":
        return (
            {
                "id": request_id,
                "ok": True,
                "nodes": coordinator.broadcast_republish(),
            },
            False,
        )
    if op == "shutdown":
        response: Dict[str, object] = {
            "id": request_id,
            "ok": True,
            "stopping": True,
        }
        if request.get("fleet"):
            response["fleet"] = coordinator.shutdown_fleet()
        return response, True
    if op == "hello":
        if request.get("format", "json") == "json":
            return {"id": request_id, "ok": True, "format": "json"}, False
        raise InvalidRequestError(
            "the coordinator speaks JSON lines only; negotiate binary "
            "framing directly with a serving node"
        )
    raise InvalidRequestError(
        f"unknown op {op!r} (known: predict, hello, ping, stats, "
        f"health, republish, shutdown)"
    )


def handle_cluster_line(
    coordinator: ClusterCoordinator, line: str
) -> Tuple[bytes, bool]:
    """Answer one request line; returns (reply line, shutdown).

    The coordinator speaks the same JSON-per-line protocol as a node —
    clients need no new library.  Predict lines (the default op) are
    relayed as bytes (:meth:`ClusterCoordinator.relay_predict`); the
    management ops are answered fleet-wide.  Failures become typed error
    envelopes.
    """
    request_id = None
    try:
        line = line.strip()
        request = json.loads(line)
        if not isinstance(request, dict):
            raise InvalidRequestError("each request line must be a JSON object")
        request_id = request.get("id")
        if request.get("op", "predict") == "predict":
            raw = (line + "\n").encode("utf-8")
            return coordinator.relay_predict(request, raw), False
        response, shutdown = _answer_fleet_op(coordinator, request)
    except Exception as error:  # noqa: BLE001 - typed on the wire
        response = {
            "id": request_id,
            "ok": False,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
        shutdown = False
    return _encode_line(response), shutdown


class _CoordinatorHandler(socketserver.StreamRequestHandler):
    """One client connection: JSON lines in, routed responses out."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            self._serve()
        except (ConnectionError, socket.timeout):
            pass  # peer vanished; reap quietly, like the node frontend

    def _serve(self) -> None:
        server: "CoordinatorServer" = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            reply, shutdown = handle_cluster_line(server.coordinator, line)
            self.wfile.write(reply)
            self.wfile.flush()
            if shutdown:
                threading.Thread(target=server.shutdown, daemon=True).start()
                return


class CoordinatorServer(socketserver.ThreadingTCPServer):
    """Threaded TCP frontend multiplexing clients onto one coordinator."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _CoordinatorHandler)
        self.coordinator = coordinator

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — concrete even when 0 was asked."""
        return self.server_address[0], self.server_address[1]


def _encode_line(message: Dict[str, object]) -> bytes:
    return (json.dumps(message) + "\n").encode("utf-8")


def _splice_fingerprint(line: bytes, fingerprint: str) -> bytes:
    """Pin a request line to a fingerprint without re-encoding it.

    ``line`` is a JSON object, starting at its opening brace, with no
    ``fingerprint`` key and at least one other key (``blocks``), so the
    new key goes right after the brace.
    """
    head = b'{"fingerprint": ' + json.dumps(fingerprint).encode("utf-8") + b", "
    return head + line[1:]


def _embedded_error_type(error: BaseException) -> str:
    """Recover the node-side type name from a binary refusal message.

    :class:`~repro.serving.frontend.BinaryServingClient` folds the typed
    error frame into ``"server refused the request: <Type>: <message>"``;
    the type token is what failover classification keys on.
    """
    text = str(error)
    marker = "server refused the request: "
    if marker in text:
        token = text.split(marker, 1)[1].split(":", 1)[0].strip()
        if token.isidentifier():
            return token
    return type(error).__name__
