"""The serving workloads: ``serve-bulk`` and ``serve-json-cluster``.

Both run the real ``python -m repro serve`` processes over a registry of
two ground-truth-dual artifacts (SKL-like and Zen-like, ISA size 64, both
drawn from the seed), so set-up needs no characterization.  Every served
block is checked bitwise against the offline scalar ``PalmedPredictor``.
The client and the servers run on one CPU (see ``common.one_cpu``).

``serve-bulk`` is the batch client (a compiler pass): one thread drives
two binary-wire connections, one per machine, in a closed loop, each
message carrying 256 blocks from a seeded pool of distinct blocks.

``serve-json-cluster`` is interactive traffic: ``serve --cluster`` over
two ``serve --node`` processes, one machine placed on each node, and one
thread sending JSON lines on two connections, each message holding four
blocks drawn with skewed reuse from a hot corpus.  Its gated numbers come
from a closed loop; its traced run adds the coordinator-hop comparison and
an open loop on a fixed ladder of offered rates judged against a p99 SLO.
The open loop is not gated: with the CPU idle between messages its
latencies follow the host's vCPU wake-up delay, which swung its p50 3x
between runs minutes apart.
"""

from __future__ import annotations

import json
import random
import select
import socket
import struct
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import common
from common import (
    ROOT,
    SETUP_REPEATS,
    Fleet,
    client_gc_paused,
    median,
    one_cpu,
    percentile,
    tail_percentile,
)

sys.path.insert(0, str(ROOT / "benchmarks"))
from serving_workload import identical, serving_artifact  # noqa: E402

sys.path.remove(str(ROOT / "benchmarks"))

from repro import (  # noqa: E402
    Microkernel,
    build_skylake_like_machine,
    build_small_isa,
    build_zen_like_machine,
)
from repro.artifacts import ArtifactRegistry  # noqa: E402
from repro.cluster.shard import ShardMap  # noqa: E402
from repro.predictors import PalmedPredictor  # noqa: E402
from repro.predictors.base import Prediction  # noqa: E402
from repro.serving.frontend import ServingClient  # noqa: E402

#: ISA size of the two served machines.
ISA_SIZE = 64
#: Distinct instructions per block.
BLOCK_DISTINCT = (24, 48)
#: Multiplicities a block's instructions are drawn from.
MULTIPLICITIES = (0.5, 1.0, 2.0, 3.0)

#: serve-bulk: blocks per message and distinct blocks per machine.
BULK_GROUP = 256
BULK_POOL = 4096
#: serve-bulk: untimed rounds before the window.
BULK_WARMUP_ROUNDS = 10

#: serve-json-cluster: the offered message rates (both connections
#: together, each held for an equal share of the run), the rate the
#: end-to-end latency is reported at, the p99 limit (SLO) and the blocks
#: per message, from ``metrics.json``.
_SLO = json.loads(Path(__file__).with_name("metrics.json").read_text())["slo"]
LADDER = tuple(_SLO["ladder_msgs_per_s"])
NOMINAL_RATE = _SLO["nominal_msgs_per_s"]
SLO_P99_MS = _SLO["p99_ms"]
JSON_GROUP = _SLO["blocks_per_msg"]
#: serve-json-cluster: hot-corpus size per machine and the Zipf exponent
#: of block reuse.
JSON_CORPUS = 2000
JSON_ZIPF = 1.1
#: A step has a growing backlog when, at its end, more than this many
#: seconds of its offered messages are still unanswered.
BACKLOG_S = 0.05
#: serve-json-cluster: closed-loop messages per path in the hop comparison.
HOP_MESSAGES = 300

#: Binary wire constants (see ``repro.serving.frontend``).
_REQUEST_MAGIC = 0x51_4C_41_50
_RESPONSE_MAGIC = 0x52_4C_41_50
_HEADER = struct.Struct("<IIII")


def _fresh_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=common.work_dir()))


def _connect(port: int) -> socket.socket:
    """A client socket; Nagle is off so pipelined messages are not held back."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def build_registry(seed: int, directory: Path):
    """Save the two ground-truth-dual artifacts; returns them in machine order."""
    isa = build_small_isa(ISA_SIZE, seed=seed)
    machines = [build_skylake_like_machine(isa=isa), build_zen_like_machine(isa=isa)]
    registry = ArtifactRegistry(directory)
    artifacts = [serving_artifact(machine) for machine in machines]
    for artifact in artifacts:
        registry.save(artifact)
    return artifacts


def generate_blocks(artifact, count: int, rng: random.Random) -> List[Dict[str, float]]:
    """``count`` blocks over the artifact's instructions, names in sorted order."""
    names = sorted(instruction.name for instruction in artifact.mapping.instructions)
    blocks = []
    for _ in range(count):
        distinct = rng.randint(*BLOCK_DISTINCT)
        chosen = sorted(rng.sample(range(len(names)), min(distinct, len(names))))
        blocks.append({names[index]: rng.choice(MULTIPLICITIES) for index in chosen})
    return blocks


def offline_kernels(artifact, blocks) -> List[Microkernel]:
    table = {instruction.name: instruction for instruction in artifact.mapping.instructions}
    return [Microkernel({table[name]: count for name, count in block.items()}) for block in blocks]


def offline_predictions(artifact, kernels) -> List[Prediction]:
    """The offline scalar predictor's answer for every kernel."""
    predictor = PalmedPredictor(artifact.mapping)
    return [predictor.predict(kernel) for kernel in kernels]


def _first_good_response(port: int, machine: str, block: Dict[str, float]) -> None:
    with ServingClient("127.0.0.1", port, timeout=60.0) as client:
        response = client.predict_blocks([block], machine=machine)
    if not response.get("ok"):
        raise RuntimeError(f"first response refused: {response}")


def _stats(port: int) -> dict:
    """The ``stats`` response of a node (``stats``) or coordinator (``fleet``)."""
    with ServingClient("127.0.0.1", port, timeout=60.0) as client:
        response = client.stats()
    if not response.get("ok"):
        raise RuntimeError(f"stats refused: {response}")
    return response


def serving_layers(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer serving metrics from two ``stats`` snapshots."""

    def delta(key: str) -> float:
        return float(after[key]) - float(before[key])

    completed = delta("requests_completed")
    flushes = delta("batches_flushed")
    lowering = delta("lowering_cache_hits") + delta("lowering_cache_misses")
    mapping = delta("mapping_cache_hits") + delta("mapping_cache_misses")
    return {
        "service.latency_ms": 1e3 * delta("latency_total_s") / completed if completed else 0.0,
        "batcher.flushes": flushes,
        "batcher.occupancy_mean": delta("batch_occupancy_total") / flushes if flushes else 0.0,
        "batcher.build_ms": delta("flush_build_ms_total") / flushes if flushes else 0.0,
        "batcher.predict_ms": delta("flush_predict_ms_total") / flushes if flushes else 0.0,
        "batcher.resolve_ms": delta("flush_resolve_ms_total") / flushes if flushes else 0.0,
        "batcher.pending_peak": float(after["pending_peak"]),
        "cache.lowering_hit_ratio": delta("lowering_cache_hits") / lowering if lowering else 0.0,
        "cache.mapping_hit_ratio": delta("mapping_cache_hits") / mapping if mapping else 0.0,
    }


# -- serve-bulk ---------------------------------------------------------------
class BinaryConnection:
    """A binary-wire connection pinned to one machine, with pre-encoded blocks.

    The frame layout is the one ``repro.serving.frontend`` documents.  Each
    pool block is encoded once; a message is a concatenation of pool
    slabs, so the client spends microseconds, not milliseconds, per frame.
    """

    def __init__(self, port: int, artifact, blocks, kernels, predictions) -> None:
        self.sock = _connect(port)
        self.reader = self.sock.makefile("rb")
        hello = {"op": "hello", "format": "binary", "machine": artifact.machine_name}
        self.sock.sendall((json.dumps(hello) + "\n").encode("utf-8"))
        response = json.loads(self.reader.readline())
        if not response.get("ok"):
            raise RuntimeError(f"binary hello refused: {response}")
        dense = {name: index for index, name in enumerate(response["instructions"])}
        self.ids = [np.array([dense[name] for name in block], dtype="<u4") for block in blocks]
        self.counts = [np.array(list(block.values()), dtype="<f8") for block in blocks]
        # The offline kernel's own size, so the wire carries exactly its bits.
        self.sizes = np.array([kernel.size for kernel in kernels], dtype="<f8")
        self.lengths = np.array([len(block) for block in blocks], dtype="<u4")
        self.ref_ipc = np.array(
            [np.nan if p.ipc is None else p.ipc for p in predictions], dtype="<f8"
        )
        self.ref_fraction = np.array([p.supported_fraction for p in predictions], dtype="<f8")

    def frame(self, indices: np.ndarray, request_id: int) -> bytes:
        ids = np.concatenate([self.ids[i] for i in indices])
        payload = b"".join(
            (
                _HEADER.pack(_REQUEST_MAGIC, request_id, len(indices), ids.size),
                self.sizes[indices].tobytes(),
                np.concatenate([self.counts[i] for i in indices]).tobytes(),
                self.lengths[indices].tobytes(),
                ids.tobytes(),
            )
        )
        return struct.pack("<I", len(payload)) + payload

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def receive(self, indices: np.ndarray, request_id: int) -> Optional[str]:
        """Read one response; returns a failure reason, or ``None`` if correct."""
        head = self.reader.read(4)
        if len(head) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack("<I", head)
        payload = self.reader.read(length)
        if len(payload) < length:
            raise ConnectionError("server closed mid-frame")
        magic, answered_id, status, count = _HEADER.unpack_from(payload, 0)
        if magic != _RESPONSE_MAGIC or answered_id != request_id:
            return f"bad response header {magic:#x}/{answered_id}"
        if status != 0:
            return f"refused: {payload[16:].decode('utf-8', 'replace')}"
        if count != len(indices):
            return f"{count} predictions for {len(indices)} blocks"
        return check_arrays(
            np.frombuffer(payload, "<f8", count, 16),
            np.frombuffer(payload, "<f8", count, 16 + 8 * count),
            self.ref_ipc[indices],
            self.ref_fraction[indices],
        )

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()


def check_arrays(ipc, fraction, ref_ipc, ref_fraction) -> Optional[str]:
    """Vectorized :func:`serving_workload.identical` over a whole message.

    A NaN IPC is the wire's ``None``; every other value must match the
    offline prediction bit for bit.
    """
    same_ipc = (ipc.view("<u8") == ref_ipc.view("<u8")) | (np.isnan(ipc) & np.isnan(ref_ipc))
    same_fraction = fraction.view("<u8") == ref_fraction.view("<u8")
    wrong = int(np.count_nonzero(~(same_ipc & same_fraction)))
    return f"{wrong} block(s) differ from the offline predictor" if wrong else None


def _spawn_standalone(fleet: Fleet, registry: Path, artifact, block, telemetry=None):
    args = ["serve", "--artifacts", str(registry), "--port", "0"]
    if telemetry is not None:
        args += ["--telemetry", str(telemetry)]
    start = time.perf_counter()
    child = fleet.spawn(args, registry.parent / f"serve-{len(fleet.children)}.log")
    port = child.wait_listening()
    _first_good_response(port, artifact.machine_name, block)
    return child, port, time.perf_counter() - start


def _bulk_window(connections, rng, seconds, outcome):
    """Closed-loop messages over both connections for ``seconds`` (at least one each).

    One message is in flight at a time, alternating machines: each reply
    times one message's service, not two lanes contending for the GIL.
    """
    with client_gc_paused():
        return _bulk_loop(connections, rng, seconds, outcome)


def _bulk_loop(connections, rng, seconds, outcome):
    latencies: List[float] = []
    blocks = 0
    request_id = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for connection in connections:
            request_id += 1
            indices = np.array(rng.sample(range(BULK_POOL), BULK_GROUP), dtype=np.intp)
            frame = connection.frame(indices, request_id)
            sent = time.perf_counter()
            connection.send(frame)
            reason = connection.receive(indices, request_id)
            latencies.append(time.perf_counter() - sent)
            blocks += len(indices)
            if reason is None:
                outcome.ok()
            else:
                outcome.fail(reason)
    return latencies, blocks, time.perf_counter() - start


def run_bulk(seed: int, seconds: float, trace: bool, outcome):
    # One message is in flight at a time, so the client and the server
    # never run concurrently, and the serve process's lanes are threads
    # under one interpreter lock: one CPU loses no parallelism.
    with one_cpu():
        return _run_bulk(seed, seconds, trace, outcome)


def _run_bulk(seed: int, seconds: float, trace: bool, outcome):
    work = _fresh_dir("bulk-")
    fleet = Fleet()
    connections: List[BinaryConnection] = []
    try:
        artifacts = build_registry(seed, work / "registry")
        rng = random.Random(seed)
        probe = generate_blocks(artifacts[0], 1, rng)[0]
        setup = []
        for repeat in range(SETUP_REPEATS):
            child, port, elapsed = _spawn_standalone(fleet, work / "registry", artifacts[0], probe)
            setup.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                child.stop()
                fleet.children.remove(child)
        pools = [generate_blocks(artifact, BULK_POOL, rng) for artifact in artifacts]
        kernels = [offline_kernels(a, pool) for a, pool in zip(artifacts, pools)]
        references = [offline_predictions(a, k) for a, k in zip(artifacts, kernels)]

        def connect(port):
            return [
                BinaryConnection(port, a, p, k, r)
                for a, p, k, r in zip(artifacts, pools, kernels, references)
            ]

        connections = connect(port)
        for _ in range(BULK_WARMUP_ROUNDS):
            _bulk_window(connections, rng, 0.0, outcome)
        window = seconds / 2 if trace else seconds
        latencies, blocks, elapsed = _bulk_window(connections, rng, window, outcome)
        record = {
            "setup_s": setup,
            "message_latency_s": latencies,
            "blocks": blocks,
            "elapsed_s": elapsed,
        }
        if not trace:
            metrics = {
                "setup_s": median(setup),
                "peak_rss_mb": fleet.peak_rss_mb(),
                "wait_p50_ms": 1e3 * median(latencies),
                "answers_per_s": blocks / elapsed,
            }
            return metrics, record

        # The traced half: the same closed loop against a server recording
        # into a telemetry warehouse; its stats deltas give the layers.
        for connection in connections:
            connection.close()
        connections = []
        untraced_rate = blocks / elapsed
        untraced_p99_ms = 1e3 * percentile(latencies, tail_percentile(len(latencies)))
        child, port, _ = _spawn_standalone(
            fleet, work / "registry", artifacts[0], probe, telemetry=work / "serve.sqlite"
        )
        connections = connect(port)
        for _ in range(BULK_WARMUP_ROUNDS):
            _bulk_window(connections, rng, 0.0, outcome)
        before = _stats(port)["stats"]
        latencies, blocks, elapsed = _bulk_window(connections, rng, window, outcome)
        after = _stats(port)["stats"]
        layers = serving_layers(before, after)
        client_p50_ms = 1e3 * median(latencies)
        service_total_s = layers["service.latency_ms"] / 1e3 * len(latencies)
        layers.update(
            {
                "frontend.residual_ms": client_p50_ms - layers["service.latency_ms"],
                "unexplained_pct": 100.0 * (1.0 - service_total_s / sum(latencies)),
                "telemetry.overhead_pct": 100.0 * (untraced_rate / (blocks / elapsed) - 1.0),
                "client.p99_ms": untraced_p99_ms,
                # A closed loop sends when the previous reply arrives: never late.
                "client.late_p99_ms": 0.0,
                "client.samples": float(len(latencies)),
            }
        )
        record["traced"] = {"message_latency_s": latencies, "blocks": blocks, "elapsed_s": elapsed}
        return layers, record
    finally:
        for connection in connections:
            connection.close()
        fleet.stop()


# -- serve-json-cluster -------------------------------------------------------
def split_node_ids(fingerprints: Sequence[str]) -> Tuple[str, str]:
    """Two node ids whose rendezvous placement puts one machine on each."""
    names = [f"n{index}" for index in range(16)]
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            shard = ShardMap([first, second], replicas=1)
            if len({shard.primary(fp) for fp in fingerprints}) == len(fingerprints):
                return first, second
    raise RuntimeError("no node-id pair splits the machines")


class Cluster:
    """Two ``serve --node`` processes behind one ``serve --cluster``."""

    def __init__(self, fleet: Fleet, work: Path, artifacts, node_ids, telemetry=False) -> None:
        run = _fresh_dir("fleet-")
        traced = ["--telemetry", str(run / "telemetry.sqlite")] if telemetry else []
        nodes = []
        for node_id in node_ids:
            args = [
                "serve", "--node", "--node-id", node_id,
                "--sync-from", str(work / "registry"),
                "--artifacts", str(run / f"replica-{node_id}"),
                "--port", "0",
            ]
            nodes.append(fleet.spawn(args + traced, run / f"{node_id}.log"))
        self.node_ports = {node_id: child.wait_listening() for node_id, child in zip(node_ids, nodes)}
        table = ",".join(f"{node_id}=127.0.0.1:{port}" for node_id, port in self.node_ports.items())
        args = ["serve", "--cluster", "--nodes", table, "--replicas", "1", "--port", "0"] + traced
        self.port = fleet.spawn(args, run / "coordinator.log").wait_listening()
        shard = ShardMap(list(node_ids), replicas=1)
        self.home = {a.machine_name: shard.primary(a.machine_fingerprint) for a in artifacts}


def build_corpus(artifacts, rng):
    """Per machine: the hot-corpus blocks and their offline predictions."""
    corpora = []
    for artifact in artifacts:
        blocks = generate_blocks(artifact, JSON_CORPUS, rng)
        predictions = offline_predictions(artifact, offline_kernels(artifact, blocks))
        corpora.append((blocks, predictions))
    return corpora


def zipf_sampler(rng: random.Random, size: int):
    weights = [1.0 / (rank + 1) ** JSON_ZIPF for rank in range(size)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    # A seeded shuffle decides which blocks are hot.
    order = list(range(size))
    rng.shuffle(order)

    def draw(count: int) -> List[int]:
        return [order[index] for index in rng.choices(range(size), cum_weights=cumulative, k=count)]

    return draw


def build_schedule(artifacts, corpora, draws, rng, step_seconds: float):
    """The open-loop arrival schedule: (due_s, connection, request_id, indices, line, rate)."""
    schedule = []
    offset = 0.0
    request_id = 0
    for rate in LADDER:
        due = offset + rng.expovariate(rate)
        while due < offset + step_seconds:
            connection = rng.randrange(len(artifacts))
            indices = draws[connection](JSON_GROUP)
            request_id += 1
            line = json_line(artifacts[connection], corpora[connection][0], indices, request_id)
            schedule.append((due, connection, request_id, indices, line, rate))
            due += rng.expovariate(rate)
        offset += step_seconds
    return schedule


def drive_open_loop(port: int, schedule, connections: int = 2, drain_s: float = 15.0):
    """Send every scheduled line at its due time on one thread.

    Returns per message ``(sent_s, received_s, raw_line)`` relative to the
    schedule's origin; ``received_s`` is ``None`` for a message never
    answered.
    """
    with client_gc_paused():
        return _open_loop(port, schedule, connections, drain_s)


def _open_loop(port, schedule, connections, drain_s):
    sockets = [_connect(port) for _ in range(connections)]
    for sock in sockets:
        sock.setblocking(False)
    buffers = [b"" for _ in sockets]
    waiting: List[List[int]] = [[] for _ in sockets]
    sent = [0.0] * len(schedule)
    received: List[Optional[float]] = [None] * len(schedule)
    lines: List[Optional[bytes]] = [None] * len(schedule)
    outstanding = 0
    origin = time.perf_counter() + 0.05
    position = 0
    deadline = None
    try:
        while position < len(schedule) or outstanding:
            now = time.perf_counter() - origin
            while position < len(schedule) and schedule[position][0] <= now:
                _, connection, _, _, line, _ = schedule[position]
                sockets[connection].setblocking(True)
                sockets[connection].sendall(line)
                sockets[connection].setblocking(False)
                sent[position] = time.perf_counter() - origin
                waiting[connection].append(position)
                outstanding += 1
                position += 1
            if position < len(schedule):
                timeout = max(0.0, schedule[position][0] - (time.perf_counter() - origin))
            else:
                if deadline is None:
                    deadline = time.perf_counter() + drain_s
                timeout = deadline - time.perf_counter()
                if timeout <= 0:
                    break
            readable, _, _ = select.select(sockets, [], [], timeout)
            for sock in readable:
                connection = sockets.index(sock)
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("coordinator closed a connection")
                stamp = time.perf_counter() - origin
                buffers[connection] += chunk
                while b"\n" in buffers[connection]:
                    line, buffers[connection] = buffers[connection].split(b"\n", 1)
                    index = waiting[connection].pop(0)
                    received[index] = stamp
                    lines[index] = line
                    outstanding -= 1
    finally:
        for sock in sockets:
            sock.close()
    return sent, received, lines


def check_json_response(line: Optional[bytes], connection, request_id, indices, corpora) -> Optional[str]:
    """Compare one JSON response with the offline scalar predictions."""
    if line is None:
        return "never answered"
    response = json.loads(line)
    if not response.get("ok") or response.get("id") != request_id:
        return f"refused or mismatched: {str(response)[:200]}"
    predictions = response.get("predictions", [])
    if len(predictions) != len(indices):
        return f"{len(predictions)} predictions for {len(indices)} blocks"
    _, references = corpora[connection]
    for served, index in zip(predictions, indices):
        answer = Prediction(ipc=served["ipc"], supported_fraction=served["supported_fraction"])
        if not identical(answer, references[index]):
            return "a block differs from the offline predictor"
    return None


def json_line(artifact, blocks, indices, request_id: int) -> bytes:
    payload = {
        "id": request_id,
        "machine": artifact.machine_name,
        "blocks": [blocks[index] for index in indices],
    }
    return json.dumps(payload).encode("utf-8") + b"\n"


def json_closed_loop(port: int, artifacts, corpora, draws, seconds: float, outcome):
    """Closed loop on two JSON connections, one per machine, alternating.

    One message is in flight at a time, so the CPUs never idle between
    messages; every reply is checked after the window.
    """
    sockets = [_connect(port) for _ in artifacts]
    readers = [sock.makefile("rb") for sock in sockets]
    latencies: List[float] = []
    sent_messages = []
    request_id = 0
    try:
        with client_gc_paused():
            start = time.perf_counter()
            while not latencies or time.perf_counter() - start < seconds:
                for connection, artifact in enumerate(artifacts):
                    request_id += 1
                    indices = draws[connection](JSON_GROUP)
                    line = json_line(artifact, corpora[connection][0], indices, request_id)
                    sent = time.perf_counter()
                    sockets[connection].sendall(line)
                    reply = readers[connection].readline()
                    latencies.append(time.perf_counter() - sent)
                    sent_messages.append((reply or None, connection, request_id, indices))
            elapsed = time.perf_counter() - start
    finally:
        for reader, sock in zip(readers, sockets):
            reader.close()
            sock.close()
    for reply, connection, rid, indices in sent_messages:
        reason = check_json_response(reply, connection, rid, indices, corpora)
        if reason is None:
            outcome.ok()
        else:
            outcome.fail(reason)
    return latencies, JSON_GROUP * len(latencies), elapsed


def ladder_report(schedule, sent, received, lines, corpora, outcome, step_seconds):
    """Per-step latency, lateness and backlog, plus correctness of every reply."""
    steps = {rate: {"latency": [], "late": [], "failed": 0, "backlog": 0} for rate in LADDER}
    for index, entry in enumerate(schedule):
        rate = entry[5]
        step = steps[rate]
        _, connection, request_id, indices, _, _ = entry
        reason = check_json_response(lines[index], connection, request_id, indices, corpora)
        if reason is None:
            outcome.ok()
            step["latency"].append(received[index] - entry[0])
        else:
            outcome.fail(reason)
            step["failed"] += 1
        step["late"].append(sent[index] - entry[0])
        step_end = (LADDER.index(rate) + 1) * step_seconds
        if received[index] is None or received[index] > step_end:
            step["backlog"] += 1
    report = {}
    for rate, step in steps.items():
        latency = step["latency"]
        count = len(latency)
        growing = count == 0 or step["backlog"] > BACKLOG_S * rate
        p_tail = tail_percentile(count)
        report[rate] = {
            "samples": count,
            "failed": step["failed"],
            "p50_ms": 1e3 * median(latency) if latency else float("inf"),
            "tail_percentile": p_tail,
            "tail_ms": 1e3 * percentile(latency, p_tail) if latency else float("inf"),
            "late_tail_ms": 1e3 * percentile(step["late"], tail_percentile(len(step["late"]))),
            "backlog_at_end": step["backlog"],
            "growing_backlog": growing,
            "latency_s": latency,
        }
    meeting = [
        rate
        for rate, step in report.items()
        if step["failed"] == 0 and not step["growing_backlog"] and step["tail_ms"] <= SLO_P99_MS
    ]
    return report, (max(meeting) if meeting else None)


def _hop_p50(port: int, machine: str, blocks, rng) -> float:
    """Median closed-loop message latency on one JSON connection."""
    samples = []
    with ServingClient("127.0.0.1", port, timeout=60.0) as client:
        for request_id in range(HOP_MESSAGES):
            message = [blocks[rng.randrange(len(blocks))] for _ in range(JSON_GROUP)]
            start = time.perf_counter()
            response = client.predict_blocks(message, machine=machine, request_id=request_id)
            samples.append(time.perf_counter() - start)
            if not response.get("ok"):
                raise RuntimeError(f"hop phase refused: {response}")
    return median(samples)


def run_cluster(seed: int, seconds: float, trace: bool, outcome):
    # Every message crosses four process hand-offs; on one CPU each is a
    # context switch, not a wait for the hypervisor (see common.one_cpu).
    with one_cpu():
        return _run_cluster(seed, seconds, trace, outcome)


def _run_cluster(seed: int, seconds: float, trace: bool, outcome):
    work = _fresh_dir("cluster-")
    fleet = Fleet()
    try:
        artifacts = build_registry(seed, work / "registry")
        node_ids = split_node_ids([a.machine_fingerprint for a in artifacts])
        machine = artifacts[0].machine_name
        rng = random.Random(seed)
        probe = generate_blocks(artifacts[0], 1, rng)[0]
        setup = []
        for _ in range(SETUP_REPEATS):
            fleet.stop()
            start = time.perf_counter()
            cluster = Cluster(fleet, work, artifacts, node_ids)
            _first_good_response(cluster.port, machine, probe)
            setup.append(time.perf_counter() - start)
        corpora = build_corpus(artifacts, rng)
        draws = [zipf_sampler(rng, len(blocks)) for blocks, _ in corpora]
        window = seconds / 4 if trace else seconds
        before = _stats(cluster.port)
        latencies, blocks, elapsed = json_closed_loop(
            cluster.port, artifacts, corpora, draws, window, outcome
        )
        after = _stats(cluster.port)
        record = {
            "setup_s": setup,
            "node_ids": list(node_ids),
            "message_latency_s": latencies,
            "blocks": blocks,
            "elapsed_s": elapsed,
        }
        if not trace:
            metrics = {
                "setup_s": median(setup),
                "peak_rss_mb": fleet.peak_rss_mb(),
                "wait_p50_ms": 1e3 * median(latencies),
                "answers_per_s": blocks / elapsed,
            }
            return metrics, record

        layers = serving_layers(before["fleet"], after["fleet"])
        client_p50_ms = 1e3 * median(latencies)
        direct = _hop_p50(cluster.node_ports[cluster.home[machine]], machine, corpora[0][0], rng)
        routed = _hop_p50(cluster.port, machine, corpora[0][0], rng)
        hop_ms = 1e3 * (routed - direct)
        covered_s = (layers["service.latency_ms"] + hop_ms) / 1e3 * len(latencies)

        # The open-loop ladder: interactive users arriving on their own
        # schedule, judged against the SLO.
        step_seconds = seconds / 2 / len(LADDER)
        schedule = build_schedule(artifacts, corpora, draws, rng, step_seconds)
        sent, received, lines = drive_open_loop(cluster.port, schedule)
        report, slo_rate = ladder_report(
            schedule, sent, received, lines, corpora, outcome, step_seconds
        )
        end = _stats(cluster.port)
        layers.update(
            {
                "frontend.residual_ms": client_p50_ms - layers["service.latency_ms"],
                "cluster.hop_ms": hop_ms,
                "cluster.retries": float(end["cluster"]["retries"] - before["cluster"]["retries"]),
                "cluster.failovers": float(
                    end["cluster"]["failovers"] - before["cluster"]["failovers"]
                ),
                "cluster.slo_rate": float(slo_rate or 0.0),
                "cluster.ladder_p99_ms": report[NOMINAL_RATE]["tail_ms"],
                "client.p99_ms": 1e3 * percentile(latencies, tail_percentile(len(latencies))),
                "client.late_p99_ms": report[NOMINAL_RATE]["late_tail_ms"],
                "client.samples": float(len(latencies)),
                "unexplained_pct": 100.0 * (1.0 - covered_s / sum(latencies)),
            }
        )
        record.update(
            {
                "slo_p99_ms": SLO_P99_MS,
                "slo_rate": slo_rate,
                "ladder": {str(rate): step for rate, step in report.items()},
            }
        )

        # The closed loop again, against a fleet recording into a warehouse.
        fleet.stop()
        traced = Cluster(fleet, work, artifacts, node_ids, telemetry=True)
        _first_good_response(traced.port, machine, probe)
        traced_latencies, _, _ = json_closed_loop(
            traced.port, artifacts, corpora, draws, window, outcome
        )
        layers["telemetry.overhead_pct"] = 100.0 * (
            1e3 * median(traced_latencies) / client_p50_ms - 1.0
        )
        record["traced_message_latency_s"] = traced_latencies
        return layers, record
    finally:
        fleet.stop()
