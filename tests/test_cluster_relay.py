"""The coordinator's JSON predict relay: bytes in, bytes out.

On the JSON node wire a :class:`~repro.cluster.CoordinatorServer`
forwards the client's predict line to the chosen node as received —
with the resolved ``fingerprint`` spliced in once the coordinator has
learned it from an earlier reply — and hands the node's reply line back
to the client verbatim.  These tests pin that down against a scripted
fake node (which records every line it receives and answers with
deliberately non-canonical JSON that a re-encode would change) and
against a real node.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

import pytest

from repro.artifacts import ArtifactRegistry
from repro.cluster import (
    ClusterCoordinator,
    ClusterNode,
    CoordinatorServer,
    NodeSpec,
    RetryPolicy,
    handle_cluster_line,
)
from repro.serving import ServingClient

from test_serving import make_artifact

FINGERPRINT = "ab" * 32


def canned_reply(request: dict) -> bytes:
    """A valid envelope spelled the way ``json.dumps`` never would."""
    return (
        '{ "ok":true,"id" : %s,"machine":"fake","fingerprint":"%s",'
        '"predictions":[{"ipc":1.50,"supported_fraction":1E0}]}\n'
        % (json.dumps(request.get("id")), FINGERPRINT)
    ).encode("utf-8")


class _FakeNodeHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for raw in self.rfile:
            self.server.received.append(raw)
            self.wfile.write(canned_reply(json.loads(raw)))


@pytest.fixture()
def fake_node():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _FakeNodeHandler)
    server.daemon_threads = True
    server.received = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def serve(coordinator: ClusterCoordinator):
    """Start a CoordinatorServer; returns (server, (host, port))."""
    server = CoordinatorServer(coordinator, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, server.address


def exchange(address, line: bytes) -> bytes:
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(line)
        return sock.makefile("rb").readline()


class TestRelay:
    def test_client_receives_the_node_reply_bytes(self, fake_node):
        host, port = fake_node.server_address
        coordinator = ClusterCoordinator([NodeSpec("n0", host, port)], replicas=1)
        server, address = serve(coordinator)
        try:
            line = b'{"id": 7, "machine": "fake", "blocks": [{"A": 1.0}]}\n'
            reply = exchange(address, line)
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()
        assert reply == canned_reply({"id": 7})
        # The first request carried no fingerprint and none was known yet:
        # the node received the client's line as sent.
        assert fake_node.received == [line]

    def test_machine_request_is_pinned_once_the_fingerprint_is_known(
        self, fake_node
    ):
        host, port = fake_node.server_address
        coordinator = ClusterCoordinator([NodeSpec("n0", host, port)], replicas=1)
        server, address = serve(coordinator)
        requests = [
            {"id": 1, "machine": "fake", "blocks": [{"A": 1.0}]},
            {"id": 2, "machine": "fake", "blocks": [{"B": 2.0}], "x": [1]},
            {"id": 3, "fingerprint": "cd" * 32, "blocks": [{"C": 3.0}]},
            {"id": 4, "machine": "fake", "fingerprint": None, "blocks": [{"D": 1}]},
        ]
        try:
            replies = [
                exchange(address, (json.dumps(request) + "\n").encode())
                for request in requests
            ]
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()
        assert replies == [canned_reply(request) for request in requests]
        received = [json.loads(raw) for raw in fake_node.received]
        assert received[0] == requests[0]
        # Learned from the first reply and spliced in, nothing else touched.
        assert received[1] == {**requests[1], "fingerprint": FINGERPRINT}
        assert fake_node.received[1].endswith(
            json.dumps(requests[1])[1:].encode() + b"\n"
        )
        # An explicit fingerprint key, even a null one, is never replaced.
        assert received[2] == requests[2]
        assert received[3] == requests[3]

    def test_relayed_reply_equals_the_node_reply_bitwise(
        self, tmp_path, toy_machine
    ):
        source = tmp_path / "source"
        ArtifactRegistry(source).save(make_artifact(toy_machine))
        node = ClusterNode("n0", source, tmp_path / "replica").start()
        host, port = node.address
        coordinator = ClusterCoordinator([NodeSpec("n0", host, port)], replicas=1)
        server, address = serve(coordinator)
        names = [ins.name for ins in toy_machine.benchmarkable_instructions()]
        try:
            for index in range(3):
                line = (
                    json.dumps(
                        {
                            "id": index,
                            "machine": toy_machine.name,
                            "blocks": [{names[index]: 2.0, "UNKNOWN": 1.0}],
                        }
                    )
                    + "\n"
                ).encode()
                assert exchange(address, line) == exchange(node.address, line)
            with ServingClient(*address) as client:
                assert client.request({"op": "ping"})["role"] == "coordinator"
                refused = client.request(
                    {"id": 9, "machine": toy_machine.name, "blocks": [{"": 1.0}]}
                )
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()
            node.stop()
        assert refused["id"] == 9
        assert refused["error"]["type"] == "InvalidRequestError"

    def test_in_process_lines_are_stripped_before_the_splice(self, fake_node):
        host, port = fake_node.server_address
        coordinator = ClusterCoordinator([NodeSpec("n0", host, port)], replicas=1)
        request = {"id": 5, "machine": "fake", "blocks": [{"A": 1.0}]}
        try:
            replies = [
                handle_cluster_line(coordinator, "  " + json.dumps(request) + " \n")
                for _ in range(2)
            ]
        finally:
            coordinator.close()
        assert replies == [(canned_reply(request), False)] * 2
        received = [json.loads(raw) for raw in fake_node.received]
        assert received == [request, {**request, "fingerprint": FINGERPRINT}]

    def test_malformed_lines_get_typed_envelopes(self, fake_node):
        host, port = fake_node.server_address
        coordinator = ClusterCoordinator(
            [NodeSpec("n0", host, port)],
            replicas=1,
            retry=RetryPolicy(attempts=1, timeout_s=5.0),
        )
        server, address = serve(coordinator)
        try:
            garbage = json.loads(exchange(address, b"not json\n"))
            no_blocks = json.loads(exchange(address, b'{"id": 3, "machine": "x"}\n'))
            no_target = json.loads(exchange(address, b'{"id": 4, "blocks": []}\n'))
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()
        assert garbage["error"]["type"] == "JSONDecodeError"
        assert no_blocks["id"] == 3
        assert no_blocks["error"]["type"] == "InvalidRequestError"
        assert no_target["error"]["type"] == "InvalidRequestError"
        assert fake_node.received == []


def test_line_sockets_disable_nagle(fake_node):
    """Small request/reply lines must not wait out a delayed ACK."""
    host, port = fake_node.server_address
    with ServingClient(host, port) as client:
        assert client._socket.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    coordinator = ClusterCoordinator([NodeSpec("n0", host, port)], replicas=1)
    try:
        conn = coordinator._checkout("n0")
        assert conn._socket.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        conn.close()
    finally:
        coordinator.close()
    from repro.cluster.coordinator import _CoordinatorHandler
    from repro.serving.frontend import _LineHandler

    assert _LineHandler.disable_nagle_algorithm
    assert _CoordinatorHandler.disable_nagle_algorithm
