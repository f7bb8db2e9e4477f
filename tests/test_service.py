import gc
import socket
import socketserver
import threading
import warnings

import pytest

from epithresh.service import (
    OracleProtocolError,
    RemoteOracle,
    handle_request,
    remote_oracle,
    serve_oracle,
)
from epithresh.walker import WalkConfig, error_curve, local_oracle, random_walk_estimate

from conftest import random_connected_graph, star_graph


@pytest.fixture
def graph_with_degree_4_at_3():
    # node 3 has degree 4: neighbors 0, 1, 2, 4
    from epithresh.graph import build_graph

    return build_graph([(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)], 5)


class TestProtocol:
    def test_node_count(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "N") == "5"

    def test_degree(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "DEG 3") == "4"

    def test_neighbor(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "NBR 3 0") == "0"
        assert handle_request(graph_with_degree_4_at_3, "NBR 3 3") == "4"

    def test_neighbor_out_of_range(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "NBR 3 9") == "ERR out-of-range"
        assert handle_request(graph_with_degree_4_at_3, "DEG 99") == "ERR out-of-range"

    def test_malformed(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "DEG x").startswith("ERR")
        assert handle_request(graph_with_degree_4_at_3, "").startswith("ERR")
        assert handle_request(graph_with_degree_4_at_3, "PING 1") == "ERR unknown-command"


class _ScriptedServer(socketserver.ThreadingTCPServer):
    """A misbehaving oracle server: "N" gets ``n``, "DEG ..." gets ``degree``
    and "NBR ..." gets ``neighbor``."""

    daemon_threads = True

    def __init__(self, degree: str = "1", neighbor: str = "1", n: str = "4"):
        self.replies = {b"N": n.encode(), b"DEG": degree.encode(), b"NBR": neighbor.encode()}

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):
                for line in handler.rfile:
                    reply = self.replies.get(line.split()[0], b"ERR unknown")
                    handler.wfile.write(reply + b"\n")

        super().__init__(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.serve_forever, daemon=True).start()

    def __exit__(self, *exc):
        self.shutdown()
        super().__exit__(*exc)


class _CountingRemote(RemoteOracle):
    """A RemoteOracle that counts its degree and neighbor calls."""

    def __init__(self, address, timeout=10.0):
        self.calls = 0
        super().__init__(address, timeout)

    def degree(self, v):
        self.calls += 1
        return super().degree(v)

    def neighbor(self, v, k):
        self.calls += 1
        return super().neighbor(v, k)


class TestRemoteOracle:
    def test_walk_replay_equivalence(self):
        g = random_connected_graph(80, seed=4, extra_edges=50)
        cfg = WalkConfig(t_star=20, r=100, thin=3, seed=11)
        with serve_oracle(g) as server:
            with _CountingRemote(server.address) as remote:
                local_report = random_walk_estimate(local_oracle(g), cfg, trace=True)
                remote_report = random_walk_estimate(remote, cfg, trace=True)
        assert remote_report.nodes == local_report.nodes
        assert remote_report.estimate == local_report.estimate
        assert remote_report.total_queries == local_report.total_queries
        assert remote_report.distinct_nodes_seen == local_report.distinct_nodes_seen
        # the report counts every query the walk sent over the wire
        assert remote.calls == remote_report.total_queries

    def test_remote_counters(self):
        g = star_graph(6)
        with serve_oracle(g) as server:
            with remote_oracle(server.address) as remote:
                assert remote.node_count() == 6
                assert remote.degree(0) == 5
                assert remote.neighbor(0, 2) == 3

    def test_out_of_range_raises(self):
        g = star_graph(6)
        with serve_oracle(g) as server:
            with remote_oracle(server.address) as remote:
                with pytest.raises(OracleProtocolError, match="out-of-range"):
                    remote.neighbor(1, 5)

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(OSError):
            remote_oracle(("127.0.0.1", free_port), timeout=0.5)

    def test_concurrent_clients(self):
        g = random_connected_graph(40, seed=8, extra_edges=30)
        expected = random_walk_estimate(
            local_oracle(g), WalkConfig(t_star=5, r=60, thin=2, seed=0)
        ).estimate
        results = {}

        def run(worker: int):
            with remote_oracle(server.address) as remote:
                report = random_walk_estimate(
                    remote, WalkConfig(t_star=5, r=60, thin=2, seed=0)
                )
                results[worker] = report.estimate

        with serve_oracle(g) as server:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(value == expected for value in results.values())

    @pytest.mark.parametrize("reply", ["abc", "-3", "ERR boom"])
    def test_bad_node_count_reply_raises_and_closes(self, reply):
        with _ScriptedServer(n=reply) as server:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OracleProtocolError):
                    remote_oracle(server.server_address, timeout=5)
                gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("reply", ["-1", "-99999999999999999999"])
    def test_negative_degree_reply_raises(self, reply):
        with _ScriptedServer(degree=reply, neighbor="1") as server:
            with _CountingRemote(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="negative degree"):
                    remote.degree(0)
                with pytest.raises(OracleProtocolError, match="negative degree"):
                    random_walk_estimate(remote, WalkConfig(t_star=3, r=2))
                assert remote.calls == 2

    @pytest.mark.parametrize("reply", ["-1", "4", "10000000000000"])
    def test_out_of_range_neighbor_reply_raises(self, reply):
        with _ScriptedServer(degree="2", neighbor=reply) as server:
            with remote_oracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match=r"out of range \[0, 4\)"):
                    remote.neighbor(0, 1)
                with pytest.raises(OracleProtocolError, match="out of range"):
                    error_curve(remote, 2.0, 2.0, [1], [3], t_star=0)


class TestLineCap:
    """Neither side reads more than a bounded line; one connection at a time."""

    def test_overlong_request_gets_error_and_close(self):
        g = star_graph(6)
        with serve_oracle(g) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                try:
                    sock.sendall(b"N" * (1 << 20))  # 1 MiB, no newline
                except OSError:
                    pass  # the server may close before taking it all
                reply = b""
                try:
                    while chunk := sock.recv(4096):
                        reply += chunk
                except ConnectionResetError:
                    pass
            assert reply == b"ERR line-too-long\n"
            with remote_oracle(server.address) as remote:  # still serving
                assert remote.node_count() == 6

    def test_overlong_reply_raises(self):
        with _ScriptedServer(degree="1" * 1024, neighbor="1") as server:
            with remote_oracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="exceeds 128 bytes"):
                    remote.degree(0)
