import gc
import socket
import socketserver
import threading
import time
import warnings

import pytest

from epithresh import service
from epithresh.service import (
    STATS_FIELDS,
    OracleProtocolError,
    OracleServer,
    RemoteOracle,
    handle_request,
)
from epithresh.walker import LocalOracle, WalkConfig, error_curve, random_walk_estimate

from conftest import neighbors_of, random_connected_graph, star_graph


@pytest.fixture
def graph_with_degree_4_at_3():
    # node 3 has degree 4: neighbors 0, 1, 2, 4
    from epithresh.graph import build_graph

    return LocalOracle(build_graph([(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)], 5))


class TestProtocol:
    def test_node_count(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "N") == "5"

    def test_degree(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "DEG 3") == "4"

    def test_retired_neighbor_request_is_unknown(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "NBR 3 0") == "ERR unknown-command"

    def test_step(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "STEP 3 0") == "0 2"
        assert handle_request(graph_with_degree_4_at_3, "step 3 3") == "4 1"
        assert handle_request(graph_with_degree_4_at_3, "STEP 4 0") == "3 4"

    def test_neighbor_out_of_range(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "DEG 99") == "ERR out-of-range"
        assert handle_request(graph_with_degree_4_at_3, "STEP 3 4") == "ERR out-of-range"
        assert handle_request(graph_with_degree_4_at_3, "STEP 5 0") == "ERR out-of-range"

    def test_malformed(self, graph_with_degree_4_at_3):
        assert handle_request(graph_with_degree_4_at_3, "DEG x").startswith("ERR")
        assert handle_request(graph_with_degree_4_at_3, "").startswith("ERR")
        assert handle_request(graph_with_degree_4_at_3, "PING 1") == "ERR unknown-command"
        assert handle_request(graph_with_degree_4_at_3, "STEP 3") == "ERR unknown-command"
        assert handle_request(graph_with_degree_4_at_3, "STEP 3 x") == "ERR malformed-arguments"


def _reply(answer):
    """What the protocol should send for an oracle call: its answer, or
    "ERR out-of-range" if it raises IndexError."""
    try:
        return answer()
    except IndexError:
        return "ERR out-of-range"


class TestProtocolParity:
    """The server's replies are the LocalOracle's answers, and those are the
    graph's sorted adjacency."""

    @pytest.mark.parametrize(
        "edges, n",
        [
            ([(0, i) for i in range(1, 6)], 6),  # a star
            ([(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)], 5),  # node 3 has degree 4
            ([(0, 1), (1, 2)], 4),  # node 3 is isolated
        ],
    )
    def test_replies_are_the_oracles_answers(self, edges, n):
        from epithresh.graph import build_graph

        g = build_graph(edges, n)
        oracle = LocalOracle(g)
        expected = {}
        for v in range(-1, g.n + 1):
            inside = 0 <= v < g.n
            degree = int(g.degrees[v]) if inside else 0
            expected[f"DEG {v}"] = _reply(lambda: str(oracle.degree(v)))
            assert (expected[f"DEG {v}"] == "ERR out-of-range") == (not inside)
            for k in range(-1, degree + 2):
                u = _reply(lambda: oracle.neighbor(v, k))
                assert (u == "ERR out-of-range") == (not (inside and 0 <= k < degree))
                if u != "ERR out-of-range":
                    assert u == neighbors_of(g, v)[k]
                    expected[f"STEP {v} {k}"] = f"{u} {oracle.degree(u)}"
                else:
                    expected[f"STEP {v} {k}"] = u
                expected[f"NBR {v} {k}"] = "ERR unknown-command"
        for request, reply in expected.items():
            assert handle_request(oracle, request) == reply, request
        with OracleServer(g) as server, socket.create_connection(server.address) as sock:
            with sock.makefile("rwb") as wire:
                for request, reply in expected.items():
                    wire.write(f"{request}\n".encode())
                    wire.flush()
                    assert wire.readline().decode().rstrip("\n") == reply, request


class _ScriptedServer(socketserver.ThreadingTCPServer):
    """A misbehaving oracle server: "N" gets ``n``, "DEG ..." gets ``degree``
    and "STEP ..." gets ``step``; a command whose entry in ``replies`` is None
    is read and then answered by hanging up. ``requests`` lists the command of
    every request it read."""

    daemon_threads = True

    def __init__(self, degree: str = "1", step: str = "1 1", n: str = "4"):
        self.replies = {b"N": n.encode(), b"DEG": degree.encode(), b"STEP": step.encode()}
        self.requests = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):
                for line in handler.rfile:
                    cmd = line.split()[0]
                    self.requests.append(cmd.decode())
                    reply = self.replies.get(cmd, b"ERR unknown")
                    if reply is None:
                        return  # hang up without replying
                    handler.wfile.write(reply + b"\n")

        super().__init__(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.serve_forever, args=(service._POLL_S,), daemon=True).start()

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
        with OracleServer(g) as server:
            with _CountingRemote(server.address) as remote:
                local_report = random_walk_estimate(LocalOracle(g), cfg, trace=True)
                remote_report = random_walk_estimate(remote, cfg, trace=True)
                stats = remote.stats()
        assert remote_report.nodes == local_report.nodes
        assert remote_report.estimate == local_report.estimate
        assert remote_report.total_queries == local_report.total_queries
        assert remote_report.distinct_nodes_seen == local_report.distinct_nodes_seen
        assert remote_report == local_report
        # the report counts every logical query the walk made, two per step ...
        steps = remote_report.total_steps
        assert remote.calls == remote_report.total_queries == 2 * steps
        # ... and the wire carried the handshake, one DEG and one STEP per step
        wire = {cmd: stats[cmd] for cmd in ("N", "DEG", "STEP", "STATS")}
        assert wire == {"N": 1, "DEG": 1, "STEP": steps, "STATS": 0}
        assert (stats["errors"], stats["accepted"], stats["busy"]) == (0, 1, 0)

    def test_remote_counters(self):
        g = star_graph(6)
        with OracleServer(g) as server:
            with RemoteOracle(server.address) as remote:
                assert remote.node_count() == 6
                assert remote.degree(0) == 5
                assert remote.neighbor(0, 2) == 3

    def test_out_of_range_raises(self):
        g = star_graph(6)
        with OracleServer(g) as server:
            with RemoteOracle(server.address) as remote:
                with pytest.raises(OracleProtocolError, match="out-of-range"):
                    remote.neighbor(1, 5)

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(OSError):
            RemoteOracle(("127.0.0.1", free_port), timeout=0.5)

    def test_concurrent_clients(self):
        g = random_connected_graph(40, seed=8, extra_edges=30)
        expected = random_walk_estimate(
            LocalOracle(g), WalkConfig(t_star=5, r=60, thin=2, seed=0)
        ).estimate
        results = {}

        def run(worker: int):
            with RemoteOracle(server.address) as remote:
                report = random_walk_estimate(
                    remote, WalkConfig(t_star=5, r=60, thin=2, seed=0)
                )
                results[worker] = report.estimate

        with OracleServer(g) as server:
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
                    RemoteOracle(server.server_address, timeout=5)
                gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("reply", ["-1", "-99999999999999999999"])
    def test_negative_degree_reply_raises(self, reply):
        with _ScriptedServer(degree=reply) as server:
            with _CountingRemote(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="negative degree"):
                    remote.degree(0)
                with pytest.raises(OracleProtocolError, match="negative degree"):
                    random_walk_estimate(remote, WalkConfig(t_star=3, r=2))
                assert remote.calls == 2
        # the same degree, carried by a STEP reply
        with _ScriptedServer(degree="2", step=f"1 {reply}") as server:
            with _CountingRemote(server.server_address, timeout=5) as remote:
                message = f"negative degree reply {reply} for node 1"
                with pytest.raises(OracleProtocolError, match=message):
                    remote.neighbor(0, 1)
                with pytest.raises(OracleProtocolError, match="negative degree"):
                    random_walk_estimate(remote, WalkConfig(t_star=3, r=2))
                assert remote.calls == 3
            assert server.requests == ["N", "STEP", "DEG", "STEP"]

    @pytest.mark.parametrize("reply", ["-1", "4", "10000000000000"])
    def test_out_of_range_neighbor_reply_raises(self, reply):
        with _ScriptedServer(degree="2", step=f"{reply} 2") as server:
            with RemoteOracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match=r"out of range \[0, 4\)"):
                    remote.neighbor(0, 1)
                with pytest.raises(OracleProtocolError, match="out of range"):
                    error_curve(remote, 2.0, 2.0, [1], [3], t_star=0)

    @pytest.mark.parametrize("reply", ["1", "1 2 3", "1 x", "x 2", "1.0 2", ""])
    def test_malformed_step_reply_raises(self, reply):
        with _ScriptedServer(degree="2", step=reply) as server:
            with RemoteOracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="malformed STEP reply"):
                    remote.neighbor(0, 1)
                with pytest.raises(OracleProtocolError, match="malformed STEP reply"):
                    random_walk_estimate(remote, WalkConfig(t_star=3, r=2))

    @pytest.mark.parametrize(
        "reply",
        ["1 2", "1 2 3 4 5 6 7 8 x", "1 2 3 4 5 6 7 8 -9", "1 2 3 4 5 6 7 x", "1 2 3 4 5 6 7 -8"],
    )
    def test_malformed_stats_reply_raises(self, reply):
        with _ScriptedServer() as server:
            server.replies[b"STATS"] = reply.encode()
            with RemoteOracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="malformed STATS reply"):
                    remote.stats()

    def test_hang_up_without_reply_raises(self):
        with _ScriptedServer(n="5") as server:
            server.replies[b"DEG"] = None
            with RemoteOracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="connection closed by oracle server"):
                    remote.degree(0)
            assert server.requests == ["N", "DEG"]

    def test_degree_of_other_nodes_goes_over_the_wire(self):
        with _ScriptedServer(degree="7", step="2 3") as server:
            with RemoteOracle(server.server_address, timeout=5) as remote:
                assert remote.degree(2) == 7  # no STEP yet
                assert remote.neighbor(0, 0) == 2
                assert remote.degree(2) == 3  # from the STEP reply
                assert remote.degree(1) == 7
                assert remote.degree(0) == 7
                assert remote.degree(2) == 3
            assert server.requests == ["N", "DEG", "STEP", "DEG", "DEG"]


class TestLineCap:
    """Neither side reads more than a bounded line; one connection at a time."""

    def test_overlong_request_gets_error_and_close(self):
        g = star_graph(6)
        with OracleServer(g) as server:
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
            with RemoteOracle(server.address) as remote:  # still serving
                assert remote.node_count() == 6
                assert remote.stats()["errors"] == 1

    def test_overlong_reply_raises(self):
        with _ScriptedServer(degree="1" * 1024) as server:
            with RemoteOracle(server.server_address, timeout=5) as remote:
                with pytest.raises(OracleProtocolError, match="exceeds 128 bytes"):
                    remote.degree(0)


def _connect_when_free(address, wait_s=5.0):
    """A RemoteOracle on the server, retried while it answers "ERR busy"
    (a closed connection frees its slot only once its handler thread ends)."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            return RemoteOracle(address, timeout=5)
        except OracleProtocolError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


class TestServerLimits:
    """A bounded number of connections, each closed when idle, and STATS."""

    def test_edgeless_graph_is_refused(self):
        from epithresh.graph import build_graph

        threads = threading.active_count()
        with pytest.raises(ValueError, match="at least one edge"):
            OracleServer(build_graph([], 3))
        assert threading.active_count() == threads  # no server thread was left

    def test_connection_beyond_the_cap_gets_busy(self, monkeypatch):
        monkeypatch.setattr(service, "_MAX_CONNECTIONS", 2)
        with OracleServer(star_graph(6)) as server:
            with RemoteOracle(server.address) as first:
                with RemoteOracle(server.address) as second:
                    with pytest.raises(OracleProtocolError, match="ERR busy"):
                        RemoteOracle(server.address, timeout=5)
                    assert first.degree(0) == 5  # the admitted ones are still served
                    assert second.neighbor(0, 4) == 5
                with _connect_when_free(server.address) as third:
                    stats = third.stats()
        assert stats["busy"] >= 1
        assert stats["accepted"] == 3

    def test_idle_connection_is_closed_cleanly(self, monkeypatch, capsys):
        monkeypatch.setattr(service, "_MAX_CONNECTIONS", 1)
        monkeypatch.setattr(service, "_IDLE_TIMEOUT_S", 0.2)
        with OracleServer(star_graph(6)) as server:
            with socket.create_connection(server.address, timeout=5) as idle:
                assert idle.recv(64) == b""  # closed by the server, no reply
            with _connect_when_free(server.address) as remote:  # its slot is free
                assert remote.degree(0) == 5
        assert "Traceback" not in capsys.readouterr().err

    def test_stats_counts_requests_errors_and_connections(self, monkeypatch):
        monkeypatch.setattr(service, "_MAX_CONNECTIONS", 1)
        with OracleServer(star_graph(6)) as server:
            with RemoteOracle(server.address) as remote:
                assert remote.degree(0) == 5
                assert remote.neighbor(0, 1) == 2
                assert remote.degree(2) == 1  # answered by the STEP reply
                with pytest.raises(OracleProtocolError, match="out-of-range"):
                    remote.degree(99)
                with pytest.raises(OracleProtocolError, match="ERR busy"):
                    RemoteOracle(server.address, timeout=5)
                first = remote.stats()
                second = remote.stats()
        counts = {"N": 1, "DEG": 2, "STEP": 1, "STATS": 0,
                  "errors": 1, "accepted": 1, "busy": 1}
        assert {k: first[k] for k in counts} == counts
        assert first["service_us"] > 0
        assert second["STATS"] == 1
        assert second["service_us"] >= first["service_us"]

    def test_stats_reply_fits_a_line(self):
        stats = service._Stats()
        stats._counts = dict.fromkeys(stats._counts, 10**12 - 1)
        stats._service_ns = 10**15 - 1
        reply = stats.reply()
        assert reply.split() == ["999999999999"] * len(STATS_FIELDS)
        assert len(reply) + 1 <= service._MAX_LINE
