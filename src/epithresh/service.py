"""Remote graph oracle: a line-protocol TCP service and its client adapter.

This materializes the node-query cost model: a walker on one machine pays
per degree/neighbor lookup against the graph held elsewhere. The protocol
is deliberately tiny - one LF-terminated request per line:

    "N"          ->  "<node count>"
    "DEG <v>"    ->  "<degree of v>"
    "NBR <v> <k>" -> "<k-th sorted neighbor of v>"
    anything bad ->  "ERR <reason>"

Lines hold at most _MAX_LINE bytes: a longer request gets "ERR line-too-long"
and the connection is closed; a longer reply raises OracleProtocolError.

A walk against a RemoteOracle is bit-identical to the same walk against a
LocalOracle on the same graph: both answer from the same sorted adjacency.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from .graph import Graph
from .walker import GraphOracle

__all__ = [
    "OracleServer",
    "RemoteOracle",
    "OracleProtocolError",
    "serve_oracle",
    "remote_oracle",
]

_ENCODING = "ascii"
# The longest valid request, "NBR" and two 19-digit ids, is 44 bytes with its
# newline; every valid reply is shorter.
_MAX_LINE = 128


class OracleProtocolError(RuntimeError):
    """Malformed response or server-reported error over the wire."""


def _read_line(rfile) -> bytes | None:
    """The next line (b"" at EOF), or None if it exceeds _MAX_LINE bytes."""
    raw = rfile.readline(_MAX_LINE)
    if len(raw) == _MAX_LINE and not raw.endswith(b"\n"):
        return None
    return raw


def handle_request(g: Graph, line: str) -> str:
    """Evaluate one protocol request against a graph; never raises."""
    parts = line.split()
    if not parts:
        return "ERR empty-request"
    cmd = parts[0].upper()
    try:
        if cmd == "N" and len(parts) == 1:
            return str(g.n)
        if cmd == "DEG" and len(parts) == 2:
            v = int(parts[1])
            if not 0 <= v < g.n:
                return "ERR out-of-range"
            return str(int(g.degrees[v]))
        if cmd == "NBR" and len(parts) == 3:
            v, k = int(parts[1]), int(parts[2])
            if not 0 <= v < g.n or not 0 <= k < g.degrees[v]:
                return "ERR out-of-range"
            return str(int(g.neighbors[g.offsets[v] + k]))
    except ValueError:
        return "ERR malformed-arguments"
    return "ERR unknown-command"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        graph = self.server.graph  # type: ignore[attr-defined]
        while True:
            raw = _read_line(self.rfile)
            if raw is None:
                self.wfile.write(b"ERR line-too-long\n")
                return
            if not raw:
                return
            line = raw.decode(_ENCODING, errors="replace").strip()
            reply = handle_request(graph, line)
            self.wfile.write((reply + "\n").encode(_ENCODING))


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class OracleServer:
    """A running oracle service; use as a context manager or call stop()."""

    def __init__(self, g: Graph, address: tuple[str, int] = ("127.0.0.1", 0)):
        self._server = _ThreadingServer(address, _Handler)
        self._server.graph = g  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="oracle-server", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "OracleServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_oracle(g: Graph, address: tuple[str, int] = ("127.0.0.1", 0)) -> OracleServer:
    """Start serving a graph's oracle on the given bind address."""
    if g.m == 0:
        raise ValueError("oracle requires a graph with at least one edge")
    return OracleServer(g, address)


class RemoteOracle(GraphOracle):
    """GraphOracle over the line protocol; one persistent connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        try:
            self._n = self._int_reply("N", "node count")
            if self._n < 0:
                raise OracleProtocolError(f"negative node count reply {self._n}")
        except BaseException:
            self.close()
            raise

    def _exchange(self, request: str) -> str:
        self._file.write((request + "\n").encode(_ENCODING))
        self._file.flush()
        raw = _read_line(self._file)
        if raw is None:
            raise OracleProtocolError(f"reply to {request!r} exceeds {_MAX_LINE} bytes")
        if not raw:
            raise OracleProtocolError("connection closed by oracle server")
        reply = raw.decode(_ENCODING, errors="replace").strip()
        if reply.startswith("ERR"):
            raise OracleProtocolError(f"oracle error for {request!r}: {reply}")
        return reply

    def _int_reply(self, request: str, what: str) -> int:
        reply = self._exchange(request)
        try:
            return int(reply)
        except ValueError:
            raise OracleProtocolError(f"non-integer {what} reply {reply!r}") from None

    def node_count(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        d = self._int_reply(f"DEG {v}", "degree")
        if d < 0:
            raise OracleProtocolError(f"negative degree reply {d} for node {v}")
        return d

    def neighbor(self, v: int, k: int) -> int:
        u = self._int_reply(f"NBR {v} {k}", "neighbor")
        if not 0 <= u < self._n:
            raise OracleProtocolError(f"neighbor reply {u} out of range [0, {self._n})")
        return u

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def remote_oracle(address: tuple[str, int], timeout: float = 10.0) -> RemoteOracle:
    """Connect to a served oracle; errors surface as OSError or OracleProtocolError."""
    return RemoteOracle(address, timeout=timeout)
