"""Remote graph oracle: a line-protocol TCP service and its client adapter.

This materializes the node-query cost model: a walker on one machine pays
per degree/neighbor lookup against the graph held elsewhere. The protocol
is deliberately tiny - one LF-terminated request per line:

    "N"            ->  "<node count>"
    "DEG <v>"      ->  "<degree of v>"
    "STEP <v> <k>" ->  "<u> <degree of u>", u the k-th sorted neighbor of v
    "STATS"        ->  the server's counters, eight integers (STATS_FIELDS)
    anything bad   ->  "ERR <reason>"

Lines hold at most _MAX_LINE bytes: a longer request gets "ERR line-too-long"
and the connection is closed; a longer reply raises OracleProtocolError.

The server serves at most _MAX_CONNECTIONS connections at once: one more is
answered "ERR busy" and closed. A connection that sends nothing for
_IDLE_TIMEOUT_S seconds is closed. STATS counts, over every connection since
the server started, the requests of each command, the error replies, the
connections accepted and refused as busy, and the microseconds spent
answering requests; a request is counted before its reply is sent, so STATS
covers every request whose reply a client has read, but not itself.

A walk against a RemoteOracle is bit-identical to the same walk against a
LocalOracle on the same graph: the server answers through a LocalOracle.
``RemoteOracle.neighbor`` sends STEP and keeps the degree that comes back,
so the walk's next ``degree`` call, for the node just reached, needs no
request: a T-step walk makes T + 1 round trips (one DEG, then T STEPs) for
the 2T logical queries its report counts.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time

from .graph import Graph
from .walker import GraphOracle, LocalOracle

__all__ = [
    "OracleServer",
    "RemoteOracle",
    "OracleProtocolError",
    "STATS_FIELDS",
]

_ENCODING = "ascii"
# The longest valid request, "STEP" and two 19-digit ids, is 45 bytes with its
# newline. The longest valid reply is STATS: eight counts below 10^12 take at
# most 104 bytes with their spaces and newline.
_MAX_LINE = 128
_MAX_CONNECTIONS = 64
_IDLE_TIMEOUT_S = 60
# The serving thread checks for shutdown this often, so stop() waits up to
# this long.
_POLL_S = 0.05

# The STATS reply, in order: requests per command, error replies, connections
# accepted and refused as busy, and the total time spent answering requests.
_COMMANDS = ("N", "DEG", "STEP", "STATS")
STATS_FIELDS = _COMMANDS + ("errors", "accepted", "busy", "service_us")


class OracleProtocolError(RuntimeError):
    """Malformed response or server-reported error over the wire."""


def _read_line(rfile) -> bytes | None:
    """The next line (b"" at EOF), or None if it exceeds _MAX_LINE bytes."""
    raw = rfile.readline(_MAX_LINE)
    if len(raw) == _MAX_LINE and not raw.endswith(b"\n"):
        return None
    return raw


def handle_request(oracle: LocalOracle, line: str) -> str:
    """Answer one N, DEG or STEP request through a LocalOracle; never raises.

    Any other command is "ERR unknown-command"; the connection handler
    answers STATS itself.
    """
    parts = line.split()
    if not parts:
        return "ERR empty-request"
    cmd = parts[0].upper()
    try:
        if cmd == "N" and len(parts) == 1:
            return str(oracle.node_count())
        if cmd == "DEG" and len(parts) == 2:
            return str(oracle.degree(int(parts[1])))
        if cmd == "STEP" and len(parts) == 3:
            u = oracle.neighbor(int(parts[1]), int(parts[2]))
            return f"{u} {oracle.degree(u)}"
    except ValueError:
        return "ERR malformed-arguments"
    except IndexError:
        return "ERR out-of-range"
    return "ERR unknown-command"


class _Stats:
    """The server's STATS counters, over all connections, under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(STATS_FIELDS[:-1], 0)
        self._service_ns = 0

    def count(self, field: str) -> None:
        with self._lock:
            self._counts[field] += 1

    def request(self, cmd: str, error: bool, elapsed_ns: int) -> None:
        with self._lock:
            if cmd in _COMMANDS:
                self._counts[cmd] += 1
            self._counts["errors"] += error
            self._service_ns += elapsed_ns

    def reply(self) -> str:
        with self._lock:
            values = [*self._counts.values(), self._service_ns // 1000]
        return " ".join(map(str, values))


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        self.timeout = _IDLE_TIMEOUT_S
        super().setup()

    def handle(self):
        oracle, stats = self.server.oracle, self.server.stats  # type: ignore[attr-defined]
        while True:
            try:
                raw = _read_line(self.rfile)
            except TimeoutError:
                return  # idle too long: close
            if raw is None:
                stats.count("errors")
                self.wfile.write(b"ERR line-too-long\n")
                return
            if not raw:
                return
            started = time.perf_counter_ns()
            line = raw.decode(_ENCODING, errors="replace").strip()
            cmd = line.split(maxsplit=1)[0].upper() if line else ""
            if line.upper() == "STATS":
                reply = stats.reply()
            else:
                reply = handle_request(oracle, line)
            stats.request(cmd, reply.startswith("ERR"), time.perf_counter_ns() - started)
            self.wfile.write((reply + "\n").encode(_ENCODING))


class OracleServer(socketserver.ThreadingTCPServer):
    """The threading TCP server of a graph's oracle. It serves on its own
    daemon thread from construction; use it as a context manager or call
    stop()."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, g: Graph, address: tuple[str, int] = ("127.0.0.1", 0)):
        self.oracle = LocalOracle(g)  # an edgeless graph is refused before the bind
        self.stats = _Stats()
        self._slots = threading.BoundedSemaphore(_MAX_CONNECTIONS)
        super().__init__(address, _Handler)
        self._thread = threading.Thread(
            target=self.serve_forever, args=(_POLL_S,), name="oracle-server", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def process_request(self, request, client_address):
        """Serve the connection on its own thread if a slot is free, else
        answer "ERR busy" and close it."""
        if not self._slots.acquire(blocking=False):
            self.stats.count("busy")
            try:
                request.sendall(b"ERR busy\n")
            except OSError:
                pass  # the client is gone already
            self.shutdown_request(request)
            return
        self.stats.count("accepted")
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)

    def __exit__(self, *exc) -> None:
        self.stop()



class RemoteOracle(GraphOracle):
    """GraphOracle over the line protocol; one persistent connection to a
    served oracle. Errors surface as OSError or OracleProtocolError."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        # u and deg(u) from the last STEP reply
        self._last_u: int | None = None
        self._last_degree = 0
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
        if v == self._last_u:
            return self._last_degree
        d = self._int_reply(f"DEG {v}", "degree")
        if d < 0:
            raise OracleProtocolError(f"negative degree reply {d} for node {v}")
        return d

    def neighbor(self, v: int, k: int) -> int:
        """The k-th neighbor u of v, by one STEP request that also answers
        the next ``degree(u)``."""
        reply = self._exchange(f"STEP {v} {k}")
        try:
            u, d = map(int, reply.split())
        except ValueError:
            raise OracleProtocolError(f"malformed STEP reply {reply!r}") from None
        if not 0 <= u < self._n:
            raise OracleProtocolError(f"neighbor reply {u} out of range [0, {self._n})")
        if d < 0:
            raise OracleProtocolError(f"negative degree reply {d} for node {u}")
        self._last_u, self._last_degree = u, d
        return u

    def stats(self) -> dict[str, int]:
        """The server's STATS counters by name (see STATS_FIELDS)."""
        reply = self._exchange("STATS")
        values = reply.split()
        if len(values) != len(STATS_FIELDS) or not all(x.isdigit() for x in values):
            raise OracleProtocolError(f"malformed STATS reply {reply!r}")
        return dict(zip(STATS_FIELDS, map(int, values)))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

