"""Immutable sparse undirected graphs with degree statistics and edge-list I/O.

Graphs are stored in compressed sparse row form: a flat, per-node-sorted
neighbor array plus an offsets array. Node ids are dense 0-based integers;
external ids must be mapped before construction. All downstream determinism
(generators, walks, experiments) relies on the canonical sorted storage here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

__all__ = [
    "Graph",
    "DegreeStats",
    "EdgeListParseError",
    "build_graph",
    "degree_stats",
    "largest_component",
    "read_edge_list",
    "write_edge_list",
]

# Chunk size for overflow-safe integer reductions; each chunk's int64 partial
# sum stays far below 2**63 even at n = 1e7, d_max = 1e7.
_SUM_CHUNK = 10_000

# read_edge_list reads the file in binary chunks of this many bytes; one
# chunk's parse holds about 20 bytes of numpy temporaries per byte of text.
_READ_CHUNK = 1 << 16
# read_edge_list refuses a line of more than this many bytes (its line end
# not counted), so it never holds more than that plus one chunk of text.
_MAX_LINE = 1 << 20
# The most nodes a graph can have, and the base of the int64 directed keys
# src*_MAX_NODES + dst: ids below it keep every key below 2**63.
_MAX_NODES = math.isqrt(2**63 - 1)
# Tokens of at most this many digits fit in int64 and are parsed in bulk;
# longer ones go to the per-line parser.
_FAST_DIGITS = 18
_TAB, _NEWLINE, _SPACE, _ZERO, _NINE = b"\t\n 09"
# write_edge_list formats this many edges per block.
_WRITE_CHUNK = 1 << 18
# 10, 100, ..., 10**18: an id has one digit more than it has powers <= it.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
_ROOT_WINDOW = 64  # first window of _components' search for its next root


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed; carries the line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in compressed sparse form.

    Attributes
    ----------
    n : int
        Node count.
    m : int
        Undirected edge count; ``len(neighbors) == 2 * m``.
    offsets : ndarray of int64, shape (n + 1,)
        Nondecreasing start indices into ``neighbors``; ``offsets[n] == 2m``.
    neighbors : ndarray of int64, shape (2m,)
        Flat adjacency, sorted ascending within each node's slice. Symmetric:
        u appears in v's slice iff v appears in u's. No self-loops, no
        duplicate entries.
    degrees : ndarray of int64, shape (n,)
        Per-node degree, ``offsets[v+1] - offsets[v]``.
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.neighbors
        return np.column_stack((src[keep], self.neighbors[keep]))

    def identical(self, other: "Graph") -> bool:
        """Structural equality: same n, m, offsets, and neighbor arrays."""
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )


@dataclass(frozen=True)
class DegreeStats:
    """The degree statistics a walk plan reads (``estimators.sample_size``).

    ``m1 = sum(d_i)`` and ``m2 = sum(d_i**2)`` are exact Python ints (see
    ``_degree_moments``); ``d_max`` is 0 for an empty graph.
    """

    n: int
    m1: int
    m2: int
    d_max: int


def _exact_sum(values: np.ndarray) -> int:
    """Exact integer sum, safe against int64 overflow of the grand total."""
    total = 0
    for start in range(0, len(values), _SUM_CHUNK):
        total += int(values[start : start + _SUM_CHUNK].sum())
    return total


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: one in-place sort of ``values`` (every caller
    passes a temporary) plus a neighbour-inequality mask. Returns ``values``
    itself when nothing repeats, so only repeats cost a copy."""
    if values.size < 2:  # a BFS level of 0 or 1 nodes skips the numpy calls
        return values
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values if np.count_nonzero(keep) == values.size else values[keep]


def _csr(n: int, degrees: np.ndarray, neighbors: np.ndarray) -> Graph:
    """Freeze per-node degrees and row-sorted neighbors into a Graph."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return Graph(
        n=n,
        m=len(neighbors) // 2,
        offsets=_freeze(offsets),
        neighbors=_freeze(neighbors),
        degrees=_freeze(degrees),
    )


def _write_keys(keys: np.ndarray, first: np.ndarray) -> None:
    """Write the int64 keys ``src*_MAX_NODES + dst`` of k pairs, first to
    second and back, in place into the 2k buffer ``keys``, whose upper half
    holds the second ids; ``first`` holds the first ids. Ids lie below
    _MAX_NODES, and the keys sort in (src, dst) order."""
    k = keys.size // 2
    np.multiply(first, _MAX_NODES, out=keys[:k])
    keys[:k] += keys[k:]
    keys[k:] *= _MAX_NODES
    keys[k:] += first


def _directed_keys(pairs: np.ndarray) -> np.ndarray:
    """Fresh keys (see _write_keys) of both directions of each (k, 2) pair,
    self-loops dropped; ``pairs`` is only read."""
    kept = pairs[:, 0] != pairs[:, 1]
    k = int(np.count_nonzero(kept))
    if k < len(pairs):
        pairs = pairs[kept]
    keys = np.empty(2 * k, dtype=np.int64)
    keys[k:] = pairs[:, 1]
    _write_keys(keys, pairs[:, 0])
    return keys


def _keys_to_csr(keys: np.ndarray, n: int) -> Graph:
    """Graph on n nodes from directed keys of ids below n, in any order and
    with repeats. ``keys`` is a temporary: it is sorted and deduped in place
    (copied only when something repeats), row bounds come from a search for
    each node's first key, and the neighbours are its in-place remainder."""
    keys = _sorted_unique(keys)
    bounds = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * _MAX_NODES)
    return _csr(n, np.diff(bounds), np.remainder(keys, _MAX_NODES, out=keys))


def build_graph(edges: Iterable[tuple[int, int]] | np.ndarray, n: int) -> Graph:
    """Canonicalize a raw edge list into a Graph.

    Input pairs may repeat, appear in either orientation, or be self-loops;
    the result is the simple undirected graph on those edges. Raises
    ValueError for ids that are not integers or lie outside [0, n), and,
    before allocating anything, for n above _MAX_NODES. The pairs are only
    read: their int64 directed keys ``src*_MAX_NODES + dst`` are written
    once, and one in-place sort of them both dedupes the edges and orders
    them into CSR rows.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    if n > _MAX_NODES:
        raise ValueError(f"node count {n} exceeds the supported maximum {_MAX_NODES}")
    arr = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge list must be a sequence of (u, v) pairs")
    if arr.size and arr.dtype.kind not in "iu":  # a cast would truncate 1.7 to 1
        raise ValueError(f"edge endpoint ids must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = arr[(arr < 0) | (arr >= n)]
        raise ValueError(f"edge endpoint {int(bad.flat[0])} out of range [0, {n})")

    return _keys_to_csr(_directed_keys(arr), n)


def _degree_moments(g: Graph) -> tuple[int, int]:
    """Exact (m1, m2): m1 = 2m, since ``len(neighbors) == 2m``, and m2 from
    chunked 64-bit partial sums, exact up to n = 1e7 with d_max up to n."""
    return 2 * g.m, _exact_sum(g.degrees * g.degrees)


def degree_stats(g: Graph) -> DegreeStats:
    """Exact degree moments m1, m2 and the largest degree."""
    m1, m2 = _degree_moments(g)
    return DegreeStats(n=g.n, m1=m1, m2=m2, d_max=int(g.degrees.max()) if g.n else 0)


def _frontier_neighbors(g: Graph, frontier: np.ndarray) -> np.ndarray:
    """Concatenated neighbor slices of the frontier nodes, in frontier order."""
    starts = g.offsets[frontier]
    lens = g.degrees[frontier]
    total = int(lens.sum())
    pos = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    pos += np.arange(total)
    return g.neighbors[pos]


def _components(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """One level-synchronous BFS: ``root[v]``, the smallest node of v's
    component, and ``parity[v]`` (int8), the parity of v's BFS level from it.

    Degree-0 nodes and isolated edges (two degree-1 nodes joined to each
    other) are labeled in one step each. Each next root is found by a
    vectorized search in windows that double from the last root, so Python
    loops run per larger component and per BFS level, never per node.

    A level is taken from whichever side is smaller (direction-optimizing
    BFS). When fewer nodes are left unlabeled than the frontier holds, the
    next level is the unlabeled nodes with a neighbour in the current
    component, which in a BFS can only be a frontier node: one gather over
    the unlabeled nodes' slices instead of the frontier's. The BFS and the
    root search stop once no node is left unlabeled.
    """
    deg = g.degrees
    root = np.where(deg > 0, -1, np.arange(g.n, dtype=np.int64))
    parity = np.zeros(g.n, dtype=np.int8)
    ends = np.flatnonzero(deg == 1)
    mates = g.neighbors[g.offsets[ends]]
    paired = deg[mates] == 1
    ends, mates = ends[paired], mates[paired]
    root[ends] = np.minimum(ends, mates)
    parity[ends] = ends > mates
    left = int(np.count_nonzero(root < 0))
    start, window = 0, _ROOT_WINDOW
    while left:
        hits = np.flatnonzero(root[start : start + window] < 0)
        if not hits.size:
            start, window = start + window, 2 * window
            continue
        r = start + int(hits[0])
        root[r] = r
        left -= 1
        frontier = np.array([r], dtype=np.int64)
        level = 0
        while left and frontier.size:
            if left < frontier.size:  # bottom-up; no unlabeled node has degree 0
                rest = np.flatnonzero(root < 0)
                lens = deg[rest]
                near = root[_frontier_neighbors(g, rest)] == r
                frontier = rest[np.logical_or.reduceat(near, np.cumsum(lens) - lens)]
            else:
                nbrs = _frontier_neighbors(g, frontier)
                frontier = _sorted_unique(nbrs[root[nbrs] < 0])
            left -= frontier.size
            level ^= 1
            root[frontier] = r
            parity[frontier] = level
        start, window = r + 1, _ROOT_WINDOW
    return root, parity


def largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns the subgraph (node ids relabeled densely, order-preserving) and
    the old-to-new id map (-1 for excluded nodes). Components come from the
    one BFS in :func:`_components`; ties between equal-size components go
    to the one containing the smallest node id. A connected graph is
    returned itself (its arrays are frozen); otherwise the kept rows are
    relabeled through the order-preserving map, so they stay sorted.
    """
    if g.n == 0:
        raise ValueError("cannot extract a component from an empty graph")
    root, _ = _components(g)
    # argmax keeps the smallest root on ties
    keep = root == int(np.argmax(np.bincount(root)))
    k = int(np.count_nonzero(keep))
    mapping = np.full(g.n, -1, dtype=np.int64)
    mapping[keep] = np.arange(k, dtype=np.int64)
    if k == g.n:
        return g, mapping
    return _csr(k, g.degrees[keep], mapping[g.neighbors[np.repeat(keep, g.degrees)]]), mapping


def _parse_line(path: str, line_no: int, line: str) -> tuple[tuple[int, int] | None, int]:
    """One edge-list line by the full rules: (edge or None, declared node count)."""
    stripped = line.strip()
    if not stripped:
        return None, 0
    if stripped.startswith("#"):
        body = stripped[1:].strip()
        if body.startswith("n="):
            try:
                declared = int(body[2:])
            except ValueError:
                return None, 0  # free-form comment, not our sidecar
            if declared > _MAX_NODES:
                raise EdgeListParseError(
                    path, line_no, f"declared node count exceeds the supported maximum {_MAX_NODES}"
                )
            return None, declared
        return None, 0
    parts = stripped.split()
    if len(parts) != 2:
        raise EdgeListParseError(path, line_no, f"expected 'u v', got {len(parts)} fields")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(path, line_no, f"non-integer ids {parts!r}") from None
    if u < 0 or v < 0:
        raise EdgeListParseError(path, line_no, f"negative node id in {parts!r}")
    if max(u, v) >= 2**62:
        raise EdgeListParseError(path, line_no, "node id overflows 62-bit range")
    if max(u, v) >= _MAX_NODES:
        raise EdgeListParseError(
            path, line_no, f"node id exceeds the supported maximum {_MAX_NODES - 1}"
        )
    return (u, v), 0


def _parse_chunk(path: str, buf: bytes, line_base: int) -> tuple[np.ndarray, int]:
    """Parse whole lines ``buf`` (ending in a newline, no carriage returns)
    that start at line ``line_base + 1``.

    Lines made only of digits and blanks, holding two tokens of at most
    _FAST_DIGITS digits, are parsed in one numpy call; every other line, and
    every such line with an id of _MAX_NODES or more, goes to _parse_line in
    file order, so the first error is raised with its exact line number.
    Returns the (k, 2) edge pairs and the declared node count.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(a == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # Controls count as blanks here; a line holding any byte other than a
    # digit, space, tab or newline is flagged below whatever its tokens.
    blank = a <= _SPACE
    first = ~blank & np.concatenate(([True], blank[:-1]))
    tokens = np.add.reduceat(first, starts, dtype=np.int64)
    flagged = (tokens != 0) & (tokens != 2)
    token_start = np.flatnonzero(first)
    token_last = np.flatnonzero(~blank & np.concatenate((blank[1:], [True])))
    long_tokens = token_start[token_last - token_start >= _FAST_DIGITS]
    flagged[np.searchsorted(ends, long_tokens)] = True
    other = (a > _NINE) | ((a < _ZERO) & (a != _SPACE) & (a != _TAB) & (a != _NEWLINE))
    flagged[np.searchsorted(ends, np.flatnonzero(other))] = True

    bulk = buf
    if flagged.any():
        a = a.copy()
        for i in np.flatnonzero(flagged).tolist():
            a[starts[i] : ends[i]] = _SPACE  # blank the line for the bulk parse
        bulk = a.tobytes()
    expected = 2 * int(np.count_nonzero(tokens[~flagged]))
    # np.fromstring reads an all-blank buffer as [0], so skip empty chunks
    values = np.fromstring(bulk, sep=" ", dtype=np.int64) if expected else np.empty(0, np.int64)
    if values.size != expected:
        raise RuntimeError(f"{path}: bulk parse read {values.size} ids, expected {expected}")
    too_large = np.flatnonzero(values >= _MAX_NODES)
    if too_large.size:  # _parse_line refuses such a line, in file order
        plain = np.flatnonzero(~flagged & (tokens != 0))
        flagged[plain[too_large // 2]] = True

    edges: list[tuple[int, int]] = []
    declared_n = 0
    for i in np.flatnonzero(flagged).tolist():
        line = buf[int(starts[i]) : int(ends[i])].decode("utf-8")
        edge, declared = _parse_line(path, line_base + i + 1, line)
        if edge is not None:
            edges.append(edge)
        declared_n = max(declared_n, declared)
    pairs = values.reshape(-1, 2)
    if edges:
        pairs = np.concatenate((pairs, np.asarray(edges, dtype=np.int64)))
    return pairs, declared_n


def _line_blocks(path: str, fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Whole lines of a binary file, at most _READ_CHUNK bytes at a time,
    with every line end ("\n", "\r\n" or "\r") turned into "\n" and a final
    one added; each block comes with the number of lines before it.

    A read stops one byte past _MAX_LINE bytes of a line not yet ended, so
    a longer line raises EdgeListParseError with its line number once that
    byte is read, after the lines before it were yielded for parsing.
    """

    def unix(raw: bytes) -> bytes:
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return raw if raw.endswith(b"\n") else raw + b"\n"

    carry = b""
    line_base = 0
    pending = 0  # bytes of the line that carry holds and has not ended
    while block := fh.read(min(_READ_CHUNK, _MAX_LINE + 1 - pending)):
        data = carry + block
        # cut after the last line end; a trailing "\r" may be half of "\r\n"
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        carry = data[cut:]
        if cut:
            buf = unix(data[:cut])
            yield line_base, buf
            line_base += buf.count(b"\n")
        pending = 0 if carry.endswith(b"\r") else len(carry)
        if pending > _MAX_LINE:
            raise EdgeListParseError(path, line_base + 1, f"line exceeds {_MAX_LINE} bytes")
    if carry:
        yield line_base, unix(carry)


def _read_keys(path: str) -> tuple[np.ndarray, int]:
    """The directed keys of an edge-list file's edges, and its node count.

    Each chunk's pairs become that chunk's keys as soon as it is parsed, and
    those are appended to one buffer, so the pairs are never joined and the
    read holds one chunk's parse on top of the keys. The buffer grows by a
    quarter when full and is cut to size at the end, by ``ndarray.resize``
    (realloc, which remaps a large block's pages rather than copying them);
    no view of it outlives a statement, so the resize skips numpy's
    reference check.
    """
    keys = np.empty(0, dtype=np.int64)
    end = 0
    declared_n = 0
    max_id = -1
    with open(path, "rb") as fh:
        for line_base, buf in _line_blocks(path, fh):
            pairs, declared = _parse_chunk(path, buf, line_base)
            if pairs.size:
                max_id = max(max_id, int(pairs.max()))
            part = _directed_keys(pairs)
            del pairs  # neither array is held through the next chunk's parse
            if end + part.size > keys.size:
                keys.resize(max(end + part.size, keys.size + keys.size // 4), refcheck=False)
            keys[end : end + part.size] = part
            end += part.size
            del part
            declared_n = max(declared_n, declared)
    keys.resize(end, refcheck=False)
    return keys, max(declared_n, max_id + 1)


def read_edge_list(path: str) -> Graph:
    """Parse a whitespace-separated "u v" edge-list file into a Graph.

    Lines starting with '#' are ignored, except that a writer-emitted
    "# n=<count>" comment raises the node count above max(id)+1 so graphs
    with trailing isolated nodes round-trip. Blank lines are skipped, and
    "\n", "\r\n" and "\r" all end a line. The file is UTF-8.

    The file is read in 64 KiB binary chunks (_READ_CHUNK), each cut after
    its last line end; plain "u v" lines are parsed in bulk. Each chunk's
    int64 pairs become its two directed keys ``src*_MAX_NODES + dst`` per
    edge at once (the base is fixed, since n is known only at the end), and
    are appended to one growing buffer that the build sorts, dedupes and
    turns into neighbours in place. So the read peaks near 20 bytes per
    edge (the keys and the buffer's slack) plus one chunk's parse, about
    1.3 MB. Any other line is parsed on its own, so EdgeListParseError
    carries the exact line number of the first bad line. A line of more
    than _MAX_LINE (1 MiB) bytes is such an error, raised once that many
    bytes of it are read, so no line is held whole. So is an id of
    _MAX_NODES or more, or a "# n=" count above it: no graph that large can
    be built, so the file is refused before any graph array is allocated.
    """
    return _keys_to_csr(*_read_keys(path))


def _format_pairs(pairs: np.ndarray) -> bytes:
    """ASCII "u v\n" lines for nonnegative int64 pairs, formatted in numpy:
    each id's digits go into a byte buffer from its right end, one decimal
    place per pass, while any id still has digits left."""
    widths = np.searchsorted(_POW10, pairs, side="right") + 1
    line_end = np.cumsum(widths.sum(axis=1) + 2)
    space = line_end - 2 - widths[:, 1]
    buf = np.empty(int(line_end[-1]), dtype=np.uint8)
    buf[space] = _SPACE
    buf[line_end - 1] = _NEWLINE
    values = pairs.ravel()
    pos = np.column_stack((space - 1, line_end - 2)).ravel()  # last digits
    while True:
        buf[pos] = _ZERO + values % 10
        values = values // 10
        left = values > 0
        if not left.any():
            return buf.tobytes()
        values, pos = values[left], pos[left] - 1


def write_edge_list(g: Graph, path: str) -> None:
    """Write one "u v" line per edge (u < v, sorted); read_edge_list inverts it.

    Lines are formatted by numpy in blocks of _WRITE_CHUNK edges, so the
    formatting buffers stay bounded; the file is ASCII with "\n" line ends.
    """
    pairs = g.edge_pairs()
    with open(path, "wb") as fh:
        fh.write(f"# n={g.n}\n".encode("ascii"))
        for start in range(0, len(pairs), _WRITE_CHUNK):
            fh.write(_format_pairs(pairs[start : start + _WRITE_CHUNK]))
