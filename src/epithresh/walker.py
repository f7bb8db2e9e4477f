"""Random-walk estimation of the degree-moment ratio over a graph oracle.

The estimator never touches a whole graph: it sees the network only through
degree / neighbor / node-count queries, so its cost is measured in oracle
queries and distinct nodes seen rather than in nodes or edges. After a
burn-in of ``t_star`` uniform-neighbor steps, it averages r degree samples
spaced ``thin`` steps apart; the ergodic limit of that average is m2/m1.

Step accounting contract: every walk step issues exactly one degree query
(for the node being left, reused as the sample value when sampling there)
and one neighbor query, so a T-step walk costs T degree + T neighbor
queries and touches at most T + 1 distinct nodes.

Draw contract: a walk seeded with ``seed`` picks the neighbor index of each
step as ``random.Random(seed).randrange(d)`` would, one draw per step from a
single stream, where d is the degree of the node being left. The draw is
inlined as CPython's ``_randbelow_with_getrandbits`` (``getrandbits`` of
``d.bit_length()`` bits, redrawn while ``>= d``), which is the same stream.
So a walk is a function of (oracle answers, seed, start) alone. A reported
degree of 0 raises ZeroDegreeNodeError, a negative one ValueError.

One stepping loop, ``_Walk.advance``, serves both ``random_walk_estimate``
and ``error_curve``, and the walk alone owns the sampling schedule and the
query accounting. It adds the degree it leaves at steps t_star, t_star +
thin, ... to its sample sum, so neither estimator does step arithmetic. The
report's ``total_steps``, ``total_queries`` (two per step) and
``distinct_nodes_seen`` are the one tally, and oracles keep no counters. A
``LocalOracle`` is stepped through unchecked accessors over its views of the
graph's CSR arrays, and such a walk keeps its distinct nodes in an n-byte
mask. Any other oracle answers each step through its own
``degree`` and ``neighbor`` calls, one of each per step, in that order, and
the walk keeps its distinct nodes in a dict that grows with the walk alone,
whatever node count or ids the oracle reports.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

from .estimators import relative_error
from .graph import Graph, largest_component
from .spectral import BipartiteGraphError, bipartite_coloring

__all__ = [
    "DEFAULT_THIN",
    "GraphOracle",
    "LocalOracle",
    "WalkConfig",
    "WalkReport",
    "CurvePoint",
    "ZeroDegreeNodeError",
    "random_walk_estimate",
    "error_curve",
]


class ZeroDegreeNodeError(RuntimeError):
    """The walk reached a node with no neighbors and cannot continue."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"random walk stuck: node {node} has degree 0")


class GraphOracle(ABC):
    """Query interface to a graph: degrees, indexed neighbors, node count.

    ``neighbor(v, k)`` must be stable across calls for the same (v, k).
    """

    @abstractmethod
    def node_count(self) -> int: ...

    @abstractmethod
    def degree(self, v: int) -> int: ...

    @abstractmethod
    def neighbor(self, v: int, k: int) -> int: ...


class LocalOracle(GraphOracle):
    """In-memory adapter over a Graph; neighbor(v, k) is the k-th sorted neighbor.

    Walks and the oracle server both answer through it. It holds memoryviews
    of the graph's CSR arrays, not copies, so it costs O(1) memory.
    """

    def __init__(self, g: Graph):
        if g.m == 0:
            raise ValueError("oracle requires a graph with at least one edge")
        self._n = g.n
        self._deg = memoryview(g.degrees)
        self._off = memoryview(g.offsets)
        self._nbr = memoryview(g.neighbors)

    def node_count(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise IndexError(f"node {v} out of range [0, {self._n})")
        return self._deg[v]

    def neighbor(self, v: int, k: int) -> int:
        # not self.degree: an override would see a degree query no caller made
        d = LocalOracle.degree(self, v)
        if not 0 <= k < d:
            raise IndexError(f"neighbor index {k} out of range [0, {d}) at node {v}")
        return self._nbr[self._off[v] + k]

    def _walk_accessors(self) -> tuple[Callable[[int], int], Callable[[int, int], int]]:
        """Unchecked (degree, neighbor) over the CSR memoryviews.

        Only for a walk that starts in range and draws k below the degree.
        """
        off, nbr = self._off, self._nbr

        def neighbor(v: int, k: int) -> int:
            return nbr[off[v] + k]

        return self._deg.__getitem__, neighbor



class _Walk:
    """One walk's position, step count, distinct nodes and degree samples
    (taken at steps t_star, t_star + thin, ...), stepped only by ``advance``."""

    def __init__(self, oracle: GraphOracle, seed: int, start: int, t_star: int, thin: int):
        if type(oracle) is LocalOracle:
            oracle.degree(start)  # IndexError unless start is a node
            self._degree, self._neighbor = oracle._walk_accessors()
            self.visited: bytearray | defaultdict[int, int] = bytearray(oracle.node_count())
        else:
            self._degree, self._neighbor = oracle.degree, oracle.neighbor
            self.visited = defaultdict(int)
        self._getrandbits = random.Random(seed).getrandbits
        self.x = start
        self.steps = 0
        self.visited[start] = 1
        self.count = 1
        self.next_sample, self.thin = t_star, thin
        self.acc = self.samples = 0

    def advance(self, k: int, target: int | None = None) -> None:
        """Take k >= 1 steps, or stop after a step that reaches a new node and
        brings the distinct-node count to ``target``. A step at a sample step
        adds the degree it leaves to ``acc`` and counts it in ``samples``."""
        degree, neighbor, getrandbits = self._degree, self._neighbor, self._getrandbits
        visited, x, count = self.visited, self.x, self.count
        next_sample, thin, acc, samples = self.next_sample, self.thin, self.acc, self.samples
        if target is None:
            target = count + k + 1  # k steps cannot get there
        for step in range(self.steps, self.steps + k):
            d = degree(x)
            if d <= 0:
                if d == 0:
                    raise ZeroDegreeNodeError(x)
                raise ValueError(f"oracle reported degree {d} for node {x}")
            if step == next_sample:
                acc += d
                samples += 1
                next_sample += thin
            b = d.bit_length()  # randrange(d), see the draw contract
            r = getrandbits(b)
            while r >= d:
                r = getrandbits(b)
            x = neighbor(x, r)
            if not visited[x]:
                visited[x] = 1
                count += 1
                if count >= target:
                    break
        self.x, self.count, self.steps = x, count, step + 1
        self.next_sample, self.acc, self.samples = next_sample, acc, samples


# Steps between samples in the experiment protocol and the `walk` command.
DEFAULT_THIN = 10


def _default_t_star(n: int) -> int:
    """Default burn-in for walks on an n-node component: ceil(10 ln n) steps."""
    return math.ceil(10.0 * math.log(n))


def _walked_component(g: Graph, thin: int):
    """``largest_component(g)``, refused if it is bipartite and ``thin`` is
    even; a ``thin`` below 1 is refused before the graph is looked at."""
    _check_schedule(0, thin)
    component, mapping = largest_component(g)
    if thin % 2 == 0 and (coloring := bipartite_coloring(component)) is not None:
        raise BipartiteGraphError(
            coloring, f"an even thin={thin} samples one side only; an odd thin converges"
        )
    return component, mapping


def _check_schedule(t_star: int, thin: int) -> None:
    """Refuse a negative burn-in or a thinning below 1."""
    if t_star < 0:
        raise ValueError("burn-in must be nonnegative")
    if thin < 1:
        raise ValueError("thinning must be at least 1")


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: burn-in, sample count, thinning, seed, start node.

    ``thin=1`` reproduces the literal consecutive-step estimator; the
    default experiment protocol samples every ``DEFAULT_THIN``-th step
    instead of using independent restarts.
    """

    t_star: int
    r: int
    thin: int = 1
    seed: int = 0
    start: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one sample")
        _check_schedule(self.t_star, self.thin)

    @property
    def total_steps(self) -> int:
        return self.t_star + (self.r - 1) * self.thin + 1


@dataclass(frozen=True)
class WalkReport:
    """What one walk measured: its estimate and its query accounting."""

    estimate: float
    total_steps: int
    total_queries: int
    distinct_nodes_seen: int


def random_walk_estimate(oracle: GraphOracle, cfg: WalkConfig) -> WalkReport:
    """Estimate m2/m1 by averaging degree samples along a uniform random walk.

    Burn-in runs ``cfg.t_star`` steps from ``cfg.start``; then each of the
    r sampling rounds records the current node's degree and walks on
    (``thin`` steps between samples, one trailing step after the last), so
    the walk takes t_star + (r-1)*thin + 1 steps total. Fully deterministic
    given (oracle contents, cfg). Raises ZeroDegreeNodeError if the walk
    reaches an isolated node.
    """
    walk = _Walk(oracle, cfg.seed, cfg.start, cfg.t_star, cfg.thin)
    walk.advance(cfg.total_steps)
    return WalkReport(
        estimate=walk.acc / cfg.r,
        total_steps=walk.steps,
        total_queries=2 * walk.steps,
        distinct_nodes_seen=walk.count,
    )


@dataclass(frozen=True)
class CurvePoint:
    """Running estimate of one walk when its distinct-nodes budget was crossed."""

    seed: int
    budget: int
    nodes_seen: int
    steps: int
    samples: int
    estimate: float
    eps_t1: float
    eps_lambda: float


def error_curve(
    oracle: GraphOracle,
    t1_reference: float,
    lambda_reference: float,
    seeds: list[int],
    budgets: list[int],
    t_star: int,
    thin: int = DEFAULT_THIN,
    start: int = 0,
    max_steps: int | None = None,
) -> list[CurvePoint]:
    """Walk-estimate error versus distinct-nodes-seen budget, one walk per seed.

    Every seed's walk runs on the same oracle, from ``start``, with the given
    burn-in and thinning, recording its running degree average whenever the
    number of distinct nodes it has seen first reaches a budget; relative
    errors are taken against the supplied references. A walk stops after
    ``max_steps`` steps (default 1000 * node count); if that cap is hit
    before the last budget, the remaining budgets are reported with the
    walk's final state. Every walk takes at least one step, even with
    ``max_steps=0`` or a budget of 1.

    Output order: one point per entry of ``sorted(budgets)`` for each seed,
    seed by seed in the order given, each seed's points in ascending budget.
    So with B budgets, ``points[i::B]`` holds every seed's point at the i-th
    smallest budget.
    """
    if not seeds:
        raise ValueError("need at least one walk seed")
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive node counts")
    _check_schedule(t_star, thin)
    budgets = sorted(budgets)
    cap = max_steps if max_steps is not None else 1000 * oracle.node_count()
    points: list[CurvePoint] = []
    for seed in seeds:
        walk = _Walk(oracle, seed, start, t_star, thin)
        for budget in budgets:
            if walk.steps == 0 or (walk.count < budget and walk.steps < cap):
                # on to the budget or the step cap, whichever comes first; a
                # fresh walk takes at least one step
                walk.advance(max(1, cap - walk.steps), budget)
            est = walk.acc / walk.samples if walk.samples else float("nan")
            points.append(CurvePoint(
                seed=seed,
                budget=budget,
                nodes_seen=walk.count,
                steps=walk.steps,
                samples=walk.samples,
                estimate=est,
                eps_t1=relative_error(est, t1_reference),
                eps_lambda=relative_error(est, lambda_reference),
            ))
    return points
