"""Independent test oracles.

Everything here is deliberately implemented from scratch, without reusing
the library's code paths, so tests compare two unrelated routes to the same
quantity: a round-robin Jacobi eigensolver for spectral values, dict-of-sets
degree recounts for graph statistics, a whole-file line-by-line edge-list
parser and per-edge writer, dense transition-matrix iteration for walk
distributions, the per-step walk and error-curve loops over the oracle's
own counted queries, a Hill estimator for tail exponents, the
separate connectivity BFS and per-node stack 2-coloring that the one
component traversal replaced, that traversal's former top-down-only
loop, the quadratic reference Chung-Lu sampler and its former per-row
loop, and the SIR step that recounted the infected
nodes' neighbors every step.
"""

from __future__ import annotations

import random

import numpy as np

from epithresh.generators import ExpectedDegrees
from epithresh.graph import (
    EdgeListParseError,
    Graph,
    _frontier_neighbors,
    _sorted_unique,
    build_graph,
)
from epithresh.sir import SirParams, SirTrajectory
from epithresh.walker import (
    CurvePoint,
    GraphOracle,
    WalkConfig,
    WalkReport,
    ZeroDegreeNodeError,
)

from conftest import neighbors_of


def dense_adjacency(g) -> np.ndarray:
    """Dense adjacency rebuilt edge-by-edge from the CSR arrays."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u in range(g.n):
        for v in g.neighbors[g.offsets[u] : g.offsets[u + 1]]:
            a[u, int(v)] = 1.0
    return a


def _round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brent-Luk ordering: rounds of disjoint (p, q) pairs, p < q, covering
    every pair of [0, n) once per sweep (a round-robin tournament)."""
    players = list(range(n + n % 2))  # an odd n gets a bye player n
    rounds = []
    for _ in range(len(players) - 1):
        half = len(players) // 2
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(players[:half], reversed(players[half:]))
            if max(a, b) < n
        ]
        rounds.append((np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by parallel-ordered Jacobi rotations.

    Each round of a sweep annihilates n/2 disjoint off-diagonal pairs at
    once, applying their rotations together as one dense orthogonal matrix.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return a.diagonal().copy()
    scale = max(1.0, float(np.abs(a).max()))
    rounds = _round_robin_pairs(n)
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, (a**2).sum() - (a.diagonal() ** 2).sum()))
        if off <= tol * scale:
            break
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > 1e-30 * scale
            p, q, apq = p[active], q[active], apq[active]
            if not p.size:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(n)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            a[p, q] = a[q, p] = 0.0  # annihilated exactly by construction
    return np.sort(a.diagonal())


def jacobi_spectral_radius(g) -> float:
    """Largest-magnitude adjacency eigenvalue via the dense Jacobi route."""
    eigs = jacobi_eigenvalues(dense_adjacency(g))
    return float(np.abs(eigs).max())


def read_edge_list_lines(path: str):
    """Whole-file line-by-line edge-list parse: the reference for the
    chunked reader. Returns ``(edges, n)``; raises EdgeListParseError."""
    edges: list[tuple[int, int]] = []
    declared_n = 0
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if body.startswith("n="):
                    try:
                        declared_n = max(declared_n, int(body[2:]))
                    except ValueError:
                        pass
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise EdgeListParseError(
                    path, line_no, f"expected 'u v', got {len(parts)} fields"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(path, line_no, f"non-integer ids {parts!r}") from None
            if u < 0 or v < 0:
                raise EdgeListParseError(path, line_no, f"negative node id in {parts!r}")
            if max(u, v) >= 2**62:
                raise EdgeListParseError(path, line_no, "node id overflows 62-bit range")
            edges.append((u, v))
            max_id = max(max_id, u, v)
    return edges, max(declared_n, max_id + 1)


def recount_degree_sums(edges, n: int) -> tuple[int, int, list[int]]:
    """Brute-force m1, m2 and degree list from a raw edge list, using a
    dict of neighbor sets (no CSR involved)."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        if u == v:
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
    degrees = [len(adjacency[v]) for v in range(n)]
    m1 = sum(degrees)
    m2 = sum(d * d for d in degrees)
    return m1, m2, degrees


def exact_walk_distribution(g, start: int, steps: int) -> np.ndarray:
    """t-step distribution of the simple random walk by dense matrix products."""
    a = dense_adjacency(g)
    deg = a.sum(axis=1)
    transition = a / deg[:, None]
    q = np.zeros(g.n)
    q[start] = 1.0
    for _ in range(steps):
        q = q @ transition
    return q


def pi_weighted_mean_degree(g) -> float:
    """Expected sampled degree under the degree-proportional distribution,
    computed directly from the definition."""
    deg = g.degrees.astype(np.float64)
    pi = deg / deg.sum()
    return float((pi * deg).sum())


def hill_tail_exponent(samples: np.ndarray, top_fraction: float = 0.05) -> float:
    """Hill estimator of the Pareto tail index over the largest order statistics."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    k = max(10, int(len(x) * top_fraction))
    tail = x[-k:]
    return 1.0 / float(np.mean(np.log(tail / tail[0])))


def ccdf_slope(degrees: np.ndarray, d_low: int, d_high: int) -> float:
    """Log-log least-squares slope of the degree CCDF on [d_low, d_high]."""
    deg = np.asarray(degrees)
    ds = np.arange(d_low, d_high + 1)
    ccdf = np.array([(deg >= d).mean() for d in ds])
    keep = ccdf > 0
    x = np.log(ds[keep].astype(np.float64))
    y = np.log(ccdf[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# The per-step walk loops the walk kernel replaced: every query goes
# through the oracle's own degree/neighbor calls.


def step_loop_walk_estimate(oracle: GraphOracle, cfg: WalkConfig) -> WalkReport:
    """Estimate m2/m1 by averaging degree samples along a uniform random walk.

    Burn-in runs ``cfg.t_star`` steps from ``cfg.start``; then each of the
    r sampling rounds records the current node's degree and walks on
    (``thin`` steps between samples, one trailing step after the last), so
    the walk takes t_star + (r-1)*thin + 1 steps total. Fully deterministic
    given (oracle contents, cfg). Raises ZeroDegreeNodeError if the walk
    reaches an isolated node.
    """
    rng = random.Random(cfg.seed)
    randrange = rng.randrange
    degree = oracle.degree
    neighbor = oracle.neighbor

    x = cfg.start
    queries = 0
    seen: set[int] = {x}

    def step() -> int:
        """Advance one step; returns the degree of the node being left."""
        nonlocal x, queries
        d = degree(x)
        if d == 0:
            raise ZeroDegreeNodeError(x)
        x = neighbor(x, randrange(d))
        queries += 2
        seen.add(x)
        return d

    for _ in range(cfg.t_star):
        step()
    acc = 0
    for i in range(cfg.r):
        acc += step()  # sample = degree of the node the step leaves
        if i < cfg.r - 1:
            for _ in range(cfg.thin - 1):
                step()

    return WalkReport(
        estimate=acc / cfg.r,
        total_steps=cfg.total_steps,
        total_queries=queries,
        distinct_nodes_seen=len(seen),
    )


def step_loop_error_curve(
    make_oracle,
    t1_reference: float,
    lambda_reference: float,
    seeds: list[int],
    budgets: list[int],
    t_star: int,
    thin: int = 10,
    start: int = 0,
    max_steps: int | None = None,
) -> list[CurvePoint]:
    """Walk-estimate error versus distinct-nodes-seen budget, one walk per seed.

    ``make_oracle`` is called once per seed for the oracle that seed's walk
    runs on; callers pass ``lambda: oracle`` to walk one oracle. Each walk
    runs with the given burn-in and thinning, recording its running degree
    average whenever the number of distinct nodes seen first reaches a
    budget; relative errors are taken against the supplied references. If
    the step cap is hit before the last budget, the remaining budgets are
    reported with the walk's final state.
    """
    if not seeds:
        raise ValueError("need at least one walk seed")
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive node counts")
    budgets = sorted(budgets)
    points: list[CurvePoint] = []
    for seed in seeds:
        oracle = make_oracle()
        cap = max_steps if max_steps is not None else 1000 * oracle.node_count()
        rng = random.Random(seed)
        randrange = rng.randrange
        degree = oracle.degree
        neighbor = oracle.neighbor

        x = start
        seen: set[int] = {x}
        steps = 0
        acc = 0
        samples = 0
        pending = iter(budgets)
        next_budget = next(pending)

        def snapshot(budget: int) -> CurvePoint:
            est = acc / samples if samples else float("nan")
            return CurvePoint(
                seed=seed,
                budget=budget,
                nodes_seen=len(seen),
                steps=steps,
                samples=samples,
                estimate=est,
                eps_t1=abs(est - t1_reference) / t1_reference,
                eps_lambda=abs(est - lambda_reference) / lambda_reference,
            )

        done = False
        while not done:
            d = degree(x)
            if d == 0:
                raise ZeroDegreeNodeError(x)
            if steps >= t_star and (steps - t_star) % thin == 0:
                acc += d
                samples += 1
            x = neighbor(x, randrange(d))
            steps += 1
            seen.add(x)
            while len(seen) >= next_budget:
                points.append(snapshot(next_budget))
                nxt = next(pending, None)
                if nxt is None:
                    done = True
                    break
                next_budget = nxt
            if steps >= cap and not done:
                # Budget unreachable in the step cap: emit the final state.
                points.append(snapshot(next_budget))
                for leftover in pending:
                    points.append(snapshot(leftover))
                done = True
    return points


def write_edge_list_lines(g: Graph, path: str) -> None:
    """Write one "u v" line per edge (u < v, sorted); read_edge_list inverts it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        offsets, neighbors = g.offsets, g.neighbors
        for u in range(g.n):
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                if u < v:
                    fh.write(f"{u} {v}\n")


def is_connected(g: Graph) -> bool:
    """Connectivity by a BFS from node 0 alone (the library's former test)."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    reached = 1
    while frontier.size:
        nbrs = _frontier_neighbors(g, frontier)
        fresh = _sorted_unique(nbrs[~seen[nbrs]])
        seen[fresh] = True
        reached += fresh.size
        frontier = fresh
    return reached == g.n


def top_down_components(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The component BFS before it took small last levels bottom-up: every
    level gathers the whole frontier's neighbor slices, and the root search
    runs to the last node. Returns ``(root, parity)`` like ``_components``."""
    deg = g.degrees
    root = np.where(deg > 0, -1, np.arange(g.n, dtype=np.int64))
    parity = np.zeros(g.n, dtype=np.int8)
    ends = np.flatnonzero(deg == 1)
    mates = g.neighbors[g.offsets[ends]]
    paired = deg[mates] == 1
    ends, mates = ends[paired], mates[paired]
    root[ends] = np.minimum(ends, mates)
    parity[ends] = ends > mates
    start, window = 0, 64
    while start < g.n:
        hits = np.flatnonzero(root[start : start + window] < 0)
        if not hits.size:
            start, window = start + window, 2 * window
            continue
        r = start + int(hits[0])
        root[r] = r
        frontier = np.array([r], dtype=np.int64)
        level = 0
        while frontier.size:
            nbrs = _frontier_neighbors(g, frontier)
            frontier = _sorted_unique(nbrs[root[nbrs] < 0])
            level ^= 1
            root[frontier] = r
            parity[frontier] = level
        start, window = r + 1, 64
    return root, parity


def bipartite_coloring(g: Graph) -> np.ndarray | None:
    """BFS 2-coloring. Returns the color array (0/1 per node) or None if an
    odd cycle exists. Unreached nodes are colored 0."""
    color = np.full(g.n, -1, dtype=np.int8)
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            cu = color[u]
            for v in neighbors_of(g, u):
                if color[v] < 0:
                    color[v] = 1 - cu
                    queue.append(int(v))
                elif color[v] == cu:
                    return None
    return color.astype(np.int64)


NAIVE_SAMPLER_NODE_GUARD = 20_000

# Candidate pairs per block of the reference sampler; peak memory is a few
# arrays of this many 8-byte values.
_NAIVE_BLOCK_PAIRS = 2**18


def chung_lu_sample_naive(ed: ExpectedDegrees, seed: int) -> Graph:
    """Reference sampler: every pair i < j independently with probability
    min(1, delta_i delta_j / S).

    Quadratic in n, so refuses n > NAIVE_SAMPLER_NODE_GUARD. Kept as the
    distributional oracle for the fast sampler.
    """
    n = ed.n
    if n > NAIVE_SAMPLER_NODE_GUARD:
        raise ValueError(
            f"naive sampler is quadratic; n = {n} exceeds the "
            f"{NAIVE_SAMPLER_NODE_GUARD}-node guard"
        )
    rng = np.random.default_rng(seed)
    delta, S = ed.delta, ed.mu1
    # Row i holds the pairs (i, j > i). A block of whole rows draws its
    # uniforms in one call, in the row-major order one call per row would.
    lens = np.arange(n - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(lens)
    edges_u: list[np.ndarray] = []
    edges_v: list[np.ndarray] = []
    row = 0
    while row < n - 1:
        first = ends[row] - lens[row]
        end = max(row + 1, int(np.searchsorted(ends, first + _NAIVE_BLOCK_PAIRS, "right")))
        block_lens = lens[row:end]
        row_starts = ends[row:end] - block_lens - first  # within the block
        i = np.repeat(np.arange(row, end, dtype=np.int64), block_lens)
        j = np.arange(i.size) - np.repeat(row_starts, block_lens) + i + 1
        hit = np.flatnonzero(rng.random(j.size) * S < delta[i] * delta[j])
        edges_u.append(i[hit])
        edges_v.append(j[hit])
        row = end
    if edges_u:
        pairs = np.column_stack((np.concatenate(edges_u), np.concatenate(edges_v)))
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return build_graph(pairs, n)


def per_row_chung_lu_sample(ed, seed: int) -> Graph:
    """The reference Chung-Lu sampler's former loop: one rng.random call per
    row, for the pairs (i, j > i), compared as u * S < delta_i * delta_j."""
    n = ed.n
    rng = np.random.default_rng(seed)
    delta = ed.delta
    edges_u: list[np.ndarray] = []
    edges_v: list[np.ndarray] = []
    for row_start in range(0, n - 1, 256):
        row_end = min(row_start + 256, n - 1)
        for i in range(row_start, row_end):
            tail = delta[i + 1 :]
            u = rng.random(n - 1 - i)
            hit = np.flatnonzero(u * ed.mu1 < delta[i] * tail)
            if hit.size:
                edges_u.append(np.full(hit.size, i, dtype=np.int64))
                edges_v.append(hit.astype(np.int64) + i + 1)
    if edges_u:
        pairs = np.column_stack((np.concatenate(edges_u), np.concatenate(edges_v)))
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return build_graph(pairs, n)


# The SIR step that recounted every infected node's neighbors on every step;
# sir_simulate now carries the counts forward and must match it exactly.

_SUSCEPTIBLE, _INFECTED, _RECOVERED = 0, 1, 2


def _infected_neighbor_counts(g: Graph, infected: np.ndarray) -> np.ndarray:
    return np.bincount(_frontier_neighbors(g, infected), minlength=g.n)


def recount_sir_simulate(g: Graph, p: SirParams) -> SirTrajectory:
    """Run the synchronous SIR dynamics until extinction or the step cap.

    Deterministic for a fixed seed: each step draws infection uniforms for
    the exposed susceptibles (ascending node order) and then recovery
    uniforms for the infected.
    """
    for v in p.initial_infected:
        if not 0 <= v < g.n:
            raise ValueError(f"initial infected node {v} out of range [0, {g.n})")
    max_steps = p.max_steps if p.max_steps is not None else 10 * g.n
    rng = np.random.default_rng(p.seed)

    state = np.zeros(g.n, dtype=np.int8)
    state[list(p.initial_infected)] = _INFECTED
    s_counts = [int((state == _SUSCEPTIBLE).sum())]
    i_counts = [int((state == _INFECTED).sum())]
    r_counts = [int((state == _RECOVERED).sum())]

    steps = 0
    while steps < max_steps:
        infected = np.flatnonzero(state == _INFECTED)
        if infected.size == 0:
            break
        counts = _infected_neighbor_counts(g, infected)
        exposed = np.flatnonzero((state == _SUSCEPTIBLE) & (counts > 0))
        if p.beta > 0.0 and exposed.size:
            p_inf = 1.0 - (1.0 - p.beta) ** counts[exposed]
            newly_infected = exposed[rng.random(exposed.size) < p_inf]
        else:
            newly_infected = exposed[:0]
        newly_recovered = infected[rng.random(infected.size) < p.mu]

        state[newly_infected] = _INFECTED
        state[newly_recovered] = _RECOVERED
        steps += 1
        s_counts.append(int((state == _SUSCEPTIBLE).sum()))
        i_counts.append(int((state == _INFECTED).sum()))
        r_counts.append(int((state == _RECOVERED).sum()))

    final_size = int((state != _SUSCEPTIBLE).sum())
    return SirTrajectory(
        s=np.asarray(s_counts, dtype=np.int64),
        i=np.asarray(i_counts, dtype=np.int64),
        r=np.asarray(r_counts, dtype=np.int64),
        final_size=final_size,
        steps=steps,
    )
