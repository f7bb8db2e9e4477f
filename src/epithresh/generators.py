"""Seedable random-graph generators: expected-degree (Chung-Lu) models and
preferential attachment.

Two Chung-Lu samplers share identical per-pair edge probabilities
min(1, delta_i delta_j / S): a quadratic reference sampler kept as the
correctness oracle, and a weight-sorted edge-skipping sampler whose
expected runtime is O(n + m) so 50k-node instances finish in seconds.
Identical (parameters, seed) always reproduce identical edge lists.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph

__all__ = [
    "ExpectedDegrees",
    "expected_degrees",
    "power_law_expected_degrees",
    "uniform_expected_degrees",
    "count_clamped_pairs",
    "chung_lu_sample_naive",
    "chung_lu_sample_fast",
    "preferential_attachment",
    "NAIVE_SAMPLER_NODE_GUARD",
]

NAIVE_SAMPLER_NODE_GUARD = 20_000

# Candidate pairs per block of the reference sampler; peak memory is a few
# arrays of this many 8-byte values.
_NAIVE_BLOCK_PAIRS = 2**18


@dataclass(frozen=True)
class ExpectedDegrees:
    """Expected-degree vector delta for the Chung-Lu model, with its moments.

    Attributes
    ----------
    delta : ndarray of float64
        Strictly positive expected degrees.
    delta_max, delta_min : float
        Extremes of delta.
    mu1, mu2 : float
        First and second moments sum(delta), sum(delta**2). mu1 is the
        edge-probability normalizer S.
    feasible : bool
        True iff delta_max**2 <= S, which guarantees every pair probability
        delta_i delta_j / S is at most 1.
    clamped : int
        How many entries a generating routine clamped to keep the vector
        near-feasible (0 for directly supplied vectors).
    """

    delta: np.ndarray
    delta_max: float
    delta_min: float
    mu1: float
    mu2: float
    feasible: bool
    clamped: int = 0

    @property
    def n(self) -> int:
        return len(self.delta)


def expected_degrees(delta: np.ndarray, clamped: int = 0) -> ExpectedDegrees:
    """Validate and annotate an expected-degree vector."""
    arr = np.ascontiguousarray(delta, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected degrees must be a nonempty 1-d vector")
    if not np.all(arr > 0.0):
        raise ValueError("expected degrees must be strictly positive")
    arr.setflags(write=False)
    total = float(arr.sum())
    d_max = float(arr.max())
    return ExpectedDegrees(
        delta=arr,
        delta_max=d_max,
        delta_min=float(arr.min()),
        mu1=total,
        mu2=float((arr * arr).sum()),
        feasible=d_max * d_max <= total,
        clamped=clamped,
    )


def power_law_expected_degrees(
    n: int, beta: float, d_min: float, seed: int
) -> ExpectedDegrees:
    """n i.i.d. Pareto(beta - 1, d_min) draws, clamped once at sqrt(S).

    The tail exponent beta must exceed 2 so the mean is finite. Any draw
    above sqrt(sum of the raw draws) is clamped down in a single pass; the
    clamp keeps pair probabilities at most marginally above 1 (the few
    residual overshoots are counted and capped by the samplers).
    """
    if n <= 0:
        raise ValueError(f"need a positive node count, got {n}")
    if beta <= 2.0:
        raise ValueError(f"tail exponent must exceed 2 for a finite mean, got {beta}")
    if d_min < 1.0:
        raise ValueError(f"minimum expected degree must be >= 1, got {d_min}")
    rng = np.random.default_rng(seed)
    # Inverse-CDF Pareto with shape beta - 1: 1 - u in (0, 1] avoids a zero base.
    draws = d_min * (1.0 - rng.random(n)) ** (-1.0 / (beta - 1.0))
    cap = math.sqrt(float(draws.sum()))
    clamped = int((draws > cap).sum())
    if clamped:
        draws = np.minimum(draws, cap)
    return expected_degrees(draws, clamped=clamped)


def uniform_expected_degrees(
    n: int, low: float, high: float, seed: int
) -> ExpectedDegrees:
    """n i.i.d. uniform draws on [low, high]; a well-conditioned test-bed family."""
    if n <= 0:
        raise ValueError(f"need a positive node count, got {n}")
    if not 0.0 < low <= high:
        raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
    rng = np.random.default_rng(seed)
    return expected_degrees(rng.uniform(low, high, n))


def count_clamped_pairs(ed: ExpectedDegrees) -> int:
    """Exact number of pairs i < j whose raw probability delta_i delta_j / S
    exceeds 1 (deterministic; independent of any sampling seed)."""
    w = np.sort(ed.delta)  # ascending
    S = ed.mu1
    total = 0
    n = len(w)
    for i in range(n - 1, 0, -1):
        if w[i] * w[i - 1] <= S:
            break
        # Smallest partner index j < i with w[j] * w[i] > S.
        threshold = S / w[i]
        j = int(np.searchsorted(w[:i], threshold, side="right"))
        total += i - j
    return total


def _warn_if_infeasible(ed: ExpectedDegrees, where: str) -> None:
    if not ed.feasible:
        clamped = count_clamped_pairs(ed)
        detail = (
            f"{clamped} pair probabilities clamped to 1"
            if clamped
            else "no realized pair exceeds 1"
        )
        warnings.warn(
            f"{where}: delta_max^2 = {ed.delta_max**2:.6g} exceeds S = {ed.mu1:.6g}; {detail}",
            RuntimeWarning,
            stacklevel=3,
        )


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
    _warn_if_infeasible(ed, "chung_lu_sample_naive")
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


def chung_lu_sample_fast(ed: ExpectedDegrees, seed: int) -> Graph:
    """Edge-skipping sampler with the same per-pair marginals as the naive one.

    Weights are sorted descending; within each row the candidate index jumps
    geometrically under the current probability upper bound and accepted
    with the exact ratio, which yields independent Bernoulli(min(1, w_i w_j / S))
    pair outcomes in expected O(n + m) time.
    """
    _warn_if_infeasible(ed, "chung_lu_sample_fast")
    n = ed.n
    order = np.argsort(-ed.delta, kind="stable")
    w = ed.delta[order].tolist()
    ids = order.tolist()
    S = ed.mu1
    rng = random.Random(seed)
    rand = rng.random
    log = math.log
    us: list[int] = []
    vs: list[int] = []
    for i in range(n - 1):
        wi = w[i]
        j = i + 1
        p = wi * w[j] / S
        if p > 1.0:
            p = 1.0
        while j < n and p > 0.0:
            if p < 1.0:
                # 1 - rand() lies in (0, 1], so the log never sees zero.
                j += int(log(1.0 - rand()) / log(1.0 - p))
            if j < n:
                q = wi * w[j] / S
                if q > 1.0:
                    q = 1.0
                if rand() < q / p:
                    us.append(ids[i])
                    vs.append(ids[j])
                p = q
                j += 1
    pairs = np.column_stack((np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)))
    return build_graph(pairs, n)


def preferential_attachment(n: int, edges_per_node: int, seed: int) -> Graph:
    """Growing graph: each arriving node attaches ``edges_per_node`` edges to
    distinct existing nodes with probability proportional to current degree.

    The seed graph is a clique on edges_per_node + 1 nodes, so the edge
    count is exactly C(epn+1, 2) + epn * (n - epn - 1). Targets are drawn
    with replacement from a degree-repeated pool and redrawn until distinct,
    which keeps the graph simple without biasing the attachment kernel.
    """
    if edges_per_node < 1:
        raise ValueError(f"edges_per_node must be >= 1, got {edges_per_node}")
    if n <= edges_per_node:
        raise ValueError(
            f"need n > edges_per_node for a nonempty attachment phase, "
            f"got n = {n}, edges_per_node = {edges_per_node}"
        )
    rng = random.Random(seed)
    core = edges_per_node + 1
    edges: list[tuple[int, int]] = [
        (i, j) for i in range(core) for j in range(i + 1, core)
    ]
    # Degree-proportional pool: each node appears once per incident edge end.
    pool: list[int] = [v for pair in edges for v in pair]
    randrange = rng.randrange
    for v in range(core, n):
        chosen: set[int] = set()
        while len(chosen) < edges_per_node:
            chosen.add(pool[randrange(len(pool))])
        targets = sorted(chosen)
        for u in targets:
            edges.append((u, v))
        pool.extend(targets)
        pool.extend([v] * edges_per_node)
    return build_graph(np.asarray(edges, dtype=np.int64), n)
