"""Discrete-time synchronous SIR contagion over a graph.

One step evaluates everything from the same snapshot: a susceptible node
with k currently infected neighbors becomes infected with probability
1 - (1 - beta)^k, and each currently infected node independently recovers
with probability mu. A node infected this step cannot recover this step.
The threshold sweep exercises the critical ratio beta/mu around the inverse
spectral radius of the graph.

Each node is infected at most once and recovers at most once, so the
per-node count of infected neighbors is carried from step to step: the
neighbors of the nodes infected in a step are added to it and those of
the nodes that recovered are subtracted, instead of recounting every
infected node's edges each step (the infection-pressure bookkeeping of
event-driven simulators; Kiss, Miller & Simon, *Mathematics of Epidemics
on Networks*, Springer 2017). The compartment sizes are carried the same
way. A run costs O(n) per step plus the degrees of the nodes that change.

The threshold sweep reads only final sizes, and draws them without
simulating the steps. A node infected at step t first transmits at step
t + 1, and may recover in that same step; so it transmits in tau >= 1
steps, with tau ~ Geometric(mu) (P(tau = k) = (1 - mu)^(k-1) mu), and in
each of them it tries each susceptible neighbour with probability beta.
Call the directed edge u -> v open when one of u's tau tries at v would
succeed, with probability 1 - (1 - beta)^tau_u; all of u's out-edges share
u's tau. A node is ever infected exactly when an open path leads to it
from the start: which open edge into it fires first changes when it is
infected, not whether. So the set ever infected is, in law, the start's
out-component in this epidemic percolation network (Kenah & Robins,
*Second look at the spread of epidemics on networks*, Phys. Rev. E 76,
036113, 2007). An edge's marginal is Newman's transmissibility
T = beta / (beta + mu - beta mu) (Phys. Rev. E 66, 016128, 2002). Shared
tau correlates a node's out-edges, so this is not bond percolation at T.
A sweep run is one breadth-first search of that network, in which each
frontier node draws its tau once and then only its open edges. With
rate_u = -log1p(-beta) tau_u, u's edges open with probability
1 - (1 - beta)^tau_u = 1 - e^-rate_u. A sparse row (rate_u < 1) draws
h_u ~ Poisson(rate_u d_u) hits and sends each to an entry drawn uniformly
from its d_u: by Poisson splitting each entry is then hit Poisson(rate_u)
times, independently of the others, so it is open (hit at least once) with
probability 1 - e^-rate_u, the law above. Only the hit entries are read,
and an entry hit twice yields its neighbour twice, which the reached set
absorbs. A dense row (rate_u >= 1, so each edge opens with probability at
least 1 - 1/e) is gathered whole and draws one uniform per entry. A
sparse row's expected hits are rate_u d_u < d_u, so a row costs at most
about one draw per entry either way; drawing hits for a dense row too
would cost up to rate_u draws per entry. Within a slice of the frontier
the draws come in this order: the tau of each node in frontier order,
then the dense rows' uniforms, then the sparse rows' Poisson counts, then
one entry index per hit. The search ends by itself once a level reaches
no new node, so :func:`sir_simulate`'s step cap of 10n has no counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _frontier_neighbors, _sorted_unique
from .spectral import _certified, spectral_radius

# The update rule of the module docstring, as the CLI's CSV comment lines name it.
UPDATE_RULE = "update=synchronous-snapshot contact=1-(1-beta)^k"
# How the sweep draws its final sizes, as its CSV comment line names it.
SWEEP_FINAL = "final=percolation-bfs-poisson"
# Neighbour entries one percolation-BFS slice gathers at once; a node of
# higher degree is a slice of its own.
_BFS_SLICE = 1 << 16

__all__ = [
    "SirParams",
    "SirTrajectory",
    "SweepRow",
    "sir_simulate",
    "threshold_sweep",
]


@dataclass(frozen=True)
class SirParams:
    """Per-step infection probability beta, recovery probability mu, seeds."""

    beta: float
    mu: float
    initial_infected: tuple[int, ...]
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if not self.initial_infected:
            raise ValueError("need at least one initially infected node")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps}")


@dataclass(frozen=True)
class SirTrajectory:
    """Per-step compartment counts; index 0 is the initial state.

    ``final_size`` counts everyone ever infected (recovered plus still
    infected at cutoff). S + I + R equals n at every step.
    """

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    final_size: int
    steps: int


def _infected_neighbor_counts(g: Graph, infected: np.ndarray) -> np.ndarray:
    return np.bincount(_frontier_neighbors(g, infected), minlength=g.n)


def sir_simulate(g: Graph, p: SirParams) -> SirTrajectory:
    """Run the synchronous SIR dynamics until extinction or the step cap.

    Deterministic for a fixed seed: each step draws infection uniforms for
    the exposed susceptibles (ascending node order) and then recovery
    uniforms for the infected (ascending node order). Repeated initial
    infected nodes count once. The infected-neighbor counts start from the
    initial infected and are then updated from the nodes each step infects
    and recovers; the draws are the same as recounting them every step.
    """
    for v in p.initial_infected:
        if not 0 <= v < g.n:
            raise ValueError(f"initial infected node {v} out of range [0, {g.n})")
    max_steps = p.max_steps if p.max_steps is not None else 10 * g.n
    rng = np.random.default_rng(p.seed)

    susceptible = np.ones(g.n, dtype=bool)
    susceptible[list(p.initial_infected)] = False
    infected = np.flatnonzero(~susceptible)
    counts = _infected_neighbor_counts(g, infected)
    n_s, n_i, n_r = g.n - infected.size, infected.size, 0
    s_counts, i_counts, r_counts = [n_s], [n_i], [n_r]

    steps = 0
    while steps < max_steps and n_i:
        exposed = np.flatnonzero(susceptible & (counts > 0))
        if p.beta > 0.0 and exposed.size:
            p_inf = 1.0 - (1.0 - p.beta) ** counts[exposed]
            newly_infected = exposed[rng.random(exposed.size) < p_inf]
        else:
            newly_infected = exposed[:0]
        recovers = rng.random(infected.size) < p.mu
        newly_recovered = infected[recovers]

        susceptible[newly_infected] = False
        if newly_infected.size:
            counts += _infected_neighbor_counts(g, newly_infected)
        if newly_recovered.size:
            counts -= _infected_neighbor_counts(g, newly_recovered)
        infected = np.sort(np.concatenate((infected[~recovers], newly_infected)))
        n_s -= newly_infected.size
        n_i += newly_infected.size - newly_recovered.size
        n_r += newly_recovered.size
        steps += 1
        s_counts.append(n_s)
        i_counts.append(n_i)
        r_counts.append(n_r)

    final_size = n_i + n_r
    return SirTrajectory(
        s=np.asarray(s_counts, dtype=np.int64),
        i=np.asarray(i_counts, dtype=np.int64),
        r=np.asarray(r_counts, dtype=np.int64),
        final_size=final_size,
        steps=steps,
    )


def _percolation_final_size(
    g: Graph, beta: float, mu: float, start: int, rng: np.random.Generator
) -> int:
    """The size of ``start``'s out-component in one draw of the epidemic
    percolation network (module docstring): in law, the final size of a
    :func:`sir_simulate` run from ``start`` alone.

    A level-synchronous BFS, the frontier cut into slices of at most
    _BFS_SLICE neighbour entries. Each slice draws its nodes' tau in
    frontier order, which sets each node's rate ``-log1p(-beta) * tau``,
    and then draws only the open edges of its rows (:func:`_open_neighbors`):
    first one uniform per entry of the dense rows (rate >= 1), then the
    sparse rows' Poisson hit counts, then one entry index per hit. By
    Poisson splitting an entry is open with probability ``1 - e^-rate``
    either way, and a row costs at most about one draw per entry. The newly
    reached nodes of a slice are marked before the next slice filters. At
    beta 1 every edge is open and at beta 0 none, and neither draws.
    """
    if beta == 0.0:
        return 1
    rate_per_step = -np.log1p(-beta) if beta < 1.0 else None
    reached = np.zeros(g.n, dtype=bool)
    reached[start] = True
    frontier = np.array([start], dtype=np.int64)
    size = 1
    while frontier.size:
        ends = np.cumsum(g.degrees[frontier])
        level = []
        i = 0
        while i < frontier.size:
            base = int(ends[i - 1]) if i else 0
            j = max(i + 1, int(np.searchsorted(ends, base + _BFS_SLICE, "right")))
            nodes = frontier[i:j]
            if rate_per_step is None:
                nbrs = _frontier_neighbors(g, nodes)
            else:
                rate = rng.geometric(mu, nodes.size) * rate_per_step
                nbrs = _open_neighbors(g, nodes, rate, rng)
            new = _sorted_unique(nbrs[~reached[nbrs]])
            reached[new] = True
            size += new.size
            level.append(new)
            i = j
        frontier = np.concatenate(level)
    return size


def _open_neighbors(
    g: Graph, nodes: np.ndarray, rate: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The neighbours behind the open out-edges of ``nodes``, each of a
    node's edges open with probability ``1 - e^-rate``; one may repeat.

    A dense row (rate >= 1) is gathered and draws one uniform per entry. A
    sparse row draws Poisson(rate * degree) hits, each at a uniform entry,
    and reads only the hit entries: each entry is hit Poisson(rate) times,
    independently, and is open when hit at all.
    """
    degrees = g.degrees[nodes]
    dense = rate >= 1.0
    opened = []
    if dense.any():
        nbrs = _frontier_neighbors(g, nodes[dense])
        p_open = -np.expm1(-rate[dense])
        opened.append(nbrs[rng.random(nbrs.size) < np.repeat(p_open, degrees[dense])])
    sparse = ~dense
    hits = rng.poisson(rate[sparse] * degrees[sparse])
    pos = rng.integers(np.repeat(degrees[sparse], hits))
    pos += np.repeat(g.offsets[nodes[sparse]], hits)
    opened.append(g.neighbors[pos])
    return np.concatenate(opened) if len(opened) > 1 else opened[0]


@dataclass(frozen=True)
class SweepRow:
    """Mean outbreak size at one transmissibility multiple of the threshold."""

    ratio: float
    beta: float
    mu: float
    mean_final_fraction: float
    sd_final_fraction: float
    reps: int


def threshold_sweep(
    g: Graph,
    ratios: list[float],
    reps: int,
    seed: int,
    mu: float = 0.2,
    lam: float | None = None,
) -> list[SweepRow]:
    """Mean final-size fraction at beta/mu = ratio / lambda(A), per ratio.

    Each replication infects one uniformly random initial node, and its
    final size is one percolation BFS from it (module docstring), run in
    the calling thread. ``lam`` short-circuits the spectral radius if the
    caller already has it; a radius solved here that is not certified is
    refused.
    """
    if not ratios:
        raise ValueError("need at least one ratio")
    if not all(0.0 <= r < np.inf for r in ratios):  # NaN fails both bounds
        raise ValueError(f"ratios must be finite and nonnegative, got {ratios}")
    if reps < 1:
        raise ValueError("need at least one replication")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    if lam is None:
        lam = _certified(spectral_radius(g))
    elif not 0.0 < lam < np.inf:  # NaN fails both bounds
        raise ValueError(f"lam must be finite and positive, got {lam}")
    master = np.random.default_rng(seed)
    betas = [min(1.0, ratio * mu / lam) for ratio in ratios]
    # Start nodes and replication seeds are drawn up front, ratio-major.
    jobs = [
        (beta, int(master.integers(g.n)), int(master.integers(2**63 - 1)))
        for beta in betas
        for _ in range(reps)
    ]
    sizes = np.array(
        [
            _percolation_final_size(g, beta, mu, start, np.random.default_rng(rep_seed))
            for beta, start, rep_seed in jobs
        ]
    ).reshape(len(ratios), reps)
    # integer sizes, divided once: a sweep where every run reaches the same
    # number of nodes reports that fraction exactly, with sd 0
    return [
        SweepRow(
            ratio=float(ratio),
            beta=float(beta),
            mu=float(mu),
            mean_final_fraction=float(row.mean() / g.n),
            sd_final_fraction=float(row.std(ddof=1) / g.n) if reps > 1 else 0.0,
            reps=reps,
        )
        for ratio, beta, row in zip(ratios, betas, sizes)
    ]
