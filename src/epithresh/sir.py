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
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _frontier_neighbors
from .spectral import _certified, spectral_radius

# The update rule of the module docstring, as the CLI's CSV comment lines name it.
UPDATE_RULE = "update=synchronous-snapshot contact=1-(1-beta)^k"

__all__ = [
    "SirParams",
    "SirTrajectory",
    "SweepRow",
    "sir_simulate",
    "threshold_sweep",
    "worker_count",
]


def worker_count(reps: int) -> int:
    """Replication workers for the SIR sweep: one per CPU this process may
    run on, and no more than there are replications."""
    try:
        return min(reps, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return min(reps, os.cpu_count() or 1)


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

    @property
    def final_fraction(self) -> float:
        n = int(self.s[0] + self.i[0] + self.r[0])
        return self.final_size / n


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

    Each replication infects one uniformly random initial node. The
    replications of every ratio run as one job list on one thread pool, so
    no worker waits for a ratio's slowest run. With one worker the jobs run
    in the calling thread, reusing heap the caller has freed; a pool thread
    would take its temporaries from a second malloc arena and grow the
    process. ``lam`` short-circuits the spectral radius if the caller
    already has it; a radius solved here that is not certified is refused.
    """
    if not ratios:
        raise ValueError("need at least one ratio")
    if not all(0.0 <= r < np.inf for r in ratios):  # NaN fails both bounds
        raise ValueError(f"ratios must be finite and nonnegative, got {ratios}")
    if reps < 1:
        raise ValueError("need at least one replication")
    if lam is None:
        lam = _certified(spectral_radius(g))
    master = np.random.default_rng(seed)
    betas = [min(1.0, ratio * mu / lam) for ratio in ratios]
    # Replication seeds are drawn up front, ratio-major, so results do not
    # depend on how many workers execute them.
    jobs = [
        (beta, int(master.integers(g.n)), int(master.integers(2**63 - 1)))
        for beta in betas
        for _ in range(reps)
    ]

    def one_rep(job: tuple[float, int, int]) -> float:
        beta, start, rep_seed = job
        traj = sir_simulate(
            g, SirParams(beta=beta, mu=mu, initial_infected=(start,), seed=rep_seed)
        )
        return traj.final_fraction

    workers = worker_count(len(jobs))
    if workers == 1:
        results = list(map(one_rep, jobs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_rep, jobs))
    fractions = np.array(results).reshape(len(ratios), reps)
    return [
        SweepRow(
            ratio=float(ratio),
            beta=float(beta),
            mu=float(mu),
            mean_final_fraction=float(row.mean()),
            sd_final_fraction=float(row.std(ddof=1)) if reps > 1 else 0.0,
            reps=reps,
        )
        for ratio, beta, row in zip(ratios, betas, fractions)
    ]
