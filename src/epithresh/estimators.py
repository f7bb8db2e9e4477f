"""Closed-form threshold estimators, concentration bounds, and walk planning.

The cheap threshold proxy for a graph is the degree-moment ratio m2/m1;
its population analogue for an expected-degree model is mu2/mu1 (the top
eigenvalue of the rank-1 edge-probability kernel). The bound evaluators
quantify when those proxies are trustworthy, and ``sample_size`` turns a
spectral gap plus target accuracy into a random-walk sampling plan.

All logarithms here are natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import DegreeStats, Graph, degree_stats
from .generators import ExpectedDegrees
from .spectral import SpectralGap

__all__ = [
    "MomentEstimate",
    "BoundReport",
    "SampleSizePlan",
    "ConditionCheck",
    "expected_moment_ratio",
    "t1_estimate",
    "relative_error",
    "hoeffding_m1_bound",
    "chung_radcliffe_bound",
    "chunglu_condition",
    "sample_size",
]


@dataclass(frozen=True)
class MomentEstimate:
    """Degree-moment threshold estimate t1 = m2/m1 with its exact ingredients."""

    t1: float
    m1: int
    m2: int


@dataclass(frozen=True)
class BoundReport:
    """A concentration/deviation bound value plus its applicability condition."""

    value: float
    condition_holds: bool
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SampleSizePlan:
    """Random-walk sampling plan: r degree samples after t_star burn-in steps."""

    r: int
    t_star: int
    eps: float
    delta: float
    gap: float


class ConditionCheck(NamedTuple):
    """Strict-inequality check with the LHS/RHS ratio as margin (>1 means holds)."""

    holds: bool
    margin: float
    lhs: float
    rhs: float


def expected_moment_ratio(ed: ExpectedDegrees) -> float:
    """mu2/mu1: top eigenvalue of the rank-1 expected-adjacency kernel."""
    if ed.mu1 <= 0.0:
        raise ValueError("expected degrees must have positive total mass")
    return ed.mu2 / ed.mu1


def t1_estimate(g: Graph) -> MomentEstimate:
    """Degree-moment ratio m2/m1 from exact integer sums."""
    if g.m == 0:
        raise ValueError("t1 undefined on an edgeless graph")
    stats = degree_stats(g)
    return MomentEstimate(t1=stats.m2 / stats.m1, m1=stats.m1, m2=stats.m2)


def relative_error(estimate: float, reference: float) -> float:
    """|estimate/reference - 1|; errors on a zero reference."""
    if reference == 0.0:
        raise ValueError("relative error undefined for a zero reference")
    return abs(estimate / reference - 1.0)


def hoeffding_m1_bound(ed: ExpectedDegrees, eps: float) -> BoundReport:
    """Tail bound on the edge mass: P(|m1/mu1 - 1| > eps) <= 2 exp(-eps^2 mu1^2 / (n(n-1))).

    No side condition; the bound is valid (if possibly vacuous) for any
    eps > 0 because the n-choose-2 pair indicators are independent.
    """
    n = ed.n
    if n < 2:
        raise ValueError("bound needs at least two nodes")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    exponent = -(eps**2) * ed.mu1**2 / (n * (n - 1))
    value = 2.0 * math.exp(exponent)
    return BoundReport(
        value=value,
        condition_holds=True,
        inputs={"n": n, "eps": eps, "mu1": ed.mu1},
    )


def chung_radcliffe_bound(ed: ExpectedDegrees, eps: float) -> BoundReport:
    """Deviation of the adjacency eigenvalue from the kernel eigenvalue.

    With probability at least 1 - eps the two differ by at most
    2 sqrt(Delta ln(2n/eps)), valid once Delta > (4/9) ln(2n/eps); the
    report carries that condition as a flag.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    n = ed.n
    delta_max = ed.delta_max
    log_term = math.log(2.0 * n / eps)
    value = 2.0 * math.sqrt(delta_max * log_term)
    return BoundReport(
        value=value,
        condition_holds=delta_max > (4.0 / 9.0) * log_term,
        inputs={"n": n, "eps": eps, "delta_max": delta_max},
    )


def chunglu_condition(ed: ExpectedDegrees) -> ConditionCheck:
    """Strictly check mu2/mu1 > ln(n) sqrt(delta_max), the regime where the
    adjacency eigenvalue tracks the kernel eigenvalue."""
    lhs = expected_moment_ratio(ed)
    rhs = math.log(ed.n) * math.sqrt(ed.delta_max)
    margin = math.inf if rhs == 0.0 else lhs / rhs
    return ConditionCheck(holds=lhs > rhs, margin=margin, lhs=lhs, rhs=rhs)


def log_squared_dominance(ed: ExpectedDegrees) -> float:
    """Finite-n diagnostic (mu2/mu1) / ln(n)^2 for the moment-concentration
    regime, which asks the expected threshold to dominate log-squared growth.
    Reported as a plain ratio; no cutoff is asserted."""
    log_n = math.log(ed.n)
    if log_n == 0.0:
        return math.inf
    return expected_moment_ratio(ed) / (log_n * log_n)


def sample_size(
    stats: DegreeStats,
    gap: SpectralGap | float,
    eps: float,
    delta: float,
    t_star: int | None = None,
) -> SampleSizePlan:
    """Walk-sample count for a (1 +/- eps) moment-ratio estimate at confidence 1 - delta.

    r = ceil( (1 / (gap eps^{3/2})) * (6 m1 d_max / m2) * ln(1/delta) ),
    evaluated on the observed degree sums. The default burn-in is
    ceil(ln n), matching the query count gap-bounded expected-degree graphs
    admit; pass ``t_star`` to override. A :class:`SpectralGap` whose solve
    did not converge is refused: a truncated gap would size the walk from
    an uncertified number.
    """
    if isinstance(gap, SpectralGap):
        if not gap.converged:
            raise ValueError(
                f"spectral gap {gap.gap} is not certified: Ritz residual "
                f"{gap.residual:.3g} after {gap.iterations} Lanczos steps"
            )
        gap_value = gap.gap
    else:
        gap_value = float(gap)
    if gap_value <= 0.0:
        raise ValueError("sample size requires a positive spectral gap")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if stats.m1 == 0:
        raise ValueError("sample size undefined on an edgeless graph")
    factor = 6.0 * stats.m1 * stats.d_max / stats.m2
    r = math.ceil(factor * math.log(1.0 / delta) / (gap_value * eps**1.5))
    if t_star is None:
        t_star = math.ceil(math.log(stats.n)) if stats.n > 1 else 0
    if t_star < 0:
        raise ValueError("burn-in must be nonnegative")
    return SampleSizePlan(
        r=max(1, r), t_star=t_star, eps=eps, delta=delta, gap=gap_value
    )
