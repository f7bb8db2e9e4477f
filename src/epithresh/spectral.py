"""Exact spectral baselines: spectral radius, walk spectral gap, mixing time.

The spectral radius is the reference quantity the cheap estimators are
judged against; the gap of the degree-normalized adjacency controls how
many random-walk samples are needed. Both come from one Lanczos solver
that keeps O(n) vectors and no Krylov basis. Its matvec sums the rows of
at most 8 entries one column at a time from an int64 index of their
neighbours (8 B per such entry), and the longer (heavy) rows by
``reduceat`` over row blocks of at most 2^18 neighbour entries (a node of
higher degree is a block of its own). A block whose heavy rows hold fewer
than half of its entries keeps an int64 copy of just those entries and
gathers only them; any other block gathers its rows in place, and a block
with no heavy row is skipped. A copy holds at most half a block and fewer
entries than the block's light rows put in the index, so a solve holds
O(n), at most twice that index and one 2 MiB block however many edges the
graph has. Both paths add a row's entries in the order one ``reduceat``
over all rows does, so every product is bit-identical to it. The solver
stops on the Ritz residual |beta_k s_k|, which bounds the distance from
the reported value to an eigenvalue of the operator (Paige, 1980), so
``converged`` is a certificate rather than a stalled estimate. Bipartite
+/- eigenvalue pairs do not slow it down.

The residual is read from the Lanczos tridiagonal T_k, and only a check
that can pass solves T_k densely (``eigvalsh``, O(k^3)). Past k = 32 a
check first places the top Ritz value in O(k) per pass, by a Sturm count
and Newton's method on the LDL^T pivots of ``x I - T_k`` (Parlett, *The
Symmetric Eigenvalue Problem*, ch. 7), and estimates the residual there.
The estimate agrees with the dense residual to rounding, and the dense
solve alone decides and reports, so the screen changes which checks cost
O(k^3), never a result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _components

Matvec = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "SpectralResult",
    "SpectralGap",
    "BipartiteGraphError",
    "DisconnectedGraphError",
    "spectral_radius",
    "spectral_gap",
    "tv_mixing_time",
    "stationary_distribution",
    "adjacency_matvec",
    "bipartite_coloring",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000

_KRYLOV_CAP = 512  # longest Lanczos tridiagonal kept before a restart
_BREAKDOWN = 1e-12  # beta_k at or below this times ||T_k|| is an invariant subspace
_DENSE_CHECKS = 32  # checks up to this k solve T_k densely every step; later ones every 8
_SCREEN_FACTOR = 2.0  # a later check solves T_k densely once its estimate is at most this * tol
_EPS = float(np.finfo(np.float64).eps)

_MATVEC_BLOCK = 1 << 18  # neighbour entries one matvec gathers at once (2 MiB of float64)
_LIGHT = 8  # numpy's pairwise-sum block; rows of at most this many entries are summed by column

_MIXING_STEP_CAP = 1_000_000
_MIXING_DENSE_LIMIT = 5000


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph (top eigenvalue would be degenerate)."""


class BipartiteGraphError(ValueError):
    """Raised for walks that cannot mix; carries the detected 2-coloring."""

    def __init__(self, coloring: np.ndarray, reason: str = "the walk distribution never converges"):
        self.coloring = coloring
        side_a = int((coloring == 0).sum())
        side_b = int((coloring == 1).sum())
        sample_a = np.flatnonzero(coloring == 0)[:5].tolist()
        sample_b = np.flatnonzero(coloring == 1)[:5].tolist()
        super().__init__(
            f"graph is bipartite with parts of size {side_a} and {side_b} "
            f"(e.g. {sample_a} vs {sample_b}); {reason}"
        )


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalue estimate with its Lanczos certificate.

    ``iterations`` is the number of Lanczos steps, one matvec each.
    ``residual`` is the Ritz residual ``|beta_k s_k| / max(1, |value|)``:
    an eigenvalue of the operator lies within that relative distance of
    ``value``. ``converged`` means the residual fell below the tolerance
    (or the Krylov space became exactly invariant); a False flag is an
    explicit non-answer, never a silently wrong value.
    """

    value: float
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class SpectralGap:
    """Second eigenvalue of the normalized adjacency and the gap 1 - lambda2.

    ``iterations``, ``residual`` and ``converged`` carry the Lanczos
    certificate of ``lambda2`` as in :class:`SpectralResult`.
    """

    lambda2: float
    gap: float
    iterations: int
    residual: float
    converged: bool


def _adjacency_operator(g: Graph) -> Matvec:
    """``x -> A x`` for the graph adjacency, bit-identical to one ``reduceat`` over CSR rows.

    ``np.add.reduceat`` sums a row of d <= _LIGHT entries as
    ``a0 + (((a1 + a2) + a3) + ...)``; above that it switches to numpy's
    8-accumulator pairwise sum. The operator keeps two things, built once:

    - Light rows (1 to _LIGHT entries), sorted by degree, descending and
      stable, as up to _LIGHT int64 columns: column j holds neighbour j of
      every light row with more than j neighbours, a prefix of the sorted
      rows.
      A call sums columns 1.. left to right and adds column 0 last, the
      order ``reduceat`` uses, with no per-row cost.
    - Heavy rows, by ``reduceat`` over row blocks of at most _MATVEC_BLOCK
      neighbour entries (a longer row is a block of its own), so a call
      holds O(n) plus one block. Each block is one of two kinds, chosen
      from its degrees:

      - Copied, when its heavy rows hold fewer than half of its entries:
        an int64 copy of those entries in CSR order, each row's start in
        it, and the rows' positions in the block. A call gathers only the
        copy, one segment per heavy row. The copy holds at most half a
        block, and fewer entries than the block's light rows put in the
        columns.
      - Viewed, otherwise: a call gathers ``neighbors`` over the whole
        block. A one-byte-per-row mask marks the segment starts: each
        heavy row and the next nonempty row after it. Every heavy row's
        sum is thus its own segment in CSR order; the other sums land on
        light rows, which the light pass overwrites.

      A block with no heavy row is dropped.

    Degree-0 rows are in neither and stay 0.
    """
    offsets, degrees, neighbors = g.offsets, g.degrees, g.neighbors
    heavy = degrees > _LIGHT
    nonempty = np.flatnonzero(degrees)
    starts = heavy.copy()
    starts[nonempty[1:][heavy[nonempty[:-1]]]] = True
    light = nonempty[~heavy[nonempty]]
    light = light[np.argsort(-degrees[light], kind="stable")]
    light_degrees, row_starts = degrees[light], offsets[light]
    columns = []  # column j: neighbour j of the light rows of degree > j
    for j in range(_LIGHT):
        k = int(np.count_nonzero(light_degrees > j))
        if k == 0:
            break
        columns.append(neighbors[row_starts[:k] + j])

    blocks = []  # (first row, end row, entries gathered, segment starts or None, rows written)
    r0 = 0
    while r0 < g.n:
        # the last row boundary at most one block past r0's start
        end = int(np.searchsorted(offsets, offsets[r0] + _MATVEC_BLOCK, "right")) - 1
        r1 = max(r0 + 1, end)
        a, b = int(offsets[r0]), int(offsets[r1])
        d, h = degrees[r0:r1], heavy[r0:r1]
        hd = d[h]
        heavy_entries = int(hd.sum())
        if heavy_entries and 2 * heavy_entries < b - a:
            cols = neighbors[a:b][np.repeat(h, d)]
            blocks.append((r0, r1, cols, np.cumsum(hd) - hd, np.flatnonzero(h)))
        elif heavy_entries:
            blocks.append((r0, r1, neighbors[a:b], None, starts[r0:r1]))
        r0 = r1

    def matvec(x: np.ndarray) -> np.ndarray:
        out = np.zeros(g.n, dtype=np.float64)
        for r0, r1, cols, segs, rows in blocks:
            if segs is None:  # a view of the CSR rows: segments start at their offsets
                segs = offsets[r0:r1][rows] - offsets[r0]
            out[r0:r1][rows] = np.add.reduceat(x[cols], segs)
        if columns:
            acc = x[columns[0]]
            if len(columns) > 1:
                rest = x[columns[1]]
                for c in columns[2:]:
                    rest[: len(c)] += x[c]
                acc[: len(rest)] += rest
            out[light] = acc
        return out

    return matvec


def adjacency_matvec(g: Graph, x: np.ndarray) -> np.ndarray:
    """y = A x for the graph adjacency (see :func:`_adjacency_operator`).

    Raises ValueError unless ``x`` has shape ``(g.n,)``.
    """
    if np.shape(x) != (g.n,):
        raise ValueError(f"x must have shape ({g.n},), got {np.shape(x)}")
    return _adjacency_operator(g)(x)


def _two_coloring(g: Graph, parity: np.ndarray) -> np.ndarray | None:
    """``parity`` as int64 colors if every edge joins unequal parities, else None."""
    if (np.repeat(parity, g.degrees) != parity[g.neighbors]).all():
        return parity.astype(np.int64)
    return None


def bipartite_coloring(g: Graph) -> np.ndarray | None:
    """BFS 2-coloring: 0/1 per node, or None if an odd cycle exists.

    The color is the parity of the node's BFS level from the smallest node
    of its component (isolated nodes get 0), taken from the one traversal
    in ``graph._components`` and checked against every edge.
    """
    return _two_coloring(g, _components(g)[1])


def _lanczos(matvec: Matvec, q: np.ndarray, deflate: np.ndarray | None):
    """Plain three-term Lanczos recurrence from the unit vector ``q``.

    Yields ``(q_k, alpha_k, beta_k)`` once per matvec, holding only
    ``q_prev``, ``q`` and ``w``: ``w = A q_k - alpha_k q_k - beta_{k-1} q_{k-1}``
    and ``q_{k+1} = w / beta_k``. ``deflate`` (a unit vector) is projected
    out of every product. The caller stops pulling at a breakdown
    (``beta_k`` ~ 0), where the next vector is undefined.
    """
    q_prev = np.zeros_like(q)
    beta = 0.0
    while True:
        w = matvec(q)
        if deflate is not None:
            w -= (deflate @ w) * deflate
        w -= beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        yield q, alpha, beta
        w /= beta
        q_prev, q = q, w


def _ritz_vector(alpha: list[float], beta: list[float], theta: float) -> list[float]:
    """Unit eigenvector s of the Lanczos tridiagonal T_k for its eigenvalue ``theta``.

    Two steps of inverse iteration from the all-ones vector, each one O(k)
    Thomas solve with ``theta I - T_k``. ``theta`` is the top eigenvalue of
    T_k from a dense solve, or the point just above it that
    :func:`_top_ritz_bound` finds for a screened check. Either way every
    pivot but the last is positive (strict interlacing), so the elimination
    needs no pivoting; the last pivot is ~0, which is what makes the solve
    amplify s. The two thetas differ by a few rounding steps, far less than
    the gap to the next Ritz value, so both give the same s to rounding.
    """
    floor = _EPS * max(1.0, abs(theta))  # stands in for an exactly zero pivot
    piv = theta - alpha[0] or floor
    pivots = [piv]
    mults = []  # elimination multipliers beta_i / pivot_i
    for a, b in zip(alpha[1:], beta):
        m = b / piv
        piv = theta - a - m * b or floor
        mults.append(m)
        pivots.append(piv)
    x = [1.0] * len(alpha)
    for _ in range(2):
        for i, m in enumerate(mults):
            x[i + 1] += m * x[i]
        x[-1] /= pivots[-1]
        for i in range(len(mults) - 1, -1, -1):
            x[i] = (x[i] + beta[i] * x[i + 1]) / pivots[i]
        norm = math.sqrt(sum(v * v for v in x))
        x = [v / norm for v in x]
    return x


def _top_ritz_bound(alpha: list[float], beta: list[float], lower: float, upper: float) -> float:
    """A point at or just above the top eigenvalue of T_k, in O(k) passes.

    Each pass factors ``x I - T_k = L D L^T`` by the same pivot recurrence as
    :func:`_ritz_vector`: x lies above every eigenvalue exactly when no pivot
    is negative (Sturm count 0), and the pivots' derivatives give Newton's
    step ``p(x) / p'(x)`` on the characteristic polynomial p (Parlett, ch.
    7). The search starts just above ``lower`` (the previous check's value;
    by interlacing the top eigenvalue only grows with k) and widens
    geometrically until the count is 0, stopping at ``upper`` (a Gershgorin
    bound on ||T_k||). From above the top root Newton descends
    monotonically, to within a few rounding steps of it.
    """
    b2 = [b * b for b in beta[: len(alpha) - 1]]

    def newton_step(x: float) -> float | None:
        """``p(x) / p'(x)``, or None unless x is above every eigenvalue."""
        d = x - alpha[0]
        if d <= 0.0:
            return None
        dd = 1.0  # derivative of the pivot d in x
        slope = 1.0 / d  # p'(x) / p(x) = sum of dd / d over the pivots
        for a, bb in zip(alpha[1:], b2):
            r = bb / d
            dd = 1.0 + r * dd / d
            d = x - a - r
            if d <= 0.0:
                return None
            slope += dd / d
        return 1.0 / slope

    width = math.sqrt(_EPS) * max(1.0, abs(lower))
    x = min(lower + width, upper)
    while (dx := newton_step(x)) is None and x < upper:
        width *= 8.0
        x = min(lower + width, upper)
    while dx is not None:
        floor = 4.0 * _EPS * max(1.0, abs(x))  # at least 4 ulps of x
        if dx <= floor:
            break
        y = x - dx
        dy = newton_step(y)
        if dy is None:  # rounding put y at or just below the root
            if newton_step(y + floor) is not None:
                x = y + floor
            break
        x, dx = y, dy
    return x


def _top_eigenpair(
    matvec: Matvec,
    x0: np.ndarray,
    tol: float,
    max_iters: int,
    deflate: np.ndarray | None = None,
) -> tuple[float, int, float, bool]:
    """Largest eigenvalue of a symmetric operator by Lanczos, with a certificate.

    Returns ``(theta, steps, residual, converged)``. ``theta`` is the top
    Ritz value of the Lanczos tridiagonal T_k and ``residual`` its Ritz
    residual ``|beta_k s_k| / max(1, |theta|)``, where s is the Ritz vector
    of T_k. Even without reorthogonalization an eigenvalue of the operator
    lies within ``|beta_k s_k|`` of ``theta`` (Paige, 1980). The residual is
    checked on every step while k <= 32 and every 8 steps after that;
    ``converged`` means it fell below ``tol``, or that the recurrence broke
    down on an exactly invariant Krylov space. ``steps`` counts matvecs and
    never exceeds ``max_iters``.

    Checks up to k = 32 solve T_k densely. A later check first estimates
    its residual in O(k) passes (:func:`_top_ritz_bound`, then
    :func:`_ritz_vector` there) and skips the dense solve when the estimate
    exceeds ``_SCREEN_FACTOR * tol``. It solves densely when the estimate
    is at most that, and always at a breakdown, at ``max_iters`` and at
    k = _KRYLOV_CAP. The returned values and the restart's Ritz vector come
    only from dense solves, and the estimate matches the dense residual to
    rounding, so a skipped check is one that could not have passed: the
    stopping step and every returned value are those of a dense solve at
    every check.

    No Krylov basis is stored. A cycle that reaches _KRYLOV_CAP steps
    unconverged regenerates its Lanczos vectors from the same start to form
    the Ritz vector (another k matvecs) and restarts from it, so memory
    stays O(n + _KRYLOV_CAP^2).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    steps = 0
    x = x0
    while True:
        if deflate is not None:
            x = x - (deflate @ x) * deflate
        q = x / np.linalg.norm(x)
        alpha: list[float] = []
        beta: list[float] = []
        scale = 0.0  # Gershgorin bound on ||T_k||, which is <= ||A||
        for _, a, b in _lanczos(matvec, q, deflate):
            steps += 1
            scale = max(scale, abs(a) + b + (beta[-1] if beta else 0.0))
            alpha.append(a)
            beta.append(b)
            k = len(alpha)
            breakdown = b <= _BREAKDOWN * scale
            last = breakdown or steps >= max_iters or k == _KRYLOV_CAP
            if not (last or k <= _DENSE_CHECKS):
                if k % 8:
                    continue
                theta = _top_ritz_bound(alpha, beta, theta, scale)
                s = _ritz_vector(alpha, beta, theta)
                if b * abs(s[-1]) / max(1.0, abs(theta)) > _SCREEN_FACTOR * tol:
                    continue  # this check cannot pass: skip its dense solve
            t = np.zeros((k, k))
            t.flat[:: k + 1] = alpha
            t.flat[k :: k + 1] = beta[:-1]  # subdiagonal; eigvalsh reads the lower triangle
            theta = float(np.linalg.eigvalsh(t)[-1])
            s = _ritz_vector(alpha, beta, theta)
            residual = b * abs(s[-1]) / max(1.0, abs(theta))
            if breakdown or residual < tol:
                return theta, steps, residual, True
            if last:
                break
        if steps + k >= max_iters:
            return theta, steps, residual, False
        x = np.zeros_like(q)
        for s_i, (q_i, _, _) in zip(s, _lanczos(matvec, q, deflate)):
            x += s_i * q_i
        steps += k


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
) -> SpectralResult:
    """Largest adjacency eigenvalue by Lanczos from a positive random start.

    ``iterations`` counts Lanczos steps (one matvec each, at most
    ``max_iters``) and ``residual`` is the certified Ritz residual
    ``|beta_k s_k| / max(1, |lambda|)``: some eigenvalue of A lies within
    that relative distance of ``value``. On bipartite graphs the +/-lambda
    pair does not slow Lanczos down. If the residual does not reach ``tol``
    the result comes back with ``converged=False``.
    """
    if g.n == 0 or g.m == 0:
        raise ValueError("spectral_radius requires a nonempty graph with at least one edge")
    x0 = np.random.default_rng(seed).uniform(0.5, 1.5, g.n)
    value, iterations, residual, converged = _top_eigenpair(
        _adjacency_operator(g), x0, tol, max_iters
    )
    return SpectralResult(value, iterations, residual, converged)


def spectral_gap(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
) -> SpectralGap:
    """Second-largest eigenvalue of D^{-1/2} A D^{-1/2} and the gap 1 - lambda2.

    Lanczos runs on the normalized adjacency with its analytically known top
    eigenvector D^{1/2} 1 (eigenvalue exactly 1) projected out of the start
    and of every matvec, so the top remaining eigenvalue is lambda2.
    ``iterations`` and ``residual`` mean what they do for
    :func:`spectral_radius`; ``residual`` bounds the distance from
    ``lambda2`` to an eigenvalue. Requires a connected graph; a disconnected
    one has a multiple top eigenvalue and no well-defined lambda2 this way.
    """
    if g.n == 0 or g.m == 0:
        raise ValueError("spectral_gap requires a nonempty graph with at least one edge")
    if _components(g)[0].any():
        raise DisconnectedGraphError(
            "graph is disconnected: top eigenvalue multiplicity > 1"
        )
    sqrt_d = np.sqrt(g.degrees.astype(np.float64))
    top = sqrt_d / np.linalg.norm(sqrt_d)
    adjacency = _adjacency_operator(g)

    def normalized_matvec(x: np.ndarray) -> np.ndarray:
        return adjacency(x / sqrt_d) / sqrt_d

    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n)
    estimate, iterations, residual, converged = _top_eigenpair(
        normalized_matvec, x0, tol, max_iters, deflate=top
    )
    lambda2 = float(np.clip(estimate, -1.0, 1.0))
    return SpectralGap(lambda2, 1.0 - lambda2, iterations, residual, converged)


def _certified(result: SpectralResult | SpectralGap) -> float:
    """A radius's ``value`` or a gap's ``gap``; ValueError when the solve did
    not converge, because an uncertified number must not feed a result."""
    gap = isinstance(result, SpectralGap)
    name, value = ("spectral gap", result.gap) if gap else ("spectral radius", result.value)
    if not result.converged:
        raise ValueError(
            f"{name} {value} is not certified: Ritz residual "
            f"{result.residual:.3g} after {result.iterations} Lanczos steps"
        )
    return value


def stationary_distribution(g: Graph) -> np.ndarray:
    """Stationary distribution of the simple random walk: pi_v = d_v / sum(d).

    Isolated nodes get probability zero; extract the component first if the
    walk is meant to be irreducible.
    """
    if g.m == 0:
        raise ValueError("stationary distribution undefined on an edgeless graph")
    deg = g.degrees.astype(np.float64)
    return deg / deg.sum()


def tv_mixing_time(g: Graph, start: int, threshold: float | None = None) -> int:
    """Smallest t with ||q_t - pi||_1 <= threshold for the exact walk distribution.

    q_t is propagated exactly by iterated sparse transition application from
    a point mass at ``start``. The default threshold is the literal value
    1/n^2. Errors on bipartite graphs (the distribution oscillates forever)
    naming the 2-coloring, and if the threshold is not reached within 1e6
    steps.
    """
    if threshold is None:
        threshold = 1.0 / (g.n * g.n) if g.n else 1.0
    if g.n > _MIXING_DENSE_LIMIT:
        raise ValueError(
            f"tv_mixing_time supports n <= {_MIXING_DENSE_LIMIT}, got {g.n}"
        )
    if g.m == 0:
        raise ValueError("mixing time undefined on an edgeless graph")
    if not (0 <= start < g.n):
        raise ValueError(f"start node {start} out of range [0, {g.n})")
    root, parity = _components(g)
    if root.any():
        raise DisconnectedGraphError("mixing time undefined on a disconnected graph")
    coloring = _two_coloring(g, parity)
    if coloring is not None:
        raise BipartiteGraphError(coloring)

    pi = stationary_distribution(g)
    deg = g.degrees.astype(np.float64)
    q = np.zeros(g.n, dtype=np.float64)
    q[start] = 1.0
    adjacency = _adjacency_operator(g)
    for t in range(_MIXING_STEP_CAP + 1):
        if float(np.abs(q - pi).sum()) <= threshold:
            return t
        q = adjacency(q / deg)  # A is symmetric: q Q == A (q / d)
    raise RuntimeError(
        f"TV distance did not reach {threshold} within {_MIXING_STEP_CAP} steps"
    )
