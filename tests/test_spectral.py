import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epithresh import spectral
from epithresh.generators import (
    chung_lu_sample_fast,
    power_law_expected_degrees,
    preferential_attachment,
    uniform_expected_degrees,
)
from epithresh.graph import _components, build_graph, degree_stats, largest_component
from epithresh.spectral import (
    BipartiteGraphError,
    DisconnectedGraphError,
    adjacency_matvec,
    bipartite_coloring,
    spectral_gap,
    spectral_radius,
    stationary_distribution,
    tv_mixing_time,
)

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
    traced_peak,
)
import oracles
from oracles import dense_adjacency, exact_walk_distribution, jacobi_spectral_radius


@st.composite
def sparse_graphs(draw):
    """Graphs on 1..40 nodes from up to 120 random pairs: isolated nodes,
    repeated pairs and self-loops (dropped by the build) and uneven degrees.
    Up to three hubs each join the next 0..16 nodes, so rows run on both
    sides of ``spectral._LIGHT`` entries."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=120))
    hubs = draw(st.lists(st.tuples(node, st.integers(0, 16)), max_size=3))
    pairs += [(h, (h + i) % n) for h, k in hubs for i in range(1, k + 1)]
    return build_graph(pairs, n)


def dense_normalized_eigenvalues(g) -> np.ndarray:
    """Ascending eigenvalues of D^-1/2 A D^-1/2 by dense numpy.linalg.eigvalsh."""
    inv_sqrt = 1.0 / np.sqrt(dense_adjacency(g).sum(axis=1))
    return np.linalg.eigvalsh(inv_sqrt[:, None] * dense_adjacency(g) * inv_sqrt[None, :])


# Row 0 has 9 entries and is followed by the isolated rows 1, 2 and the
# light row 3; row 4 has exactly 8; the heavy row 28 is followed only by the
# isolated row 29. At blocks of fewer than 9 entries each heavy row is a
# block of its own, so it is last in its block.
LIGHT_AND_HEAVY = build_graph(
    [(0, v) for v in range(10, 19)]
    + [(3, v) for v in range(10, 13)]
    + [(4, v) for v in range(10, 18)]
    + [(5, v) for v in range(19, 28)]
    + [(28, v) for v in range(19, 28)],
    30,
)


def stars_of_paths(spokes: tuple[int, ...], length: int):
    """A hub per entry of ``spokes``, joined to that many paths of ``length``
    nodes and to the next hub: a few heavy rows among many light ones. In
    node order each hub comes right before its paths."""
    edges, hub = [], 0
    for i, k in enumerate(spokes):
        edges += [(hub, hub + 1 + s * length) for s in range(k)]
        edges += [(v, v + 1) for v in range(hub + 1, hub + k * length) if (v - hub) % length]
        if i + 1 < len(spokes):
            edges.append((hub, hub + 1 + k * length))
        hub += 1 + k * length
    return build_graph(edges, hub)


STARS_OF_PATHS = stars_of_paths((9, 12, 40), 6)


def power_law_graph(n: int, d_min: float, seed: int):
    """A power-law (beta 2.5) Chung-Lu sample, expected degrees from ``seed``
    and the sample from ``seed + 1``; its largest expected degrees exceed
    the model's bound."""
    ed = power_law_expected_degrees(n, 2.5, d_min, seed=seed)
    return chung_lu_sample_fast(ed, seed + 1)


def block_gathers(g) -> list[bool]:
    """Per row block of ``g``'s operator: True where it gathers through a view
    of the CSR neighbours, False where through its own copy of the heavy
    rows' entries. Checks that every block holds a heavy row and that every
    copy holds fewer than half of its block's entries."""
    op = spectral._adjacency_operator(g)
    blocks = op.__closure__[op.__code__.co_freevars.index("blocks")].cell_contents
    views = []
    for r0, r1, cols, _, _ in blocks:
        assert (g.degrees[r0:r1] > spectral._LIGHT).any()
        views.append(np.shares_memory(cols, g.neighbors))
        assert views[-1] or 2 * len(cols) < g.offsets[r1] - g.offsets[r0]
    return views


def signed_zeros_and_magnitudes(n: int, seed: int) -> np.ndarray:
    """Normal entries scaled by 10^-8..10^8, a fifth of them +0.0 and a fifth
    -0.0, so that any change in the order of a row's additions shows."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.25] = -0.0
    return x


def one_reduceat(g, x: np.ndarray) -> np.ndarray:
    """A x by one ``np.add.reduceat`` over every nonempty CSR row."""
    want = np.zeros(g.n)
    nz = g.degrees > 0
    if g.m:
        want[nz] = np.add.reduceat(x[g.neighbors], g.offsets[:-1][nz])
    return want


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def complete_bipartite(a: int, b: int):
    return build_graph([(i, a + j) for i in range(a) for j in range(b)], a + b)


def gap_near_one_core():
    """The largest component of a power-law (d_min 1) Chung-Lu sample at
    n=1000: lambda2 ~ 0.956 with lambda3 ~ 0.951, 128 Lanczos steps."""
    ed = power_law_expected_degrees(1000, 2.5, 1.0, seed=2)
    return largest_component(chung_lu_sample_fast(ed, seed=102))[0]


# Graphs whose solves must not depend on the O(k) screen: a restart (P_700),
# breakdowns (K4, C4, star5), bipartite spectra and Chung-Lu/PA samples.
SCREEN_CORPUS = {
    "P700": lambda: path_graph(700),
    "K4": lambda: complete_graph(4),
    "C4": lambda: cycle_graph(4),
    "star5": lambda: star_graph(5),
    "C100": lambda: cycle_graph(100),
    "K3,4": lambda: complete_bipartite(3, 4),
    "power-law-core-1000": gap_near_one_core,
    "pa-500": lambda: preferential_attachment(500, 5, 2),
    "chung-lu-power-law-3000": lambda: power_law_graph(3000, 1.0, 2),
    "chung-lu-uniform-3000": lambda: chung_lu_sample_fast(
        uniform_expected_degrees(3000, 6, 14, seed=4), seed=5
    ),
}
SOLVER_SETTINGS = [
    {}, {"tol": 1e-8}, {"max_iters": 400}, {"max_iters": 3}, {"max_iters": 6}, {"max_iters": 12},
]

# Above the breakdown threshold of every T_k that `tridiagonals` draws: its
# Gershgorin bound is at most 2 + 1 + 1.
NEAR_BREAKDOWN = 1.01 * spectral._BREAKDOWN * 4.0


def tridiagonal(alpha: list[float], beta: list[float]) -> np.ndarray:
    """T_k from its diagonal and the first k - 1 off-diagonals."""
    return np.diag(alpha) + np.diag(beta[: len(alpha) - 1], 1) + np.diag(beta[: len(alpha) - 1], -1)


@st.composite
def tridiagonals(draw):
    """``(alpha, beta, lower, upper)`` as ``_top_eigenpair`` holds them at a
    check: T_k with k in 1..80, diagonal entries in [-2, 2] that repeat a few
    drawn values, positive off-diagonals up to 1 that include ones just above
    the breakdown threshold, and ``beta[-1]`` outside T_k. ``lower`` is the
    top eigenvalue of a leading block (a previous check's value) and
    ``upper`` the solver's Gershgorin bound."""
    k = draw(st.integers(1, 80))
    entry = st.floats(-2.0, 2.0)
    repeated = st.sampled_from(draw(st.lists(entry, min_size=1, max_size=3)))
    alpha = draw(st.lists(st.one_of(repeated, entry), min_size=k, max_size=k))
    coupling = st.one_of(st.just(NEAR_BREAKDOWN), st.floats(NEAR_BREAKDOWN, 1.0))
    beta = draw(st.lists(coupling, min_size=k, max_size=k))
    j = draw(st.integers(1, k))
    lower = float(np.linalg.eigvalsh(tridiagonal(alpha[:j], beta[:j]))[-1])
    upper = max(abs(a) + b + c for a, b, c in zip(alpha, beta, [0.0] + beta))
    return alpha, beta, lower, upper


class TestSpectralRadius:
    def test_complete_graph(self, k4):
        assert spectral_radius(k4).value == pytest.approx(3.0, abs=1e-8)

    def test_star(self, star5):
        assert spectral_radius(star5).value == pytest.approx(2.0, abs=1e-8)

    def test_path(self, path3):
        assert spectral_radius(path3).value == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_cycle(self):
        # C5 spectrum is 2 cos(2 pi k / 5); top value 2
        assert spectral_radius(cycle_graph(5)).value == pytest.approx(2.0, abs=1e-8)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(8, 41))
            g = random_graph(n, 0.2, int(rng.integers(1 << 30)))
            got = spectral_radius(g, seed=3).value
            want = jacobi_spectral_radius(g)
            assert got == pytest.approx(want, abs=1e-6)

    def test_bounds_invariant(self):
        for seed in range(8):
            g = random_graph(35, 0.15, seed)
            s = degree_stats(g)
            lam = spectral_radius(g).value
            assert s.m1 / s.n - 1e-9 <= lam <= s.d_max + 1e-9

    def test_disconnected_takes_global_max(self):
        # K4 plus a separate edge: radius is K4's 3
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)], 6)
        assert spectral_radius(g).value == pytest.approx(3.0, abs=1e-8)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            spectral_radius(build_graph([], 3))

    def test_single_edge(self):
        assert spectral_radius(build_graph([(0, 1)], 2)).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_isolated_nodes_do_not_disturb(self):
        # K3 plus two isolated nodes: radius still 2
        g = build_graph([(0, 1), (1, 2), (0, 2)], 5)
        assert spectral_radius(g).value == pytest.approx(2.0, abs=1e-8)

    def test_non_convergence_flagged(self):
        g = random_graph(30, 0.2, seed=4)
        result = spectral_radius(g, tol=0.0, max_iters=5)
        assert not result.converged
        assert result.iterations == 5

    def test_matvec_matches_dense(self):
        g = build_graph([(0, 1), (2, 3), (3, 4)], 6)  # includes isolated node 5
        x = np.arange(6, dtype=float) + 1
        assert np.allclose(adjacency_matvec(g, x), dense_adjacency(g) @ x)

    @given(
        g=sparse_graphs(),
        block=st.sampled_from([1, 2, 3, 7, spectral._MATVEC_BLOCK]),
        seed=st.integers(0, 99),
    )
    @example(g=LIGHT_AND_HEAVY, block=1, seed=0)
    @example(g=LIGHT_AND_HEAVY, block=3, seed=1)
    @example(g=LIGHT_AND_HEAVY, block=7, seed=2)
    @settings(max_examples=300, deadline=None)
    def test_blocked_matvec_equals_one_gather(self, g, block, seed):
        # rows straddle the cuts, rows run longer than a block, blocks of
        # isolated nodes hold no entries, and rows of up to and over _LIGHT
        # entries take the column and the reduceat paths
        x = signed_zeros_and_magnitudes(g.n, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_MATVEC_BLOCK", block)
            assert_same_bits(adjacency_matvec(g, x), one_reduceat(g, x))

    def test_copied_heavy_rows_equal_one_gather(self, monkeypatch):
        # a block whose heavy rows hold under half of its entries gathers a
        # copy of theirs, any other block a view of its CSR rows; blocks of
        # one entry, blocks that cut rows and blocks of whole graphs all give
        # the bits of one reduceat
        core, _ = largest_component(power_law_graph(2000, 1.0, 5))
        for g in (STARS_OF_PATHS, core):
            x = signed_zeros_and_magnitudes(g.n, seed=g.n)
            want = one_reduceat(g, x)
            views = set()
            for block in (1, 5, 13, 37, 64, 1 << 12, spectral._MATVEC_BLOCK):
                monkeypatch.setattr(spectral, "_MATVEC_BLOCK", block)
                views.update(block_gathers(g))
                assert_same_bits(adjacency_matvec(g, x), want)
            assert views == {True, False}

    @pytest.mark.parametrize("bad", [(9,), (11,), (10, 1), ()])
    def test_matvec_refuses_a_wrong_sized_vector(self, bad):
        g = path_graph(10)
        with pytest.raises(ValueError, match=r"shape \(10,\)"):
            adjacency_matvec(g, np.ones(bad))

    def test_solvers_do_not_depend_on_the_block(self, monkeypatch):
        g = random_connected_graph(400, seed=9, extra_edges=800)
        assert spectral.bipartite_coloring(g) is None
        core, _ = largest_component(power_law_graph(2000, 1.0, 5))
        want = (spectral_radius(g), spectral_gap(g), tv_mixing_time(g, 0))
        want_core = (spectral_radius(core), spectral_gap(core))
        monkeypatch.setattr(spectral, "_MATVEC_BLOCK", 37)
        assert 2 * g.m > 40 * spectral._MATVEC_BLOCK  # dozens of blocks
        assert set(block_gathers(core)) == {True, False}  # copies and views
        assert (spectral_radius(g), spectral_gap(g), tv_mixing_time(g, 0)) == want
        assert (spectral_radius(core), spectral_gap(core)) == want_core

    def test_matvec_memory_does_not_grow_with_edges(self, monkeypatch):
        # out, one block's gather, and at most three row-sized temporaries of
        # the block (its row starts, their shift, the row sums), plus 16 KiB
        # for the block list
        block = 1 << 12
        monkeypatch.setattr(spectral, "_MATVEC_BLOCK", block)
        n = 2_000
        small = chung_lu_sample_fast(uniform_expected_degrees(n, 6.0, 14.0, seed=1), 2)
        large = chung_lu_sample_fast(uniform_expected_degrees(n, 80.0, 120.0, seed=3), 4)
        assert large.m >= 8 * small.m and 2 * small.m > block
        bound = 8 * (4 * n + block) + (16 << 10)
        for g in (small, large):
            x = np.ones(g.n)
            y, peak = traced_peak(lambda: adjacency_matvec(g, x))
            assert np.array_equal(y, g.degrees)
            assert peak <= bound

    def test_light_row_index_memory(self, monkeypatch):
        # the bound above plus the light-row columns: 8 B per entry of a row
        # of at most _LIGHT entries. A block copies its heavy rows' entries
        # only when they are fewer than its light ones, so the power-law
        # graphs' copies fit the same bound.
        block = 1 << 12
        monkeypatch.setattr(spectral, "_MATVEC_BLOCK", block)
        uniform = [
            chung_lu_sample_fast(uniform_expected_degrees(2_000, low, high, seed=seed), seed + 1)
            for low, high, seed in ((1.0, 4.0, 5), (1.0, 9.0, 7))
        ]
        power_law = [power_law_graph(n, d_min, seed) for n, d_min, seed in
                     ((2_000, 1.0, 5), (2_000, 3.0, 7), (3_000, 1.0, 9))]
        for g in uniform:  # most of the 2m entries are in light rows
            assert int(g.degrees[g.degrees <= spectral._LIGHT].sum()) > g.m
        assert any(False in block_gathers(g) for g in power_law)  # some blocks copy
        for g in uniform + power_law:
            d = g.degrees
            light_entries = int(d[d <= spectral._LIGHT].sum())
            bound = 8 * (4 * g.n + block) + (16 << 10) + 8 * light_entries
            x = np.ones(g.n)
            y, peak = traced_peak(lambda: adjacency_matvec(g, x))
            assert np.array_equal(y, g.degrees)
            assert peak <= bound


class TestSpectralGap:
    def test_complete_graph(self, k4):
        gap = spectral_gap(k4)
        assert gap.lambda2 == pytest.approx(-1 / 3, abs=1e-6)
        assert gap.gap == pytest.approx(4 / 3, abs=1e-6)

    def test_cycle4(self, cycle4):
        gap = spectral_gap(cycle4)
        assert gap.lambda2 == pytest.approx(0.0, abs=1e-6)
        assert gap.gap == pytest.approx(1.0, abs=1e-6)

    def test_star(self, star5):
        gap = spectral_gap(star5)
        assert gap.gap == pytest.approx(1.0, abs=1e-6)

    def test_single_edge(self):
        gap = spectral_gap(build_graph([(0, 1)], 2))
        assert gap.lambda2 == pytest.approx(-1.0, abs=1e-12)
        assert gap.gap == pytest.approx(2.0, abs=1e-12)

    def test_range_invariant(self):
        for seed in range(6):
            g = random_graph(30, 0.3, seed)
            if g.degrees.min() == 0:
                continue
            gap = spectral_gap(g)
            assert -1.0 <= gap.lambda2 <= 1.0
            assert 0.0 <= gap.gap <= 2.0

    def test_disconnected_errors(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        with pytest.raises(DisconnectedGraphError):
            spectral_gap(g)

    def test_edgeless_errors(self):
        with pytest.raises(ValueError, match="spectral_gap requires a nonempty graph"):
            spectral_gap(build_graph([], 3))


class TestLanczosCertificate:
    def test_power_law_core_gap_near_one(self):
        # lambda2 ~ 0.956 with lambda3 ~ 0.951: a stopping rule on how far the
        # estimate moved declares convergence here while ~4e-7 off
        core = gap_near_one_core()
        want = 1.0 - dense_normalized_eigenvalues(core)[-2]
        gap = spectral_gap(core)
        assert gap.converged
        assert gap.residual < 1e-10
        assert abs(gap.gap - want) <= 1e-9 * want

    @pytest.mark.parametrize(
        "g", [cycle_graph(10), cycle_graph(100), complete_bipartite(3, 4)],
        ids=["C10", "C100", "K3,4"],
    )
    def test_bipartite_needs_no_shift(self, g):
        radius = spectral_radius(g)
        gap = spectral_gap(g)
        assert radius.converged and gap.converged
        assert radius.value == pytest.approx(np.linalg.eigvalsh(dense_adjacency(g))[-1], abs=1e-9)
        assert gap.lambda2 == pytest.approx(dense_normalized_eigenvalues(g)[-2], abs=1e-9)

    def test_residual_bounds_distance_to_an_eigenvalue(self):
        for seed in range(5):
            g = random_graph(40, 0.15, seed)
            eigs = np.linalg.eigvalsh(dense_adjacency(g))
            for max_iters in (3, 6, 12):
                r = spectral_radius(g, max_iters=max_iters, seed=seed)
                assert r.iterations <= max_iters
                nearest = np.abs(eigs - r.value).min()
                assert nearest <= r.residual * max(1.0, abs(r.value)) + 1e-12

    def test_restart_past_the_tridiagonal_cap(self):
        # P_700 needs more Lanczos steps than one cycle keeps
        n = 700
        r = spectral_radius(path_graph(n))
        assert r.converged
        assert r.iterations > spectral._KRYLOV_CAP
        assert r.value == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-9)

    def test_max_iters_must_be_positive(self, k4):
        with pytest.raises(ValueError, match="max_iters"):
            spectral_radius(k4, max_iters=0)

    @pytest.mark.parametrize("name", list(SCREEN_CORPUS))
    def test_screen_changes_no_result(self, name, monkeypatch):
        # an infinite factor sends every check to the dense solve
        g = SCREEN_CORPUS[name]()
        core, _ = largest_component(g)

        def solves():
            return [(spectral_radius(g, **kw), spectral_gap(core, **kw)) for kw in SOLVER_SETTINGS]

        screened = solves()
        monkeypatch.setattr(spectral, "_SCREEN_FACTOR", math.inf)
        assert screened == solves()

    def test_dense_solves_only_where_the_certificate_can_pass(self, monkeypatch):
        # checking every 8 steps from k = 40 to 128 would solve 12 such T_k densely
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(t):
            sizes.append(len(t))
            return eigvalsh(t)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        gap = spectral_gap(gap_near_one_core())
        assert gap.converged and gap.iterations == 128
        assert sum(k > 32 for k in sizes) <= 2

    @settings(max_examples=300, deadline=None)
    @given(tridiagonals())
    @example(([1.0, 1.0], [1.0, NEAR_BREAKDOWN], 1.0, 2.0 + NEAR_BREAKDOWN))  # top = bound
    @example(([0.5] * 80, [NEAR_BREAKDOWN] * 80, 0.5, 0.5 + 2 * NEAR_BREAKDOWN))  # a cluster
    def test_top_ritz_bound(self, case):
        alpha, beta, lower, upper = case
        theta = float(np.linalg.eigvalsh(tridiagonal(alpha, beta))[-1])
        x = spectral._top_ritz_bound(alpha, beta, lower, upper)
        assert x <= upper
        # eigvalsh itself is only within a small multiple of eps ||T_k|| of the top
        assert x >= theta - 32 * spectral._EPS * max(1.0, upper)
        assert x - theta <= 1e-12 * max(1.0, abs(theta))


class TestStationaryDistribution:
    def test_complete(self, k4):
        assert np.allclose(stationary_distribution(k4), 0.25)

    def test_star(self, star5):
        pi = stationary_distribution(star5)
        assert pi[0] == pytest.approx(0.5)
        assert np.allclose(pi[1:], 0.125)

    def test_sums_to_one(self):
        for seed in range(5):
            pi = stationary_distribution(random_graph(40, 0.1, seed))
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_invariance_under_transition(self):
        for seed in range(5):
            g = random_graph(40, 0.2, seed)
            sub = g if g.degrees.min() > 0 else None
            if sub is None:
                from epithresh.graph import largest_component

                sub, _ = largest_component(g)
            pi = stationary_distribution(sub)
            pi_next = adjacency_matvec(sub, pi / sub.degrees)
            assert np.abs(pi_next - pi).sum() <= 1e-12

    def test_edgeless_errors(self):
        with pytest.raises(ValueError):
            stationary_distribution(build_graph([], 2))


class TestMixingTime:
    def test_complete_graph_mixes_fast(self, k4):
        t = tv_mixing_time(k4, start=0, threshold=1e-6)
        assert 0 < t <= 30
        # cross-check the returned t against dense matrix iteration
        pi = stationary_distribution(k4)
        assert np.abs(exact_walk_distribution(k4, 0, t) - pi).sum() <= 1e-6
        assert np.abs(exact_walk_distribution(k4, 0, t - 1) - pi).sum() > 1e-6

    def test_bipartite_error_names_coloring(self, cycle4):
        with pytest.raises(BipartiteGraphError, match="size 2 and 2"):
            tv_mixing_time(cycle4, start=0, threshold=1e-6)

    def test_trivial_threshold(self, k4):
        assert tv_mixing_time(k4, start=0, threshold=2.0) == 0

    def test_odd_cycle_allowed(self):
        t = tv_mixing_time(cycle_graph(5), start=0, threshold=0.1)
        assert t > 0

    @pytest.mark.parametrize(
        "edges, n, start, error, message",
        [
            ([], 3, 0, ValueError, "undefined on an edgeless graph"),
            ([(0, 1), (1, 2), (2, 0)], 3, 3, ValueError, r"start node 3 out of range \[0, 3\)"),
            ([(0, 1), (1, 2), (2, 0)], 3, -1, ValueError, r"start node -1 out of range"),
            ([(0, 1), (1, 2), (2, 0), (3, 4)], 5, 0, DisconnectedGraphError, "disconnected"),
        ],
        ids=["edgeless", "start=n", "start=-1", "disconnected"],
    )
    def test_invalid_input_errors(self, edges, n, start, error, message):
        with pytest.raises(error, match=message):
            tv_mixing_time(build_graph(edges, n), start=start, threshold=0.1)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="5000"):
            tv_mixing_time(build_graph([(0, 1)], 6000), start=0, threshold=0.5)

    def test_default_threshold_is_inverse_n_squared(self, k4):
        assert tv_mixing_time(k4, start=0) == tv_mixing_time(
            k4, start=0, threshold=1 / 16
        )


@st.composite
def parity_graphs(draw):
    """Graphs on 0..30 nodes from even-odd (bipartite) edges plus optional odd
    cycles; edges across a drawn cut are dropped, so there are often several
    components, and nodes no edge touches stay isolated. Up to 4 isolated
    edges on extra nodes join them, and all node ids are shuffled."""
    n = draw(st.integers(0, 30))
    edges = []
    if n >= 2:
        evens, odds = st.integers(0, (n - 1) // 2), st.integers(0, n // 2 - 1)
        pairs = draw(st.lists(st.tuples(evens, odds), max_size=25))
        edges += [(2 * a, 2 * b + 1) for a, b in pairs]
    if n >= 3:
        cycles = st.lists(st.integers(0, n - 1), min_size=3, max_size=7, unique=True)
        for cycle in draw(st.lists(cycles, max_size=2)):
            cycle = cycle[: len(cycle) - 1 + len(cycle) % 2]  # odd length
            edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    cut = draw(st.integers(0, n))
    edges = [(u, v) for u, v in edges if (u < cut) == (v < cut)]
    pairs = draw(st.integers(0, 4))
    edges += [(n + 2 * i, n + 2 * i + 1) for i in range(pairs)]
    ids = draw(st.permutations(range(n + 2 * pairs)))
    return build_graph([(ids[u], ids[v]) for u, v in edges], n + 2 * pairs)


class TestComponentTraversal:
    """The one BFS against the separate connectivity BFS and the per-node
    stack 2-coloring it replaced (tests/oracles.py)."""

    @staticmethod
    def check(g):
        root, _ = _components(g)
        assert (g.n > 0 and not root.any()) == oracles.is_connected(g)
        got, want = bipartite_coloring(g), oracles.bipartite_coloring(g)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(g=parity_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_former_traversals(self, g):
        self.check(g)

    def test_long_path(self):
        g = path_graph(2000)  # bipartite, connected, 2,000 BFS levels
        self.check(g)
        assert bipartite_coloring(g).tolist() == [v % 2 for v in range(2000)]
