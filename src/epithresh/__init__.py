"""epithresh: epidemic-threshold estimation for large networks.

Exact spectral radius as the baseline, the degree-moment ratio m2/m1 as a
cheap whole-graph proxy, and a random-walk sampler that estimates the same
ratio from a vanishing fraction of node queries; plus the graph generators,
concentration-bound calculators, SIR simulator, oracle service, and
experiment harness that exercise them.
"""

__version__ = "0.1.0"

from .estimators import (
    BoundReport,
    ConditionCheck,
    MomentEstimate,
    SampleSizePlan,
    chung_radcliffe_bound,
    chunglu_condition,
    expected_moment_ratio,
    hoeffding_m1_bound,
    relative_error,
    sample_size,
    t1_estimate,
)
from .generators import (
    ExpectedDegrees,
    chung_lu_sample_fast,
    count_clamped_pairs,
    expected_degrees,
    power_law_expected_degrees,
    preferential_attachment,
    uniform_expected_degrees,
)
from .graph import (
    DegreeStats,
    Graph,
    build_graph,
    build_graph_with_report,
    degree_stats,
    largest_component,
    read_edge_list,
    write_edge_list,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    run_synthetic_experiment,
    run_t1_benchmark,
)
from .service import OracleServer, RemoteOracle
from .sir import SirParams, SirTrajectory, sir_simulate, threshold_sweep
from .spectral import (
    SpectralGap,
    SpectralResult,
    spectral_gap,
    spectral_radius,
    stationary_distribution,
    tv_mixing_time,
)
from .walker import (
    GraphOracle,
    LocalOracle,
    WalkConfig,
    WalkReport,
    error_curve,
    random_walk_estimate,
)

# the benchmark (perfbench/workloads.py) still calls these two spellings;
# they go when it moves to the class names (ROADMAP item 1)
local_oracle, remote_oracle = LocalOracle, RemoteOracle
