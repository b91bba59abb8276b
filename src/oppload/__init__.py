"""Cooperative data offloading over opportunistic mobile networks.

Estimates the probability of delivering a data item to intermittently
connected infrastructure over one or many opportunistic paths, plans
cooperative offload splits (centralized heuristic and exhaustive oracle),
runs the distributed two-hop offload protocol, and validates everything
against a seeded Monte Carlo contact simulator.
"""

from .contacts import (
    PairContactParams,
    fit_exponential,
    fit_pareto,
    log_beta,
    reg_lower_incomplete_gamma,
    sample_contact_process,
)
from .delivery import (
    DeliveryQuery,
    GammaApprox,
    PathSpec,
    availability,
    delivery_prob_onehop,
    delivery_prob_path,
    gamma_approx,
    mean_max_ratio,
    path_capacity,
    transfer_prob,
)
from .distributed import (
    AdjustmentResult,
    ContactResult,
    NodeState,
    assignment_update,
    criterion_assignment,
    on_contact,
    realtime_adjustment,
)
from .errors import (
    ComplexityError,
    ConfigError,
    EstimationError,
    FittingError,
    GenerationError,
    IngestionError,
    InstanceTooLargeError,
    OppLoadError,
    PlanningError,
    ProtocolError,
    TransferContractError,
)
from .heuristic import (
    Allocation,
    OffloadPlan,
    allocate_paths,
    assign_remaining,
    dijkstra_max_q,
    plan_offload,
    plan_to_json,
    reallocate,
    route_path,
)
from .netgraph import (
    Network,
    SyntheticConfig,
    TraceRecord,
    generate_synthetic,
    ingest_trace,
    load_network,
    network_from_json,
    network_to_json,
    save_network,
)
from .oracle import OracleConfig, brute_force_optimal
from .simulator import (
    STRATEGIES,
    SimResult,
    TaskOutcome,
    TransmissionTask,
    run_monte_carlo_delivery,
    simulate_strategy,
    write_event_log_csv,
    write_results_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
