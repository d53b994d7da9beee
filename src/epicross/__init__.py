"""Contact-network inference for epsilon-SIS epidemics via greedy tensor-train cross interpolation."""

from .epidemic import (
    AdjacencyVector,
    EpidemicParams,
    NetworkState,
    RateMatrix,
    SolvePlan,
    Trajectory,
    build_generator,
    chain_network,
    network_error,
    pack_adjacency,
    read_network,
    read_trajectory,
    ssa_simulate,
    transition_columns,
    unpack_adjacency,
    write_network,
    write_trajectory,
)
from .likelihood import log_likelihood
from .cross import (
    CrossConfig,
    CrossInterpolant,
    CrossResult,
    Memo,
    TemperConfig,
    TensorTrain,
    cross_optimize,
    load_tt_cores,
    matrix_cross_step,
    save_tt_cores,
    sweep,
    tempered_objective,
    tensor_argmax,
)
from .driver import (
    CapacityError,
    ExperimentConfig,
    RunResult,
    brute_force_mle,
    likelihood_memo,
    run_experiment,
    run_inference,
    score_init,
    summarize_runs,
)

__version__ = "0.1.0"
