"""Reduced basis pipeline for the parametrized American put obstacle problem."""

from .errors import (
    AmrbError,
    AssemblyError,
    DegenerateInputError,
    InfSupFailureError,
    ModelCorruptionError,
    ModelLoadError,
    ModelVersionError,
    NumericalBreakdownError,
    SolverDivergenceError,
)
from .fem import (
    AffineOperatorSet,
    Mesh1D,
    ObstacleData,
    ParameterBox,
    ParameterVector,
    Tridiagonal,
    assemble_operators,
    build_mesh,
    obstacle_data,
)
from .truth import (
    SchemeConfig,
    Trajectory,
    solve_lcp,
    solve_trajectories,
    solve_trajectory,
    theta_step,
    trajectory_residuals,
)
from .offline import (
    GreedyDiagnostics,
    ReducedModel,
    angle_greedy,
    assemble_reduced,
    build_reduced_model_from_store,
    enrich_with_supremizers,
    generate_snapshots,
    load_model,
    pod_greedy,
    sample_training_set,
    save_model,
    verify_model,
)
from .online import (
    OnlineData,
    ReducedTrajectory,
    err_linf,
    error_metrics,
    online_setup,
    reconstruct,
    reconstruct_states,
    reduced_trajectory,
)

__version__ = "0.1.0"
