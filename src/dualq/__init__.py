"""Queue/store duality of the single-server model.

One pair of recursions drives both a FIFO queue and a slotted storage
model; this package computes the exact pathwise objects (departures, dual
marks, workload, zigzag excursions), the saturated tandems and their
particle-system views, the RSK tableau identities tying the tableau shape
to the two tandem outputs, the Schur-polynomial shape law, and seeded
Monte Carlo experiments for the distributional theorems (joint Burke,
trajectory law, interchangeability, non-colliding representation).
"""

from .sampling import (
    Seed,
    MarkedSequence,
    RateParams,
    sample_geometric,
    sample_geometric0,
    sample_exponential,
    sample_input,
    reverse,
)
from .queue_store import (
    QueueTrace,
    PiecewiseLinear,
    BusyPeriod,
    ZigzagTrajectory,
    lindley_forward,
    transform,
    queue_length,
    workload_pair,
    busy_periods,
    zigzag,
    zigzag_from_trace,
    enumerate_trajectories,
    backward_check,
    trace_to_csv,
)
from .tandem import (
    ServiceMatrix,
    TandemTrace,
    queue_departures,
    store_flow,
    tandem_outputs,
    tandem_trace,
)
from .rsk import (
    Tableau,
    word_of,
    tableau_of,
    pretty,
    lambda_operators,
    path_max,
    path_min,
    verify_row_queue,
)
from .schur import (
    ssyt_enumerate,
    ssyt_count,
    schur_eval,
    shape_pmf,
    shape_distribution,
    interlaces,
    transition_prob,
    transition_distribution,
)
from .particles import (
    zero_range_run,
    bus_stop_run,
    bus_stop_step,
    occupancy_history,
    to_exclusion,
    from_exclusion,
    exclusion_step,
)
from .stattest import (
    GofResult,
    ExperimentReport,
    ks_test,
    chi2_test,
    chi2_two_sample,
    burke_experiment,
    zigzag_law_experiment,
    noncolliding_experiment,
    interchange_experiment,
    shape_law_experiment,
    laguerre_check,
    trajectory_pmf,
)

__version__ = "0.1.0"
