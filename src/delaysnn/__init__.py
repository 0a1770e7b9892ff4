"""Event-scheduled spiking-network simulator with synaptic delay learning."""

from .config import RngStream, SimConfig, load_config
from .dataset import Dataset, Stimulus, generate_dataset, read_dataset, write_dataset
from .network import (
    ActivityRecord,
    Network,
    TrainingSummary,
    build_network,
    finish_stimulus,
    present_stimulus,
    train,
)
from .analysis import (
    ConvergenceScenario,
    export_snapshot,
    lag_fixed_point_step,
    measure_selectivity,
    run_convergence_suite,
)

__version__ = "0.1.0"
