"""Deterministic co-simulation of an inverter-based AC microgrid with
distributed cooperative secondary control, a false-data-injection attack
layer, and a trainable neural-network resilient secondary voltage
controller."""

from .attack import AttackSpec, NonPeriodic, Periodic
from .ann import (AnnKernel, Dataset, MlpParams, NormalizationSpec, TrainConfig,
                  ann_controller, build_dataset, feature_channels, load_model, save_model,
                  train)
from .datagen import MatrixSpec, gen_data
from .graph import CommGraph, ring_graph, validate
from .metrics import Metrics, compare, compute_metrics
from .plant import (DgParams, Line, Load, MicrogridModel, NetworkParams, PlantWorkspace,
                    apply_load_event, default_model, solve_network, step_plant)
from .scenario import LoadEvent, ScenarioConfig, builtin_scenario, load_scenario
from .secondary import ConsensusMap, SecondaryGains, secondary_update
from .simulate import run_scenario
from .trace import Trace, export_csv, parse_csv

__version__ = "0.1.0"
