"""System-level uplink simulator for heterogeneous LTE networks.

Builds a 19-site tri-sector macro layout overlaid with picocells, models
the uplink with open-loop fractional power control, and compares cell
selection strategies (strongest reference signal, strongest channel gain,
range expansion offset, and interference-aware best response) through
seeded Monte Carlo drops.
"""

from hetsim.topology import Layout, NodeSet, build_layout, place_picos, place_users, wrap_distance
from hetsim.radio import GainMatrix, RadioParams, compute_gain_matrix, path_loss_db
from hetsim.uplink_power import PowerConfig, UserPower, open_loop_power
from hetsim.scheduler import allocate
from hetsim.cell_selection import (
    Assignment,
    NetworkState,
    StrategyConfig,
    brute_force_oracle,
    select_cre,
    select_interference_based,
    select_pl,
    select_rsrp,
)
from hetsim.metrics import NoiseModel, SinrReport, percentiles, wideband_sinr
from hetsim.harness import Scenario, run_campaign, run_drop

__version__ = "0.1.0"
