"""Minimum-airtime TDMA link scheduling for multi-transmit-receive
wireless networks.

In these networks a node may transmit on several outgoing links at once,
or receive on several incoming links at once, but never both.  Given a
topology and integer per-link slot demands, this package computes
schedules (orderings of link matchings with slot counts) that cover all
demands in as few slots as possible: two fast greedy schedulers, an exact
branch-and-bound optimum over all maximal matchings, the all-outgoing-
links relaxation, and a closed-form two-phase schedule for bipartite
topologies.
"""

from .bipartite import Bipartition, NotBipartite, bipartition, two_phase_schedule
from .conflict import (ConflictGraph, SizeLimitError, build_conflict_graph,
                       enumerate_maximal_matchings, enumerate_mis_nodes,
                       induced_matchings, is_matching, is_maximal, transpose)
from .exact import (IlpSolution, LpSolution, MisSolution, reduce_node_demands,
                    solve_ilp, solve_lp, solve_mis_suboptimal)
from .experiments import (ExperimentConfig, ExperimentReport, run_experiment,
                          run_demand_range_sweep)
from .heuristics import hwf, hwf_tiebreak_mdf, mdf
from .metrics import (UndefinedPenaltyError, Violation, cost_penalty,
                      lower_bounds, validate_schedule)
from .model import (Instance, InstanceFormatError, InvalidSizeError, Link,
                    Network, gen_complete, gen_demands, gen_grid, gen_linear,
                    gen_random, gen_ring, load_instance, save_instance)
from .schedule import Schedule, ScheduleEntry, schedule_from_json, schedule_to_json

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the implementation behind matching enumeration and greedy
    rounds, recorded with benchmark results.  There is one, in pure Python."""
    return "pure-python"
