"""Randomized scheduling campaigns: generate instances, run the greedy
schedulers against the exact optimum, aggregate penalties and runtimes.

Every trial draws from its own RNG stream derived from the master seed
and the trial index (sha256-based, so it is portable and insensitive to
execution order).  Trials are independent; with jobs > 1 they run in a
process pool of at most min(jobs, trials, CPUs) workers whose map keeps
trial order, so reports are identical whatever the parallelism.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import heuristics
from .conflict import DEFAULT_LINK_CAP, SizeLimitError
from .exact import solve_ilp
from .metrics import cost_penalty
from .model import (TOPOLOGIES, Instance, _check_demand_range,
                    _check_random_topology, _random_demands, _random_network,
                    gen_fixed_topology)

__all__ = ["ALGORITHMS", "ExperimentConfig", "TrialRecord",
           "AlgorithmSummary", "ExperimentReport", "run_experiment",
           "run_demand_range_sweep"]

ALGORITHMS = {
    "hwf": heuristics.hwf,
    "mdf": heuristics.mdf,
    "hwf-mdf": heuristics.hwf_tiebreak_mdf,
}

_MAX_REGEN_ATTEMPTS = 1000


class _ConfigError(ValueError):
    """A campaign configuration outside the harness's domain."""


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int
    master_seed: int
    topology: str = "random"  # one of model.TOPOLOGIES
    nodes: int = 6
    edge_prob: float = 0.5
    rows: int = 3
    cols: int = 3
    demand_lo: int = 1
    demand_hi: int = 10
    symmetric: bool = True
    algorithms: tuple[str, ...] = ("hwf", "mdf")
    jobs: int = 1


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    n_links: int
    lp: Fraction
    ilp: int
    totals: dict[str, int]
    penalties: dict[str, Fraction]
    runtimes: dict[str, float]  # per algorithm, plus "ilp"


@dataclass(frozen=True)
class AlgorithmSummary:
    optimal: int
    within_10pct: int
    mean_penalty: Fraction
    mean_runtime: float


@dataclass(frozen=True)
class ExperimentReport:
    """A campaign's trial records; every aggregate is derived from them."""

    config: ExperimentConfig
    records: tuple[TrialRecord, ...]

    @cached_property
    def summaries(self) -> dict[str, AlgorithmSummary]:
        summaries = {}
        n = len(self.records)
        for alg in self.config.algorithms:
            penalties = [r.penalties[alg] for r in self.records]
            summaries[alg] = AlgorithmSummary(
                optimal=sum(1 for p in penalties if p == 0),
                within_10pct=sum(1 for p in penalties if p <= 10),
                mean_penalty=sum(penalties, Fraction(0)) / n,
                mean_runtime=sum(r.runtimes[alg] for r in self.records) / n,
            )
        return summaries

    @cached_property
    def ilp_mean_runtime(self) -> float:
        return sum(r.runtimes["ilp"] for r in self.records) / len(self.records)

    def to_json(self) -> str:
        doc = {
            "config": {f.name: getattr(self.config, f.name)
                       for f in dataclasses.fields(self.config)
                       if f.name != "jobs"},
            "trials": len(self.records),
            "fractional_gap_trials": sum(1 for r in self.records
                                         if r.lp != r.ilp),
            "ilp_mean_runtime_s": self.ilp_mean_runtime,
            "algorithms": {
                alg: {
                    "optimal": s.optimal,
                    "within_10pct": s.within_10pct,
                    "mean_penalty_pct": float(s.mean_penalty),
                    "mean_penalty_exact": str(s.mean_penalty),
                    "mean_runtime_s": s.mean_runtime,
                }
                for alg, s in self.summaries.items()
            },
        }
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        algs = list(self.config.algorithms)
        header = (["trial", "seed", "links", "lp", "ilp"] + algs
                  + [f"p_{a}" for a in algs]
                  + [f"rt_{a}" for a in algs] + ["rt_ilp"])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for r in self.records:
            writer.writerow(
                [r.trial, r.seed, r.n_links, float(r.lp), r.ilp]
                + [r.totals[a] for a in algs]
                + [f"{float(r.penalties[a]):.6f}" for a in algs]
                + [f"{r.runtimes[a]:.9f}" for a in algs]
                + [f"{r.runtimes['ilp']:.9f}"])
        return buf.getvalue()

    def summary_table(self) -> str:
        lines = [f"{'algorithm':<12} {'optimal':>8} {'within 10%':>11} "
                 f"{'mean P':>9} {'mean runtime':>13}"]
        n = len(self.records)
        lines.append(f"{'exact':<12} {n:>8} {n:>11} {'0.00%':>9} "
                     f"{self.ilp_mean_runtime:>12.6f}s")
        for alg, s in self.summaries.items():
            lines.append(f"{alg:<12} {s.optimal:>8} {s.within_10pct:>11} "
                         f"{float(s.mean_penalty):>8.2f}% "
                         f"{s.mean_runtime:>12.6f}s")
        return "\n".join(lines)


def _trial_seed(master_seed: int, trial: int, attempt: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{trial}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _check_config(config: ExperimentConfig) -> None:
    if config.trials < 1:
        raise _ConfigError("trials must be >= 1")
    _check_demand_range(config.demand_lo, config.demand_hi)
    for alg in config.algorithms:
        if alg not in ALGORITHMS:
            raise _ConfigError(f"unknown algorithm {alg!r}")
    if len(set(config.algorithms)) != len(config.algorithms):
        raise _ConfigError(f"duplicate algorithm in {config.algorithms!r}")
    if config.topology not in TOPOLOGIES:
        raise _ConfigError(f"unknown topology {config.topology!r}")
    if config.topology == "random":
        # gen_random's domain; an empty network (p = 0) is a valid
        # instance there, but here every trial would be regenerated
        _check_random_topology(config.nodes, config.edge_prob)
        if config.edge_prob == 0.0:
            raise _ConfigError("edge_prob must be positive: every trial would be empty")
        max_links = config.nodes * (config.nodes - 1)
    else:
        nodes = (config.rows * config.cols if config.topology == "grid"
                 else config.nodes)
        # connected, so >= 2(nodes - 1) links: refuse before the build, but
        # a grid only once rows, cols >= 1, so its domain error comes first
        if 2 * (nodes - 1) > DEFAULT_LINK_CAP and (
                config.topology != "grid" or min(config.rows, config.cols) >= 1):
            raise SizeLimitError(
                f"configuration produces at least {2 * (nodes - 1)} links, "
                f"beyond the exact solver cap of {DEFAULT_LINK_CAP}")
        max_links = len(gen_fixed_topology(config.topology, config.nodes,
                                           config.rows, config.cols).links)
    if max_links > DEFAULT_LINK_CAP:
        raise SizeLimitError(
            f"configuration may produce up to {max_links} links, "
            f"beyond the exact solver cap of {DEFAULT_LINK_CAP}")


def _run_trial(config: ExperimentConfig, trial: int) -> TrialRecord:
    for attempt in range(_MAX_REGEN_ATTEMPTS):
        seed = _trial_seed(config.master_seed, trial, attempt)
        rng = random.Random(seed)
        if config.topology == "random":
            network = _random_network(config.nodes, config.edge_prob, rng)
        else:
            network = gen_fixed_topology(config.topology, config.nodes,
                                         config.rows, config.cols)
        if network.links:
            break
    else:
        raise _ConfigError(f"trial {trial}: no non-empty network in "
                           f"{_MAX_REGEN_ATTEMPTS} draws with nodes="
                           f"{config.nodes}, edge_prob={config.edge_prob}")
    demands = _random_demands(network, config.demand_lo, config.demand_hi,
                              config.symmetric, rng)
    instance = Instance(network, demands)

    t0 = time.perf_counter()
    ilp = solve_ilp(instance)  # also carries the root LP relaxation
    rt_ilp = time.perf_counter() - t0

    totals: dict[str, int] = {}
    penalties: dict[str, Fraction] = {}
    runtimes: dict[str, float] = {"ilp": rt_ilp}
    for alg in config.algorithms:
        t0 = time.perf_counter()
        sched = ALGORITHMS[alg](instance)
        runtimes[alg] = time.perf_counter() - t0
        totals[alg] = sched.total_slots
        penalties[alg] = cost_penalty(sched.total_slots, ilp.objective)
    return TrialRecord(trial, seed, len(network.links), ilp.lp_objective,
                       ilp.objective, totals, penalties, runtimes)


def _worker_count(jobs: int, trials: int, cpus: int | None) -> int:
    """Worker processes for a campaign: never more than the trials to run
    or the CPUs to run them on (``os.cpu_count()``, None if unknown), and
    at least one."""
    return max(1, min(jobs, trials, cpus or 1))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured campaign and aggregate the results."""
    _check_config(config)
    workers = _worker_count(config.jobs, config.trials, os.cpu_count())
    if workers > 1:
        # imported here: a campaign without a pool (and every other use of
        # the package) never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, [config] * config.trials,
                                    range(config.trials)))
    else:
        records = [_run_trial(config, k) for k in range(config.trials)]
    return ExperimentReport(config, tuple(records))


def run_demand_range_sweep(config: ExperimentConfig,
                           upper_bounds: list[int],
                           ) -> list[tuple[int, ExperimentReport]]:
    """Re-run the campaign once per demand upper bound.  The same master
    seed (hence the same networks per trial index) is reused across
    ranges, which pairs the comparisons.  Every range is checked before
    the first campaign runs."""
    configs = [dataclasses.replace(config, demand_hi=hi) for hi in upper_bounds]
    for cfg in configs:
        _check_config(cfg)
    return [(cfg.demand_hi, run_experiment(cfg)) for cfg in configs]
