"""Randomized scheduling campaigns: generate instances, run the greedy
schedulers against the exact optimum, aggregate penalties and runtimes.

Every trial draws from its own RNG stream derived from the master seed
and the trial index (sha256-based, so it is portable and insensitive to
execution order).  Trials are independent; with jobs > 1 they run in a
process pool of at most min(jobs, trials, CPUs) workers and are re-sorted
by index, so reports are identical whatever the parallelism.
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import heuristics
from .conflict import DEFAULT_LINK_CAP, SizeLimitError
from .exact import solve_ilp
from .metrics import cost_penalty
from .model import (Instance, Network, _check_demand_range, _random_demands,
                    _random_network, gen_complete, gen_grid, gen_linear,
                    gen_ring)

__all__ = ["ALGORITHMS", "ExperimentConfig", "TrialRecord",
           "AlgorithmSummary", "ExperimentReport", "run_experiment",
           "run_demand_range_sweep"]

ALGORITHMS = {
    "hwf": heuristics.hwf,
    "mdf": heuristics.mdf,
    "hwf-mdf": heuristics.hwf_tiebreak_mdf,
}

_MAX_REGEN_ATTEMPTS = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int
    master_seed: int
    topology: str = "random"  # random | linear | ring | grid | complete
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
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    summaries: dict[str, AlgorithmSummary] = field(default_factory=dict)
    ilp_mean_runtime: float = 0.0

    @staticmethod
    def build(config: ExperimentConfig,
              records: tuple[TrialRecord, ...]) -> "ExperimentReport":
        summaries = {}
        n = len(records)
        for alg in config.algorithms:
            penalties = [r.penalties[alg] for r in records]
            summaries[alg] = AlgorithmSummary(
                optimal=sum(1 for p in penalties if p == 0),
                within_10pct=sum(1 for p in penalties if p <= 10),
                mean_penalty=sum(penalties, Fraction(0)) / n,
                mean_runtime=sum(r.runtimes[alg] for r in records) / n,
            )
        ilp_rt = sum(r.runtimes["ilp"] for r in records) / n
        return ExperimentReport(config, records, summaries, ilp_rt)

    def to_json(self) -> str:
        doc = {
            "config": {
                "trials": self.config.trials,
                "master_seed": self.config.master_seed,
                "topology": self.config.topology,
                "nodes": self.config.nodes,
                "edge_prob": self.config.edge_prob,
                "rows": self.config.rows,
                "cols": self.config.cols,
                "demand_lo": self.config.demand_lo,
                "demand_hi": self.config.demand_hi,
                "symmetric": self.config.symmetric,
                "algorithms": list(self.config.algorithms),
            },
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


def _fixed_network(config: ExperimentConfig) -> Network | None:
    if config.topology == "linear":
        return gen_linear(config.nodes)
    if config.topology == "ring":
        return gen_ring(config.nodes)
    if config.topology == "grid":
        return gen_grid(config.rows, config.cols)
    if config.topology == "complete":
        return gen_complete(config.nodes)
    if config.topology == "random":
        return None
    raise ValueError(f"unknown topology {config.topology!r}")


def _max_links(config: ExperimentConfig) -> int:
    fixed = _fixed_network(config)
    if fixed is not None:
        return len(fixed.links)
    return config.nodes * (config.nodes - 1)


def _check_config(config: ExperimentConfig) -> None:
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    _check_demand_range(config.demand_lo, config.demand_hi)
    for alg in config.algorithms:
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
    if _max_links(config) > DEFAULT_LINK_CAP:
        raise SizeLimitError(
            f"configuration may produce up to {_max_links(config)} links, "
            f"beyond the exact solver cap of {DEFAULT_LINK_CAP}")
    if config.topology == "random" and config.edge_prob <= 0.0:
        raise ValueError("edge_prob must be positive: every trial would be empty")


def _run_trial(config: ExperimentConfig, trial: int) -> TrialRecord:
    fixed = _fixed_network(config)
    for attempt in range(_MAX_REGEN_ATTEMPTS):
        seed = _trial_seed(config.master_seed, trial, attempt)
        rng = random.Random(seed)
        network = fixed if fixed is not None else _random_network(
            config.nodes, config.edge_prob, rng)
        if network.links:
            break
    else:
        raise RuntimeError(f"trial {trial}: no non-empty network "
                           f"in {_MAX_REGEN_ATTEMPTS} attempts")
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, [config] * config.trials,
                                    range(config.trials), chunksize=8))
    else:
        records = [_run_trial(config, k) for k in range(config.trials)]
    records.sort(key=lambda r: r.trial)
    return ExperimentReport.build(config, tuple(records))


def run_demand_range_sweep(config: ExperimentConfig,
                           upper_bounds: list[int],
                           ) -> list[tuple[int, ExperimentReport]]:
    """Re-run the campaign once per demand upper bound.  The same master
    seed (hence the same networks per trial index) is reused across
    ranges, which pairs the comparisons."""
    out = []
    for hi in upper_bounds:
        cfg = dataclasses.replace(config, demand_hi=hi)
        out.append((hi, run_experiment(cfg)))
    return out
