import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mtrsched
from mtrsched.conflict import SizeLimitError
from mtrsched import experiments
from mtrsched.experiments import (ExperimentConfig, _worker_count,
                                  run_demand_range_sweep, run_experiment)
from mtrsched.model import InvalidSizeError


def small(**kw):
    base = dict(trials=20, master_seed=7, topology="random", nodes=5,
                edge_prob=0.5, demand_lo=1, demand_hi=10, symmetric=True)
    base.update(kw)
    return ExperimentConfig(**base)


def results_only(report):
    """Everything except wall-clock runtimes, which never repeat exactly."""
    return [(r.trial, r.seed, r.n_links, r.lp, r.ilp, r.totals, r.penalties)
            for r in report.records]


class TestRunExperiment:
    def test_deterministic(self):
        assert results_only(run_experiment(small())) == \
            results_only(run_experiment(small()))

    def test_jobs_do_not_change_results(self):
        seq = run_experiment(small(trials=12))
        par = run_experiment(small(trials=12, jobs=3))
        assert results_only(seq) == results_only(par)

    def test_import_loads_no_process_pool(self):
        # the pool is imported only by a campaign that runs one
        src = str(Path(mtrsched.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys, mtrsched, mtrsched.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs,trials,cpus,workers", [
        (10**6, 1000, 2, 2),   # an absurd --jobs gets the CPUs, no more
        (8, 3, 16, 3),         # never more workers than trials
        (4, 100, 8, 4),
        (1, 100, 8, 1),
        (0, 100, 8, 1),
        (-5, 100, 8, 1),
        (4, 100, None, 1),     # CPU count unknown
    ])
    def test_worker_count_clamped(self, jobs, trials, cpus, workers):
        assert _worker_count(jobs, trials, cpus) == workers

    def test_aggregates_recomputable(self):
        rep = run_experiment(small(trials=30))
        for alg in rep.config.algorithms:
            pen = [r.penalties[alg] for r in rep.records]
            s = rep.summaries[alg]
            assert s.optimal == sum(1 for p in pen if p == 0)
            assert s.within_10pct == sum(1 for p in pen if p <= 10)
            assert s.mean_penalty == sum(pen, Fraction(0)) / len(pen)

    def test_invariants_per_trial(self):
        rep = run_experiment(small(trials=30, symmetric=False))
        for r in rep.records:
            assert r.n_links > 0
            assert r.lp <= r.ilp
            for alg in rep.config.algorithms:
                assert r.totals[alg] >= r.ilp
                assert r.penalties[alg] >= 0

    def test_regeneration_on_empty_networks(self):
        # p small enough that some draws are empty and must be retried
        rep = run_experiment(small(trials=25, nodes=2, edge_prob=0.1))
        assert len(rep.records) == 25
        assert all(r.n_links > 0 for r in rep.records)
        again = run_experiment(small(trials=25, nodes=2, edge_prob=0.1))
        assert results_only(rep) == results_only(again)

    def test_fixed_topology_campaign(self):
        rep = run_experiment(small(topology="linear", nodes=6, trials=10))
        assert all(r.n_links == 10 for r in rep.records)

    def test_all_three_algorithms(self):
        rep = run_experiment(small(trials=8,
                                   algorithms=("hwf", "mdf", "hwf-mdf")))
        assert set(rep.summaries) == {"hwf", "mdf", "hwf-mdf"}
        header = rep.to_csv().splitlines()[0]
        assert header == ("trial,seed,links,lp,ilp,hwf,mdf,hwf-mdf,"
                          "p_hwf,p_mdf,p_hwf-mdf,rt_hwf,rt_mdf,rt_hwf-mdf,rt_ilp")
        for r in rep.records:
            assert r.totals["hwf-mdf"] >= r.ilp

    def test_cap_refused_up_front(self):
        with pytest.raises(SizeLimitError):
            run_experiment(small(nodes=7))
        with pytest.raises(SizeLimitError):
            run_experiment(small(topology="complete", nodes=7))

    def test_fixed_cap_refused_before_build(self, monkeypatch):
        # a connected network of n nodes has >= 2(n - 1) links, so these are
        # refused without building 5e9 or 250,000-node networks
        def no_build(*args):
            raise AssertionError("fixed network built")
        monkeypatch.setattr(experiments, "gen_fixed_topology", no_build)
        for cfg in (small(topology="complete", nodes=100_000),
                    small(topology="linear", nodes=17),
                    small(topology="grid", rows=500, cols=500)):
            with pytest.raises(SizeLimitError, match="at least"):
                run_experiment(cfg)

    @pytest.mark.parametrize("rows,cols", [(-100, -100), (0, 100), (100, -1)])
    def test_grid_domain_before_cap(self, rows, cols):
        with pytest.raises(InvalidSizeError, match="grid needs"):
            run_experiment(small(topology="grid", rows=rows, cols=cols))

    def test_only_empty_draws_refused(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_REGEN_ATTEMPTS", 3)
        with pytest.raises(experiments._ConfigError,
                           match="nodes=4, edge_prob=1e-300"):
            run_experiment(small(trials=1, nodes=4, edge_prob=1e-300))

    def test_unknown_topology(self):
        with pytest.raises(experiments._ConfigError, match="unknown topology"):
            run_experiment(small(topology="torus"))

    def test_zero_probability_refused(self):
        with pytest.raises(ValueError, match="edge_prob"):
            run_experiment(small(edge_prob=0.0))

    def test_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_experiment(small(trials=0))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_experiment(small(algorithms=("hwf", "nope")))

    def test_duplicate_algorithm(self):
        with pytest.raises(experiments._ConfigError, match="duplicate algorithm"):
            run_experiment(small(algorithms=("hwf", "mdf", "hwf")))

    @pytest.mark.parametrize("lo,hi", [(0, 0), (5, 2)])
    def test_bad_demand_range(self, lo, hi):
        with pytest.raises(InvalidSizeError,
                           match=f"demand range needs 1 <= lo <= hi, got {lo}..{hi}"):
            run_experiment(small(demand_lo=lo, demand_hi=hi))

    @pytest.mark.parametrize("nodes,p", [(1, 0.5), (0, 0.5), (-6, 0.5),
                                         (4, 1.5), (4, -0.5), (4, float("nan"))])
    def test_random_topology_domain(self, nodes, p):
        # the same rules gen_random applies, checked before the link cap
        with pytest.raises(InvalidSizeError, match=r"n >= 2|\[0, 1\]"):
            run_experiment(small(nodes=nodes, edge_prob=p))


class TestReports:
    def test_csv_schema(self):
        rep = run_experiment(small(trials=5))
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0] == ["trial", "seed", "links", "lp", "ilp",
                           "hwf", "mdf", "p_hwf", "p_mdf",
                           "rt_hwf", "rt_mdf", "rt_ilp"]
        assert len(rows) == 6
        first = rows[1]
        assert int(first[0]) == 0
        assert int(first[2]) > 0

    def test_json_schema(self):
        rep = run_experiment(small(trials=5))
        doc = json.loads(rep.to_json())
        assert doc["trials"] == 5
        assert set(doc["algorithms"]) == {"hwf", "mdf"}
        for alg in doc["algorithms"].values():
            assert {"optimal", "within_10pct", "mean_penalty_pct",
                    "mean_penalty_exact", "mean_runtime_s"} <= set(alg)

    def test_summary_table_mentions_all(self):
        rep = run_experiment(small(trials=5))
        table = rep.summary_table()
        assert "exact" in table and "hwf" in table and "mdf" in table


class TestSweep:
    def test_networks_paired_across_ranges(self):
        sweep = run_demand_range_sweep(small(trials=8, symmetric=False),
                                       [10, 30])
        (_, rep10), (_, rep30) = sweep
        for a, b in zip(rep10.records, rep30.records):
            assert a.n_links == b.n_links
            assert a.seed == b.seed

    def test_demands_scale_with_range(self):
        sweep = run_demand_range_sweep(small(trials=8, symmetric=False),
                                       [10, 50])
        hi10 = max(r.ilp for _, rep in sweep[:1] for r in rep.records)
        hi50 = max(r.ilp for _, rep in sweep[1:] for r in rep.records)
        assert hi50 > hi10

    def test_every_range_checked_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_run_trial",
                            lambda config, trial: calls.append(trial))
        with pytest.raises(InvalidSizeError, match="got 1..0"):
            run_demand_range_sweep(small(trials=50), [10, 0])
        assert calls == []
