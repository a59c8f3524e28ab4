import json

import pytest

import mtrsched
from mtrsched import cli, experiments
from mtrsched.cli import main
from mtrsched.exact import solve_ilp
from mtrsched.model import (Instance, gen_linear, gen_ring, load_instance,
                            save_instance)
from mtrsched.schedule import schedule_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def grid_asym(tmp_path, capsys):
    """The asymmetric 3x3 grid reference instance, via the CLI itself."""
    path = tmp_path / "grid.json"
    code = main(["gen", "--topology", "grid", "--rows", "3", "--cols", "3",
                 "--demand", "uniform:1:10", "--asymmetric", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    capsys.readouterr()  # drain the gen output
    # overwrite demands with the known reference vector
    inst = load_instance(path.read_text())
    doc = json.loads(path.read_text())
    f = (7, 8, 8, 4, 7, 2, 8, 1, 3, 1, 1, 9, 7, 4, 10, 1, 5, 4, 8, 8, 2, 5, 5, 7)
    for rec, d in zip(doc["demands"], f):
        rec["d"] = d
    path.write_text(json.dumps(doc))
    assert len(inst.network.links) == 24
    return path


class TestGen:
    def test_fixed_symmetric_linear(self, capsys, tmp_path):
        out = tmp_path / "lin.json"
        code, stdout, _ = run(capsys, "gen", "--topology", "linear", "--n", "6",
                              "--demand", "fixed:5", "--symmetric",
                              "--out", str(out))
        assert code == 0
        assert "6 nodes" in stdout and "10 links" in stdout
        inst = load_instance(out.read_text())
        assert inst.demands == (5,) * 10

    def test_random_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "gen", "--topology", "random", "--n", "6",
                             "--p", "0.5", "--seed", "7", "--demand",
                             "uniform:1:10", "--asymmetric", "--out", str(path))
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_usage_error_small_ring(self, capsys):
        code, _, err = run(capsys, "gen", "--topology", "ring", "--n", "2",
                           "--demand", "fixed:1")
        assert code == 2
        assert "error" in err

    def test_missing_seed(self, capsys):
        code, _, err = run(capsys, "gen", "--topology", "linear", "--n", "4",
                           "--demand", "uniform:1:10", "--symmetric")
        assert code == 2
        assert "--seed" in err

    def test_stdout_mode(self, capsys):
        code, stdout, _ = run(capsys, "gen", "--topology", "linear", "--n", "2",
                              "--demand", "fixed:3")
        assert code == 0
        assert json.loads(stdout)["nodes"] == 2


class TestSolve:
    def test_mdf_grid(self, capsys, grid_asym):
        code, stdout, _ = run(capsys, "solve", "--alg", "mdf", str(grid_asym))
        assert code == 0
        assert stdout.splitlines()[0] == "18"

    def test_exact_with_penalty(self, capsys, grid_asym):
        code, stdout, _ = run(capsys, "solve", "--alg", "hwf", "--penalty",
                              str(grid_asym))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "20"
        assert "optimal 18" in lines[1]
        assert "11.11%" in lines[1]

    def test_all_algorithms_roundtrip_validate(self, capsys, tmp_path, grid_asym):
        # the 3x3 grid is two-colorable, so the bipartite path applies too
        for alg in ("hwf", "mdf", "hwf-mdf", "exact", "bipartite"):
            sched_path = tmp_path / f"{alg}.json"
            code, _, _ = run(capsys, "solve", "--alg", alg, str(grid_asym),
                             "--out", str(sched_path))
            assert code == 0
            code, stdout, _ = run(capsys, "validate", str(grid_asym),
                                  str(sched_path))
            assert code == 0
            assert "ok" in stdout

    def test_mis2p_four_node(self, capsys, tmp_path):
        doc = {"nodes": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]],
               "demands": [
                   {"tx": 1, "rx": 2, "d": 1}, {"tx": 1, "rx": 3, "d": 1},
                   {"tx": 2, "rx": 1, "d": 1}, {"tx": 2, "rx": 3, "d": 1},
                   {"tx": 3, "rx": 1, "d": 1}, {"tx": 3, "rx": 2, "d": 1},
                   {"tx": 3, "rx": 4, "d": 2}, {"tx": 4, "rx": 3, "d": 1}]}
        path = tmp_path / "four.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "solve", "--alg", "mis2p", str(path))
        assert code == 0
        assert stdout.splitlines()[0] == "4"
        code, stdout, _ = run(capsys, "solve", "--alg", "exact", str(path))
        assert stdout.splitlines()[0] == "3"

    def test_lp_prints_fraction(self, capsys, tmp_path):
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": 2},
                           {"tx": 2, "rx": 1, "d": 3}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "solve", "--alg", "lp", str(path))
        assert code == 0
        assert stdout.splitlines()[0] == "5"

    @pytest.mark.parametrize("instance,alg,doc", [
        ("four-node", "lp", '{"objective": "3", "allocation": ['
         '{"links": [[1, 2], [3, 2], [3, 4]], "slots": "1"}, '
         '{"links": [[1, 3], [2, 3], [4, 3]], "slots": "1"}, '
         '{"links": [[2, 1], [3, 1], [3, 4]], "slots": "1"}]}\n'),
        ("four-node", "mis2p", '{"objective": "4", "allocation": ['
         '{"nodes": [1, 4], "slots": "1"}, '
         '{"nodes": [2, 4], "slots": "1"}, '
         '{"nodes": [3], "slots": "2"}]}\n'),
        ("ring5", "lp", '{"objective": "5/2", "allocation": ['
         '{"links": [[1, 2], [1, 5], [3, 2], [4, 5]], "slots": "1/2"}, '
         '{"links": [[1, 2], [3, 2], [3, 4], [5, 4]], "slots": "1/2"}, '
         '{"links": [[1, 5], [2, 3], [4, 3], [4, 5]], "slots": "1/2"}, '
         '{"links": [[2, 1], [2, 3], [4, 3], [5, 1]], "slots": "1/2"}, '
         '{"links": [[2, 1], [3, 4], [5, 1], [5, 4]], "slots": "1/2"}]}\n'),
        ("ring5", "mis2p", '{"objective": "5/2", "allocation": ['
         '{"nodes": [1, 3], "slots": "1/2"}, '
         '{"nodes": [1, 4], "slots": "1/2"}, '
         '{"nodes": [2, 4], "slots": "1/2"}, '
         '{"nodes": [2, 5], "slots": "1/2"}, '
         '{"nodes": [3, 5], "slots": "1/2"}]}\n'),
    ])
    def test_allocation_document_bytes(self, capsys, tmp_path,
                                       four_node_instance, instance, alg, doc):
        inst = {"four-node": four_node_instance,
                "ring5": Instance(gen_ring(5), (1,) * 10)}[instance]
        path = tmp_path / "instance.json"
        path.write_text(save_instance(inst))
        out = tmp_path / "alloc.json"
        code, _, _ = run(capsys, "solve", "--alg", alg, str(path),
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes() == doc.encode()

    def test_penalty_of_integral_lp(self, capsys, tmp_path, four_node_instance):
        path = tmp_path / "four.json"
        path.write_text(save_instance(four_node_instance))
        code, stdout, _ = run(capsys, "solve", "--alg", "lp", "--penalty",
                              str(path))
        assert code == 0
        assert stdout == "3\noptimal 3  penalty 0.00%\n"

    def test_exact_notes_fractional_relaxation(self, capsys, tmp_path):
        path = tmp_path / "ring5.json"
        code, _, _ = run(capsys, "gen", "--topology", "ring", "--n", "5",
                         "--demand", "fixed:1", "--out", str(path))
        assert code == 0
        code, stdout, err = run(capsys, "solve", "--alg", "exact", str(path))
        assert code == 0
        assert stdout == "3\n"
        assert err == ("note: fractional relaxation 5/2 (2.5000) is below "
                       "the integer optimum 3\n")

    @pytest.mark.parametrize("alg", ["lp", "mis2p", "exact"])
    def test_values_beyond_float_range_print_exactly(self, capsys, tmp_path,
                                                     alg):
        # ring 5, every demand 10**400 + 1: the LP and mis2p optima 5d/2
        # have no float, so they print as exact fractions alone
        d = 10**400 + 1
        path = tmp_path / "ring5.json"
        path.write_text(save_instance(Instance(gen_ring(5), (d,) * 10)))
        code, stdout, err = run(capsys, "solve", "--alg", alg, str(path))
        assert code == 0
        if alg == "exact":
            assert stdout == f"{(5 * d + 1) // 2}\n"
            assert err == (f"note: fractional relaxation {5 * d}/2 is below "
                           f"the integer optimum {(5 * d + 1) // 2}\n")
        else:
            assert (stdout, err) == (f"{5 * d}/2\n", "")

    def test_bipartite_on_triangle_is_capability_error(self, capsys, tmp_path):
        doc = {"nodes": 3, "edges": [[1, 2], [1, 3], [2, 3]],
               "demands": [{"tx": 1, "rx": 2, "d": 1}, {"tx": 1, "rx": 3, "d": 1},
                           {"tx": 2, "rx": 1, "d": 1}, {"tx": 2, "rx": 3, "d": 1},
                           {"tx": 3, "rx": 1, "d": 1}, {"tx": 3, "rx": 2, "d": 1}]}
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--alg", "bipartite", str(path))
        assert code == 3
        assert "not bipartite" in err

    def test_bipartite_on_odd_ring_names_the_cycle(self, capsys, tmp_path):
        path = tmp_path / "ring5.json"
        code, _, _ = run(capsys, "gen", "--topology", "ring", "--n", "5",
                         "--demand", "fixed:1", "--out", str(path))
        assert code == 0
        code, stdout, err = run(capsys, "solve", "--alg", "bipartite", str(path))
        assert code == 3
        assert stdout == ""
        assert err == ("error: topology is not bipartite "
                       "(odd cycle [3, 2, 1, 5, 4])\n")

    def test_bipartite_on_tree(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "--topology", "linear", "--n", "4",
                         "--demand", "fixed:2", "--out",
                         str(tmp_path / "lin.json"))
        code, stdout, _ = run(capsys, "solve", "--alg", "bipartite",
                              str(tmp_path / "lin.json"))
        assert code == 0
        assert stdout.splitlines()[0] == "4"

    def test_exact_on_zero_demands(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        doc = {"nodes": 2, "edges": [[1, 2]],
               "demands": [{"tx": 1, "rx": 2, "d": 0},
                           {"tx": 2, "rx": 1, "d": 0}]}
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "solve", "--alg", "exact", str(path))
        assert code == 0
        assert stdout.splitlines()[0] == "0"

    def test_exact_beyond_cap(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "--topology", "complete", "--n", "7",
                         "--demand", "fixed:1", "--out", str(tmp_path / "k7.json"))
        assert code == 0
        code, _, err = run(capsys, "solve", "--alg", "exact",
                           str(tmp_path / "k7.json"))
        assert code == 3
        assert "cap" in err

    def test_penalty_of_fractional_lp_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "ring5.json"
        code, _, _ = run(capsys, "gen", "--topology", "ring", "--n", "5",
                         "--demand", "fixed:1", "--symmetric", "--out", str(path))
        assert code == 0
        code, stdout, err = run(capsys, "solve", "--alg", "lp", "--penalty",
                                str(path))
        assert code == 2
        assert stdout.splitlines()[0].startswith("5/2")
        assert "integer totals only" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--alg", "hwf", "/no/such/file")
        assert code == 2

    def test_non_utf8_instance_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{")
        code, _, err = run(capsys, "solve", "--alg", "hwf", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_deeply_nested_instance_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 100000)
        code, _, err = run(capsys, "solve", "--alg", "hwf", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_boolean_and_float_demand_ids_usage_error(self, capsys, tmp_path):
        # read as node 1, true and 1.0 would give demands (3, 4) and total 7
        path = tmp_path / "l2.json"
        path.write_text('{"nodes": 2, "edges": [[1, 2]], "demands": ['
                        '{"tx": true, "rx": 2, "d": 3},'
                        ' {"tx": 2, "rx": 1.0, "d": 4}]}')
        code, stdout, err = run(capsys, "solve", "--alg", "exact", str(path))
        assert code == 2
        assert stdout == ""
        assert "integer node ids" in err

    def test_exact_penalty_solves_once(self, capsys, monkeypatch, grid_asym):
        calls = []

        def counting(instance):
            calls.append(instance)
            return solve_ilp(instance)

        monkeypatch.setattr(cli, "solve_ilp", counting)
        code, stdout, _ = run(capsys, "solve", "--alg", "exact", "--penalty",
                              str(grid_asym))
        assert code == 0
        assert len(calls) == 1
        assert stdout.splitlines()[-1].endswith("penalty 0.00%")

    def test_internal_error_is_not_a_usage_error(self, capsys, monkeypatch,
                                                 grid_asym):
        def broken(instance):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "solve_lp", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["solve", "--alg", "lp", str(grid_asym)])


class TestValidate:
    def test_tampered_schedule(self, capsys, tmp_path, grid_asym):
        sched_path = tmp_path / "s.json"
        run(capsys, "solve", "--alg", "mdf", str(grid_asym), "--out",
            str(sched_path))
        sched = schedule_from_json(sched_path.read_text())
        doc = json.loads(sched_path.read_text())
        doc["entries"] = doc["entries"][1:]
        doc["total"] = sum(e["slots"] for e in doc["entries"])
        sched_path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "validate", str(grid_asym),
                              str(sched_path))
        assert code == 1
        assert "under-coverage" in stdout

    def test_conflicting_schedule(self, capsys, tmp_path):
        run(capsys, "gen", "--topology", "linear", "--n", "3",
            "--demand", "fixed:1", "--out", str(tmp_path / "l3.json"))
        bad = {"entries": [{"links": [[1, 2], [2, 3], [2, 1], [3, 2]],
                            "slots": 1}], "total": 1}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        code, stdout, _ = run(capsys, "validate", str(tmp_path / "l3.json"),
                              str(tmp_path / "bad.json"))
        assert code == 1
        assert "conflict" in stdout
        assert "node 2" in stdout

    def test_boolean_node_and_slots_rejected(self, capsys, tmp_path):
        # read with true as node 1 and as one slot, this schedule would
        # cover demands (7, 1) on the 2-node path and validate clean
        inst = tmp_path / "l2.json"
        inst.write_text(save_instance(Instance(gen_linear(2), (7, 1))))
        sched = tmp_path / "s.json"
        sched.write_text('{"entries": [{"links": [[true, 2]], "slots": 7},'
                         ' {"links": [[2, 1]], "slots": true}]}')
        code, stdout, stderr = run(capsys, "validate", str(inst), str(sched))
        assert code == 1
        assert "[tx, rx] pairs" in stderr

    def test_deeply_nested_schedule_rejected(self, capsys, tmp_path):
        inst = tmp_path / "l2.json"
        inst.write_text(save_instance(Instance(gen_linear(2), (1, 1))))
        sched = tmp_path / "deep.json"
        sched.write_bytes(b"[" * 100000)
        code, _, stderr = run(capsys, "validate", str(inst), str(sched))
        assert code == 1
        assert "error: not valid JSON" in stderr

    def test_repeated_link_schedule_rejected(self, capsys, tmp_path):
        # 1000 copies of both links in one entry: read as given, each of
        # the 10^6 pairs of conflicting copies would print a violation
        inst = tmp_path / "l2.json"
        inst.write_text(save_instance(Instance(gen_linear(2), (1, 1))))
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(
            {"entries": [{"links": [[1, 2], [2, 1]] * 1000, "slots": 1}]}))
        code, stdout, stderr = run(capsys, "validate", str(inst), str(sched))
        assert code == 1
        assert stdout == ""
        assert stderr == "error: entry 0 lists link (1, 2) twice\n"

    def test_non_utf8_schedule_rejected(self, capsys, tmp_path):
        inst = tmp_path / "l2.json"
        inst.write_text(save_instance(Instance(gen_linear(2), (1, 1))))
        sched = tmp_path / "s.json"
        sched.write_bytes(b"\xff{")
        code, _, stderr = run(capsys, "validate", str(inst), str(sched))
        assert code == 1
        assert "not valid JSON" in stderr


class TestExperiment:
    def test_small_campaign(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "experiment", "--trials", "5",
                              "--seed", "3", "--n", "5", "--p", "0.5",
                              "--demand", "uniform:1:10", "--symmetric",
                              "--out-json", str(tmp_path / "r.json"),
                              "--out-csv", str(tmp_path / "r.csv"))
        assert code == 0
        assert "hwf" in stdout and "mdf" in stdout
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["trials"] == 5
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "trial,seed,links,lp,ilp,hwf,mdf,p_hwf,p_mdf,rt_hwf,rt_mdf,rt_ilp"

    def test_zero_trials_usage_error(self, capsys):
        code, _, _ = run(capsys, "experiment", "--trials", "0", "--seed", "1",
                         "--symmetric")
        assert code == 2

    def test_symmetry_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--trials", "2", "--seed", "1"])
        assert exc.value.code == 2

    def test_sweep_csv_shape(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "experiment", "--trials", "3",
                              "--seed", "5", "--n", "4",
                              "--demand-ranges", "10,20",
                              "--asymmetric",
                              "--out-csv", str(tmp_path / "sweep.csv"))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "demand_hi,mean_p_hwf,mean_p_mdf"
        assert len(lines) == 3
        assert lines[1].startswith("10,") and lines[2].startswith("20,")

    def test_cap_refused(self, capsys):
        code, _, err = run(capsys, "experiment", "--trials", "2",
                           "--seed", "1", "--n", "7", "--symmetric")
        assert code == 3

    @pytest.mark.parametrize("spec", ["uniform:0:0", "uniform:5:2"])
    def test_bad_demand_range_usage_error(self, capsys, spec):
        code, _, err = run(capsys, "experiment", "--trials", "2", "--seed", "1",
                           "--n", "4", "--demand", spec, "--symmetric")
        assert code == 2
        assert "demand range needs 1 <= lo <= hi" in err

    @pytest.mark.parametrize("n,p", [("1", "0.5"), ("4", "1.5")])
    def test_random_topology_domain_usage_error(self, capsys, n, p):
        code, _, err = run(capsys, "experiment", "--trials", "2", "--seed", "1",
                           "--n", n, "--p", p, "--symmetric")
        assert code == 2
        assert "n >= 2" in err or "[0, 1]" in err

    def test_sweep_out_json_usage_error(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(experiments, "_run_trial",
                            lambda config, trial: calls.append(trial))
        out = tmp_path / "sweep.json"
        code, _, err = run(capsys, "experiment", "--trials", "2", "--seed", "1",
                           "--n", "4", "--demand-ranges", "10,20", "--symmetric",
                           "--out-json", str(out))
        assert code == 2
        assert "--out-json" in err
        assert calls == [] and not out.exists()

    def test_duplicate_algorithms_usage_error(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_run_trial",
                            lambda config, trial: calls.append(trial))
        code, _, err = run(capsys, "experiment", "--trials", "3", "--seed", "1",
                           "--n", "4", "--symmetric", "--algorithms", "hwf,hwf")
        assert code == 2
        assert "duplicate algorithm" in err
        assert calls == []

    def test_fixed_cap_refused_before_build(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("fixed network built")
        monkeypatch.setattr(experiments, "gen_fixed_topology", no_build)
        code, _, err = run(capsys, "experiment", "--trials", "1", "--seed", "1",
                           "--topology", "complete", "--n", "100000",
                           "--symmetric")
        assert code == 3
        assert "199998 links" in err

    def test_default_campaign_matches_library(self, capsys, tmp_path):
        # the CLI reads every campaign default from ExperimentConfig
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "experiment", "--trials", "20", "--seed", "3",
                         "--symmetric", "--out-csv", str(out))
        assert code == 0
        lib = experiments.run_experiment(
            experiments.ExperimentConfig(trials=20, master_seed=3)).to_csv()

        def no_runtimes(text):
            rows = text.splitlines()
            keep = [i for i, h in enumerate(rows[0].split(","))
                    if not h.startswith("rt_")]
            return [[row.split(",")[i] for i in keep] for row in rows]
        assert no_runtimes(out.read_text()) == no_runtimes(lib)
        assert out.read_text().startswith("trial,seed,links,lp,ilp,hwf,mdf,")

    def test_only_empty_networks_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_REGEN_ATTEMPTS", 3)
        code, _, err = run(capsys, "experiment", "--trials", "1", "--seed", "1",
                           "--n", "4", "--p", "1e-300", "--symmetric")
        assert code == 2
        assert "nodes=4" in err and "edge_prob=1e-300" in err

    def test_non_integer_demand_ranges_usage_error(self, capsys, tmp_path):
        # an empty list is still a sweep request, not a plain campaign
        out = tmp_path / "out"
        for ranges in ("10,x", ""):
            for out_flag in ("--out-csv", "--out-json"):
                code, _, err = run(capsys, "experiment", "--trials", "2",
                                   "--seed", "1", "--n", "4", "--demand-ranges",
                                   ranges, "--symmetric", out_flag, str(out))
                assert code == 2, (ranges, out_flag)
                assert "--demand-ranges" in err
                assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--topology", "linear", "--n", "4", "--demand", "bogus"],
    ["gen", "--topology", "linear", "--n", "4", "--demand", "uniform:1"],
    ["experiment", "--trials", "2", "--seed", "1", "--symmetric",
     "--demand", "fixed:x"],
])
def test_malformed_demand_spec_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "demand spec must be fixed:V or uniform:LO:HI" in err


def test_usage_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --alg
    assert exc.value.code == 2


def test_version_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"mtrsched {mtrsched.__version__}"
