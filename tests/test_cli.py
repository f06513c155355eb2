"""Command line behavior: outputs, determinism, exit codes."""

import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hamsim
from hamsim import cli, coloring, one_sparse, oracle, parity, suzuki
from hamsim.cli import fit_loglog_slope, main
from hamsim.config import ColoringError, PlanError
from hamsim.oracle import EntryList


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_bound_reproduces_worked_numbers(capsys):
    rc, data = run_json(capsys, ["bound", "--m", "2", "--tau", "1",
                                 "--eps", "0.01"])
    assert rc == 0
    assert data["k"] == 1 and data["r"] == 253
    assert data["error_bound"] == pytest.approx(0.0049993, rel=1e-4)
    assert data["error_bound_sharp"] == pytest.approx(0.0026698353, rel=1e-6)
    assert data["nexp_bound"] == pytest.approx(2828.4271247, rel=1e-6)
    assert data["n_exp"] == 3 * 253
    assert data["restriction_ok"] is True
    # the smallest r the sharp pre-form allows
    assert data["r_sharp"] == 131 and data["n_exp_sharp"] == 3 * 131


def test_bound_accepts_overrides_and_window_warnings(capsys):
    rc, data = run_json(capsys, ["bound", "--m", "2", "--tau", "1",
                                 "--eps", "0.01", "--k", "2", "--r", "9"])
    assert rc == 0
    assert data["k"] == 2 and data["r"] == 9
    rc, data = run_json(capsys, ["bound", "--m", "1", "--tau", "0.001",
                                 "--eps", "0.5"])
    assert rc == 0
    assert data["warnings"]  # outside the window, flagged not fatal
    # past float range the bounds are infinite, not a traceback
    rc, data = run_json(capsys, ["bound", "--m", "2", "--tau", "1e300",
                                 "--eps", "0.1", "--r", "5"])
    assert rc == 0 and data["restriction_ok"] is False
    assert data["nexp_bound"] == data["nexp_bound_order_free"] == float("inf")
    assert data["r_sharp"] is None and data["n_exp_sharp"] is None
    # a huge r makes the power condition tiny, not infinite
    rc, data = run_json(capsys, ["bound", "--m", "2", "--tau", "1",
                                 "--eps", "0.1", "--k", "1",
                                 "--r", str(10 ** 200)])
    assert rc == 0 and data["restriction_ok"] is True
    assert data["restriction_linear"] == 8e-200
    assert 0.0 <= data["error_bound"] < 1e-300


def test_json_output_is_deterministic(capsys):
    args = ["simulate", "--gen", "random:n=3,d=2,seed=4,norm=1",
            "--time", "0.7", "--eps", "0.01"]
    rc1 = main(args)
    first = capsys.readouterr().out
    rc2 = main(args)
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second


def test_simulate_pipeline_accounting(capsys):
    rc, data = run_json(capsys, ["simulate", "--gen",
                                 "random:n=3,d=2,seed=4,norm=1",
                                 "--time", "0.7", "--eps", "0.01"])
    assert rc == 0
    assert data["verification"]["ok"] is True
    assert data["error_ok"] is True
    assert data["measured_error"] <= 0.01
    assert data["base_queries_ok"] is True
    assert data["base_queries"] <= data["base_query_bound"]
    assert data["n_exp"] == data["r"] * data["plan_length"]
    assert len(data["state"]) == data["dim"]
    norm = sum(re * re + im * im for re, im in data["state"])
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_simulate_quantized_and_seeded_state(capsys):
    rc, data = run_json(capsys, ["simulate", "--gen",
                                 "random:n=3,d=2,seed=4,norm=1",
                                 "--time", "0.7", "--eps", "0.01",
                                 "--quantize", "auto",
                                 "--state-seed", "5"])
    assert rc == 0
    assert data["quantize_bits"] == data["precision_bits_recommended"]
    assert data["error_ok"] is True
    assert data["backend"] == "py"


SMALL = ["simulate", "--gen", "random:n=3,d=2,seed=4,norm=1",
         "--time", "0.7", "--eps", "0.01"]


def test_simulate_takes_the_cheaper_slice_rule(capsys):
    rc, data = run_json(capsys, SMALL)
    assert rc == 0
    assert data["r_rule"] == "commutator" and data["k"] == 1
    assert data["r"] == data["r_commutator"] == 2
    assert data["r_paper"] == 305  # the paper's k = 1 count at tau = 0.45
    assert data["n_exp"] == 2 * data["plan_length"] == 18
    assert data["restriction_ok"] is False
    assert data["error_bound_paper"] is None
    assert data["error_bound"] == data["error_bound_commutator"]
    assert data["measured_error"] <= data["error_bound"] <= 0.01
    assert data["bound_slack"] == data["measured_error"] / data["error_bound"]
    assert data["warnings"] == []


def test_simulate_slice_rule_overrides(capsys):
    _, data = run_json(capsys, SMALL + ["--k", "2"])
    assert data["r_rule"] == "paper" and data["k"] == 2
    assert data["r"] == data["r_paper"] == 393
    assert data["error_bound_commutator"] is None  # k = 1 only
    assert data["error_bound"] == data["error_bound_paper"]
    _, data = run_json(capsys, SMALL + ["--k", "1"])
    assert data["r_rule"] == "commutator" and data["r"] == 2
    _, data = run_json(capsys, SMALL + ["--r", "5"])
    assert data["r_rule"] == "given" and (data["k"], data["r"]) == (1, 5)
    assert data["r_commutator"] == 2 and data["r_paper"] == 305
    assert data["error_bound"] == data["error_bound_commutator"]
    _, data = run_json(capsys, SMALL + ["--k", "3", "--r", "2"])
    assert data["r_rule"] == "given" and (data["k"], data["r"]) == (3, 2)
    assert data["error_bound_paper"] is None
    assert data["error_bound_commutator"] is None
    assert data["error_bound"] is None and data["bound_slack"] is None


def test_simulate_paper_rule_output_is_unchanged(capsys):
    """Recorded before the commutator rule existed; --k 2 keeps the paper
    rule, so every earlier field must come out the same."""
    _, data = run_json(capsys, SMALL + ["--k", "2", "--state-seed", "3"])
    exact = {"base_queries": 16, "base_query_bound": 96678,
             "base_queries_ok": True, "k": 2, "m_pieces": 5, "n_exp": 16113,
             "plan_length": 41, "precision_bits_recommended": 18, "r": 393,
             "restriction_ok": True, "error_ok": True, "warnings": []}
    assert {key: data[key] for key in exact} == exact
    close = {"error_bound": 0.0012464019796024288,
             "measured_error": 2.003319683856356e-13,
             "tau": 0.4527741887607683, "norm_bound": 1.088729578321261,
             "piece_norm_max": 0.6468202696582405}
    for key, val in close.items():
        assert data[key] == pytest.approx(val, abs=1e-12), key
    state = [[0.36707464648080795, -0.17799724143910758],
             [-0.3948622163419989, 0.6835387585015499],
             [0.024326259593462813, -0.09319331014616215],
             [-0.14045530751289928, -0.05349957669209645],
             [-0.04750279269184058, -0.007835475596697847],
             [-0.24968156629579807, -0.20948080808431527],
             [-0.1555039186912881, 0.1468171906928717],
             [-0.14086613382303653, -0.06666405509181127]]
    assert np.allclose(data["state"], state, rtol=0, atol=1e-12)


def test_simulate_slice_rule_edge_cases(capsys):
    # t = 0: nothing to split, one slice, a zero bound and the start state
    _, data = run_json(capsys, ["simulate", "--gen",
                                "random:n=3,d=2,seed=4,norm=1",
                                "--time", "0", "--eps", "1e-3"])
    assert (data["k"], data["r"], data["r_paper"], data["r_commutator"]) == (1, 1, 1, 1)
    assert data["error_bound"] == data["error_bound_commutator"] == 0.0
    assert data["bound_slack"] is None
    assert data["state"][0] == [1.0, 0.0]
    assert not any(re or im for re, im in data["state"][1:])
    # one piece: it commutes with itself, so one exact slice suffices
    orc = oracle.from_entry_list(EntryList(2, 1, ((0, 1, 0.5 + 0.25j),
                                                  (2, 2, 0.3))))
    data = cli.simulate_pipeline(orc, 1.0, 1e-3)
    assert data["m_pieces"] == 1 and data["r_paper"] == 119
    assert (data["r_rule"], data["r"], data["n_exp"]) == ("commutator", 1, 1)
    assert data["error_bound"] == 0.0
    assert data["measured_error"] < 1e-12


def test_simulate_commutator_rule_on_the_n8_instance():
    data = cli.simulate_pipeline(
        oracle.random_sparse(8, 3, seed=1, norm_target=1.0), 1.0, 1e-2,
        verify=False)
    assert (data["m_pieces"], data["r_paper"], data["r_commutator"]) == (22, 3793, 7)
    assert data["n_exp"] == 301 and data["base_queries_ok"] is True
    assert data["commutator_alpha"] == pytest.approx(0.3601068769410045,
                                                     rel=1e-12)
    assert data["measured_error"] <= data["error_bound"] <= 1e-2


def test_simulate_runs_the_largest_pieces_outermost(monkeypatch):
    """The plan that runs has non-increasing entry counts, ties in label
    order, and its measured error stays under the commutator bound at
    every given r of the k = 1 plan."""
    label_order, planned = [], []
    real_tables, real_pack = coloring.tables_from_slots, one_sparse.pack_tables

    def record_tables(*args):
        label_order[:] = real_tables(*args)
        return label_order

    def record_pack(tables):
        planned[:] = tables
        return real_pack(tables)

    monkeypatch.setattr(coloring, "tables_from_slots", record_tables)
    monkeypatch.setattr(one_sparse, "pack_tables", record_pack)
    points = informative = 0
    for n, d, seed in itertools.product(range(4, 9), range(2, 5), (1, 2, 3)):
        orc = oracle.random_sparse(n, d, seed=seed, norm_target=1.0)
        for t, r in itertools.product((0.5, 2.0), (1, 2, 4)):
            data = cli.simulate_pipeline(orc, t, 1e-2, k=1, r=r, verify=False)
            bound = data["error_bound_commutator"]
            assert data["measured_error"] <= bound, (n, d, seed, t, r)
            position = {id(tb): i for i, tb in enumerate(label_order)}
            keys = [(-tb.entry_count, position[id(tb)]) for tb in planned]
            assert keys == sorted(keys) and len(keys) == data["m_pieces"]
            # the bound is the one of the plan that ran
            assert data["commutator_alpha"] == suzuki.commutator_alpha(
                one_sparse.nested_commutator_norms(planned))
            points += 1
            informative += bound < 2.0  # unitaries differ by at most 2
    assert points == 270 and informative >= 240, informative


def test_simulate_measures_the_error_above_the_dense_cap(monkeypatch):
    orc = oracle.random_sparse(7, 3, seed=1, norm_target=1.0)
    below = cli.simulate_pipeline(orc, 1.0, 1e-2)
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    above = cli.simulate_pipeline(orc, 1.0, 1e-2)
    assert below["verification"]["ok"] is True
    assert below["verification"]["lookups_checked"] == 54 * orc.dim
    # the row-sum bound on ||H|| = 1, the same rule at every size
    assert 1.0 <= below["norm_bound"] <= 3 * below["piece_norm_max"]
    # verification still runs, on a sample of the lookups
    assert above["verification"]["ok"] is True
    assert above["verification"]["lookups_checked"] == coloring.VERIFY_SAMPLE
    assert above["norm_bound"] == below["norm_bound"]
    assert (above["precision_bits_recommended"]
            == below["precision_bits_recommended"])
    assert above["measured_error"] == pytest.approx(below["measured_error"],
                                                    abs=1e-12)
    assert above["error_ok"] is below["error_ok"] is True
    assert above["measured_error"] <= above["error_bound"]


def test_norm_bound_is_a_rigorous_bound_on_the_matrix_norm(monkeypatch):
    # the largest absolute row sum against the exact norm, on random
    # oracles and their slot-shuffled twins, with and without a dense cap
    for n in range(2, 9):
        for d in range(1, 5):
            base = oracle.random_sparse(n, d, seed=10 * n + d)
            for orc in (base, oracle.shuffled_columns(base, seed=n)):
                monkeypatch.delenv("HAMSIM_DENSE_CAP", raising=False)
                exact = float(np.abs(np.linalg.eigvalsh(
                    oracle.to_dense(orc))).max())
                data = cli.simulate_pipeline(orc, 1.0, 0.1, verify=False)
                bound = data["norm_bound"]
                assert bound >= exact * (1 - 1e-12), (n, d)
                assert bound <= d * data["piece_norm_max"], (n, d)
                assert data["precision_bits_recommended"] >= (
                    one_sparse.precision_bits(exact, d, data["k"], 0.1))
                monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
                capped = cli.simulate_pipeline(orc, 1.0, 0.1, verify=False)
                assert capped["norm_bound"] == bound
                assert (capped["precision_bits_recommended"]
                        == data["precision_bits_recommended"])


def test_verification_is_sampled_above_the_dense_cap(monkeypatch, capsys):
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    gen = "random:n=7,d=3,seed=1"
    rc, data = run_json(capsys, ["decompose", "--gen", gen])
    assert rc == 0 and data["verified"] is True
    assert data["lookups_checked"] == coloring.VERIFY_SAMPLE < 54 * 128
    # one amplitude off by one ulp in one piece fails both commands
    real = coloring.tables_from_slots

    def corrupt(n, nbr, val):
        tables = real(n, nbr, val)
        g = next(g for g, t in enumerate(tables) if t.pair_amp.size)
        amp = tables[g].pair_amp.copy()
        amp[0] = complex(np.nextafter(amp[0].real, np.inf), amp[0].imag)
        tables[g] = dataclasses.replace(tables[g], pair_amp=amp)
        return tables

    monkeypatch.setattr(coloring, "tables_from_slots", corrupt)
    rc, data = run_json(capsys, ["decompose", "--gen", gen])
    assert rc == 1 and data["verified"] is False
    assert data["failures"][-1] == "pieces do not sum back to the Hamiltonian"
    with pytest.raises(ColoringError, match="do not sum back"):
        cli.simulate_pipeline(oracle.random_sparse(7, 3, seed=1), 1.0, 1e-2)


def test_simulate_verifies_above_the_cap_without_dense_matrices(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix work or an uncounted read")

    small = oracle.random_sparse(4, 3, seed=2, norm_target=1.0)
    monkeypatch.setattr(oracle, "to_dense", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(oracle.SparseOracle, "peek", refuse)
    # below the cap: every lookup checked, still no dense matrix
    data = cli.simulate_pipeline(small, 1.0, 1e-2, verify=True)
    assert data["verification"]["ok"] is True
    assert data["verification"]["lookups_checked"] == 54 * small.dim
    assert data["norm_bound"] >= 1.0 and data["error_ok"] is True
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "64")
    data = cli.simulate_pipeline(oracle.random_sparse(7, 3, seed=1), 1.0,
                                 1e-2, verify=True)
    assert data["verification"]["ok"] is True
    assert data["norm_bound"] > 0 and data["error_ok"] is True


@pytest.mark.parametrize("n, d, lookups, base", [(9, 4, 135_998, 2_048),
                                                 (8, 3, 36_961, 768)])
def test_simulate_reads_each_slot_once(n, d, lookups, base):
    # one counted read of dim * d slots feeds the tables, the entries and
    # verify_coloring; the rest are the cold lookups, as verify_coloring
    # alone spends them
    orc = oracle.random_sparse(n, d, seed=1, norm_target=1.0)
    data = cli.simulate_pipeline(orc, 1.0, 1e-1)
    assert data["verification"]["ok"] is True
    assert data["base_queries"] == base == orc.dim * d
    assert orc.counter.count == base + lookups


def test_simulate_stays_numpy_only():
    # scipy is a test-only cross-check; the program must not load it
    src = str(Path(hamsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from hamsim import cli, oracle\n"
            "cli.simulate_pipeline(oracle.random_sparse(4, 2, seed=1), 1.0, 1e-2)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_simulate_fails_loudly_when_error_exceeds_eps(capsys):
    rc = main(["simulate", "--gen", "random:n=2,d=2,seed=1,norm=1",
               "--time", "1.0", "--eps", "1e-12", "--k", "1", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out)["error_ok"] is False
    assert "exceeds" in captured.err


def test_simulate_reads_entry_list_files(tmp_path, capsys):
    el = EntryList(2, 2, ((0, 1, 0.5 + 0.25j), (2, 3, -0.75 + 0j)))
    path = tmp_path / "h.txt"
    oracle.save_entry_list(el, str(path))
    rc, data = run_json(capsys, ["simulate", "--input", str(path),
                                 "--time", "0.5", "--eps", "0.01"])
    assert rc == 0
    assert data["n"] == 2 and data["d"] == 2
    assert data["error_ok"] is True


def test_decompose_listing_and_all_flag(capsys):
    rc, data = run_json(capsys, ["decompose", "--gen",
                                 "random:n=3,d=2,seed=4"])
    assert rc == 0
    assert data["verified"] is True
    assert len(data["pieces"]) == data["nonzero_pieces"] > 0
    rc, full = run_json(capsys, ["decompose", "--gen",
                                 "random:n=3,d=2,seed=4", "--all"])
    assert rc == 0
    assert len(full["pieces"]) == full["label_count"]


def test_decompose_csv(capsys):
    rc = main(["decompose", "--gen", "random:n=3,d=2,seed=4",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,nu,diagonals,pairs,entries,max_abs"
    assert len(lines) > 1


def test_sweep_slopes_match_orders(capsys):
    rc, data = run_json(capsys, ["sweep", "--gen",
                                 "terms:m=2,dim=6,seed=3,norm=1",
                                 "--k-list", "1,2",
                                 "--r-list", "8,16,32,64,128"])
    assert rc == 0
    assert abs(data["slopes"]["1"] - (-2.0)) < 0.3
    assert abs(data["slopes"]["2"] - (-4.0)) < 0.3
    for row in data["rows"]:
        if row["restriction_ok"]:
            assert row["measured_error"] <= row["bound"]


def test_sweep_over_decomposed_oracle(capsys):
    rc, data = run_json(capsys, ["sweep", "--gen",
                                 "random:n=2,d=2,seed=2,norm=1",
                                 "--k-list", "1", "--r-list", "16,32,64"])
    assert rc == 0
    assert data["m"] >= 1
    assert abs(data["slopes"]["1"] - (-2.0)) < 0.4


def test_parity_explicit_and_random(capsys):
    rc, data = run_json(capsys, ["parity", "--bits", "10110101",
                                 "--eps", "0.2"])
    assert rc == 0
    assert data["correct"] is True
    assert data["parity"] == data["expected_parity"] == 1
    assert data["trace_error"] <= 0.2
    assert data["error_ok"] is True
    assert data["bit_queries"] == 4 * 8
    assert data["lower_bound_ok"] is True
    assert data["backend"] == "py"
    # recorded at r = 1,363, where the sharp rule beats the paper's 2,520
    assert data["trace_error"] == pytest.approx(7.368122061145853e-06,
                                                abs=1e-12)
    assert data["r_rule"] == "sharp" and data["r"] == data["r_sharp"] == 1363
    assert data["r_paper"] == 2520 and data["r"] <= data["r_paper"]
    assert data["n_exp"] == 3 * 1363
    assert data["trace_error"] <= data["error_bound"] <= data["eps"]
    assert data["bound_slack"] == data["trace_error"] / data["error_bound"]
    rc, d1 = run_json(capsys, ["parity", "--size", "6", "--seed", "3"])
    rc2, d2 = run_json(capsys, ["parity", "--size", "6", "--seed", "3"])
    assert rc == rc2 == 0
    assert d1 == d2  # seeded generation is reproducible


def test_parity_reports_why_it_fails_on_error(capsys):
    """One quantization bit leaves the right parity but a trace error of
    0.45 against eps 0.2: exit 1, and the JSON says the error is why."""
    rc, data = run_json(capsys, ["parity", "--bits", "101", "--quantize",
                                 "1"])
    assert rc == 1
    assert data["correct"] is True
    assert data["trace_error"] == pytest.approx(0.4546, abs=1e-4)
    assert data["error_ok"] is False


def test_parity_quantize_auto(capsys):
    rc, data = run_json(capsys, ["parity", "--bits", "1101", "--eps", "0.1",
                                 "--quantize", "auto"])
    assert rc == 0
    assert data["quantize_bits"] >= 1
    assert data["correct"] is True


def test_tables_prints_pass_lines(capsys):
    rc = main(["tables"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines)
    assert "main" in lines[0] and "shifted" in lines[1]
    assert "z_18=4" in lines[2]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "bound.json"
    rc = main(["bound", "--m", "2", "--tau", "1", "--eps", "0.01",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["r"] == 253


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--format", "yaml"])
    assert exc.value.code == 2


def test_domain_errors_exit_one(capsys, tmp_path, monkeypatch):
    assert main(["simulate"]) == 1  # neither --input nor --gen
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--gen", "mystery:n=3"]) == 1
    assert main(["simulate", "--gen", "random:n=3"]) == 1  # missing d
    assert main(["simulate", "--gen", "random:n=3,d=2,bogus=1"]) == 1
    assert main(["parity", "--bits", "102"]) == 1
    assert main(["parity"]) == 1
    assert main(["sweep", "--gen", "terms:m=2,dim=6", "--k-list", "x"]) == 1
    assert main(["simulate", "--gen", "random:n=3,d=2", "--quantize", "abc"]) == 1
    assert main(["parity", "--bits", "101", "--quantize", "abc"]) == 1
    assert main(["parity", "--size", "-2"]) == 1
    assert main(["simulate", "--gen", "random:n=x,d=2"]) == 1
    assert main(["sweep", "--gen", "terms:m=x,dim=4"]) == 1
    assert main(["sweep", "--gen", "terms:m=0,dim=4"]) == 1
    assert main(["simulate", "--input", str(tmp_path / "missing.txt")]) == 1
    assert main(["simulate", "--gen", "random:n=3,d=2,seed=-1"]) == 1
    assert main(["sweep", "--gen", "terms:m=2,dim=4,seed=-1"]) == 1
    assert main(["parity", "--size", "8", "--seed", "-1"]) == 1
    assert main(["simulate", "--gen", "random:n=3,d=2",
                 "--state-seed", "-1"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    for norm in ("-1", "0", "nan", "inf"):
        assert main(["simulate", "--gen", f"random:n=3,d=2,norm={norm}"]) == 1
        assert "finite and positive" in capsys.readouterr().err
    assert main(["sweep", "--gen", "terms:m=2,dim=3,norm=0"]) == 1
    assert "finite and positive" in capsys.readouterr().err
    for bad_t in ("inf", "nan"):
        assert main(["sweep", "--gen", "terms:m=2,dim=3",
                     "--time", bad_t]) == 1
        assert "evolution time must be finite" in capsys.readouterr().err
    for floor in ("nan", "-1"):
        assert main(["sweep", "--gen", "terms:m=2,dim=3",
                     "--floor", floor]) == 1
        assert "--floor must be finite and nonnegative" in capsys.readouterr().err
    non_ascii = tmp_path / "h.txt"
    non_ascii.write_bytes("1 1\n0 0 1 0 # caf\u00e9\n".encode("utf-8"))
    assert main(["simulate", "--input", str(non_ascii)]) == 1
    # a slice count beyond floating point range
    assert main(["simulate", "--gen", "random:n=2,d=2,seed=1",
                 "--time", "1e250", "--no-verify"]) == 1
    assert "overflows" in capsys.readouterr().err
    assert main(["simulate", "--gen", "random:n=3,d=2",
                 "--time", "1e300"]) == 1
    assert "overflows" in capsys.readouterr().err
    assert main(["bound", "--m", "2", "--tau", "1e300", "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and err.count("\n") == 1
    # an order whose 5^(k-1) is past floating point range
    assert main(["bound", "--m", "2", "--tau", "1", "--eps", "0.1",
                 "--k", "500", "--r", "5"]) == 1
    err = capsys.readouterr().err
    assert "overflows" in err and err.count("\n") == 1
    assert main(["simulate", "--gen", "random:n=3,d=2,seed=1", "--k", "500",
                 "--r", "5", "--no-verify"]) == 1
    assert "overflows" in capsys.readouterr().err
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "abc")
    assert main(["simulate", "--gen", "random:n=3,d=2"]) == 1
    assert "HAMSIM_DENSE_CAP" in capsys.readouterr().err


def test_exponential_counts_past_2_to_53_exit_one(capsys):
    """A count of exponentials that no JSON reader holds exactly ends in
    exit 1 before any plan is built or run."""
    # the paper's rule takes k = 10 here: r of about 9.7e22 slices of a
    # 15,625,001-step plan
    assert main(["simulate", "--gen", "random:n=3,d=2,seed=1", "--time", "1",
                 "--eps", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert "15625001-step plan" in err and "more than 2^53" in err
    assert err.count("\n") == 1
    assert main(["parity", "--bits", "1011", "--eps", "1e-30"]) == 1
    err = capsys.readouterr().err
    assert ("205752042746042608 slices of a 3-step plan make "
            "617256128238127824 exponentials, more than 2^53") in err
    # 3 steps per slice: 2^53 // 3 slices fit, one more does not
    fit = 2 ** 53 // 3
    rc, data = run_json(capsys, ["sweep", "--gen", "terms:m=2,dim=3,seed=1",
                                 "--k-list", "1", "--r-list", str(fit)])
    assert rc == 0 and data["rows"][0]["n_exp"] == 3 * fit
    assert main(["sweep", "--gen", "terms:m=2,dim=3,seed=1", "--k-list", "1",
                 "--r-list", f"4,{fit + 1}"]) == 1
    assert "more than 2^53" in capsys.readouterr().err


def test_plans_too_long_to_build_and_oversized_oracles_exit_one(capsys):
    """simulate and sweep refuse a plan of billions of steps before
    building it, and simulate an oracle past the largest index before
    allocating it."""
    start = time.process_time()
    assert main(["simulate", "--gen", "random:n=3,d=2,seed=1", "--k", "14",
                 "--r", "1", "--no-verify"]) == 1
    assert "has 9765625001 steps" in capsys.readouterr().err
    assert main(["sweep", "--gen", "terms:m=3,dim=4", "--k-list", "14",
                 "--r-list", "1"]) == 1
    assert "has 4882812501 steps" in capsys.readouterr().err
    assert main(["simulate", "--gen", "random:n=70,d=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^70 exceeds" in err
    assert time.process_time() - start < 5


def test_unwritable_out_exits_one_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "nonexistent" / "x.json"
    for argv, path in ((["tables", "--out", str(missing)], missing),
                       (["simulate", "--gen", "random:n=3,d=2,seed=1",
                         "--out", str(tmp_path)], tmp_path)):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_simulate_refuses_non_finite_time_before_any_query(t, capsys):
    orc = oracle.random_sparse(6, 3, seed=1)
    with pytest.raises(PlanError, match=f"evolution time must be finite, "
                                        f"got {t}"):
        cli.simulate_pipeline(orc, t, 1e-2)
    assert orc.counter.count == 0
    assert main(["simulate", "--gen", "random:n=6,d=3,seed=1",
                 f"--time={t}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: evolution time must be finite, got {t}\n"


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
def test_simulate_refuses_a_bad_eps_before_any_query(eps, capsys):
    orc = oracle.random_sparse(6, 3, seed=1)
    with pytest.raises(PlanError, match=f"eps must be a finite positive "
                                        f"number, got {eps}"):
        cli.simulate_pipeline(orc, 1.0, eps)
    assert orc.counter.count == 0
    assert main(["simulate", "--gen", "random:n=6,d=3,seed=1",
                 f"--eps={eps}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: eps must be a finite positive number, got {eps}\n"


@pytest.mark.parametrize("given,flag,message", [
    ({"k": 0}, "--k=0", "order parameter k must be a positive integer, got 0"),
    ({"k": 1.5}, None, "order parameter k must be a positive integer, got 1.5"),
    ({"r": 0}, "--r=0", "repetition count must be a positive integer, got 0"),
    ({"r": 2.5}, None, "repetition count must be a positive integer, got 2.5"),
    ({"quantize": "0"}, "--quantize=0", "bit count 0 outside 1..62"),
    ({"quantize": "63"}, "--quantize=63", "bit count 63 outside 1..62"),
    ({"k": True}, None, "order parameter k must be a positive integer, got True"),
    ({"r": True}, None, "repetition count must be a positive integer, got True"),
])
def test_simulate_refuses_a_bad_plan_argument_before_any_query(
        given, flag, message, capsys):
    orc = oracle.random_sparse(6, 3, seed=1)
    with pytest.raises(PlanError, match=re.escape(message)):
        cli.simulate_pipeline(orc, 1.0, 0.1, **given)
    assert orc.counter.count == 0
    if flag is not None:  # argparse itself refuses a fractional --k or --r
        assert main(["simulate", "--gen", "random:n=6,d=3,seed=1",
                     flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bits", [0, 63, True, 2.5])
def test_parity_refuses_a_bad_bit_count_before_reading_a_bit(bits, capsys):
    instance = parity.ParityInstance([1, 0, 1, 1])
    message = f"bit count {bits} outside 1..62"
    with pytest.raises(PlanError, match=re.escape(message)):
        parity.run_parity(instance, 0.2, quantize_bits=bits)
    assert instance.counter.count == 0
    if type(bits) is int:  # --quantize itself refuses text that is no integer
        assert main(["parity", "--bits", "1011", f"--quantize={bits}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def run_module(*args):
    # the child imports hamsim from where this process found it
    src = str(Path(hamsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point_runs():
    proc = run_module("hamsim.cli", "tables")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_package_runs_as_a_module():
    proc = run_module("hamsim", "bound", "--m", "2", "--tau", "1",
                      "--eps", "0.01")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == 253
    proc = run_module("hamsim", "simulate", "--gen", "random:n=6,d=3,seed=1",
                      "--eps=0")
    assert proc.returncode == 1
    assert proc.stderr == "error: eps must be a finite positive number, got 0.0\n"


def test_fit_loglog_slope():
    rs = [4, 8, 16, 32]
    assert fit_loglog_slope(rs, [1.0 / r ** 2 for r in rs]) == pytest.approx(
        -2.0, abs=1e-9)
    # points at the floor are discarded
    ys = [1e-2, 1e-3, 1e-15, 1e-16]
    kept = fit_loglog_slope(rs, ys)
    assert kept == pytest.approx(
        np.polyfit(np.log(rs[:2]), np.log(ys[:2]), 1)[0], abs=1e-9)
    assert fit_loglog_slope([4, 8], [1e-14, 1e-15]) is None
    assert fit_loglog_slope([4], [1.0]) is None
