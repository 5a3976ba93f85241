"""CLI behavior: exit codes, output formats, determinism, and the error
contract.  Runs main() in process; the acceptance suite exercises the real
subprocess entry point."""

import json
import subprocess
import sys

import pytest

from degconn.cli import main

K4_CSV = ("i,v_i,d_i,J,K,L,X,X_star\r\n"
          "1,1,3,0,0,0,6,2.7\r\n"
          "2,2,2,0,0,2,2,1.8\r\n"
          "3,3,1,0,0,1,0,0.9\r\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_graphical_json(capsys):
    code, out, _ = run(capsys, "check", "--seq", "3 3 3 3")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphical"] is True
    assert payload["n"] == 4 and payload["m"] == 6
    assert payload["bound"] == "5/46656"
    assert payload["invariants"]["u_k4"] == "1/46656"
    assert payload["config"]["command"] == "check"
    assert payload["config"]["degrees"] == [3, 3, 3, 3]


def test_check_bound_of_single_edge(capsys):
    code, out, _ = run(capsys, "check", "--seq", "1 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "3/1" and payload["bound_float"] == 3.0


def test_check_csv_format(capsys):
    code, out, _ = run(capsys, "check", "--seq", "3 3 3 3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "graphical,True" in lines
    assert "bound,5/46656" in lines


def test_check_not_graphical_exits_2(capsys):
    code, out, _ = run(capsys, "check", "--seq", "3 1")
    assert code == 2
    assert json.loads(out)["graphical"] is False


def test_inline_json_sequence(capsys):
    code, out, _ = run(capsys, "check", "--seq", "[2, 2, 2]")
    assert code == 0
    assert json.loads(out)["config"]["degrees"] == [2, 2, 2]


def test_seq_file_input(capsys, tmp_path):
    f = tmp_path / "seq.txt"
    f.write_text("1 1 2 2\n")
    code, out, _ = run(capsys, "check", "--seq-file", str(f))
    assert code == 0
    assert json.loads(out)["config"]["degrees"] == [1, 1, 2, 2]


def test_family_flag(capsys):
    code, out, _ = run(capsys, "check", "--family", "regular:d=3,n=10")
    assert code == 0
    assert json.loads(out)["config"]["degrees"] == [3] * 10


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "check")[0] == 1  # no sequence given
    assert run(capsys, "check", "--bogus")[0] == 1
    assert run(capsys)[0] == 1  # no subcommand
    assert run(capsys, "check", "--family", "regular:d=x")[0] == 1


@pytest.mark.parametrize("flag, value", [
    ("--seq", "1 x"),
    ("--seq", "[1.5, 0.5]"),
    ("--seq", "[1, 1"),
    # JSON booleans would load as the integers 1 and 0
    ("--seq", "[true, true]"),
    ("--seq-file", "missing.txt"),
    ("--seq-file", "."),
    ("--seq-file", "latin1.txt"),
])
def test_malformed_sequence_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                             flag, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes(b"2 2 \xe9")
    code, out, err = run(capsys, "check", flag, value, "--error-json")
    assert code == 1 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError" and error["exit_code"] == 1
    code, out, err = run(capsys, "check", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("usage error: cannot read the degree sequence")


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "check", "--family", "nope:n=4")
    assert code == 2
    assert "unknown family" in err


def test_infeasible_trials_exit_2(capsys):
    code, _, _ = run(capsys, "census", "--seq", "2 2 2", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("argv, exit_code", [
    (["tightness", "--family", "with-twos", "--sizes", ""], 1),
    (["tightness", "--family", "with-twos", "--sizes", "60,,120"], 1),
    (["tightness", "--family", "with-twos", "--sizes", "x"], 1),
    (["explore", "--seq", "2 2 2", "--start", "0"], 1),
    (["explore", "--seq", "2 2 2", "--start", "9"], 1),
    (["sample", "--seq", "2 2 2", "--trials", "0"], 2),
    (["sample", "--seq", "2 2 2", "--trials", "-2"], 2),
    (["census", "--seq", "2 2 2", "--threads", "0"], 1),
    (["tightness", "--family", "with-twos", "--sizes", "40",
      "--threads", "-3"], 1),
    (["census", "--seq", "2 2 2", "--max-attempts", "-1"], 1),
    (["sample", "--seq", "2 2 2", "--max-attempts", "-1"], 1),
    (["explore", "--seq", "2 2 2", "--max-attempts", "-1"], 1),
    # argparse's own failures, before any flag is set
    (["census", "--seq", "2 2", "--threads", "x"], 1),
    (["census", "--seq", "2 2", "--sampler", "nope"], 1),
    (["oracle", "--seq", "2 2", "--trials", "5"], 1),
])
def test_bad_run_values_fail_with_error_json(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv, "--error-json")
    assert code == exit_code
    assert err == ""
    error = json.loads(out)["error"]
    assert error["exit_code"] == exit_code
    assert error["type"] == ("UsageError" if exit_code == 1
                             else "TrialsTooFew")


def test_sample_exhaustion_exits_3(capsys):
    # K7 is graphical, but only about 1 matching in 130,000 is simple
    code, _, err = run(capsys, "sample", "--seq", "6 6 6 6 6 6 6",
                       "--sampler", "rejection", "--max-attempts", "500")
    assert code == 3
    assert "attempts" in err


def test_non_graphical_sample_and_explore_exit_2(capsys):
    # even sum, but no simple realization: refused before any draw
    for cmd in ("sample", "explore"):
        for sampler in ("auto", "rejection"):
            code, out, err = run(capsys, cmd, "--seq", "5 5 1 1 1 1 1 1",
                                 "--sampler", sampler)
            assert code == 2, (cmd, sampler)
            assert out == "" and "Erdos-Gallai" in err


def test_negative_chain_steps_exit_nonzero(capsys):
    code, out, err = run(capsys, "census", "--family", "regular:d=2,n=8",
                         "--sampler", "switch-chain", "--steps", "-3")
    assert code == 1
    assert out == "" and "steps" in err


def test_negative_steps_exit_1_with_rejection(capsys):
    # --steps is read by the chain only, but a negative count is refused
    # whatever the sampler
    for cmd in ("census", "sample", "explore"):
        code, out, err = run(capsys, cmd, "--seq", "2 2 2 2",
                             "--sampler", "rejection", "--steps", "-3")
        assert code == 1, cmd
        assert out == "" and "steps" in err


def test_negative_steps_exit_1_in_multigraph_explore(capsys):
    code, out, err = run(capsys, "explore", "--seq", "2 2 2 2",
                         "--mode", "multigraph", "--steps", "-3")
    assert code == 1
    assert out == "" and "steps" in err


def test_multigraph_explore_refuses_sampler_flags(capsys):
    base = ("explore", "--seq", "2 2 2 2", "--mode", "multigraph")
    for flags in (["--sampler", "switch-chain"], ["--sampler", "auto"],
                  ["--max-attempts", "1"]):
        code, out, err = run(capsys, *base, *flags)
        assert code == 1, flags
        assert out == "" and "usage error" in err and flags[0] in err
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert json.loads(out)["config"]["sampler"] == "auto"
    # the simple-conditioned mode still reads both flags
    code, out, _ = run(capsys, "explore", "--seq", "2 2 2 2", "--sampler",
                       "rejection", "--max-attempts", "50")
    assert code == 0
    assert json.loads(out)["config"]["sampler"] == "rejection"


def test_subcommands_refuse_flags_they_do_not_read(capsys):
    for argv in (["explore", "--trials", "3"], ["explore", "--threads", "2"],
                 ["sample", "--threads", "2"], ["tightness", "--steps", "5"],
                 ["tightness", "--max-attempts", "5"]):
        code, out, err = run(capsys, *argv, "--family", "regular:d=3,n=10")
        assert code == 1, argv
        assert out == "" and "usage error" in err


def test_error_json_contract(capsys):
    code, out, err = run(capsys, "oracle", "--seq", " ".join(["2"] * 11),
                         "--error-json")
    assert code == 4
    assert err == ""
    payload = json.loads(out)
    assert payload["error"]["type"] == "TooLarge"
    assert payload["error"]["exit_code"] == 4


def test_oracle_cycle_partition(capsys):
    code, out, _ = run(capsys, "oracle", "--seq", "2 2 2 2 2 2")
    assert code == 0
    payload = json.loads(out)
    assert payload["probability_connected"] == "6/7"
    assert payload["probability_disconnected"] == "1/7"
    assert payload["realization_count"] == 70
    assert payload["taxonomy_means"] == {"cycle_len_6": "6/7",
                                         "triangle": "2/7"}
    code, out, _ = run(capsys, "oracle", "--seq", "2 2 2 2 2 2",
                       "--format", "csv")
    assert code == 0
    assert "probability_connected,6/7" in out.splitlines()
    assert "mean_triangle,2/7" in out.splitlines()


def test_sample_json_shape(capsys):
    code, out, _ = run(capsys, "sample", "--seq", "2 2 2 2", "--trials", "5",
                       "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["resolved_sampler"] == "rejection"
    assert len(payload["graphs"]) == 5
    for g in payload["graphs"]:
        assert g["n"] == 4 and len(g["edges"]) == 4
        degs = [0] * 5
        for u, v in g["edges"]:
            degs[u] += 1
            degs[v] += 1
        assert degs[1:] == [2, 2, 2, 2]


def test_sample_csv_shape(capsys):
    code, out, _ = run(capsys, "sample", "--seq", "2 2 2 2", "--trials", "3",
                       "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,u,v"
    assert len(lines) == 1 + 3 * 4
    assert lines[1].startswith("0,")


def test_sample_switch_chain(capsys):
    code, out, _ = run(capsys, "sample", "--seq", "1 1 2 2 3 3",
                       "--sampler", "switch-chain", "--steps", "50",
                       "--trials", "3", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["resolved_sampler"] == "switch-chain"
    assert payload["config"]["resolved_steps"] == 50
    for g in payload["graphs"]:
        degs = [0] * 7
        for u, v in g["edges"]:
            degs[u] += 1
            degs[v] += 1
        assert degs[1:] == [1, 1, 2, 2, 3, 3]


def test_auto_sampler_picks_chain_when_dense(capsys):
    # complete-graph degrees: rejection acceptance is astronomically small
    code, out, _ = run(capsys, "sample", "--family", "regular:d=9,n=10",
                       "--trials", "2", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["resolved_sampler"] == "switch-chain"
    assert len(payload["graphs"][0]["edges"]) == 45


def test_explore_forced_k4_csv(capsys):
    # (3,3,3,3) has K4 as its only realization: the trace is deterministic
    code, out, _ = run(capsys, "explore", "--seq", "3 3 3 3",
                       "--format", "csv")
    assert code == 0
    assert out == K4_CSV


def test_explore_json_and_start(capsys):
    code, out, _ = run(capsys, "explore", "--seq", "3 3 3 3", "--start", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["start"] == 2
    assert payload["trace"]["records"][0]["v_i"] == 2
    assert payload["config"]["mode"] == "simple-conditioned"
    assert sorted(map(tuple, payload["graph"]["edges"])) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_explore_multigraph_loop_trace(capsys):
    code, out, _ = run(capsys, "explore", "--seq", "2", "--mode",
                       "multigraph", "--format", "csv")
    assert code == 0
    assert out == "i,v_i,d_i,J,K,L,X,X_star\r\n1,1,2,0,0,2,0,-2\r\n"


def test_census_forced_disconnected(capsys):
    code, out, _ = run(capsys, "census", "--seq", "1 1 1 1",
                       "--trials", "100", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_hat"] == 1.0
    assert payload["disconnected"] == 100
    assert payload["taxonomy_counts"] == {"edge": 200}
    assert payload["config"]["resolved_sampler"] == "rejection"


def test_census_byte_identical_across_runs_and_threads(capsys):
    # 2600 trials span three batches, so --threads actually fans out
    argv = ["census", "--seq", "1 1 2 2 3 3", "--trials", "2600",
            "--seed", "12"]
    outs = []
    for extra in ([], [], ["--threads", "4"]):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--seq", "2 2 2",
                       "--out", str(target))
    assert code == 0
    assert out == f"wrote {target}\n"
    assert json.loads(target.read_text())["graphical"] is True


def test_tightness_cli_csv(capsys):
    code, out, _ = run(capsys, "tightness", "--family", "with-leaves",
                       "--sizes", "40", "--trials", "200", "--seed", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size,n,m,d_star_ok,class,empirical_mean,u_value,ratio"
    assert len(lines) == 1 + 5
    assert all(line.startswith("40,") for line in lines[1:])


@pytest.mark.parametrize("family, sizes, sampler", [
    ("two-stars", "12", "switch-chain"),
    ("star", "12", "switch-chain"),
    ("star", "5,12", "switch-chain"),  # rejection at 5, the chain at 12
    ("with-twos", "40", "rejection"),
])
def test_tightness_auto_sampler_uses_the_resolution_rule(capsys, family,
                                                         sizes, sampler):
    # a hub of degree n - 1 drops rejection's acceptance rate below 1%
    code, out, _ = run(capsys, "tightness", "--family", family, "--sizes",
                       sizes, "--trials", "50", "--seed", "3")
    assert code == 0
    assert json.loads(out)["sampler"] == sampler


def test_tightness_requires_known_family(capsys):
    assert run(capsys, "tightness", "--sizes", "40")[0] == 1
    code, _, err = run(capsys, "tightness", "--family", "bogus",
                       "--sizes", "40")
    assert code == 2
    assert "tightness family" in err


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "degconn.cli", "check", "--seq", "1 1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bound"] == "3/1"
