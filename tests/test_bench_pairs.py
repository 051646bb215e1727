"""tools/bench_pairs.py: its summary of alternating benchmark pairs, on
synthetic result lines, and its run order and exit status on two stub
trees whose benchmark command prints such lines."""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

_TOOL_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL_PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "cycle_s", "better": "lower", "bound": 0.2},
              {"name": "ess", "better": "higher", "bound": 0.1}]


def result_line(cycle_s, ess, attempted=10, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"cycle_s": {"value": cycle_s, "unit": "s"},
                                   "ess": {"value": ess, "unit": "ratio"}}})


def stdout_of(line):
    # run.py prints the full record on the line before the result
    return json.dumps({"record": {"timings": {}}}) + "\n" + line + "\n\n"


def test_seed_ranges():
    assert bench_pairs.parse_seeds("51-60") == list(range(51, 61))
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-3")


def test_result_is_the_last_line():
    assert bench_pairs.read_result(stdout_of(result_line(1.0, 0.5))) == \
        json.loads(result_line(1.0, 0.5))
    assert bench_pairs.read_result("") is None
    assert bench_pairs.read_result(result_line(1.0, 0.5) + "\nTraceback") \
        is None
    assert bench_pairs.read_result("[1, 2]") is None


def test_summary_of_synthetic_pairs():
    parent = [(0.40, 0.50), (0.30, 0.60), (0.20, 0.70), (0.10, 0.80)]
    change = [(0.35, 0.50), (0.30, 0.65), (0.25, 0.90), (0.05, 0.70)]
    pairs = [{"parent": bench_pairs.read_result(stdout_of(result_line(*p))),
              "change": bench_pairs.read_result(stdout_of(
                  result_line(*c, attempted=12, failed=i % 2)))}
             for i, (p, c) in enumerate(zip(parent, change))]
    got = bench_pairs.summarize(pairs, END_TO_END)
    cycle, ess = got["metrics"]["cycle_s"], got["metrics"]["ess"]
    assert got["pairs"] == 4
    assert cycle["parent_median"] == pytest.approx(0.25)
    assert cycle["change_median"] == pytest.approx(0.275)
    # strictly lower wins: 0.35 < 0.40 and 0.05 < 0.10; the tie does not
    assert cycle["change_wins"] == 2
    # numpy.percentile's linear quartiles of 0.1, 0.2, 0.3, 0.4
    assert (cycle["parent_q1"], cycle["parent_q3"]) == pytest.approx(
        (0.175, 0.325))
    assert cycle["parent_iqr"] == pytest.approx(0.15)
    assert cycle["bound"] == 0.2
    # the medians' relative change in percent, change/parent - 1
    assert cycle["median_change_pct"] == pytest.approx(10.0)
    assert ess["median_change_pct"] == pytest.approx(100.0 * (0.675 / 0.65
                                                              - 1.0))
    # a higher-is-better metric wins on a strictly higher value
    assert ess["change_wins"] == 2
    assert ess["parent_iqr"] == pytest.approx(
        np.subtract(*np.percentile([0.5, 0.6, 0.7, 0.8], [75, 25])))
    assert got["attempted"] == {"parent": 40, "change": 48}
    assert got["failed"] == {"parent": 0, "change": 2}
    lines = bench_pairs.format_summary("w", got)
    assert lines[0] == "w: 4 pairs"
    assert lines[1].startswith(
        "  cycle_s: parent 0.25 change 0.275 wins 2/4 +10.0% parent IQR")
    assert lines[2].startswith("  ess: parent 0.65 change 0.675 wins 2/4 "
                               "+3.8% parent IQR")
    assert lines[-2:] == ["  attempted: parent 40 change 48",
                          "  failed: parent 0 change 2"]


STUB_RUN = """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = os.path.basename(os.getcwd())
with open(os.path.join(os.path.dirname(os.getcwd()), "order"), "a") as fh:
    fh.write(f"{args['--workload']} {args['--seed']} {side} "
             f"{args['--seconds']} {args['--trace']}\\n")
cycle = 0.2 if side == "change" else 0.3
failed = int(side == "change" and args["--seed"] == "BAD_SEED")
print(json.dumps({"record": {}}))
print(json.dumps({"correct": not failed, "attempted": 5, "failed": failed,
                  "metrics": {"cycle_s": {"value": cycle, "unit": "s"}}}))
"""


def stub_trees(tmp_path, bad_seed):
    bench = {"command": [sys.executable, "perfbench/run.py"],
             "run_seconds": 1,
             "workloads": [{"name": "w"}, {"name": "v"}],
             "end_to_end": [{"name": "cycle_s", "better": "lower",
                             "bound": 0.2}]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            STUB_RUN.replace("BAD_SEED", str(bad_seed)))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    return str(tmp_path / "parent"), str(tmp_path / "change")


def test_pairs_alternate_and_summarize(tmp_path, capsys):
    parent, change = stub_trees(tmp_path, bad_seed=-1)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([parent, change, "--seeds", "3-4",
                             "--json", str(out)]) == 0
    # every workload of BENCHMARK.json, each run as long as its run_seconds
    assert (tmp_path / "order").read_text().split("\n")[:-1] == [
        f"{w} {pair}" for w in ("w", "v")
        for pair in ("3 parent 1 0", "3 change 1 0",
                     "4 change 1 0", "4 parent 1 0")]
    printed = capsys.readouterr().out
    assert printed.count("cycle_s: parent 0.3 change 0.2 wins 2/2 -33.3%") \
        == 2
    report = json.loads(out.read_text())
    assert report["workloads"][1]["summary"]["metrics"]["cycle_s"][
        "median_change_pct"] == pytest.approx(-100.0 / 3.0)
    assert [w["workload"] for w in report["workloads"]] == ["w", "v"]
    assert report["workloads"][0]["summary"]["failed"] == {
        "parent": 0, "change": 0}
    assert len(report["workloads"][0]["runs"]) == 4
    assert report["command"][-4:] == ["--seconds", "1", "--trace", "0"]


def test_workload_filters_the_benchmark_list(tmp_path, capsys):
    parent, change = stub_trees(tmp_path, bad_seed=-1)
    assert bench_pairs.main([parent, change, "--workload", "v",
                             "--seeds", "5"]) == 0
    assert (tmp_path / "order").read_text().split("\n")[:-1] == [
        "v 5 parent 1 0", "v 5 change 1 0"]
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([parent, change, "--workload", "x", "--seeds", "5"])
    assert err.value.code == 2
    assert "no workload x in BENCHMARK.json" in capsys.readouterr().err


def test_a_failed_operation_exits_1(tmp_path, capsys):
    parent, change = stub_trees(tmp_path, bad_seed=4)
    assert bench_pairs.main([parent, change, "--workload", "w",
                             "--seeds", "3-4"]) == 1
    captured = capsys.readouterr()
    assert "failed: parent 0 change 1" in captured.out
    assert "w seed 4 change: exit 0, correct False" in captured.err
