"""tools/bench_trajectory.py on canned numbers: the spread of each side,
the pairs the change wins and the verdict; and the whole run, with the
benchmark processes and git stubbed, from the pairs to the written file."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]


def result(metrics, correct=True, failed=0):
    return {"metrics": metrics, "correct": correct, "failed": failed, "attempted": 10}


class TestCompare:
    def test_spread_and_wins(self):
        change = [v + 10.0 for v in PARENT]
        change[3] = 90.0  # the one pair the change loses
        got = bench.compare(PARENT, change, "higher", 0.25)
        assert got["parent"]["median"] == 100.0
        assert got["parent"]["q1"] == 98.25 and got["parent"]["q3"] == 101.75
        assert got["parent"]["iqr"] == pytest.approx(3.5)
        assert got["parent"]["runs"] == PARENT and got["change"]["runs"] == change
        assert (got["change_wins"], got["pairs"]) == (9, 10)
        assert got["median_change"] == pytest.approx(0.095)  # the change median is 109.5
        assert not got["unresolved"] and got["verdict"] == "better"

    def test_eight_wins_are_not_enough(self):
        change = [v + 10.0 for v in PARENT]
        change[3] = change[5] = 90.0
        got = bench.compare(PARENT, change, "higher", 0.25)
        assert got["change_wins"] == 8 and got["verdict"] == "same"

    def test_a_gain_inside_the_parent_iqr_is_not_better(self):
        got = bench.compare(PARENT, [v + 1.0 for v in PARENT], "higher", 0.25)
        assert got["change_wins"] == 10 and got["verdict"] == "same"

    def test_lower_is_better(self):
        got = bench.compare(PARENT, [v - 10.0 for v in PARENT], "lower", 0.15)
        assert got["change_wins"] == 10 and got["verdict"] == "better"
        assert bench.compare(PARENT, [v + 10.0 for v in PARENT], "lower", 0.15)["change_wins"] == 0

    def test_worse_past_the_bound(self):
        got = bench.compare(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25)
        assert got["median_change"] == pytest.approx(-0.3)
        assert got["verdict"] == "worse"
        assert bench.compare(PARENT, [v * 0.8 for v in PARENT], "higher", 0.25)["verdict"] == "same"

    def test_parent_iqr_at_the_bound_is_unresolved(self):
        wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        got = bench.compare(wide, [v * 0.95 for v in wide], "higher", 0.25)
        assert got["parent"]["iqr"] >= 25.0
        assert got["unresolved"] and got["verdict"] == "unresolved"


def test_ab_summary_per_metric_and_correctness():
    parent = [result({"tweets_per_s": v, "peak_rss_mb": 80.0, "setup_s": 1.0}) for v in PARENT]
    change = [result({"tweets_per_s": v * 1.3, "peak_rss_mb": 82.0, "setup_s": 1.0}) for v in PARENT]
    change[2] = result({"tweets_per_s": 130.0, "setup_s": 1.0}, correct=False, failed=2)
    got = bench.ab_summary(parent, change)
    # a metric one run lacks is left out
    assert set(got["end_to_end"]) == {"tweets_per_s", "setup_s"}
    tps = got["end_to_end"]["tweets_per_s"]
    assert (tps["unit"], tps["better"], tps["bound"]) == ("1/s", "higher", 0.25)
    # the change wins every pair, but its outputs were wrong: no gain
    assert tps["verdict"] == "failed" and tps["change_wins"] == 10
    assert got["end_to_end"]["setup_s"]["verdict"] == "same"
    assert got["parent_runs"] == {"correct": True, "failed": 0, "attempted": 100}
    assert got["change_runs"] == {"correct": False, "failed": 2, "attempted": 100}


def test_ab_summary_better_needs_no_more_failed_operations():
    parent = [result({"tweets_per_s": v}, failed=1) for v in PARENT]
    change = [result({"tweets_per_s": v * 1.3}, failed=1) for v in PARENT]
    assert bench.ab_summary(parent, change)["end_to_end"]["tweets_per_s"]["verdict"] == "better"
    change[0] = result({"tweets_per_s": PARENT[0] * 1.3}, failed=2)
    assert bench.ab_summary(parent, change)["end_to_end"]["tweets_per_s"]["verdict"] == "failed"


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    order = []
    monkeypatch.setattr(bench, "run", lambda workload, seed, trace, pin, tree=bench.ROOT: order.append(
        ("parent" if tree != bench.ROOT else "change", seed)) or result({}))
    parent, change = bench.ab_pairs("classify-short", Path("/elsewhere"), 4, pin=False)
    s = bench.AB_FIRST_SEED
    assert order == [("parent", s), ("change", s), ("change", s + 1), ("parent", s + 1),
                     ("parent", s + 2), ("change", s + 2), ("change", s + 3), ("parent", s + 3)]
    assert len(parent) == len(change) == 4


class TestMain:
    """``main`` with ``run`` and every git call stubbed: ``run`` records
    which tree ran which seed and trace, git names one commit and reports
    a clean tree, and the file goes to a temporary ROOT. A side named in
    ``wrong_traced`` gives wrong outputs on its traced run."""

    @pytest.fixture
    def tool(self, monkeypatch, tmp_path):
        calls = {"runs": [], "git": [], "wrong_traced": set()}

        def fake_run(workload, seed, trace, pin, tree=None):
            side = "parent" if tree is not None and tree.name == "parent" else "change"
            calls["runs"].append((side, seed, trace))
            canned = {"environment": {"cpus": 2}, **result({"tweets_per_s": 100.0, "setup_s": 1.0})}
            if trace:
                canned["metrics"] = {"encoder.forward_s": 0.5}
                canned["correct"] = side not in calls["wrong_traced"]
            return canned

        def fake_subprocess_run(cmd, **kwargs):
            calls["git"].append(cmd[1:])
            out = "c0ffee" if cmd[1] == "rev-parse" else ""
            return subprocess.CompletedProcess(cmd, 0, stdout=out if kwargs.get("text") else out.encode())

        monkeypatch.setattr(bench, "run", fake_run)
        monkeypatch.setattr(bench.subprocess, "run", fake_subprocess_run)
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        return calls

    def test_traced_run_on_each_side_after_the_pairs(self, tool, tmp_path):
        assert bench.main(["--workload", "timeline-scale"]) == 0
        doc = json.loads((tmp_path / "BENCH_AB_timeline-scale.json").read_text())
        s = bench.AB_FIRST_SEED
        for side in ("parent", "change"):
            assert doc[side]["traced"] == {"seed": s, "correct": True, "failed": 0,
                                           "per_layer": {"encoder.forward_s": 0.5}}
        # the untraced pairs keep their ABBA order, then each side runs traced once
        abba = [("parent", s), ("change", s), ("change", s + 1), ("parent", s + 1)]
        assert [(side, seed) for side, seed, _ in tool["runs"][:4]] == abba
        assert [trace for _, _, trace in tool["runs"][:-2]] == [0] * 2 * bench.AB_PAIRS
        assert tool["runs"][-2:] == [("parent", s, 1), ("change", s, 1)]
        # the worktree is added before the runs and removed after them
        worktree = [args[:2] for args in tool["git"] if args[0] == "worktree"]
        assert worktree == [["worktree", "add"], ["worktree", "remove"], ["worktree", "prune"]]
        assert doc["end_to_end"]["tweets_per_s"]["verdict"] == "same"

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_a_wrong_traced_run_fails_the_tool(self, tool, tmp_path, side):
        tool["wrong_traced"].add(side)
        assert bench.main(["--workload", "timeline-scale"]) == 1
        doc = json.loads((tmp_path / "BENCH_AB_timeline-scale.json").read_text())
        assert doc[side]["traced"]["correct"] is False
        assert doc["parent_runs"]["correct"] and doc["change_runs"]["correct"]

    def test_against_defaults_to_head(self, tool, tmp_path):
        bench.main(["--workload", "timeline-scale"])
        assert ["rev-parse", "--verify", "HEAD^{commit}"] in tool["git"]
        doc = json.loads((tmp_path / "BENCH_AB_timeline-scale.json").read_text())
        assert doc["parent"]["rev"] == "HEAD" and doc["parent"]["commit"] == "c0ffee"
        assert (doc["change"]["commit"], doc["change"]["dirty"]) == ("c0ffee", False)
