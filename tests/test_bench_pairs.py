"""The summary of tools/bench_pairs.py on synthetic run records; no benchmark runs."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(workload, pair, side, op_cal, failed=0, digest="d0"):
    return {"workload": workload, "pair": pair, "side": side, "failed": failed,
            "inputs_sha256": digest, "metrics": {"op_cal": op_cal, "peak_rss_mb": 20.0}}


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs._quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs._quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs._quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarise_counts_pairs_where_the_change_is_lower():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 9.0, 12.5, 10.0, 11.0]
    runs = [_run("w", i, "parent", v) for i, v in enumerate(parent)]
    runs += [_run("w", i, "change", v, failed=1 if i == 2 else 0) for i, v in enumerate(change)]
    # a pair with one side missing does not count
    runs.append(_run("w", 9, "parent", 1.0))
    summary = bench_pairs.summarise(runs)
    assert list(summary) == ["w"]
    entry = summary["w"]
    assert entry["pairs"] == 5
    assert entry["failed"] == {"parent": 0, "change": 1}
    op = entry["metrics"]["op_cal"]
    assert op["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert op["change"] == {"q1": 9.0, "median": 10.0, "q3": 11.0}
    assert op["median_ratio"] == 10.0 / 12.0
    assert op["change_lower"] == "4/5"
    # equal values are not lower
    assert entry["metrics"]["peak_rss_mb"]["change_lower"] == "0/5"


def test_summarise_keeps_workloads_apart():
    runs = [_run(w, 0, side, v) for w, v in (("a", 1.0), ("b", 2.0)) for side in ("parent", "change")]
    summary = bench_pairs.summarise(runs)
    assert sorted(summary) == ["a", "b"]
    assert summary["b"]["metrics"]["op_cal"]["change"]["median"] == 2.0
    assert bench_pairs.summarise([]) == {}


def test_summarise_flags_runs_that_saw_different_inputs():
    runs = [_run("same", i, side, 1.0) for i in range(3) for side in ("parent", "change")]
    runs += [_run("differs", i, "parent", 1.0) for i in range(3)]
    runs += [_run("differs", i, "change", 1.0, digest="d1" if i == 1 else "d0") for i in range(3)]
    summary = bench_pairs.summarise(runs)
    assert summary["same"]["inputs_match"] is True
    assert summary["differs"]["inputs_match"] is False


def _fake_runs(monkeypatch, change_digest):
    """Stand-ins for the export and the benchmark runs, so main runs nothing."""
    def run(tree, workload, seed, seconds):
        digest = change_digest if tree == bench_pairs.ROOT else "d0"
        return {"failed": 0, "attempted": 1, "inputs_sha256": digest, "metrics": {"op_cal": 1.0}}

    monkeypatch.setattr(bench_pairs, "_export", lambda rev, tree: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "_run", run)


def test_main_exits_1_after_writing_when_the_inputs_differ(monkeypatch, tmp_path):
    out = tmp_path / "pairs.json"
    _fake_runs(monkeypatch, "d1")
    assert bench_pairs.main(["--pairs", "2", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())["summary"]
    assert summary and not any(entry["inputs_match"] for entry in summary.values())


def test_main_exits_0_when_the_inputs_match(monkeypatch, tmp_path):
    out = tmp_path / "pairs.json"
    _fake_runs(monkeypatch, "d0")
    assert bench_pairs.main(["--pairs", "2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary and all(entry["inputs_match"] for entry in summary.values())
