"""The A/B script's summary: pair wins, quartiles and the gain rule, and its
artifact comparison, on synthetic runs (running the benchmark itself is not
a unit test)."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from phinv.scenario import demo_scenarios

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", AB)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_a_clear_drop_in_a_lower_is_better_metric_is_a_gain():
    base = [266.0, 266.4, 266.2, 266.1, 266.3, 266.5, 266.2, 266.0, 266.6, 266.3]
    change = [157.0 + 0.01 * i for i in range(10)]
    s = ab.summarize(base, change, "lower", 0.1)
    assert s["change_wins"] == 10 and s["pairs"] == 10
    assert s["base"]["median"] == pytest.approx(266.25)
    assert s["change"]["median"] == pytest.approx(157.045)
    assert (s["base"]["q1"], s["base"]["q3"]) == pytest.approx((266.075, 266.425))
    assert s["median_gain"] == pytest.approx(109.205)
    assert s["gain"] and s["within_bound"]
    assert s["relative_worsening"] == pytest.approx(-109.205 / 266.25)


def test_eight_wins_in_ten_or_a_gap_inside_the_spread_is_no_gain():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    s = ab.summarize(base, change, "lower", 0.25)
    assert s["change_wins"] == 8 and not s["gain"]
    # Nine wins by a hair: the medians differ by less than the base's spread.
    base = [1.0, 1.2, 1.1, 1.3, 1.0, 1.2, 1.1, 1.3, 1.0, 1.2]
    change = [b - 0.001 for b in base[:9]] + [2.0]
    s = ab.summarize(base, change, "lower", 0.25)
    assert s["change_wins"] == 9
    assert s["median_gain"] < s["base_iqr"] and not s["gain"]


def test_higher_is_better_ties_and_the_bound():
    base = [10.0, 10.0, 10.0, 10.0]
    s = ab.summarize(base, [10.0, 10.0, 9.0, 9.0], "higher", 0.05)
    assert s["change_wins"] == 0  # ties count for neither side
    assert s["relative_worsening"] == pytest.approx(0.05) and s["within_bound"]
    s = ab.summarize(base, [9.0, 9.0, 9.0, 9.0], "higher", 0.05)
    assert s["relative_worsening"] == pytest.approx(0.1) and not s["within_bound"]
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], "lower", 0.1)


def test_counters_compare_by_name_and_a_missing_one_is_unequal():
    names = ["metric.build_calls", "position.grid_points"]
    base = {
        "metric.build_calls": {"value": 13526, "unit": "count"},
        "position.grid_points": {"value": 22011, "unit": "count"},
        "trace.run_s": {"value": 2.5, "unit": "s"},
    }
    change = {k: dict(v) for k, v in base.items()}
    change["trace.run_s"]["value"] = 2.1  # timings are not counters
    c = ab.compare_counters(base, change, names)
    assert c["base"] == c["change"] == {"metric.build_calls": 13526, "position.grid_points": 22011}
    assert c["counters_equal"]
    change["metric.build_calls"]["value"] = 13527
    assert not ab.compare_counters(base, change, names)["counters_equal"]
    del change["metric.build_calls"]
    c = ab.compare_counters(base, change, names)
    assert c["change"]["metric.build_calls"] is None and not c["counters_equal"]
    assert not ab.compare_counters(change, change, names)["counters_equal"]


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # Base quartiles 1.625 and 2.375 around a median of 2.0: a relative
    # spread of 0.375.
    base = [1.5, 2.0, 2.0, 2.5, 1.5, 2.0, 2.0, 2.5]
    s = ab.summarize(base, [b + 0.01 for b in base], "lower", 0.2)
    assert s["base_relative_spread"] == pytest.approx(0.375)
    assert s["within_bound"] and s["unresolved"]
    # The same spread against a bound that covers it is resolved.
    assert not ab.summarize(base, base, "lower", 0.4)["unresolved"]
    # Every change run beating every base run resolves it at any spread.
    s = ab.summarize(base, [1.4] * len(base), "lower", 0.2)
    assert not s["unresolved"] and s["change_wins"] == len(base)
    # One change run inside the base's range leaves it unresolved.
    s = ab.summarize(base, [1.4] * (len(base) - 1) + [1.6], "lower", 0.2)
    assert s["unresolved"]
    # Higher is better: every change run must read above every base run.
    s = ab.summarize(base, [2.6] * len(base), "higher", 0.2)
    assert not s["unresolved"]


def _artifacts(rows, cells, report_extra=None):
    """A series.csv and report.json as phinv writes them: CRLF CSV lines,
    check rows by name."""
    csv = "\r\n".join(["t,Phi,dyson_residual"] + [",".join(r) for r in cells]) + "\r\n"
    report = {"checks": [{"name": n, "max_residual": v} for n, v in rows],
              "overall_pass": True, **(report_extra or {})}
    return {"series.csv": csv, "report.json": json.dumps(report)}


def test_artifacts_compare_byte_for_byte_and_name_what_differs():
    rows = [("schrodinger", 1e-9), ("dyson", 2e-9)]
    cells = [["0.0", "0.2", "nan"], ["1.0", "0.3", "4.0e-10"]]
    base = _artifacts(rows, cells)
    same = ab.compare_artifacts(base, _artifacts(rows, cells))
    assert same == {"artifacts_identical": True, "report_rows": [], "report_fields": [],
                    "csv_columns": []}
    # One CSV cell and one check row moved, and a top-level field changed.
    moved = _artifacts([("schrodinger", 1e-9), ("dyson", 3e-9)],
                       [["0.0", "0.2", "nan"], ["1.0", "0.3", "4.1e-10"]],
                       {"overall_pass": False})
    c = ab.compare_artifacts(base, moved)
    assert not c["artifacts_identical"]
    assert c["report_rows"] == ["dyson"]
    assert c["report_fields"] == ["overall_pass"]
    assert c["csv_columns"] == ["dyson_residual"]
    # A row or column only one side has differs too; so do bytes that
    # parse the same (here the CSV's line ends).
    dropped = _artifacts(rows[:1], [r[:2] for r in cells])
    dropped["series.csv"] = dropped["series.csv"].replace("t,Phi,dyson_residual", "t,Phi")
    c = ab.compare_artifacts(base, dropped)
    assert c["report_rows"] == ["dyson"] and c["csv_columns"] == ["dyson_residual"]
    lf = dict(base, **{"series.csv": base["series.csv"].replace("\r\n", "\n")})
    c = ab.compare_artifacts(base, lf)
    assert not c["artifacts_identical"]



def test_artifacts_are_identical_only_if_they_are_at_every_seed():
    rows = [("schrodinger", 1e-9), ("dyson", 2e-9)]
    cells = [["0.0", "0.2", "nan"], ["1.0", "0.3", "4.0e-10"]]
    same = {"base": _artifacts(rows, cells), "change": _artifacts(rows, cells)}
    assert ab.compare_seeds({seed: same for seed in ab.ARTIFACT_SEEDS}) == {
        "artifacts_identical": True,
        "seeds": {str(seed): ab.compare_artifacts(same["base"], same["change"])
                  for seed in ab.ARTIFACT_SEEDS},
    }
    # Seed 3's dyson row moved in its last digit; seeds 0 and 101 agree.
    moved = {"base": same["base"],
             "change": _artifacts([("schrodinger", 1e-9), ("dyson", 2.0000000000000004e-9)],
                                  cells)}
    c = ab.compare_seeds({0: same, 3: moved, 101: same})
    assert not c["artifacts_identical"]
    assert [s for s, seed in c["seeds"].items() if not seed["artifacts_identical"]] == ["3"]
    assert c["seeds"]["3"]["report_rows"] == ["dyson"]
    assert c["seeds"]["3"]["csv_columns"] == [] and c["seeds"]["101"]["report_rows"] == []


def test_the_artifacts_record_holds_both_peaks_at_every_seed():
    rows = [("schrodinger", 1e-9), ("dyson", 2e-9)]
    texts = _artifacts(rows, [["0.0", "0.2", "nan"], ["1.0", "0.3", "4.0e-10"]])
    peaks = {0: (94.9, 87.2), 3: (95.1, 87.3), 101: (94.6, 86.8)}
    written = {seed: {"base": (texts, base), "change": (texts, change)}
               for seed, (base, change) in peaks.items()}
    entry = ab.artifact_entry(written)
    assert entry["artifacts_identical"]
    for seed, (base, change) in peaks.items():
        seed_entry = entry["seeds"][str(seed)]
        assert seed_entry["peak_rss_mb"] == {"base": base, "change": change}
        assert seed_entry["artifacts_identical"] and seed_entry["report_rows"] == []
    # The workload's own reading stays the benchmark seed's.
    assert entry["peak_rss_mb"] == {"base": 94.9, "change": 87.2}
    assert sorted(entry) == ["artifacts_identical", "peak_rss_mb", "seeds"]


# Runs argv[1]'s run_measured on a 64 MB child and a bare one, then its
# _write_artifacts on the tree argv[2] and the config argv[3] into argv[4].
RSS_PROBE = """
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("ab", sys.argv[1])
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
big = ab.run_measured([sys.executable, "-c", "b = b'x' * (64 << 20)"])
bare = ab.run_measured([sys.executable, "-c", "pass"])
scenario = json.loads(pathlib.Path(sys.argv[3]).read_text())
texts, peak = ab._write_artifacts(pathlib.Path(sys.argv[2]), scenario, pathlib.Path(sys.argv[4]))
print(json.dumps({"big": big, "bare": bare, "texts": texts, "peak": peak}))
"""


def test_a_measured_run_reads_its_own_peak_rss(tmp_path):
    """A child's ru_maxrss starts from the peak of the process that started
    it, so the runs start from a small probe process rather than from this
    one. A child that touches 64 MB reads at least that; a bare one run after
    it reads its own smaller peak, not the largest child's so far; the
    artifacts run records its texts and a peak that holds numpy."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=32, t_max=0.05)))
    out = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(AB), str(ROOT), str(config), str(tmp_path / "run")],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    (big_code, _, big), (bare_code, _, bare) = got["big"], got["bare"]
    assert big_code == bare_code == 0
    assert big >= 64 > bare
    assert sorted(got["texts"]) == sorted(ab.ARTIFACTS)
    assert json.loads(got["texts"]["report.json"])["checks"]
    assert bare < got["peak"]
    code, stderr, _ = ab.run_measured([sys.executable, "-c", "raise SystemExit('stop')"])
    assert code == 1 and "stop" in stderr


def test_the_demos_record_holds_both_runs_of_every_job():
    runs = {
        job: {"base": {"exit_code": 0, "wall_s": 4.0, "peak_rss_mb": 95.0},
              "change": {"exit_code": 0, "wall_s": 3.0, "peak_rss_mb": 80.0}}
        for job in ab.DEMO_JOBS
    }
    runs["tier1"]["change"] = {"exit_code": 1, "wall_s": 50.0, "peak_rss_mb": 300.0}
    entry = ab.demos_entry(runs)
    assert sorted(entry) == ["demo_harmonic", "demo_td", "tier1"]
    for job, sides in entry.items():
        assert sorted(sides) == ["base", "change", "wall_ratio"]
        assert sides["base"] == runs[job]["base"] and sides["change"] == runs[job]["change"]
    assert entry["demo_td"]["wall_ratio"] == pytest.approx(0.75)
    assert entry["tier1"]["wall_ratio"] == pytest.approx(12.5)
    # A failing run is recorded as it is, not dropped.
    assert entry["tier1"]["change"]["exit_code"] == 1
    del runs["tier1"]
    with pytest.raises(ValueError, match="tier1"):
        ab.demos_entry(runs)
