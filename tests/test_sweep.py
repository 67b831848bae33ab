"""Enumerate-and-certify sweeps: the report text and how failures are reported."""

import hashlib

import pytest

from antimagic import CaseTag, DoubleSpiderSpec, canonicalize
from antimagic.cli import main
from antimagic.oracle import SearchResult
from antimagic.sweep import check_instance, format_report, run_sweep


def test_sweep_report_is_pinned():
    # one digest over the --report text of every instance with m <= 12
    report = run_sweep(12)
    assert report.total == 843 and report.all_ok
    digest = hashlib.sha256(format_report(report).encode()).hexdigest()
    assert digest == "c39523c7fb78e3d129bbb07201fad6492e76395ce70ec1d21b7a6a488d7fb5a9"


def test_check_instance_reports_construction_bug(monkeypatch):
    # without its repair the hub-gap family keeps the tied printed labeling,
    # and the driver's verification is what the sweep reports
    monkeypatch.setattr("antimagic.labelers.needs_hub_gap_repair", lambda p: False)
    rec = check_instance(canonicalize(DoubleSpiderSpec(4, (1, 1, 1), (6, 6))))
    assert not rec.ok
    assert rec.detail.startswith("ConstructionBug:")
    assert rec.detail.endswith("duplicate-sum: phi(vr)=41 (deg 3) vs phi(vl)=41 (deg 4)")
    # a failed record derives its own m and tag
    assert rec.m == 19 and rec.tag is CaseTag.UNEQUAL_EVEN_RIGHT


def test_sweep_command_reports_a_failure(tmp_path, capsys, monkeypatch):
    # end to end: the exit code, the FAIL line and the report's FAIL record
    monkeypatch.setattr("antimagic.labelers.needs_hub_gap_repair", lambda p: False)
    report = tmp_path / "sweep.txt"
    assert main(["sweep", "--max-edges", "13", "--report", str(report)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "failures = 1" in out
    bug = "ConstructionBug: driver produced a labeling that fails verification: "
    tie = "duplicate-sum: phi(vr)=27 (deg 3) vs phi(vl)=27 (deg 4)"
    assert f"FAIL core=2 left=1,1,1 right=4,4: {bug}{tie}" in out
    failed = [line for line in report.read_text().splitlines() if "result=FAIL" in line]
    assert failed == [f"instance core=2 left=1,1,1 right=4,4 m=13 case=unequal-even-right "
                      f"result=FAIL detail={bug}{tie}"]


def test_run_sweep_rejects_tiny_budget():
    with pytest.raises(ValueError, match="max_edges must be at least 5"):
        run_sweep(4)


def test_check_instance_reports_oracle_disagreement(monkeypatch):
    monkeypatch.setattr("antimagic.sweep.find_strongly_antimagic",
                        lambda tree, budget: SearchResult("none", None, 0))
    c = canonicalize(DoubleSpiderSpec(2, (3, 1), (1, 1)))
    rec = check_instance(c, oracle_max=c.total_edges)
    assert not rec.ok and rec.detail == "oracle disagrees: none"


def test_sweep_starts_a_pool_only_for_two_or_more_workers(monkeypatch):
    made = []

    class Pool:
        """Stands in for ProcessPoolExecutor and maps in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("antimagic.sweep.ProcessPoolExecutor", Pool)
    text = format_report(run_sweep(7))
    assert made == []
    assert format_report(run_sweep(7, workers=1)) == text and made == []
    assert format_report(run_sweep(7, workers=2)) == text and made == [2]
