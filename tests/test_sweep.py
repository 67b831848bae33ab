"""Enumerate-and-certify sweeps: the report text and how failures are reported."""

import hashlib

from antimagic import CaseTag, DoubleSpiderSpec, canonicalize
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
