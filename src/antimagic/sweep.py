"""Enumerate-and-certify sweeps over all instances up to an edge budget."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .driver import strongly_antimagic_label
from .oracle import SearchBudget, find_strongly_antimagic
from .spiders import CanonicalDoubleSpider, CaseTag, classify, derive_parameters, enumerate_instances


@dataclass(frozen=True)
class SweepRecord:
    instance: CanonicalDoubleSpider
    m: int
    tag: CaseTag
    ok: bool
    detail: str


@dataclass(frozen=True)
class SweepReport:
    max_edges: int
    records: tuple[SweepRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.ok)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def check_instance(c: CanonicalDoubleSpider, oracle_max: int | None = None) -> SweepRecord:
    """Label one instance and certify the result (optionally against the oracle).

    The driver verifies what it returns and raises ConstructionBug, naming
    the first violation, on a failure; the oracle is the independent check.
    """
    ok, detail = True, ""
    try:
        lt = strongly_antimagic_label(c)
        p = lt.spider.params
        if oracle_max is not None and p.m <= oracle_max:
            result = find_strongly_antimagic(lt.tree, SearchBudget(max_edges=oracle_max))
            if not result.found:
                ok, detail = False, f"oracle disagrees: {result.status}"
    except Exception as exc:  # a construction bug, not a property failure
        ok, detail = False, f"{type(exc).__name__}: {exc}"
        p = derive_parameters(c)  # so a failed record still names m and its tag
    return SweepRecord(c, p.m, classify(p), ok, detail)


def run_sweep(max_edges: int, oracle_max: int | None = None, workers: int = 1) -> SweepReport:
    """Certify every instance with at most max_edges edges, in canonical order."""
    if max_edges < 5:
        raise ValueError("max_edges must be at least 5")
    stream = enumerate_instances(max_edges), repeat(oracle_max)
    if workers <= 1:
        records = tuple(map(check_instance, *stream))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(check_instance, *stream, chunksize=16))
    return SweepReport(max_edges=max_edges, records=records)


def format_report(report: SweepReport) -> str:
    """Render the sweep report; the text is run-stable."""
    lines = [f"max_edges = {report.max_edges}", f"instances = {report.total}",
             f"failures = {len(report.failures)}"]
    for r in report.records:
        line = (f"instance {r.instance.text} m={r.m} case={r.tag.value} "
                f"result={'pass' if r.ok else 'FAIL'}")
        if r.detail:
            line += f" detail={r.detail}"
        lines.append(line)
    return "\n".join(lines) + "\n"
