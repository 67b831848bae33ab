#!/usr/bin/env python3
"""Benchmark of the antimagic package: `sweep`, `label` and `oracle` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,label,oracle} --seed N --seconds S --trace {0,1}

One process runs one workload, closed loop (one caller; the next input goes
only after the previous one completes), with no threads or worker processes,
against the package under ``src/``.  Every output is checked by
``checker.py``, which shares no code with the package.

- ``sweep``: ``run_sweep(16)`` passes, certifying all 8,312 canonical
  instances with m <= 16.  The enumeration is fixed; the seed is unused by it.
- ``oracle``: ``run_sweep(10, oracle_max=10)`` passes: oracle concordance on
  all 208 instances with m <= 10.  The seed is unused by it.
- ``label``: cycles over seeded spec files, one ``antimagic label`` and one
  ``antimagic verify --strong`` call (in process) per spec, grouped by route.

The per-route and verifier rates are reported on every workload: on
``label`` they come from its specs; on ``sweep`` and ``oracle`` passes of the
main loop take three quarters of the busy time, interleaved with cycles of a
small seeded route panel (the ``label`` procedure at small sizes).  Rates are
total work over total busy seconds in the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced (see ``tracer.py``) passes or cycles of the main loop and
prints the per-layer metrics: call counts of the first traced pass or cycle,
self times per traced pass or cycle, and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A run with any failed operation exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path[:0] = [str(SRC), str(HERE)]
import checker  # noqa: E402
import specs  # noqa: E402
from tracer import Tracer, percentile_ms  # noqa: E402

SETUP_REPEATS = 9
MAIN_SHARE = 0.75  # of the busy time, for the sweep/oracle main loop; the route panel gets the rest

# size -> (max_edges, oracle_max) of the sweep and oracle main loops
SWEEP_ARGS = {"full": (16, None), "smoke": (8, None)}
ORACLE_ARGS = {"full": (10, 10), "smoke": (7, 7)}
# (max_edges, oracle_max) -> (instances, sha256 of format_report without timing),
# recorded from the package as first benchmarked.
EXPECTED_REPORTS = {
    (16, None): (8312, "630aa06dce8338776a55d036035a48b3e1a58b319486791d493acab6f21391c8"),
    (10, 10): (208, "277c84a5b62b2eb62cbdb9ea1b177d8b6a4e5af9203e8510e8a96601284372ef"),
    (8, None): (38, "09ed8e49df83f07cafa33072b18db2f481f3e5ab1f9202aefcbc419aec8ff7ff"),
    (7, 7): (14, "3ce98e841320f747be33a51e26b097a4975650c478eda178f24f8f381cba16b4"),
}

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "inst_per_s": "inst/s",
    **{f"{route}.edges_per_s": "edges/s" for route in specs.ROUTES},
    "verify.edges_per_s": "edges/s",
}


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Set-up: import the package and build the inputs
# ---------------------------------------------------------------------------


def load_package():
    """Import the package under src/ afresh (dropping any loaded copy)."""
    for name in [n for n in sys.modules if n == "antimagic" or n.startswith("antimagic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("antimagic")
    for sub in ("cli", "labelers", "sweep"):
        importlib.import_module(f"antimagic.{sub}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"antimagic was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def write_specs(groups: dict, workdir: Path) -> list[tuple]:
    """Write one spec file per spec; returns (route, spec, spec path, out path)."""
    jobs = []
    for route, group in groups.items():
        for k, spec in enumerate(group):
            spec_path = workdir / f"{route}-{k}.spec"
            spec_path.write_text(spec.text(), encoding="utf-8")
            jobs.append((route, spec, str(spec_path), str(workdir / f"{route}-{k}.labeling")))
    return jobs


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    size = "smoke" if smoke else ("label" if workload == "label" else "panel")
    pkg = load_package()
    jobs = write_specs(specs.generate(pkg, seed, size), workdir)
    return pkg, jobs


# ---------------------------------------------------------------------------
# Route cycles: `antimagic label` then `antimagic verify --strong` per spec
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def route_cycle(cli, jobs, tally: Tally, tracer: Tracer | None = None) -> dict[int, tuple[float, float]]:
    """Label and verify every spec once; returns the (label, verify) seconds
    of each spec that passed, by job index."""
    times = {}
    problems = []
    for k, (route, spec, spec_path, out_path) in enumerate(jobs):
        if tracer is not None:
            tracer.new_instance()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = now()
                rc_label = cli.main(["label", "--spec", spec_path, "--out", out_path])
                t1 = now()
                rc_verify = cli.main(["verify", "--spec", spec_path, "--labeling", out_path, "--strong"])
                t2 = now()
        except Exception as exc:  # a crash of one operation counts as its failure
            problems.append(f"{route} {spec}: {type(exc).__name__}: {exc}")
            continue
        if rc_label != 0 or rc_verify != 0:
            problems.append(f"{route} {spec}: exit codes {rc_label}/{rc_verify}: {sink.getvalue().strip()}")
            continue
        with open(out_path, encoding="utf-8") as fh:
            problem = checker.check_labeling_file(spec.core, spec.left, spec.right, fh.read())
        if problem:
            problems.append(f"{route} {spec}: {problem}")
            continue
        times[k] = (t1 - t0, t2 - t1)
    tally.add(len(jobs), problems)
    return times


def route_rates(jobs, cycles: list[dict[int, tuple[float, float]]]) -> dict[str, float]:
    """Route, verifier and spec rates: work over busy time, summed over the cycles."""
    label_s = dict.fromkeys(specs.ROUTES, 0.0)
    label_edges = dict.fromkeys(specs.ROUTES, 0)
    verify_s = 0.0
    verify_edges = certified = 0
    for cycle in cycles:
        for k, (t_label, t_verify) in cycle.items():
            route, spec = jobs[k][:2]
            label_s[route] += t_label
            label_edges[route] += spec.m
            verify_s += t_verify
            verify_edges += spec.m
            certified += 1
    rates = {f"{route}.edges_per_s": label_edges[route] / label_s[route]
             for route in specs.ROUTES if label_s[route] > 0}
    if verify_s > 0:
        rates["verify.edges_per_s"] = verify_edges / verify_s
        rates["inst_per_s"] = certified / (sum(label_s.values()) + verify_s)
    return rates


# ---------------------------------------------------------------------------
# Sweep passes
# ---------------------------------------------------------------------------


def sweep_pass(pkg, max_edges: int, oracle_max: int | None, tally: Tally) -> tuple[int, float]:
    """One run_sweep call, checked; returns (instances certified, seconds)."""
    sweep_mod = pkg.sweep
    expected_total, expected_digest = EXPECTED_REPORTS[(max_edges, oracle_max)]
    witnesses = []
    inner = sweep_mod.find_strongly_antimagic

    def recording(tree, *args, **kwargs):
        result = inner(tree, *args, **kwargs)
        witnesses.append((tree.edges, result.labels))
        return result

    sweep_mod.find_strongly_antimagic = recording
    try:
        t0 = now()
        report = pkg.run_sweep(max_edges, oracle_max=oracle_max)
        elapsed = now() - t0
    except Exception as exc:  # the whole pass failed
        tally.add(expected_total, [f"run_sweep({max_edges}, {oracle_max}) raised {exc!r}"] * expected_total)
        return 0, 0.0
    finally:
        sweep_mod.find_strongly_antimagic = inner

    problems = [f"sweep record failed: {r.instance}: {r.detail}" for r in report.failures]
    digest = hashlib.sha256(sweep_mod.format_report(report).encode()).hexdigest()
    if report.total != expected_total or digest != expected_digest:
        # The report differs from the recorded one; no instance of it counts.
        problems = [f"report differs: {report.total} instances, digest {digest}"] * max(
            report.total, expected_total)
    if oracle_max is not None:
        expected_witnesses = sum(1 for r in report.records if r.m <= oracle_max)
        if len(witnesses) != expected_witnesses:
            problems.append(f"{len(witnesses)} oracle witnesses for {expected_witnesses} instances")
        problems.extend(f"oracle witness: {p}" for p in
                        (checker.check_witness(edges, labels) for edges, labels in witnesses) if p)
    tally.add(report.total, problems)
    return max(report.total - len(problems), 0), elapsed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def shared_loop(steps, deadline: float) -> list[list]:
    """Run each (step, share) once, then keep calling the step furthest below
    its share of the busy time, while the next call fits before the deadline.
    Returns each step's results."""
    results: list[list] = [[] for _ in steps]
    spent = [0.0] * len(steps)
    last = [0.0] * len(steps)

    def call(i: int) -> None:
        t0 = now()
        results[i].append(steps[i][0]())
        last[i] = now() - t0
        spent[i] += last[i]

    for i in range(len(steps)):
        call(i)
    while True:
        fits = [i for i in range(len(steps)) if now() + last[i] <= deadline]
        if not fits:
            return results
        call(min(fits, key=lambda i: spent[i] / steps[i][1]))


def run_workload(workload: str, pkg, jobs, seconds: float, smoke: bool, trace: bool):
    """Returns (tally, end-to-end values or None, layer table or None, record)."""
    tally = Tally()
    end = now() + seconds
    record: dict = {}

    if workload == "label":
        def main_step(tracer=None):
            return route_cycle(pkg.cli, jobs, tally, tracer)

        def main_rate(results) -> float:
            return route_rates(jobs, results)["inst_per_s"]
    else:
        max_edges, oracle_max = (SWEEP_ARGS if workload == "sweep" else ORACLE_ARGS)[
            "smoke" if smoke else "full"]
        record["sweep_args"] = {"max_edges": max_edges, "oracle_max": oracle_max, "seed_used": False}

        def main_step(tracer=None):
            return sweep_pass(pkg, max_edges, oracle_max, tally)

        def main_rate(results) -> float:
            return sum(n for n, _ in results) / sum(t for _, t in results)

    if not trace:
        if workload == "label":
            [cycles] = shared_loop([(main_step, 1.0)], end)
            record["cycle_times"] = cycles
            return tally, route_rates(jobs, cycles), None, record
        passes, panel = shared_loop(
            [(main_step, MAIN_SHARE), (lambda: route_cycle(pkg.cli, jobs, tally), 1 - MAIN_SHARE)], end)
        record["passes"] = passes
        record["panel_cycle_times"] = panel
        values = route_rates(jobs, panel)
        values["inst_per_s"] = main_rate(passes)
        return tally, values, None, record

    # Untraced and traced calls alternate, so that both sample the same spells
    # of machine load; counts are those of the first traced call.
    tracer = Tracer()
    first_counts: dict = {}

    def traced_step():
        tracer.install()
        try:
            out = main_step(tracer)
        finally:
            tracer.uninstall()
        if not first_counts:
            first_counts.update(tracer.counts())
        return out

    untraced, traced = shared_loop([(main_step, 0.5), (traced_step, 0.5)], end)
    untraced_rate, traced_rate = main_rate(untraced), main_rate(traced)
    overhead = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    instances = len(jobs) if workload == "label" else first_counts["sweep.check_instance.calls"]
    table = layer_table(tracer, first_counts, len(traced), instances, overhead)
    record.update(untraced_inst_per_s=untraced_rate, traced_inst_per_s=traced_rate, tracer=tracer)
    return tally, None, table, record


# ---------------------------------------------------------------------------
# Per-layer table
# ---------------------------------------------------------------------------


def layer_table(tracer: Tracer, counts: dict, cycles: int, instances: int,
                overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit)."""
    stats = tracer.stats
    rows: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        rows[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        rows[f"{name}.self_s"] = (stats[name].self_s / cycles, "s")
    rows["driver.strongly_antimagic_label.total_s"] = (
        stats["driver.strongly_antimagic_label"].total_s / cycles, "s")
    labels = counts["driver.strongly_antimagic_label.calls"]
    rows["labeling.vertex_sums.vertices"] = (counts["labeling.vertex_sums.vertices"], "count")
    rows["labeling.vertex_sums.calls_per_label"] = (
        counts["labeling.vertex_sums.calls"] / labels, "calls/label")
    rows["spiders.materialize_tree.calls_per_label"] = (
        counts["spiders.materialize_tree.calls"] / labels, "calls/label")
    rows["spiders.derive_parameters.calls_per_inst"] = (
        counts["spiders.derive_parameters.calls"] / instances, "calls/inst")
    rows["compose.moves"] = (
        counts["compose.extend_leaves.calls"] + counts["compose.insert_unit_path.calls"], "count")
    oracle = stats["oracle.find_strongly_antimagic"]
    rows["oracle.nodes"] = (counts["oracle.find_strongly_antimagic.nodes"], "count")
    rows["oracle.nodes_per_s"] = (oracle.counter / oracle.total_s if oracle.total_s else 0.0, "1/s")
    rows["oracle.find_strongly_antimagic.p50_ms"] = (percentile_ms(oracle.durations, 50), "ms")
    rows["oracle.find_strongly_antimagic.p90_ms"] = (percentile_ms(oracle.durations, 90), "ms")
    checks = stats["sweep.check_instance"].durations
    rows["sweep.check_instance.p50_ms"] = (percentile_ms(checks, 50), "ms")
    rows["sweep.check_instance.p99_ms"] = (percentile_ms(checks, 99), "ms")
    rows["fileio.bytes_written"] = (counts["fileio.format_labeling.bytes"], "B")
    rows["trace.overhead_pct"] = (overhead_pct, "%")
    return rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "label", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antimagic" / "__init__.py").is_file():
        print(f"error: no antimagic package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            t0 = now()
            pkg, jobs = setup(args.workload, args.seed, args.smoke, workdir)
            setup_samples.append(now() - t0)
        tally, values, table, record = run_workload(
            args.workload, pkg, jobs, args.seconds, args.smoke, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m_lists: dict[str, list[int]] = {}
    for route, spec, _, _ in jobs:
        m_lists.setdefault(route, []).append(spec.m)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for route, ms in m_lists.items():
        print(f"  {route} m = {ms}")
    print(f"  fail_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.6g} failed/attempted")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "m_lists": m_lists,
              "setup_samples_s": setup_samples, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems}
    if table is None:
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, unit in UNITS.items():
            values.setdefault(name, 0.0)  # only when every operation of its kind failed
            print(f"  {name} = {values[name]:.6g} {unit}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": UNITS[m["name"]]}
                   for m in declared["end_to_end"]}
        result.update(record, metrics=metrics)
    else:
        tracer = record.pop("tracer")
        spans_path = WORK / f"spans-{args.workload}.csv.gz"
        kept = tracer.write_spans(spans_path)
        for name, (value, unit) in table.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(f"  tracing overhead: {record['untraced_inst_per_s']:.6g} inst/s untraced, "
              f"{record['traced_inst_per_s']:.6g} inst/s traced")
        print(f"  spans: {kept} kept in {spans_path.relative_to(ROOT)}, {tracer.dropped_spans} over the cap")
        metrics = {m["name"]: {"value": table[m["name"]][0], "unit": table[m["name"]][1]}
                   for m in declared["per_layer"]}
        result.update(record, layers={k: v[0] for k, v in table.items()}, metrics=metrics)
    (WORK / f"result-{args.workload}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
