"""Smoke test of the benchmark itself (tiny inputs).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checker  # noqa: E402
from antimagic import (  # noqa: E402
    DoubleSpiderSpec,
    SearchBudget,
    canonicalize,
    enumerate_instances,
    find_strongly_antimagic,
    materialize_tree,
    strongly_antimagic_label,
    vertex_sums,
)
from antimagic.fileio import format_labeling  # noqa: E402
from antimagic.labeling import EdgeLabeling  # noqa: E402

WORKLOADS = ("sweep", "label", "oracle")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "B", "calls/label", "calls/inst"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    code, stdout = bench(workload, trace=0)
    assert code == 0, stdout
    metrics = last_json(stdout)["metrics"]
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(metrics)
    for m in DECLARED["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        assert f"  {m['name']} = " in stdout and stdout.split(f"  {m['name']} = ")[1].split("\n")[0].endswith(
            f" {m['unit']}")
    assert "  fail_ratio = 0/" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_their_counts(workload):
    runs = []
    for _ in range(2):
        code, stdout = bench(workload, trace=1)
        assert code == 0, stdout
        runs.append(last_json(stdout)["metrics"])
        assert "  trace.overhead_pct = " in stdout
        for layer in ("oracle.find_strongly_antimagic.p90_ms", "sweep.check_instance.p99_ms",
                      "fileio.parse_instance.self_s", "cli.main.self_s", "sweep.run_sweep.self_s"):
            assert f"  {layer} = " in stdout
    assert [m["name"] for m in DECLARED["per_layer"]] == list(runs[0])
    for m in DECLARED["per_layer"]:
        assert runs[0][m["name"]]["unit"] == m["unit"]
        if m["unit"] in COUNT_UNITS:
            assert runs[0][m["name"]]["value"] == runs[1][m["name"]]["value"], m["name"]


def test_benchmark_without_the_package_fails_without_a_result():
    bare = HERE / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        code, stdout = bench("sweep", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert '"metrics"' not in stdout


def _swapped(assignment: dict, a, b) -> dict:
    out = dict(assignment)
    out[a], out[b] = assignment[b], assignment[a]
    return out


@pytest.mark.parametrize("sides", [((3, 1), (1, 1)), ((1, 1, 4), (2, 2)), ((2, 2), (2, 3))])
def test_checker_flags_exactly_the_swaps_that_break_the_strong_property(sides):
    left, right = sides
    spec = DoubleSpiderSpec(2, left, right)
    lt = strongly_antimagic_label(spec)
    assignment = lt.labeling.assignment
    m = lt.labeling.total_edges
    assert checker.check_labeling_file(2, left, right, format_labeling(lt.labeling)) is None
    flagged = 0
    for a, b in itertools.combinations(sorted(assignment, key=assignment.get), 2):
        labeling = EdgeLabeling(m, _swapped(assignment, a, b))
        reference = vertex_sums(lt.spider, labeling).strong_ok
        problem = checker.check_labeling_file(2, left, right, format_labeling(labeling))
        assert (problem is None) == reference, (a, b, problem)
        flagged += problem is not None
    assert flagged > 0


def test_checker_accepts_every_labeling_of_small_instances_in_either_orientation():
    for c in enumerate_instances(10):
        lt = strongly_antimagic_label(c)
        text = format_labeling(lt.labeling)
        assert checker.check_labeling_file(c.core_length, c.left_lengths, c.right_lengths, text) is None
        assert checker.check_labeling_file(c.core_length, c.right_lengths, c.left_lengths, text) is None


def test_checker_rejects_edge_set_and_header_mismatches():
    lt = strongly_antimagic_label(DoubleSpiderSpec(3, (2, 1, 1), (1, 2)))
    text = format_labeling(lt.labeling)
    assert checker.check_labeling_file(4, (2, 1, 1), (1, 2), text) is not None
    assert checker.check_labeling_file(3, (2, 1, 1), (1, 3), text) is not None
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checker.check_labeling_file(3, (2, 1, 1), (1, 2), dropped) is not None


def test_checker_rechecks_oracle_witnesses():
    tree = materialize_tree(canonicalize(DoubleSpiderSpec(1, (2, 1, 1), (1, 2)))).tree
    result = find_strongly_antimagic(tree, SearchBudget(max_edges=10))
    assert result.found
    assert checker.check_witness(tree.edges, result.labels) is None
    by_label = sorted(result.labels, key=result.labels.get)
    assert checker.check_witness(tree.edges, _swapped(result.labels, by_label[0], by_label[-1])) is not None
    assert checker.check_witness(tree.edges, None) is not None

