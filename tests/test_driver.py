"""The end-to-end constructor across all dispatch branches."""

import pytest

from antimagic import (
    CaseTag,
    DoubleSpiderSpec,
    EdgeAddress,
    canonicalize,
    classify,
    derive_parameters,
    enumerate_instances,
    strongly_antimagic_label,
    verify_bijection,
)
from antimagic.labelers import SPECIAL_INSTANCE_ASSIGNMENT
from antimagic.labelers import SPECIAL_INSTANCE


def test_special_instance_routed_to_fixed_labeling():
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (3, 1), (1, 1)))
    assert lt.labeling.assignment == SPECIAL_INSTANCE_ASSIGNMENT
    assert lt.report.strong_ok


def test_all_unit_right_reduction():
    # removes one left unit, labels the two-units residue, reinserts
    lt = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1, 1), (1, 1)))
    assert lt.total_edges == 6
    assert lt.report.strong_ok
    assert lt.spider.instance.left_lengths == (1, 1, 1)


def test_equal_high_reduction():
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (2, 2, 2), (2, 2, 2)))
    assert lt.total_edges == 14
    assert lt.report.strong_ok


def test_equal_deg3_leaf_deletion_to_special_instance():
    # one leaf-level deletion lands exactly on the special residue
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (4, 2), (2, 2)))
    assert lt.report.strong_ok
    assert lt.total_edges == 12


def test_trace_is_emitted():
    trace = []
    strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1, 1), (3, 1)), trace=trace)
    step_lines = [ln for ln in trace if ln.startswith("step=")]
    assert step_lines and all("edge=" in ln and "label=" in ln for ln in step_lines)


def test_driver_accepts_raw_and_canonical():
    raw = DoubleSpiderSpec(1, (1, 1), (3, 1))
    a = strongly_antimagic_label(raw)
    b = strongly_antimagic_label(canonicalize(raw))
    assert a.labeling.assignment == b.labeling.assignment


def test_driver_deterministic():
    for spec in [DoubleSpiderSpec(2, (2, 2, 2), (2, 2, 2)),
                 DoubleSpiderSpec(1, (1, 1, 1), (1, 1)),
                 DoubleSpiderSpec(3, (5, 4, 2, 1, 1), (3, 2))]:
        a = strongly_antimagic_label(spec)
        b = strongly_antimagic_label(spec)
        assert a.labeling.assignment == b.labeling.assignment


@pytest.mark.parametrize("max_edges", [12])
def test_every_instance_labels_and_verifies(max_edges):
    by_tag = {tag: 0 for tag in CaseTag}
    for c in enumerate_instances(max_edges):
        lt = strongly_antimagic_label(c)
        assert verify_bijection(lt.labeling)
        assert lt.report.strong_ok
        assert lt.report.sums["vl"] > lt.report.sums["vr"]
        by_tag[classify(derive_parameters(c))] += 1
    assert all(count > 0 for count in by_tag.values())


@pytest.mark.parametrize("right, tag", [((3001, 3001), CaseTag.UNEQUAL_ODD_RIGHT),
                                        ((3000, 3001), CaseTag.UNEQUAL_EVEN_RIGHT)])
def test_direct_routes_label_large_members(right, tag):
    # m = 30009 and m = 30008: the verifier must not be quadratic in m
    spec = DoubleSpiderSpec(7, (4000, 8000, 12000), right)
    assert classify(derive_parameters(canonicalize(spec))) is tag
    lt = strongly_antimagic_label(spec)
    assert lt.total_edges == 7 + 24000 + sum(right)
    assert lt.report.strong_ok


def test_composed_outputs_carry_final_addresses():
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (2, 2, 2), (2, 2, 2)))
    assignment = lt.labeling.assignment
    p = lt.spider.params
    assert p.d == 3 and p.b == 3  # all six paths have length 2
    expected = {EdgeAddress.core(j) for j in (1, 2)}
    expected |= {EdgeAddress.r_even(i, j) for i in (1, 2, 3) for j in (1, 2)}
    expected |= {EdgeAddress.l_even(i, j) for i in (1, 2, 3) for j in (1, 2)}
    assert set(assignment) == expected
