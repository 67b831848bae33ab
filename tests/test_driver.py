"""The end-to-end constructor across all dispatch branches."""

import hashlib

import pytest

from antimagic import (
    CaseTag,
    DoubleSpiderSpec,
    EdgeAddress,
    canonicalize,
    classify,
    derive_parameters,
    enumerate_instances,
    materialize_tree,
    strongly_antimagic_label,
    verify_bijection,
    vertex_sums,
)
from antimagic.cli import main
from antimagic.fileio import format_instance, format_labeling
from antimagic.sweep import check_instance
from antimagic.labelers import SPECIAL_INSTANCE_ASSIGNMENT
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.labeling import EdgeLabeling
from antimagic.spiders import SpiderTree
from antimagic.trees import make_tree


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


@pytest.mark.parametrize("spec, tag", [
    (DoubleSpiderSpec(1, (2500, 2500), (2500, 2500)), CaseTag.EQUAL_DEG3),
    (DoubleSpiderSpec(1, (1,) * 4999 + (2, 3), (1,) * 5000), CaseTag.UNEQUAL_ALL_UNIT_RIGHT),
    (DoubleSpiderSpec(2, (1600, 1700, 1800), (1600, 1600, 1900)), CaseTag.EQUAL_DEG_HIGH),
])
def test_reduction_routes_label_large_members(spec, tag):
    # m ~ 10^4 with 2499, 9996 and 1600 replay moves: the replay must be linear in m
    assert classify(derive_parameters(canonicalize(spec))) is tag
    lt = strongly_antimagic_label(spec)
    assert lt.total_edges == spec.total_edges
    assert lt.report.strong_ok


def count_calls(monkeypatch, original, modules):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(f"antimagic.{module}.{original.__name__}", counting)
    return calls


ROUTE_SPECS = [
    DoubleSpiderSpec(1, (1, 1, 1), (3, 1)),                 # odd-right
    DoubleSpiderSpec(3, (5, 4, 2, 1, 1), (3, 2)),           # even-right
    DoubleSpiderSpec(4, (1, 1, 1), (6, 6)),                 # hub-gap
    DoubleSpiderSpec(2, (4, 2), (2, 2)),                    # equal-deg3 to the special residue
    DoubleSpiderSpec(2, (3, 1, 1, 1), (1, 1, 1)),           # all-unit-right
    DoubleSpiderSpec(1, (3, 3, 4, 5), (3, 3, 3, 3)),        # equal-deg-high into all-unit-right
]


@pytest.mark.parametrize("spec", ROUTE_SPECS)
def test_every_route_materializes_and_verifies_once(spec, monkeypatch):
    built = count_calls(monkeypatch, materialize_tree, ("driver", "compose", "labelers"))
    checked = count_calls(monkeypatch, vertex_sums, ("labeling",))
    lt = strongly_antimagic_label(spec)
    assert lt.report.strong_ok
    assert len(built) == 1 and len(checked) == 1


@pytest.mark.parametrize("spec", ROUTE_SPECS)
def test_sweep_materializes_and_verifies_once(spec, monkeypatch):
    # the sweep trusts the driver's one verification; the oracle is its own check
    built = count_calls(monkeypatch, materialize_tree, ("driver", "compose", "labelers"))
    checked = count_calls(monkeypatch, vertex_sums, ("labeling",))
    derived = count_calls(monkeypatch, derive_parameters, ("spiders", "driver", "sweep"))
    rec = check_instance(canonicalize(spec))
    assert rec.ok and rec.detail == ""
    assert len(built) == 1 and len(checked) == 1
    if rec.tag is CaseTag.UNEQUAL_ODD_RIGHT:
        # once, inside the one materialization; the record reads its m and tag
        assert len(derived) == 1


@pytest.mark.parametrize("spec", ROUTE_SPECS)
def test_label_and_verify_build_no_tree(spec, monkeypatch, tmp_path):
    built = count_calls(monkeypatch, make_tree, ("spiders",))
    assert strongly_antimagic_label(spec).report.strong_ok
    assert check_instance(canonicalize(spec)).ok
    inst, lab = tmp_path / "inst.txt", tmp_path / "inst.lab"
    inst.write_text(format_instance(spec))
    assert main(["label", "--spec", str(inst), "--out", str(lab), "--dot", str(tmp_path / "inst.dot"),
                 "--trace", str(tmp_path / "inst.trace")]) == 0
    assert main(["verify", "--spec", str(inst), "--labeling", str(lab), "--strong"]) == 0
    assert built == []


def test_label_names_no_vertex_and_no_address(monkeypatch):
    # the label path stays on edge ids: vertex ids and a labeling's
    # assignment (its labels by address) are built only when a caller reads them
    def refuse(self):
        raise AssertionError("built vertex ids or an assignment")

    monkeypatch.setattr(SpiderTree, "_named", property(refuse))
    monkeypatch.setattr(EdgeLabeling, "assignment", property(refuse))
    for spec in ROUTE_SPECS + list(enumerate_instances(9)):
        lt = strongly_antimagic_label(spec)
        assert lt.report.strong_ok
    with pytest.raises(AssertionError, match="built vertex ids"):
        lt.report.sums


def test_oracle_cross_check_builds_one_tree(monkeypatch):
    built = count_calls(monkeypatch, make_tree, ("spiders",))
    c = canonicalize(ROUTE_SPECS[0])
    assert check_instance(c, oracle_max=c.total_edges).ok
    assert len(built) == 1


def _labeling_digest(specs):
    """sha256 over the --out and --trace text of each spec in turn."""
    digest = hashlib.sha256()
    for spec in specs:
        trace = []
        lt = strongly_antimagic_label(spec, trace=trace)
        digest.update(format_labeling(lt.labeling).encode())
        digest.update(("\n".join(trace) + "\n").encode())
    return digest.hexdigest()


def test_labelings_and_traces_are_pinned():
    # every instance with m <= 12
    digest = _labeling_digest(enumerate_instances(12))
    assert digest == "27c5c73b5171626070cda8a6bf4a3da7fe52af7995705eed23f16bc1d4f43fa9"


# One spec per long labeler and core parity with a long odd and an even left
# path and s >= 4, so the inner-core, even-left and long-odd-left steps all run;
# then larger odd-right and even-right members (c = d = 2, s = 6 or 7) and an
# even-right one with switched right paths (alpha = 2, beta = 1).
PINNED_LARGE_SPECS = [
    DoubleSpiderSpec(4, (3, 4, 1, 1, 1), (1, 3)),                       # odd-right
    DoubleSpiderSpec(5, (3, 4, 1, 1, 1), (1, 3)),
    DoubleSpiderSpec(4, (3, 4, 1, 1, 1), (1, 2)),                       # even-right
    DoubleSpiderSpec(5, (3, 4, 1, 1, 1), (1, 2)),
    DoubleSpiderSpec(4, (3, 4, 1, 1), (1, 1)),                          # type (b)/(c), k odd
    DoubleSpiderSpec(5, (3, 4, 1, 1), (1, 1)),
    DoubleSpiderSpec(4, (3, 4), (2, 5)),                                # type (b)/(c), k even
    DoubleSpiderSpec(5, (4, 5), (2, 7)),
    DoubleSpiderSpec(6, (3, 5, 4, 6, 1, 1, 1, 1), (1, 3, 5)),
    DoubleSpiderSpec(7, (3, 5, 4, 6, 1, 1, 1, 1, 1, 1), (2, 2, 4, 1)),
    DoubleSpiderSpec(4, (3, 4, 1, 1, 1, 1, 1), (2, 4, 6, 4, 8, 1)),
]


def test_larger_labelings_and_traces_are_pinned():
    # every instance with 13 <= m <= 14, then the specs above
    instances = [c for c in enumerate_instances(14) if c.total_edges >= 13]
    assert len(instances) == 1985
    digest = _labeling_digest(instances + PINNED_LARGE_SPECS)
    assert digest == "566ad9161438c2afbcaa46266fe08ee7a29e31ea6a1723691493a302a3ebf2e9"


# One large spec per case route, the hub-gap family as its own route.
ROUTE_LARGE_SPECS = [
    (DoubleSpiderSpec(7, (1, 1, 1, 1, 1, 4001, 4002), (3, 4001)), CaseTag.UNEQUAL_ODD_RIGHT),
    (DoubleSpiderSpec(6, (1, 1, 1, 1, 1, 4001, 4002), (4, 4000)), CaseTag.UNEQUAL_EVEN_RIGHT),
    (DoubleSpiderSpec(40, (1, 1, 1), (4000, 6000)), CaseTag.UNEQUAL_EVEN_RIGHT),
    (DoubleSpiderSpec(9, (2000, 2001), (2000, 3000)), CaseTag.EQUAL_DEG3),
    (DoubleSpiderSpec(3, (500, 501, 502, 503), (500, 600, 700, 800)), CaseTag.EQUAL_DEG_HIGH),
    (DoubleSpiderSpec(5, (1,) * 3000 + (9,), (1,) * 2000), CaseTag.UNEQUAL_ALL_UNIT_RIGHT),
]


def test_large_route_labelings_and_traces_are_pinned():
    # m = 12019, 12018, 10043, 9010, 4609 and 5014
    for spec, tag in ROUTE_LARGE_SPECS:
        assert classify(derive_parameters(canonicalize(spec))) is tag
    digest = _labeling_digest(spec for spec, _ in ROUTE_LARGE_SPECS)
    assert digest == "1a94bd0514d1e3dcacb81098c9be98ac004e0b9e4cd8d7ec16563ae7d5b103f1"


# Direct-route specs with hundreds of unit paths on both sides; the third has
# alpha = beta = 39, so the even-right Step 1 interleaves switched length-2
# paths with left unit paths.
UNIT_HEAVY_SPECS = [
    (DoubleSpiderSpec(6, (1,) * 300 + (3, 4, 5), (1,) * 200 + (3, 5)), CaseTag.UNEQUAL_ODD_RIGHT),
    (DoubleSpiderSpec(7, (1,) * 300 + (3, 4), (1,) * 150 + (7,)), CaseTag.UNEQUAL_ODD_RIGHT),
    (DoubleSpiderSpec(6, (1,) * 300 + (3, 4), (1,) * 100 + (2,) * 40 + (4, 6)), CaseTag.UNEQUAL_EVEN_RIGHT),
    (DoubleSpiderSpec(5, (1,) * 250 + (5,), (1,) * 120 + (2, 6)), CaseTag.UNEQUAL_EVEN_RIGHT),
]


def test_unit_heavy_direct_labelings_and_traces_are_pinned():
    for spec, tag in UNIT_HEAVY_SPECS:
        assert classify(derive_parameters(canonicalize(spec))) is tag
    digest = _labeling_digest(spec for spec, _ in UNIT_HEAVY_SPECS)
    assert digest == "33435882fbb217a08f53a700ff38c51c0a2556b47c32f357177802b170826a63"
