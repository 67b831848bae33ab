"""The case-by-case step labelers and their internal anchors."""

from itertools import groupby

import pytest

from antimagic import (
    CanonicalDoubleSpider,
    CaseTag,
    DoubleSpiderSpec,
    EdgeAddress,
    UnsupportedCase,
    canonicalize,
    classify,
    derive_parameters,
    enumerate_instances,
    materialize_tree,
    special_instance_labeling,
    strongly_antimagic_label,
)
from antimagic.labelers import (
    even_right_steps,
    needs_hub_gap_repair,
    odd_right_steps,
    type_a_steps,
    type_bc_steps,
)
from antimagic import driver, labelers
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.spiders import KIND_R_EVEN, edge_addresses


def params(core, left, right):
    return derive_parameters(canonicalize(DoubleSpiderSpec(core, tuple(left), tuple(right))))


def pendant_addresses(c):
    """Addresses of the edges of c that end in a leaf."""
    sp = materialize_tree(c)
    return {a for a, (u, v) in zip(edge_addresses(sp.params), sp.edges)
            if 1 in (sp.tree.degree(u), sp.tree.degree(v))}


def label(core, left, right):
    # every instance below goes straight to one labeler
    return strongly_antimagic_label(DoubleSpiderSpec(core, tuple(left), tuple(right)))


def check_strong(core, left, right):
    rep = label(core, left, right).report
    assert rep.bijection_ok and rep.strong_ok, rep.violation
    return rep


# --- type (a) ---------------------------------------------------------------

def test_type_a_s3_exact():
    lab = label(3, [1, 1], [1, 1]).labeling.assignment
    assert [lab[EdgeAddress.core(j)] for j in (1, 2, 3)] == [7, 1, 6]
    assert [lab[EdgeAddress.r_odd(i, 1)] for i in (1, 2)] == [2, 3]
    assert [lab[EdgeAddress.l_unit(i)] for i in (1, 2)] == [4, 5]
    rep = check_strong(3, [1, 1], [1, 1])
    assert rep.sums["vl"] == 16 and rep.sums["vr"] == 11


def test_type_a_s1_exact():
    lab = label(1, [1, 1], [1, 1]).labeling.assignment
    assert lab[EdgeAddress.core(1)] == 5
    rep = check_strong(1, [1, 1], [1, 1])
    assert rep.sums["vl"] == 12 and rep.sums["vr"] == 8


def test_type_a_s2_exact():
    lab = label(2, [1, 1], [1, 1]).labeling.assignment
    assert [lab[EdgeAddress.core(j)] for j in (1, 2)] == [6, 1]
    assert [lab[EdgeAddress.l_unit(i)] for i in (1, 2)] == [2, 3]
    assert [lab[EdgeAddress.r_odd(i, 1)] for i in (1, 2)] == [4, 5]
    rep = check_strong(2, [1, 1], [1, 1])
    assert rep.sums["vl"] == 11 and rep.sums["vr"] == 10
    leaves = sorted(rep.sums[v] for v in rep.degree_classes[1])
    assert leaves == [2, 3, 4, 5]


@pytest.mark.parametrize("s", range(1, 21, 2))
def test_type_a_odd_sums(s):
    rep = check_strong(s, [1, 1], [1, 1])
    assert rep.sums["vl"] == 2 * s + 10
    assert rep.sums["vr"] == (3 * s + 13) // 2
    leaves = sorted(rep.sums[v] for v in rep.degree_classes[1])
    assert leaves == [(s + 1) // 2 + k for k in range(4)]
    if s > 1:
        deg2 = sorted(rep.sums[f"core/{j}"] for j in range(2, s + 1))
        assert deg2 == sorted((3 * s + 11 - 2 * j) // 2 for j in range(2, s + 1))


@pytest.mark.parametrize("s", range(2, 21, 2))
def test_type_a_even_sums(s):
    rep = check_strong(s, [1, 1], [1, 1])
    assert rep.sums["vl"] == (3 * s + 16) // 2
    assert rep.sums["vr"] == (3 * s + 14) // 2


def test_type_a_rejects_other_shapes():
    with pytest.raises(UnsupportedCase):
        type_a_steps(params(1, [2, 1], [1, 1]))


# --- types (b)/(c) ----------------------------------------------------------

def test_type_c_exact():
    lab = label(1, [3, 3], [1, 1]).labeling.assignment
    assert [lab[EdgeAddress.l_odd(1, j)] for j in (3, 2, 1)] == [8, 6, 1]
    assert [lab[EdgeAddress.l_odd(2, j)] for j in (3, 2, 1)] == [3, 7, 2]
    assert [lab[EdgeAddress.r_odd(i, 1)] for i in (1, 2)] == [4, 5]
    assert lab[EdgeAddress.core(1)] == 9
    rep = check_strong(1, [3, 3], [1, 1])
    assert rep.sums["vl"] == 20 and rep.sums["vr"] == 18


def test_type_b_t_prime_consecutive():
    # t=1, d=1 forces the right unit edge directly before the left unit edge
    p = params(2, [2, 1], [1, 1])
    step5 = [ev.address for ev in type_bc_steps(p) if ev.step == 5]
    assert step5 == [EdgeAddress.r_odd(1, 1), EdgeAddress.l_unit(1)]  # t' = 1
    lab = label(2, [2, 1], [1, 1]).labeling.assignment
    assert lab[EdgeAddress.l_unit(1)] == lab[EdgeAddress.r_odd(1, 1)] + 1
    check_strong(2, [2, 1], [1, 1])


def test_type_bc_rejects_special_instance():
    p = derive_parameters(SPECIAL_INSTANCE)
    with pytest.raises(UnsupportedCase):
        type_bc_steps(p)


def test_type_bc_rejects_two_left_units():
    with pytest.raises(UnsupportedCase, match="at most one unit path"):
        type_bc_steps(params(1, [1, 1, 2], [1, 2]))


def test_type_bc_left_unit_needs_degree_3_hubs():
    with pytest.raises(UnsupportedCase, match="only allowed when both hubs have degree 3"):
        type_bc_steps(params(1, [1, 2, 2], [1, 2]))


def test_type_bc_rejects_degree_4_right_hub():
    with pytest.raises(UnsupportedCase, match="need a degree-3 right hub with a unit path"):
        type_bc_steps(params(1, [2, 2, 2], [1, 2, 2]))


def test_type_bc_even_k():
    p = params(1, [2, 1], [2, 1])
    step1 = [ev.address for ev in type_bc_steps(p) if ev.step == 1]
    assert step1 == [EdgeAddress.r_even(1, 2)]  # k = 2
    check_strong(1, [2, 1], [2, 1])


# --- the fixed special instance ---------------------------------------------

def test_special_instance_labeling_exact():
    lt = special_instance_labeling()
    lab = lt.labeling.assignment
    assert [lab[EdgeAddress.l_odd(1, j)] for j in (3, 2, 1)] == [7, 2, 6]
    assert lab[EdgeAddress.l_unit(1)] == 5
    assert [lab[EdgeAddress.core(j)] for j in (1, 2)] == [3, 8]
    assert [lab[EdgeAddress.r_odd(i, 1)] for i in (1, 2)] == [1, 4]
    assert lt.report.sums["vl"] == 15 and lt.report.sums["vr"] == 13
    leaves = sorted(lt.report.sums[v] for v in lt.report.degree_classes[1])
    assert leaves == [1, 4, 5, 6]
    deg2 = sorted(lt.report.sums[v] for v in lt.report.degree_classes[2])
    assert deg2 == [8, 9, 11]


# --- odd-right ---------------------------------------------------------------

def test_odd_right_exact():
    lab = label(1, [1, 1, 1], [3, 1]).labeling.assignment
    assert lab[EdgeAddress.r_odd(1, 1)] == 1
    assert [lab[EdgeAddress.r_odd(2, j)] for j in (1, 2, 3)] == [7, 6, 2]
    assert [lab[EdgeAddress.l_unit(i)] for i in (1, 2, 3)] == [3, 4, 5]
    assert lab[EdgeAddress.core(1)] == 8
    rep = check_strong(1, [1, 1, 1], [3, 1])
    assert rep.sums["vr"] == 16 and rep.sums["vl"] == 20
    assert sorted(rep.sums[v] for v in rep.degree_classes[1]) == [1, 2, 3, 4, 5]
    assert sorted(rep.sums[v] for v in rep.degree_classes[2]) == [8, 13]


def test_odd_right_rejects_equal_hub_degrees():
    # a = 2 with x = (0, 1) fits every other condition of the labeler
    p = params(1, [1, 3], [1, 3])
    assert p.deg_vl == p.deg_vr and p.a == 2 and p.x == (0, 1)
    with pytest.raises(UnsupportedCase, match="odd-right labeler needs b = 0"):
        odd_right_steps(p)


def _direct_cases(max_edges, tag):
    for c in enumerate_instances(max_edges):
        p = derive_parameters(c)
        if classify(p) is tag:
            yield c, p


def test_odd_right_pendant_prefix_claim():
    # steps 1-5 emit exactly {1..N} and cover every pendant edge
    for c, p in _direct_cases(13, CaseTag.UNEQUAL_ODD_RIGHT):
        events = odd_right_steps(p)
        early = [ev.label for ev in events if ev.step <= 5]
        # the paper's A_odd[a] - 1 + C_odd[c] - c + s1 + D[d] + t, written
        # out from x, w, s, z and t
        bound = (sum(p.x) + p.a - 1 + sum(p.w) + abs(p.s - 2) // 2
                 + sum(p.z) + p.t)
        assert sorted(early) == list(range(1, bound + 1))
        pend_addrs = pendant_addresses(c)
        pend = {ev.label for ev in events if ev.address in pend_addrs}
        assert max(pend) <= bound


def test_every_step_takes_the_next_block(monkeypatch):
    # every labeler call the driver makes for m <= 14, residues and the
    # special instance included: each step's labels are the next block after
    # the earlier steps', in rising or falling emission order; only the
    # even-right Step 1 interleaves its block
    calls, even_right = [], set()
    from_steps = driver._from_steps

    def recording(p, events, trace):
        calls.append(events)
        return from_steps(p, events, trace)

    def even_right_steps(p):
        events = labelers.even_right_steps(p)
        even_right.add(id(events))
        return events

    monkeypatch.setattr(driver, "_from_steps", recording)
    monkeypatch.setattr(driver, "even_right_steps", even_right_steps)
    instances = list(enumerate_instances(14))
    for c in instances:
        strongly_antimagic_label(c)
    assert len(calls) == len(instances) and len(even_right) > 0
    special = labelers.SPECIAL_INSTANCE_ASSIGNMENT
    assert any({ev.address: ev.label for ev in events} == special for events in calls)
    for events in calls:
        done, steps = 0, []
        for step, group in groupby(events, key=lambda ev: ev.step):
            labels = [ev.label for ev in group]
            assert sorted(labels) == list(range(done + 1, done + len(labels) + 1)), events
            if not (step == 1 and id(events) in even_right):
                assert labels in (sorted(labels), sorted(labels, reverse=True)), events
            done += len(labels)
            steps.append(step)
        assert steps == sorted(set(steps))


def test_odd_right_hub_anchor():
    for c, p in _direct_cases(13, CaseTag.UNEQUAL_ODD_RIGHT):
        lab = strongly_antimagic_label(c).labeling.assignment
        assert lab[EdgeAddress.core(p.s)] == p.m
        got = lab[EdgeAddress.r_odd(p.a, 1)]
        if p.s == 1 or p.s % 2 == 0:
            assert got == p.m - p.c - 1
        else:
            assert got == p.m - p.c - 2


# --- even-right --------------------------------------------------------------

def switch_counts(p):
    """(alpha, beta) as the events show them: beta Step-1 hub edges, alpha - beta in Step 8."""
    events = even_right_steps(p)
    beta = sum(1 for ev in events if ev.step == 1 and ev.address.kind == KIND_R_EVEN)
    return beta + sum(1 for ev in events if ev.step == 8), beta


def test_even_right_rejects_equal_hub_degrees():
    p = params(1, [1, 2], [1, 2])
    assert p.deg_vl == p.deg_vr and p.b == 1
    with pytest.raises(UnsupportedCase, match="even-right labeler needs an even path"):
        even_right_steps(p)


def test_even_right_exact():
    p = params(1, [1, 1, 1], [2, 1])
    assert switch_counts(p) == (0, 0)
    lab = label(1, [1, 1, 1], [2, 1]).labeling.assignment
    assert lab[EdgeAddress.r_odd(1, 1)] == 1
    assert [lab[EdgeAddress.r_even(1, j)] for j in (1, 2)] == [6, 2]
    assert [lab[EdgeAddress.l_unit(i)] for i in (1, 2, 3)] == [3, 4, 5]
    assert lab[EdgeAddress.core(1)] == 7
    rep = check_strong(1, [1, 1, 1], [2, 1])
    assert rep.sums["vr"] == 14 and rep.sums["vl"] == 19


def test_even_right_interleave_when_beta_positive():
    # one switched length-2 path
    p = params(1, [1, 1, 1], [2, 4])
    assert switch_counts(p)[1] == 1
    lab = label(1, [1, 1, 1], [2, 4]).labeling.assignment
    assert lab[EdgeAddress.r_even(1, 1)] == 1
    check_strong(1, [1, 1, 1], [2, 4])

    # three switched length-2 paths interleaved with two units
    p = params(1, [1, 1, 1, 1, 1], [2, 2, 2, 4])
    assert switch_counts(p)[1] == 3
    lab = label(1, [1, 1, 1, 1, 1], [2, 2, 2, 4]).labeling.assignment
    assert [lab[EdgeAddress.r_even(i, 1)] for i in (1, 2, 3)] == [1, 3, 5]
    assert [lab[EdgeAddress.l_unit(i)] for i in (1, 2)] == [2, 4]
    check_strong(1, [1, 1, 1, 1, 1], [2, 2, 2, 4])


def test_even_right_switched_longer_paths():
    # alpha > beta = 0: longer even paths get the switched treatment
    frozen = {
        "core/1": 17,
        "R/even/1/1": 5, "R/even/1/2": 15, "R/even/1/3": 11, "R/even/1/4": 1,
        "R/even/2/1": 6, "R/even/2/2": 16, "R/even/2/3": 12, "R/even/2/4": 2,
        "R/even/3/1": 13, "R/even/3/2": 3, "R/even/3/3": 14, "R/even/3/4": 4,
        "L/unit/1": 7, "L/unit/2": 8, "L/unit/3": 9, "L/unit/4": 10,
    }
    p = params(1, [1, 1, 1, 1], [4, 4, 4])
    assert switch_counts(p) == (2, 0)
    lab = label(1, [1, 1, 1, 1], [4, 4, 4]).labeling.assignment
    assert {a.text: v for a, v in lab.items()} == frozen
    check_strong(1, [1, 1, 1, 1], [4, 4, 4])


def test_even_right_second_clause():
    # b-1 > alpha: an unswitched non-top even path exists
    p = params(1, [2, 1, 1, 1], [2, 4, 4])
    assert switch_counts(p) == (1, 1) and p.b == 3
    check_strong(1, [2, 1, 1, 1], [2, 4, 4])


def test_even_right_core_tail_labels():
    for c, p in _direct_cases(13, CaseTag.UNEQUAL_EVEN_RIGHT):
        lab = strongly_antimagic_label(c).labeling.assignment
        assert lab[EdgeAddress.core(p.s)] == p.m
        if p.s >= 3 and p.s % 2 == 1:
            assert lab[EdgeAddress.core(1)] == p.m - 1


def test_even_right_top_hub_beats_previous_core_edge():
    # holds for every instance the printed step order covers
    for c, p in _direct_cases(13, CaseTag.UNEQUAL_EVEN_RIGHT):
        if p.s < 2 or needs_hub_gap_repair(p):
            continue
        lab = strongly_antimagic_label(c).labeling.assignment
        assert lab[EdgeAddress.r_even(p.b, 1)] > lab[EdgeAddress.core(p.s - 1)]


# --- the repaired family ------------------------------------------------------

def test_hub_gap_family_members_pass():
    members = [(s, u, v) for s in (2, 4, 8, 16, 40)
               for u, v in ((2, 2), (2, 19), (3, 3), (5, 12), (10, 19))]
    members += [(200, 2, 900), (2000, 1500, 2500)]  # m = 2007 and m = 10003
    for s, u, v in members:
        inst = CanonicalDoubleSpider(s, (1, 1, 1), (2 * u, 2 * v))
        p = derive_parameters(inst)
        assert needs_hub_gap_repair(p)
        lt = strongly_antimagic_label(inst)
        lab = lt.labeling
        assert lab.assignment[EdgeAddress.core(p.s)] == p.m
        # the closed form: R/even/1 is the printed path reversed
        assert lab.assignment[EdgeAddress.r_even(1, 1)] == u - 1
        assert lab.assignment[EdgeAddress.r_even(1, 2 * u)] == u + v + (s - 2) // 2
        rep = lt.report
        assert rep.strong_ok, (s, u, v, rep.violation)
        assert rep.sums["vl"] > rep.sums["vr"]


def test_hub_gap_family_odd_core_unaffected():
    p = params(3, [1, 1, 1], [4, 4])
    assert not needs_hub_gap_repair(p)


def test_pendants_precede_later_steps():
    for c in enumerate_instances(12):
        p = derive_parameters(c)
        if needs_hub_gap_repair(p):
            continue
        tag = classify(p)
        pend = pendant_addresses(c)
        if tag is CaseTag.UNEQUAL_ODD_RIGHT:
            events, cutoff, allowed_late = odd_right_steps(p), 5, 0
        elif tag is CaseTag.UNEQUAL_EVEN_RIGHT:
            events, cutoff, allowed_late = even_right_steps(p), 10, 0
        else:
            continue
        early_max = max(ev.label for ev in events if ev.address in pend)
        late = [ev.label for ev in events if ev.step > cutoff]
        if late:
            assert early_max < min(late)
        assert sum(1 for ev in events if ev.address in pend and ev.step > cutoff) <= allowed_late


def test_type_bc_single_pendant_exception():
    # at most one pendant edge is labeled in step 6, never later
    for core, left, right in [(1, [3, 3], [1, 1]), (2, [2, 1], [1, 1]),
                              (1, [2, 1], [2, 1]), (3, [4, 1], [3, 1]),
                              (1, [2, 2], [5, 1]), (2, [3, 2], [4, 1])]:
        c = canonicalize(DoubleSpiderSpec(core, tuple(left), tuple(right)))
        events = type_bc_steps(derive_parameters(c))
        pend = pendant_addresses(c)
        late = [ev for ev in events if ev.address in pend and ev.step >= 6]
        assert len(late) <= 1
        assert all(ev.step == 6 for ev in late)


def test_hub_sums_ordered_on_all_step_labelers():
    for c in enumerate_instances(11):
        p = derive_parameters(c)
        tag = classify(p)
        if tag not in (CaseTag.UNEQUAL_ODD_RIGHT, CaseTag.UNEQUAL_EVEN_RIGHT):
            continue
        rep = strongly_antimagic_label(c).report
        assert rep.strong_ok
        assert rep.sums["vl"] > rep.sums["vr"]
