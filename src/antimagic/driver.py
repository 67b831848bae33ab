"""Top-level constructor: a strongly antimagic labeling for any double spider.

Instances that one of the step labelers covers are labeled directly; the
rest are reduced (leaf-level deletions, unit-path removals) to a coverable
residue and the recorded reductions are undone LIFO with the composition
moves, re-verifying after every move.
"""

from __future__ import annotations

from .compose import (
    DELETE_LEAF_LEVEL,
    REMOVE_UNIT_LEFT,
    REMOVE_UNIT_RIGHT,
    ConstructionBug,
    ReductionStep,
    delete_leaf_level,
    remove_unit_path,
)
from .labeling import EdgeLabeling, LabeledTree, labeled_spider
from .labelers import (
    EvenCaseContext,
    StepEvent,
    TypeBCContext,
    even_right_steps,
    special_instance_labeling,
    is_special_instance,
    is_type_a,
    odd_right_steps,
    type_a_steps,
    type_bc_steps,
)
from .spiders import (
    CanonicalDoubleSpider,
    CaseTag,
    DoubleSpiderSpec,
    canonicalize,
    classify,
    derive_parameters,
    materialize_tree,
)


def strongly_antimagic_label(
    spec: DoubleSpiderSpec | CanonicalDoubleSpider,
    trace: list[str] | None = None,
) -> LabeledTree:
    """Label the instance; the result always passes the strong verifier.

    When trace is a list, step lines for the directly labeled residue and
    comment lines for every reduction/replay move are appended to it.
    """
    c = canonicalize(spec)
    lt = _label(c, trace)
    if not lt.report.strong_ok:
        raise ConstructionBug("driver produced a labeling that fails verification")
    return lt


def _from_steps(c: CanonicalDoubleSpider, events: list[StepEvent],
                trace: list[str] | None) -> LabeledTree:
    if trace is not None:
        trace.extend(ev.line() for ev in events)
    p = derive_parameters(c)
    labeling = EdgeLabeling(p.m, {ev.address: ev.label for ev in events})
    return labeled_spider(materialize_tree(c), labeling)


def _note(trace: list[str] | None, text: str) -> None:
    if trace is not None:
        trace.append(f"# {text}")


def _instance_note(c: CanonicalDoubleSpider) -> str:
    left = ",".join(map(str, c.left_lengths))
    right = ",".join(map(str, c.right_lengths))
    return f"core={c.core_length} left={left} right={right}"


def _label(c: CanonicalDoubleSpider, trace: list[str] | None) -> LabeledTree:
    p = derive_parameters(c)
    tag = classify(p)
    if tag is CaseTag.UNEQUAL_ODD_RIGHT:
        _note(trace, f"direct odd-right labeling of {_instance_note(c)}")
        return _from_steps(c, odd_right_steps(p), trace)
    if tag is CaseTag.UNEQUAL_EVEN_RIGHT:
        _note(trace, f"direct even-right labeling of {_instance_note(c)}")
        return _from_steps(c, even_right_steps(p, EvenCaseContext.from_parameters(p)), trace)
    if tag is CaseTag.UNEQUAL_ALL_UNIT_RIGHT:
        return _label_all_unit_right(c, trace)
    return _label_equal_degrees(c, high=(tag is CaseTag.EQUAL_DEG_HIGH), trace=trace)


def _label_residue(c: CanonicalDoubleSpider, trace: list[str] | None) -> LabeledTree:
    if is_special_instance(c):
        _note(trace, f"fixed labeling of the special residue {_instance_note(c)}")
        lt = special_instance_labeling()
        if trace is not None:
            trace.extend(StepEvent(1, addr, label).line()
                         for addr, label in sorted(lt.labeling.assignment.items(),
                                                   key=lambda kv: kv[1]))
        return lt
    p = derive_parameters(c)
    if is_type_a(p):
        _note(trace, f"type-(a) labeling of residue {_instance_note(c)}")
        return _from_steps(c, type_a_steps(p), trace)
    _note(trace, f"type-(b)/(c) labeling of residue {_instance_note(c)}")
    return _from_steps(c, type_bc_steps(p, TypeBCContext.from_parameters(p)), trace)


def _replay(lt: LabeledTree, stack: list[ReductionStep], trace: list[str] | None) -> LabeledTree:
    for step in reversed(stack):
        _note(trace, f"replay {step.kind}")
        lt = step.invert(lt)
    return lt


def _label_all_unit_right(c: CanonicalDoubleSpider, trace: list[str] | None) -> LabeledTree:
    stack: list[ReductionStep] = []
    cur = c
    while len(cur.right_lengths) > 2:
        cur = remove_unit_path(cur, "right")
        stack.append(REMOVE_UNIT_RIGHT)
    # Strip unit paths on the left while the hub keeps degree >= 3 afterwards.
    while 1 in cur.left_lengths and len(cur.left_lengths) > 2:
        cur = remove_unit_path(cur, "left")
        stack.append(REMOVE_UNIT_LEFT)
    _note(trace, f"reduced {_instance_note(c)} by {len(stack)} unit removals")
    lt = _label_residue(cur, trace)
    return _replay(lt, stack, trace)


def _label_equal_degrees(c: CanonicalDoubleSpider, high: bool,
                         trace: list[str] | None) -> LabeledTree:
    h = min(min(c.left_lengths), min(c.right_lengths))
    stack: list[ReductionStep] = []
    cur = c
    for _ in range(h - 1):
        cur = delete_leaf_level(cur)
        stack.append(DELETE_LEAF_LEVEL)
    if h > 1:
        _note(trace, f"deleted {h - 1} leaf levels from {_instance_note(c)}")
    # The canonical orientation puts a shortest path on the right, so the
    # shrunken instance has a right unit path.
    assert 1 in cur.right_lengths
    if high:
        cur = remove_unit_path(cur, "right")
        stack.append(REMOVE_UNIT_RIGHT)
        _note(trace, f"removed one right unit, recursing on {_instance_note(cur)}")
        lt = _label(cur, trace)
    else:
        lt = _label_residue(cur, trace)
    return _replay(lt, stack, trace)
