"""Top-level constructor: a strongly antimagic labeling for any double spider.

One path from instance to verified labeling: materialize the instance, label
it, verify once.  Instances that one of the step labelers covers are labeled
directly; the rest are reduced (leaf-level deletions, unit-path removals) to
a coverable residue, and each run of equal reductions is undone, LIFO, by
one direct batched relabeling (`compose.insert_unit_paths`,
`compose.extend_leaf_levels`).  The labelers, the replay and the one
verification all work on one flat list of labels by edge id; no address,
vertex id or Tree is built unless a caller asks for it (or verification
fails and names the offending pair).
"""

from __future__ import annotations

from .compose import (
    ConstructionBug,
    delete_leaf_level,
    extend_leaf_levels,
    insert_unit_paths,
    remove_unit_path,
)
from .labeling import EdgeLabeling, LabeledSpider, labeled_spider
from .labelers import (
    SPECIAL_INSTANCE,
    Steps,
    even_right_steps,
    is_type_a,
    odd_right_steps,
    special_instance_steps,
    type_a_steps,
    type_bc_steps,
)
from .spiders import (
    CanonicalDoubleSpider,
    CaseTag,
    DoubleSpiderSpec,
    Parameters,
    canonicalize,
    classify,
    derive_parameters,
    materialize_tree,
)


def strongly_antimagic_label(
    spec: DoubleSpiderSpec | CanonicalDoubleSpider,
    trace: list[str] | None = None,
) -> LabeledSpider:
    """Label the instance; the result always passes the strong verifier.

    When trace is a list, step lines for the directly labeled residue and
    comment lines for every reduction/replay move are appended to it.  The
    instance is materialized once, first, and its parameters are passed down;
    the labeling is verified once, here.  A labeling that fails raises
    ConstructionBug naming the first violation.
    """
    c = canonicalize(spec)
    spider = materialize_tree(c)
    lt = labeled_spider(spider, _label(c, spider.params, trace))
    if not lt.report.strong_ok:
        raise ConstructionBug("driver produced a labeling that fails verification: "
                              + lt.report.violation.describe())
    return lt


def _from_steps(p: Parameters, steps: Steps, trace: list[str] | None) -> EdgeLabeling:
    if trace is not None:
        trace.extend(ev.line() for ev in steps)
    return EdgeLabeling.flat(p, steps.labels)


def _note(trace: list[str] | None, text: str, *args) -> None:
    """Append the comment line text.format(*args), built only when tracing."""
    if trace is not None:
        trace.append("# " + text.format(*args))


def _label(c: CanonicalDoubleSpider, p: Parameters, trace: list[str] | None) -> EdgeLabeling:
    tag = classify(p)
    if tag is CaseTag.UNEQUAL_ODD_RIGHT:
        _note(trace, "direct odd-right labeling of {.text}", c)
        return _from_steps(p, odd_right_steps(p), trace)
    if tag is CaseTag.UNEQUAL_EVEN_RIGHT:
        _note(trace, "direct even-right labeling of {.text}", c)
        return _from_steps(p, even_right_steps(p), trace)
    if tag is CaseTag.UNEQUAL_ALL_UNIT_RIGHT:
        return _label_all_unit_right(c, trace)
    return _label_equal_degrees(c, high=(tag is CaseTag.EQUAL_DEG_HIGH), trace=trace)


def _label_residue(c: CanonicalDoubleSpider, trace: list[str] | None) -> EdgeLabeling:
    p = derive_parameters(c)
    if c == SPECIAL_INSTANCE:
        _note(trace, "fixed labeling of the special residue {.text}", c)
        return _from_steps(p, special_instance_steps(), trace)
    if is_type_a(p):
        _note(trace, "type-(a) labeling of residue {.text}", c)
        return _from_steps(p, type_a_steps(p), trace)
    _note(trace, "type-(b)/(c) labeling of residue {.text}", c)
    return _from_steps(p, type_bc_steps(p), trace)


def _note_replay(trace: list[str] | None, kind: str, k: int) -> None:
    if trace is not None:
        trace.extend([f"# replay {kind}"] * k)


def _label_all_unit_right(c: CanonicalDoubleSpider, trace: list[str] | None) -> EdgeLabeling:
    # Strip the right side down to two unit paths, then unit paths on the left
    # while the left hub keeps degree >= 3 afterwards; undo both LIFO.
    a = len(c.right_lengths) - 2
    b = min(c.left_lengths.count(1), len(c.left_lengths) - 2)
    cur = remove_unit_path(remove_unit_path(c, "right", a), "left", b)
    _note(trace, "reduced {.text} by {} unit removals", c, a + b)
    labeling = _label_residue(cur, trace)
    if b:
        _note_replay(trace, "remove-unit-left", b)
        cur, labeling = insert_unit_paths(cur, labeling, "left", b)
    if a:
        _note_replay(trace, "remove-unit-right", a)
        labeling = insert_unit_paths(cur, labeling, "right", a)[1]
    return labeling


def _label_equal_degrees(c: CanonicalDoubleSpider, high: bool,
                         trace: list[str] | None) -> EdgeLabeling:
    h = min(min(c.left_lengths), min(c.right_lengths))
    cur = delete_leaf_level(c, h - 1)
    if h > 1:
        _note(trace, "deleted {} leaf levels from {.text}", h - 1, c)
    # The canonical orientation puts a shortest path on the right, so the
    # shrunken instance has a right unit path.
    assert 1 in cur.right_lengths
    if high:
        cur = remove_unit_path(cur, "right")
        _note(trace, "removed one right unit, recursing on {.text}", cur)
        labeling = _label(cur, derive_parameters(cur), trace)
        _note_replay(trace, "remove-unit-right", 1)
        cur, labeling = insert_unit_paths(cur, labeling, "right", 1)
    else:
        labeling = _label_residue(cur, trace)
    if h > 1:
        _note_replay(trace, "delete-leaf-level", h - 1)
        labeling = extend_leaf_levels(cur, labeling, h - 1)[1]
    return labeling
