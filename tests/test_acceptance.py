"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import time

import pytest

from antimagic import (
    CanonicalDoubleSpider,
    DoubleSpiderSpec,
    EdgeAddress,
    SearchBudget,
    attach_pendants_to_degree_class,
    classify,
    derive_parameters,
    enumerate_instances,
    extend_leaves,
    find_strongly_antimagic,
    insert_unit_path,
    materialize_tree,
    strongly_antimagic_label,
    verify_bijection,
    vertex_sums,
)
from antimagic.cli import main
from antimagic.labelers import SPECIAL_INSTANCE_ASSIGNMENT
from antimagic.spiders import CaseTag
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.trees import make_tree, path_tree


def _announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_special_instance_exactness():
    start = time.perf_counter()
    lt = strongly_antimagic_label(DoubleSpiderSpec(2, (3, 1), (1, 1)))
    lab = lt.labeling.assignment
    assert lab == SPECIAL_INSTANCE_ASSIGNMENT
    assert [lab[EdgeAddress.l_odd(1, j)] for j in (3, 2, 1)] == [7, 2, 6]
    assert lab[EdgeAddress.l_unit(1)] == 5
    assert [lab[EdgeAddress.core(j)] for j in (1, 2)] == [3, 8]
    assert [lab[EdgeAddress.r_odd(i, 1)] for i in (1, 2)] == [1, 4]
    assert lt.report.strong_ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"special-instance labeling reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_type_a_odd_cores():
    start = time.perf_counter()
    for s in range(1, 20, 2):
        rep = strongly_antimagic_label(DoubleSpiderSpec(s, (1, 1), (1, 1))).report
        assert rep.strong_ok
        assert rep.sums["vl"] == 2 * s + 10
        assert rep.sums["vr"] == (3 * s + 13) // 2
        leaves = sorted(rep.sums[v] for v in rep.degree_classes[1])
        assert leaves == [(s + 1) // 2, (s + 3) // 2, (s + 5) // 2, (s + 7) // 2]
        if s > 1:
            deg2 = sorted(rep.sums[v] for v in rep.degree_classes[2])
            assert deg2 == sorted((3 * s + 11 - 2 * j) // 2 for j in range(2, s + 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, f"odd-core closed-form sums match for s in 1..19 ({elapsed:.3f}s)")


def test_criterion_3_type_a_even_cores():
    start = time.perf_counter()
    for s in range(2, 21, 2):
        rep = strongly_antimagic_label(DoubleSpiderSpec(s, (1, 1), (1, 1))).report
        assert rep.strong_ok
        assert rep.sums["vl"] == (3 * s + 16) // 2
        assert rep.sums["vr"] == (3 * s + 14) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(3, f"even-core hub sums (3s+16)/2 and (3s+14)/2 hold for s in 2..20 ({elapsed:.3f}s)")


def test_criterion_4_full_sweep():
    start = time.perf_counter()
    count = 0
    failures = []
    for c in enumerate_instances(18):
        count += 1
        lt = strongly_antimagic_label(c)
        if not (verify_bijection(lt.labeling) and lt.report.strong_ok):
            failures.append(c)
    elapsed = time.perf_counter() - start
    assert not failures
    assert count == 22160
    _announce(4, f"all {count} instances with at most 18 edges pass, 0 failures ({elapsed:.1f}s)")


def test_criterion_5_oracle_concordance():
    start = time.perf_counter()
    count = 0
    for c in enumerate_instances(12):
        spider = materialize_tree(c)
        res = find_strongly_antimagic(spider.tree, SearchBudget(max_edges=12))
        assert res.found, c
        assert vertex_sums(spider.tree, res.labels).strong_ok
        lt = strongly_antimagic_label(c)
        assert lt.report.strong_ok
        count += 1
    assert count == 843
    k2 = find_strongly_antimagic(path_tree(2))
    assert k2.proven_absent
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _announce(5, f"oracle witnesses agree on {count} instances; single-edge tree proven unlabelable ({elapsed:.1f}s)")


def _vertex_map_after_insert(lt, side):
    if side == "left":
        return {v: v for v in lt.tree.vertices}
    units = sum(1 for xi in lt.spider.params.x if xi == 0)
    mapping = {}
    for v in lt.tree.vertices:
        parts = v.split("/")
        if v.startswith("R/odd/") and int(parts[2]) > units:
            parts[2] = str(int(parts[2]) + 1)
            mapping[v] = "/".join(parts)
        else:
            mapping[v] = v
    return mapping


def _random_strong_tree(rng):
    """A random small tree together with a strongly antimagic labeling."""
    n = rng.randint(3, 8)
    vertices = [f"n{i}" for i in range(n)]
    edges = [(vertices[i], vertices[rng.randrange(i)]) for i in range(1, n)]
    tree = make_tree(vertices, edges)
    res = find_strongly_antimagic(tree, SearchBudget(max_edges=8))
    if not res.found:
        return None
    from antimagic.labeling import labeled_tree
    return labeled_tree(tree, res.labels)


def test_criterion_6_composition_laws():
    start = time.perf_counter()
    rng = random.Random(20260808)
    spiders = list(enumerate_instances(12))
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            lt = _random_strong_tree(rng)
            if lt is None:
                continue
            n1 = len(lt.tree.leaves())
            grown = extend_leaves(lt)
            assert grown.report.strong_ok
            for e, lab in lt.labels.items():
                assert grown.labels[e] == lab + n1
            assert sorted(grown.tree.degrees.values()).count(1) == n1
            occupied = sorted({d for d in lt.tree.degrees.values()})
            k = rng.choice(occupied)
            vk = [v for v in lt.tree.vertices if lt.tree.degree(v) == k]
            attached = attach_pendants_to_degree_class(lt, k)
            assert attached.report.strong_ok
            for e, lab in lt.labels.items():
                assert attached.labels[e] == lab + len(vk)
        else:
            c = rng.choice(spiders)
            lt = strongly_antimagic_label(c)
            p = lt.spider.params
            side = "right" if p.deg_vl >= p.deg_vr + 1 else "left"
            grown = insert_unit_path(lt, side)
            assert grown.report.strong_ok
            hub = "vl" if side == "left" else "vr"
            mapping = _vertex_map_after_insert(lt, side)
            for v, old in lt.report.sums.items():
                if v == hub:
                    assert grown.report.sums[v] == old + lt.tree.degree(v) + 1
                else:
                    assert grown.report.sums[mapping[v]] == old + lt.tree.degree(v)
        checked += 1
    elapsed = time.perf_counter() - start
    _announce(6, f"shift laws hold on {checked} randomized compositions ({elapsed:.1f}s)")


def test_criterion_7_internal_anchors():
    start = time.perf_counter()
    checked = 0
    for c in enumerate_instances(13):
        p = derive_parameters(c)
        tag = classify(p)
        if tag is CaseTag.UNEQUAL_ODD_RIGHT:
            lab = strongly_antimagic_label(c).labeling.assignment
            got = lab[EdgeAddress.r_odd(p.a, 1)]
            expected = p.m - p.c - (1 if (p.s == 1 or p.s % 2 == 0) else 2)
            assert got == expected
        elif tag is CaseTag.UNEQUAL_EVEN_RIGHT:
            lab = strongly_antimagic_label(c).labeling.assignment
        else:
            continue
        assert lab[EdgeAddress.core(p.s)] == p.m
        checked += 1
    lt = strongly_antimagic_label(SPECIAL_INSTANCE)
    assert lt.labeling.assignment[EdgeAddress.core(2)] == 8
    elapsed = time.perf_counter() - start
    _announce(7, f"core and hub-edge anchors exact on {checked} step-labeled instances ({elapsed:.1f}s)")


def test_criterion_8_byte_determinism(tmp_path):
    start = time.perf_counter()
    spec = tmp_path / "inst.txt"
    spec.write_text("core = 3\nleft = 5,4,2,1,1\nright = 3,2\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.lab"
        dot = tmp_path / f"{name}.dot"
        assert main(["label", "--spec", str(spec), "--out", str(out), "--dot", str(dot)]) == 0
        outs.append((out.read_bytes(), dot.read_bytes()))
    assert outs[0] == outs[1]
    reports = []
    for name in ("ra", "rb"):
        rep = tmp_path / f"{name}.txt"
        assert main(["sweep", "--max-edges", "9", "--report", str(rep)]) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    _announce(8, f"labeling, DOT, and sweep outputs byte-identical across runs ({elapsed:.1f}s)")
