"""Command line interface: exit codes, file outputs, determinism."""

import hashlib

import pytest

from antimagic.cli import main
from antimagic.spiders import SpiderTree

SPECIAL = "core = 2\nleft = 3,1\nright = 1,1\n"


@pytest.fixture
def special_spec(tmp_path):
    p = tmp_path / "special.txt"
    p.write_text(SPECIAL)
    return p


def test_label_special_instance(tmp_path, special_spec):
    out = tmp_path / "special.lab"
    assert main(["label", "--spec", str(special_spec), "--out", str(out)]) == 0
    text = out.read_text()
    assert "m = 8" in text
    assert "edge = core/2, label = 8" in text
    assert "edge = L/odd/1/3, label = 7" in text


def test_label_to_stdout(capsys, special_spec):
    assert main(["label", "--spec", str(special_spec)]) == 0
    assert "m = 8" in capsys.readouterr().out


def test_label_rejects_one_sided_spec(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("core = 1\nleft = 5\nright = 1,1\n")
    assert main(["label", "--spec", str(bad)]) == 1


def test_label_missing_file(tmp_path):
    assert main(["label", "--spec", str(tmp_path / "nope.txt")]) == 1


def test_label_unverified_construction_is_internal_bug(tmp_path, monkeypatch, capsys):
    # without its repair the hub-gap family keeps the tied printed labeling
    monkeypatch.setattr("antimagic.labelers.needs_hub_gap_repair", lambda p: False)
    spec = tmp_path / "tied.txt"
    spec.write_text("core = 4\nleft = 1,1,1\nright = 6,6\n")
    out = tmp_path / "tied.lab"
    assert main(["label", "--spec", str(spec), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "internal error" in err
    # the message names the first violating pair of the tied labeling
    assert err.rstrip().endswith("duplicate-sum: phi(vr)=41 (deg 3) vs phi(vl)=41 (deg 4)")


def _one_write_error(err, path):
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot write {path}: ")


def test_label_out_into_missing_directory(tmp_path, special_spec, capsys):
    out = tmp_path / "missing" / "special.lab"
    assert main(["label", "--spec", str(special_spec), "--out", str(out)]) == 1
    _one_write_error(capsys.readouterr().err, out)


def test_label_out_is_a_directory(tmp_path, special_spec, capsys):
    out = tmp_path / "dir"
    out.mkdir()
    assert main(["label", "--spec", str(special_spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    _one_write_error(captured.err, out)
    assert "[Errno 21] Is a directory" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == sorted([special_spec, out])
    assert list(out.iterdir()) == []


def test_label_unwritable_dot_writes_nothing(tmp_path, special_spec, capsys):
    out = tmp_path / "ok.lab"
    dot = tmp_path / "missing" / "x.dot"
    args = ["label", "--spec", str(special_spec), "--out", str(out), "--dot", str(dot)]
    assert main(args) == 1
    captured = capsys.readouterr()
    _one_write_error(captured.err, dot)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [special_spec]


def test_label_unwritable_trace_prints_nothing(tmp_path, special_spec, capsys):
    trace = tmp_path / "missing" / "x.tr"
    assert main(["label", "--spec", str(special_spec), "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    _one_write_error(captured.err, trace)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [special_spec]


def test_verify_round_trip(tmp_path, special_spec):
    out = tmp_path / "special.lab"
    main(["label", "--spec", str(special_spec), "--out", str(out)])
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(out), "--strong"]) == 0
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(out)]) == 0


def test_verify_detects_tampering(tmp_path, special_spec, capsys):
    out = tmp_path / "special.lab"
    main(["label", "--spec", str(special_spec), "--out", str(out)])
    tampered = out.read_text().replace("label = 7", "label = 99").replace(
        "label = 1\n", "label = 7\n", 1)
    bad = tmp_path / "bad.lab"
    bad.write_text(tampered)
    code = main(["verify", "--spec", str(special_spec), "--labeling", str(bad), "--strong"])
    assert code == 2
    assert "fail" in capsys.readouterr().out


def test_verify_swapped_labels_fail_strong(tmp_path, special_spec, capsys):
    out = tmp_path / "special.lab"
    main(["label", "--spec", str(special_spec), "--out", str(out)])
    swapped = (out.read_text()
               .replace("label = 7", "label = @")
               .replace("label = 1\n", "label = 7\n", 1)
               .replace("label = @", "label = 1"))
    bad = tmp_path / "swap.lab"
    bad.write_text(swapped)
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(bad), "--strong"]) == 2
    assert "degree-order" in capsys.readouterr().out or True


def test_verify_repeated_label_is_property_failure(tmp_path, special_spec, capsys):
    out = tmp_path / "special.lab"
    main(["label", "--spec", str(special_spec), "--out", str(out)])
    dup = out.read_text().replace("label = 8", "label = 7")
    bad = tmp_path / "dup.lab"
    bad.write_text(dup)
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(bad), "--strong"]) == 2
    assert "bijection" in capsys.readouterr().out


def test_verify_names_duplicate_behind_degree_order(tmp_path, capsys):
    # the strong scan stops at a degree-order pair first, but
    # R/odd/1/1 and L/even/1/2 both sum to 3, so the labeling is not antimagic
    spec = tmp_path / "spec.txt"
    spec.write_text("core = 1\nleft = 1,2\nright = 1,1\n")
    lab = tmp_path / "dup.lab"
    lab.write_text("m = 6\nedge = core/1, label = 6\nedge = R/odd/1/1, label = 3\n"
                   "edge = R/odd/2/1, label = 5\nedge = L/even/1/1, label = 1\n"
                   "edge = L/even/1/2, label = 2\nedge = L/unit/1, label = 4\n")
    assert main(["verify", "--spec", str(spec), "--labeling", str(lab)]) == 2
    assert capsys.readouterr().out == (
        "fail: duplicate-sum: phi(R/odd/1/1)=3 (deg 1) vs phi(L/even/1/2)=3 (deg 2)\n")
    assert main(["verify", "--spec", str(spec), "--labeling", str(lab), "--strong"]) == 2
    assert capsys.readouterr().out.startswith("fail: degree-order:")


@pytest.mark.parametrize("text, message", [
    ("# nothing but a comment\n", "empty labeling file"),
    ("m = eight\n", "bad edge count: 'eight'"),
    ("m = 8\nedge = core/1, lable = 3\n", "bad labeling record: 'edge = core/1, lable = 3'"),
], ids=["comment-only", "bad-count", "misspelt-key"])
def test_verify_rejects_malformed_labeling(tmp_path, special_spec, capsys, text, message):
    lab = tmp_path / "bad.lab"
    lab.write_text(text)
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(lab)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_mismatched_labeling_is_malformed(tmp_path, special_spec):
    bad = tmp_path / "short.lab"
    bad.write_text("m = 8\nedge = core/1, label = 1\n")
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(bad)]) == 1


# the special instance's labeling, record by record, as `label` writes it
RECORDS = [("core/1", 3), ("core/2", 8), ("R/odd/1/1", 1), ("R/odd/2/1", 4),
           ("L/odd/1/1", 6), ("L/odd/1/2", 2), ("L/odd/1/3", 7), ("L/unit/1", 5)]


def _lab(records, m=8):
    return f"m = {m}\n" + "".join(f"edge = {a}, label = {x}\n" for a, x in records)


def _moved(old, new):
    return [(new if a == old else a, x) for a, x in RECORDS]


# name -> (labeling text, `verify --strong` exit code, stdout, stderr), each
# output as the address-keyed reader gave it before the flat one
MALFORMED = {
    "case-and-spacing": (
        "M=8\n" + "".join(f"EDGE={' / '.join(a.split('/'))} ,LABEL= {x}\n" for a, x in RECORDS),
        0, "ok: labeling is strongly antimagic\n", ""),
    "mixed-case-keys": (
        "  m =8 \n" + "".join(f"  Edge =  {a} , Label ={x}  \n" for a, x in RECORDS),
        0, "ok: labeling is strongly antimagic\n", ""),
    "comments-and-shuffle": (
        "# a labeling\n\nm = 8\n"
        + "".join(f"\n# record\nedge = {a}, label = {x}\n" for a, x in reversed(RECORDS)),
        0, "ok: labeling is strongly antimagic\n", ""),
    "duplicate-known": (
        _lab(RECORDS[:-1] + [("core/1", 5)]),
        1, "", "error: duplicate edge record for core/1\n"),
    "duplicate-unknown": (
        _lab(RECORDS[:2] + [("R/odd/3/1", 1), ("R/odd/3/1", 4)] + RECORDS[4:]),
        1, "", "error: duplicate edge record for R/odd/3/1\n"),
    "unknown-path-index": (
        _lab(_moved("R/odd/2/1", "R/odd/3/1")),
        1, "", "error: labeling does not match the instance: missing R/odd/2/1; unknown R/odd/3/1\n"),
    "j-out-of-range": (
        _lab(_moved("L/odd/1/3", "L/odd/1/4")),
        1, "", "error: labeling does not match the instance: missing L/odd/1/3; unknown L/odd/1/4\n"),
    "unit-with-j": (
        _lab(_moved("L/unit/1", "L/unit/1/1")),
        1, "", "error: bad edge address: 'L/unit/1/1'\n"),
    "core-with-i": (
        _lab(_moved("core/1", "core/1/1")),
        1, "", "error: bad edge address: 'core/1/1'\n"),
    "core-past-end": (
        _lab(_moved("core/2", "core/3")),
        1, "", "error: labeling does not match the instance: missing core/2; unknown core/3\n"),
    "unit-past-end": (
        _lab(_moved("L/unit/1", "L/unit/2")),
        1, "", "error: labeling does not match the instance: missing L/unit/1; unknown L/unit/2\n"),
    "zero-index": (
        _lab(_moved("R/odd/1/1", "R/odd/0/1")),
        1, "", "error: labeling does not match the instance: missing R/odd/1/1; unknown R/odd/0/1\n"),
    "zero-j": (
        _lab(_moved("L/odd/1/1", "L/odd/1/0")),
        1, "", "error: labeling does not match the instance: missing L/odd/1/1; unknown L/odd/1/0\n"),
    "negative-j": (
        _lab(_moved("core/1", "core/-1")),
        1, "", "error: labeling does not match the instance: missing core/1; unknown core/-1\n"),
    "missing-record": (
        _lab(RECORDS[:-1]),
        1, "", "error: labeling has 7 edge records but the instance has 8 edges\n"),
    "m-line-mismatch": (
        _lab(RECORDS, m=9),
        1, "", "error: labeling says m = 9 but the instance has 8 edges\n"),
    "count-mismatch": (
        _lab(RECORDS + [("R/odd/3/1", 9)]),
        1, "", "error: labeling has 9 edge records but the instance has 8 edges\n"),
    "non-integer-label": (
        _lab(RECORDS[:-1] + [("L/unit/1", "x")]),
        1, "", "error: invalid literal for int() with base 10: 'x'\n"),
    "plus-label": (
        _lab(RECORDS[:-1] + [("L/unit/1", "+5")]),
        0, "ok: labeling is strongly antimagic\n", ""),
    "underscore-label": (
        _lab(RECORDS[:-1] + [("L/unit/1", "5_0")]),
        2, "fail: labels are not a bijection onto 1..m\n", ""),
    "negative-label": (
        _lab(RECORDS[:-1] + [("L/unit/1", "-5")]),
        2, "fail: labels are not a bijection onto 1..m\n", ""),
    "leading-zeros": (
        _lab([(a.replace("/1", "/01"), f"0{x}") for a, x in RECORDS]),
        0, "ok: labeling is strongly antimagic\n", ""),
    "fullwidth-digits": (
        _lab([("core/\uff11", 3)] + RECORDS[1:-1] + [("L/unit/1", "\uff15")]),
        0, "ok: labeling is strongly antimagic\n", ""),
    "unknown-before-malformed": (
        _lab(_moved("R/odd/2/1", "R/odd/3/1")[:-1]) + "edge = L/unit/1 label = 5\n",
        1, "", "error: bad labeling record: 'edge = L/unit/1 label = 5'\n"),
    "unknown-before-m-mismatch": (
        _lab(_moved("R/odd/2/1", "R/odd/3/1"), m=9),
        1, "", "error: labeling says m = 9 but the instance has 8 edges\n"),
    "duplicate-before-m-mismatch": (
        _lab(RECORDS[:-1] + [("core/2", 5)], m=7),
        1, "", "error: duplicate edge record for core/2\n"),
    "three-fields": (
        _lab(RECORDS[:-1]) + "edge = L/unit/1, label = 5, x\n",
        1, "", "error: bad labeling record: 'edge = L/unit/1, label = 5, x'\n"),
    "no-m-line": (
        _lab(RECORDS).split("\n", 1)[1],
        1, "", "error: labeling file must start with an 'm = <int>' line\n"),
    "m-only": (
        "m = 8\n",
        1, "", "error: labeling has 0 edge records but the instance has 8 edges\n"),
    "swapped-labels": (
        _lab([(a, {7: 1, 1: 7}.get(x, x)) for a, x in RECORDS]),
        2, "fail: degree-order: phi(L/odd/1/1)=6 (deg 1) vs phi(L/odd/1/3)=3 (deg 2)\n", ""),
    "many-unknown": (
        _lab([("R/odd/9/9", 1), ("L/even/1/1", 2), ("L/unit/7", 3), ("core/9", 4),
              ("R/even/1/2", 5), ("L/odd/2/1", 6), ("R/odd/1/1", 7), ("core/1", 8)]),
        1, "", "error: labeling does not match the instance: missing core/2, R/odd/2/1, L/odd/1/1, "
               "L/odd/1/2, L/odd/1/3; unknown core/9, R/odd/9/9, R/even/1/2, L/odd/2/1, L/even/1/1\n"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_malformed_corpus(tmp_path, special_spec, capsys, name):
    # export-dot reads with the same reader, so it fails as verify does
    text, code, out, err = MALFORMED[name]
    lab = tmp_path / "x.lab"
    lab.write_text(text, encoding="utf-8")
    assert main(["verify", "--spec", str(special_spec), "--labeling", str(lab), "--strong"]) == code
    assert capsys.readouterr() == (out, err)
    dot = tmp_path / "x.dot"
    assert main(["export-dot", "--spec", str(special_spec), "--labeling", str(lab),
                 "--out", str(dot)]) == (1 if code == 1 else 0)
    assert capsys.readouterr() == ("", err)
    assert dot.exists() == (code != 1)


def test_sweep_small(tmp_path, capsys):
    report = tmp_path / "sweep.txt"
    assert main(["sweep", "--max-edges", "6", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "instances = 4" in out and "failures = 0" in out
    text = report.read_text()
    assert text.count("result=pass") == 4


def test_sweep_report_into_missing_directory(tmp_path, capsys, monkeypatch):
    # the report path is checked before the sweep runs
    def refuse(*args, **kwargs):
        raise AssertionError("swept before checking the report path")

    monkeypatch.setattr("antimagic.cli.run_sweep", refuse)
    report = tmp_path / "missing" / "sweep.txt"
    assert main(["sweep", "--max-edges", "6", "--report", str(report)]) == 1
    _one_write_error(capsys.readouterr().err, report)


def test_sweep_single_instance(capsys):
    assert main(["sweep", "--max-edges", "5"]) == 0
    assert "instances = 1" in capsys.readouterr().out


def test_sweep_rejects_tiny_budget(capsys):
    assert main(["sweep", "--max-edges", "4"]) == 1


def test_oracle_special_instance(capsys, special_spec):
    assert main(["oracle", "--spec", str(special_spec), "--strong"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("found")
    assert "m = 8" in out


@pytest.mark.parametrize("text", [SPECIAL, "core = 1\nleft = 2,1,1\nright = 3,2\n"],
                         ids=["special", "even-paths"])
def test_oracle_labeling_passes_verify(tmp_path, capsys, text):
    # the oracle's witness, mapped back to addresses, is a valid labeling file
    spec = tmp_path / "inst.txt"
    spec.write_text(text)
    assert main(["oracle", "--spec", str(spec), "--strong"]) == 0
    found, labeling = capsys.readouterr().out.split("\n", 1)
    assert found.startswith("found")
    lab = tmp_path / "oracle.lab"
    lab.write_text(labeling)
    assert main(["verify", "--spec", str(spec), "--labeling", str(lab), "--strong"]) == 0


def test_oracle_budget_exhaustion(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("core = 9\nleft = 5,5,5\nright = 4,4\n")
    assert main(["oracle", "--spec", str(big), "--strong"]) == 5


def refuse_to_materialize(c):
    raise AssertionError("materialized a billion-edge instance")


def test_oracle_checks_edge_budget_before_materializing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("antimagic.cli.materialize_tree", refuse_to_materialize)
    huge = tmp_path / "huge.txt"
    huge.write_text("core = 1000000000\nleft = 1,1\nright = 1,1\n")
    assert main(["oracle", "--spec", str(huge), "--strong"]) == 5
    assert capsys.readouterr().out == (
        "budget exhausted: instance has 1000000004 edges, over the 10-edge budget\n")


def test_oracle_node_limit_exhaustion(special_spec, capsys):
    assert main(["oracle", "--spec", str(special_spec), "--strong", "--node-limit", "1"]) == 5
    assert "exhausted" in capsys.readouterr().out


def test_oracle_zero_timeout_exhausts(tmp_path, capsys):
    spec = tmp_path / "inst.txt"
    spec.write_text("core = 2\nleft = 1,4\nright = 1,2\n")
    assert main(["oracle", "--spec", str(spec), "--strong", "--timeout-seconds", "0"]) == 5
    assert "budget exhausted" in capsys.readouterr().out


def test_sweep_with_oracle_cross_check(capsys):
    assert main(["sweep", "--max-edges", "6", "--oracle-max", "6"]) == 0
    assert "failures = 0" in capsys.readouterr().out


def test_export_dot(tmp_path, special_spec):
    lab = tmp_path / "special.lab"
    dot = tmp_path / "special.dot"
    main(["label", "--spec", str(special_spec), "--out", str(lab)])
    assert main(["export-dot", "--spec", str(special_spec), "--labeling", str(lab),
                 "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.count("--") == 8 and text.count("label=") == 8
    plain = tmp_path / "plain.dot"
    assert main(["export-dot", "--spec", str(special_spec), "--out", str(plain)]) == 0
    assert "label=" not in plain.read_text()


@pytest.mark.parametrize("m_line,error", [
    ("m = 8", "labeling says m = 8 but the instance has 1000000006 edges"),
    ("m = 1000000006", "labeling has 8 edge records but the instance has 1000000006 edges"),
], ids=["m-line", "record-count"])
@pytest.mark.parametrize("command", [["verify", "--strong"], ["export-dot", "--out", "x.dot"]],
                         ids=["verify", "export-dot"])
def test_labeling_size_checked_before_materializing(tmp_path, special_spec, capsys, monkeypatch,
                                                    m_line, error, command):
    lab = tmp_path / "special.lab"
    assert main(["label", "--spec", str(special_spec), "--out", str(lab)]) == 0
    lab.write_text(lab.read_text().replace("m = 8", m_line))
    huge = tmp_path / "huge.txt"
    huge.write_text("core = 1000000000\nleft = 3,1\nright = 1,1\n")
    # materialize_tree only derives the parameters; naming the vertices and
    # edges is the per-edge work that a rejected labeling must not start
    monkeypatch.setattr(SpiderTree, "_named", property(refuse_to_materialize))
    monkeypatch.chdir(tmp_path)
    name, *rest = command
    assert main([name, "--spec", str(huge), "--labeling", str(lab), *rest]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "x.dot").exists()


def test_export_dot_mismatch_is_malformed(tmp_path, special_spec):
    other_spec = tmp_path / "small.txt"
    other_spec.write_text("core = 1\nleft = 1,1\nright = 1,1\n")
    lab = tmp_path / "small.lab"
    main(["label", "--spec", str(other_spec), "--out", str(lab)])
    assert main(["export-dot", "--spec", str(special_spec), "--labeling", str(lab),
                 "--out", str(tmp_path / "x.dot")]) == 1


def test_label_trace_output(tmp_path, special_spec):
    trace = tmp_path / "special.trace"
    assert main(["label", "--spec", str(special_spec), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert any(ln.startswith("step=") and "edge=" in ln for ln in lines)


def test_label_byte_determinism(tmp_path, special_spec):
    a, b = tmp_path / "a.lab", tmp_path / "b.lab"
    main(["label", "--spec", str(special_spec), "--out", str(a)])
    main(["label", "--spec", str(special_spec), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_byte_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["sweep", "--max-edges", "8", "--report", str(a)])
    main(["sweep", "--max-edges", "8", "--report", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_workers_match_sequential():
    from antimagic.sweep import run_sweep
    seq = run_sweep(8)
    par = run_sweep(8, workers=2)
    assert seq.records == par.records


def test_all_unit_right_files_are_pinned(tmp_path):
    # the CI all-unit-right spec: core 5, left 3000 units and a 9, right 2000
    # units; each side's unit paths are written as one run of records
    spec = tmp_path / "unit.txt"
    spec.write_text(f"core = 5\nleft = {','.join(['1'] * 3000)},9\nright = {','.join(['1'] * 2000)}\n")
    out, dot, trace = (tmp_path / f"unit.{x}" for x in ("lab", "dot", "trace"))
    assert main(["label", "--spec", str(spec), "--out", str(out), "--dot", str(dot),
                 "--trace", str(trace)]) == 0
    digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, dot, trace)]
    assert digests == ["1b1243b4e09bc617f9dd574b3b46fd64c5236624d2accae9e7280e3ad307a4d5",
                       "bcab2dd142f3987e3552d9fd0ef682bc3d57bc0d4a81fd855d6f14f1b128bf76",
                       "97bc209e2ab1b8dc5040b79c501c6f4faec6f519637926b5073456ab7c9e89ee"]
    assert main(["verify", "--spec", str(spec), "--labeling", str(out), "--strong"]) == 0
    assert main(["export-dot", "--spec", str(spec), "--labeling", str(out), "--out", str(dot)]) == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digests[1]
