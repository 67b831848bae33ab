"""Instance files, labeling files, and DOT export."""

import hashlib

import pytest

from antimagic import (
    DoubleSpiderSpec,
    canonicalize,
    enumerate_instances,
    materialize_tree,
    strongly_antimagic_label,
)
from antimagic.fileio import (
    FormatError,
    check_labeling_matches,
    export_dot,
    format_instance,
    format_labeling,
    parse_instance,
    parse_labeling,
)
from antimagic.labelers import SPECIAL_INSTANCE
from antimagic.spiders import KIND_CORE, KIND_L_UNIT, EdgeAddress, derive_parameters, edge_addresses

SPECIAL_TEXT = "core = 2\nleft = 3,1\nright = 1,1\n"


def test_parse_instance():
    spec = parse_instance(SPECIAL_TEXT)
    assert canonicalize(spec) == SPECIAL_INSTANCE


def test_parse_instance_whitespace_and_order_insensitive():
    messy = "  right =  1 , 1 \n\ncore=2\n left = 1,  3  \n"
    assert canonicalize(parse_instance(messy)) == SPECIAL_INSTANCE


@pytest.mark.parametrize("text", [
    "core = 2\nleft = 3,1\n",
    "core = x\nleft = 3,1\nright = 1,1",
    "core = 2\nleft = 3,1\nright = 1,1\nextra = 4",
    "core = 2\ncore = 2\nleft = 3,1\nright = 1,1",
    "core = 1\nleft = 5\nright = 1,1",
])
def test_parse_instance_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_instance(text)


def test_instance_round_trip():
    c = canonicalize(DoubleSpiderSpec(3, (5, 4, 2, 1, 1), (3, 2)))
    again = canonicalize(parse_instance(format_instance(c)))
    assert again == c


def test_labeling_round_trip():
    lt = strongly_antimagic_label(SPECIAL_INSTANCE)
    text = format_labeling(lt.labeling)
    back = parse_labeling(text)
    assert back.total_edges == 8
    assert back.assignment == lt.labeling.assignment
    assert format_labeling(back) == text


def test_labeling_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_labeling("edge = core/1, label = 1\n")
    with pytest.raises(FormatError):
        parse_labeling("m = 2\nedge = core/1 label = 1\n")
    with pytest.raises(FormatError):
        parse_labeling("m = 2\nedge = core/1, label = 1\nedge = core/1, label = 2\n")
    with pytest.raises(FormatError):
        parse_labeling("m = 2\nedge = nowhere/1, label = 1\n")


def test_labeling_repeated_label_is_parseable_not_a_format_error():
    # bijection failures are the verifier's business, not the parser's
    lab = parse_labeling("m = 2\nedge = core/1, label = 1\nedge = core/2, label = 1\n")
    assert sorted(lab.assignment.values()) == [1, 1]


# the route specs of the CLI round trip, one per case route
CI_ROUTE_SPECS = [
    DoubleSpiderSpec(7, (1, 1, 1, 1, 1, 4001, 4002), (3, 4001)),
    DoubleSpiderSpec(6, (1, 1, 1, 1, 1, 4001, 4002), (4, 4000)),
    DoubleSpiderSpec(40, (1, 1, 1), (4000, 6000)),
    DoubleSpiderSpec(9, (2000, 2001), (2000, 3000)),
    DoubleSpiderSpec(3, (500, 501, 502, 503), (500, 600, 700, 800)),
    DoubleSpiderSpec(5, (1,) * 3000 + (9,), (1,) * 2000),
]


def test_reading_a_written_labeling_gives_its_labels():
    count = 0
    for spec in [*enumerate_instances(12), *CI_ROUTE_SPECS]:
        x = strongly_antimagic_label(spec).labeling
        text = format_labeling(x)
        back = parse_labeling(text, derive_parameters(canonicalize(spec)))
        assert back.labels == x.labels and back.total_edges == x.total_edges
        if x.total_edges <= 12:
            assert parse_labeling(text).assignment == x.assignment
        count += 1
    assert count == 843 + 6


def test_reading_a_written_labeling_builds_no_address(monkeypatch):
    # a record as format_labeling writes it finds its edge id by arithmetic
    def refuse(*args):
        raise AssertionError("built an edge address")

    spec = CI_ROUTE_SPECS[0]
    x = strongly_antimagic_label(spec).labeling
    text = format_labeling(x)
    p = derive_parameters(canonicalize(spec))
    monkeypatch.setattr(EdgeAddress, "__new__", refuse)
    monkeypatch.setattr("antimagic.fileio.parse_address", refuse)
    assert parse_labeling(text, p).labels == x.labels


def test_reading_against_parameters_keeps_the_error_order():
    p = derive_parameters(SPECIAL_INSTANCE)
    text = format_labeling(strongly_antimagic_label(SPECIAL_INSTANCE).labeling)
    unknown = text.replace("R/odd/2/1", "R/even/1/1")
    with pytest.raises(FormatError, match="^labeling does not match the instance: "
                                          "missing R/odd/2/1; unknown R/even/1/1$"):
        parse_labeling(unknown, p)
    with pytest.raises(FormatError, match="^labeling says m = 9 "):
        parse_labeling(unknown.replace("m = 8", "m = 9"), p)
    with pytest.raises(FormatError, match="^duplicate edge record for R/even/1/1$"):
        parse_labeling(unknown.replace("m = 8", "m = 9") + "edge = R/even/1/1, label = 9\n", p)
    # the address-keyed read checks only the grammar and duplicates
    assert EdgeAddress.r_even(1, 1) in parse_labeling(unknown.replace("m = 8", "m = 9")).assignment


def test_check_labeling_matches():
    spider = materialize_tree(SPECIAL_INSTANCE)
    lt = strongly_antimagic_label(SPECIAL_INSTANCE)
    check_labeling_matches(spider, lt.labeling)
    broken = dict(lt.labeling.assignment)
    broken.popitem()
    with pytest.raises(FormatError):
        check_labeling_matches(spider, type(lt.labeling)(8, broken))


def test_export_dot_special_instance():
    spider = materialize_tree(SPECIAL_INSTANCE)
    lt = strongly_antimagic_label(SPECIAL_INSTANCE)
    dot = export_dot(spider, lt.labeling)
    assert dot.count('";') == 9          # nine named vertices
    assert dot.count("--") == 8          # eight edges
    assert dot.count("label=") == 8
    plain = export_dot(spider)
    assert "label=" not in plain
    assert export_dot(spider, lt.labeling) == dot  # byte-stable


def test_export_dot_is_pinned():
    # one digest over the labeled DOT text of every instance with m <= 12
    digest = hashlib.sha256()
    count = 0
    for c in enumerate_instances(12):
        lt = strongly_antimagic_label(c)
        digest.update(export_dot(lt.spider, lt.labeling).encode())
        count += 1
    assert count == 843
    assert digest.hexdigest() == "82cb7a0a5eea0af11b1e0aa5c23e9ff8fc9b8c435e407d0000256132c846578b"


def test_export_dot_rejects_mismatch():
    spider = materialize_tree(SPECIAL_INSTANCE)
    other = strongly_antimagic_label(DoubleSpiderSpec(1, (1, 1), (1, 1)))
    with pytest.raises(FormatError):
        export_dot(spider, other.labeling)


def test_reader_places_records_around_the_unit_runs():
    # each record of a file moved to a neighbouring address (i or j one off):
    # the reader takes the unit records by their place in a side's run and
    # the rest by row, and must agree with the instance's address set
    for spec in (DoubleSpiderSpec(2, (1, 1, 1, 3, 4), (1, 1, 1, 3)),
                 DoubleSpiderSpec(3, (1, 1, 1, 1, 2), (1, 1, 1)),
                 DoubleSpiderSpec(1, (5, 6, 2), (1, 3))):
        lt = strongly_antimagic_label(spec)
        p, text = lt.spider.params, format_labeling(lt.labeling)
        addresses = edge_addresses(p)
        known = {a.text for a in addresses}
        for a in addresses:
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                moved = EdgeAddress(a.kind, a.i + di * (a.kind != KIND_CORE),
                                    a.j + dj * (a.kind != KIND_L_UNIT)).text
                if moved == a.text:
                    continue
                changed = text.replace(f"edge = {a.text},", f"edge = {moved},")
                with pytest.raises(FormatError) as err:
                    parse_labeling(changed, p)
                if moved in known:
                    assert str(err.value) == f"duplicate edge record for {moved}"
                else:
                    assert str(err.value) == (f"labeling does not match the instance: "
                                              f"missing {a.text}; unknown {moved}")
        assert parse_labeling(text, p).labels == lt.labeling.labels
