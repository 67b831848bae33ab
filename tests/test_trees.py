"""Tree validation: every malformed vertex and edge set is rejected."""

import pytest

from antimagic.trees import Tree


@pytest.mark.parametrize("vertices,edges,message", [
    (("a", "a", "b"), (("a", "b"),), "duplicate vertex ids"),
    (("a", "b", "c"), (("a", "b"), ("b", "a")), "duplicate edges"),
    (("a", "b"), (("a", "a"),), "bad edge"),
    (("a", "b"), (("a", "z"),), "bad edge"),
    (("a", "b", "c"), (("a", "b"),), "edge count must be vertex count - 1"),
    (("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("a", "c")), "not connected"),
])
def test_tree_rejects_malformed_input(vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        Tree(vertices, edges)
