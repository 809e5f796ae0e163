"""Property test: the disjoint-box union equals the state sweep on any vector list."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dmincut import Arc, EdgeDistribution, Network, reliability_from_dmcs  # noqa: E402

from helpers import union_by_box_sweep  # noqa: E402


@st.composite
def boxes_with_vectors(draw):
    caps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    net = Network(
        node_count=2,
        arcs=tuple(Arc(index=i + 1, tail=1, head=2, max_capacity=w) for i, w in enumerate(caps)),
        source=1,
        sink=2,
    )
    pmfs = []
    for w in caps:
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=w + 1, max_size=w + 1))
        total = sum(weights)
        pmfs.append(tuple(x / total for x in weights))
    vector = st.tuples(*(st.integers(0, w) for w in caps))
    vectors = draw(st.lists(vector, min_size=1, max_size=12))
    return net, EdgeDistribution(tuple(pmfs)), vectors


@settings(derandomize=True, max_examples=300, deadline=None)
@given(boxes_with_vectors())
def test_union_equals_box_sweep(case):
    net, dist, vectors = case
    assert abs(reliability_from_dmcs(net, vectors, dist) - union_by_box_sweep(net, vectors, dist)) <= 1e-12
