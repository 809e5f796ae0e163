"""Property test: the parsers refuse any text with a DmincutError, never another exception."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dmincut import DmincutError, parse_cuts, parse_edge_distribution, parse_network  # noqa: E402

WORD = st.sampled_from(["nodes", "source", "sink", "edge", "prob", "cut", "#"])
NUMBER = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e308", "nan", "inf", "-inf", "x", "9" * 5000])
SOUP = st.lists(st.one_of(WORD, NUMBER), max_size=7).map(" ".join)


def lines_of(word):
    """Lines that start like a ``word`` directive, so some get past the arity checks."""
    shaped = st.builds(
        lambda arc, args: " ".join([word, arc, *args]),
        st.sampled_from(["1", "2"]),
        st.lists(NUMBER, min_size=1, max_size=2),
    )
    return st.lists(st.one_of(shaped, SOUP), max_size=4).map("\n".join)


HEADER = st.sampled_from([
    "",
    "nodes 2 source 1 sink 2\nedge 1 1 2 1\n",
    "nodes 3 source 1 sink 3\nedge 1 1 2 1\nedge 2 2 3 1\n",
])
NETWORK_TEXT = st.builds(str.__add__, HEADER, lines_of("prob"))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(NETWORK_TEXT, lines_of("cut"))
def test_parsers_raise_only_dmincut_errors(network_text, cut_text):
    try:
        net = parse_network(network_text)
    except DmincutError:
        return
    try:
        dist = parse_edge_distribution(network_text, net)
    except DmincutError:
        dist = None
    if dist is not None:
        assert all(math.isfinite(p) and p >= 0.0 for pmf in dist.pmfs for p in pmf)
    try:
        parse_cuts(cut_text, net)
    except DmincutError:
        pass
