import itertools
import random

import pytest

from dmincut import (
    StateSpaceLimitError,
    ValidationError,
    count_candidates,
    count_compositions,
    enumerate_candidates,
)
from dmincut import candidates
from dmincut.candidates import composition_table, compositions

from helpers import count_by_inclusion_exclusion


def brute_count(caps, total):
    return sum(
        1 for xs in itertools.product(*(range(c + 1) for c in caps)) if sum(xs) == total
    )


def test_fig1_demand7_contains_the_benchmark_candidate(fig1):
    cut = (1, 3, 4, 6)
    vectors = list(enumerate_candidates(fig1, cut, 7))
    assert (0, 2, 3, 1, 3, 3) in vectors
    assert len(vectors) == count_candidates(fig1, cut, 7) == 23


def test_candidate_invariants(fig1):
    cut = (1, 3, 4, 6)
    off_cut = [i for i in range(6) if i + 1 not in cut]
    seen = set()
    previous = None
    for cand in enumerate_candidates(fig1, cut, 7):
        on_cut = tuple(cand[a - 1] for a in cut)
        assert sum(on_cut) == 7
        for a in cut:
            assert 0 <= cand[a - 1] <= fig1.max_capacities[a - 1]
        for i in off_cut:
            assert cand[i] == fig1.max_capacities[i]
        assert cand not in seen
        seen.add(cand)
        if previous is not None:
            assert previous < on_cut  # ascending lexicographic on-cut order
        previous = on_cut


def test_demand_zero_yields_exactly_one_candidate(fig1):
    for cut in [(1, 2, 3), (1, 3, 4, 6)]:
        vectors = list(enumerate_candidates(fig1, cut, 0))
        assert len(vectors) == 1
        assert all(vectors[0][a - 1] == 0 for a in cut)


def test_full_demand_yields_saturated_candidate(fig1):
    cut = (1, 3, 4, 6)
    vectors = list(enumerate_candidates(fig1, cut, 4 + 3 + 1 + 3))
    assert vectors == [(4, 2, 3, 1, 3, 3)]


def test_overfull_demand_yields_empty_stream(fig1):
    assert list(enumerate_candidates(fig1, (1, 3, 4, 6), 12)) == []
    assert count_candidates(fig1, (1, 3, 4, 6), 12) == 0


def test_negative_demand_rejected(fig1):
    with pytest.raises(ValueError):
        list(enumerate_candidates(fig1, (1, 2, 3), -1))
    with pytest.raises(ValueError):
        count_candidates(fig1, (1, 2, 3), -1)


def test_count_candidates_refuses_a_repeated_arc_id(fig1):
    # Counting arc 3 twice would give 19 candidates where the cut {1, 2, 3} has 9.
    with pytest.raises(ValidationError, match=r"^\(1, 2, 3, 3\) has a repeated arc id$"):
        count_candidates(fig1, (1, 2, 3, 3), 3)


def test_enumerate_candidates_refuses_a_repeated_arc_id(fig1):
    with pytest.raises(ValidationError, match=r"^\(1, 2, 3, 3\) has a repeated arc id$"):
        list(enumerate_candidates(fig1, (1, 2, 3, 3), 3))


def test_count_compositions_basics():
    assert count_compositions((4, 3, 1, 3), 7) == brute_count((4, 3, 1, 3), 7) == 23
    assert count_compositions((1, 1), 3) == 0
    assert count_compositions((), 0) == 1
    assert count_compositions((), 1) == 0
    assert count_compositions((5,), 5) == 1
    for caps in [(0,), (0, 0), (2, 0, 2)]:
        for d in range(sum(caps) + 2):
            assert count_compositions(caps, d) == brute_count(caps, d)


def test_stream_length_equals_count_on_random_profiles():
    rng = random.Random(301)
    for _ in range(150):
        k = rng.randint(1, 5)
        caps = tuple(rng.randint(0, 5) for _ in range(k))
        by_sum = {}
        for xs in itertools.product(*(range(c + 1) for c in caps)):  # lexicographic order
            by_sum.setdefault(sum(xs), []).append(xs)
        for total in range(sum(caps) + 2):
            streamed = list(compositions(caps, total))
            assert streamed == by_sum.get(total, [])
            assert count_compositions(caps, total) == count_by_inclusion_exclusion(caps, total) == len(streamed)


def test_compositions_walk_a_cut_wider_than_the_recursion_limit():
    caps = (1,) * 1500
    ones = [v.index(1) for v in compositions(caps, 1)]
    assert ones == list(range(1499, -1, -1))
    zeros = [v.index(0) for v in compositions(caps, 1499)]
    assert zeros == list(range(1500))
    assert list(compositions(caps, 1500)) == [caps]


def test_count_matches_inclusion_exclusion_on_wide_cuts():
    # Up to 17 arcs, the widest cut of the 5x5 grid; too many vectors to stream.
    rng = random.Random(303)
    for _ in range(60):
        k = rng.randint(1, 17)
        caps = tuple(rng.randint(0, 3) for _ in range(k))
        for total in [0, 1, 2, 3, rng.randint(0, sum(caps) + 1), sum(caps)]:
            assert count_compositions(caps, total) == count_by_inclusion_exclusion(caps, total)


def test_count_table_stays_short_for_huge_capacities():
    # Clipping and the complement keep the table as short as the count.
    assert count_compositions((10**12, 1, 1), 5 * 10**11) == 4
    assert count_compositions((10**12, 3), 10**12 + 2) == 2
    assert count_compositions((10**12, 10**12), 3 * 10**12) == 0


def test_counting_guard_charges_the_table(fig1, monkeypatch):
    # The table has k·min(total, spare) cells, with each cap clipped to the total.
    monkeypatch.setattr(candidates, "COMPOSITION_WORK_GUARD", 10)
    assert count_compositions((10, 10), 5) == 6  # 2 x min(5, 5) = 10 cells
    assert count_compositions((10**12, 1, 1), 5 * 10**11) == 4  # 3 x min(5·10^11, 2)
    with pytest.raises(StateSpaceLimitError, match="COMPOSITION_WORK_GUARD=10"):
        count_compositions((10, 10), 6)  # 2 x 6 cells
    # Streams and counts of a cut refuse alike, before the first candidate.
    monkeypatch.setattr(candidates, "COMPOSITION_WORK_GUARD", 3)
    with pytest.raises(StateSpaceLimitError):
        count_candidates(fig1, (1, 3, 4, 6), 7)
    stream = enumerate_candidates(fig1, (1, 3, 4, 6), 7)
    with pytest.raises(StateSpaceLimitError):
        next(stream)


def test_counts_partition_the_box():
    # Summing counts over all demands must recover the box size exactly.
    rng = random.Random(302)
    for _ in range(40):
        k = rng.randint(1, 4)
        caps = tuple(rng.randint(0, 6) for _ in range(k))
        box = 1
        for c in caps:
            box *= c + 1
        assert sum(count_compositions(caps, d) for d in range(sum(caps) + 1)) == box


def test_streams_are_independent(fig1):
    # Two concurrently consumed streams over the same cut do not interfere.
    a = enumerate_candidates(fig1, (1, 3, 4, 6), 7)
    b = enumerate_candidates(fig1, (1, 3, 4, 6), 7)
    first_a = next(a)
    all_b = list(b)
    assert [first_a, next(a)] == all_b[:2]


def test_search_table_counts_every_rest_the_search_can_visit():
    # Caps far above the total, spare far below it, and small random profiles.
    cases = [
        ((10**12, 5), 10**6),
        ((10**12, 10**12), 2 * 10**12 - 1),
        ((10**6, 10**6, 10**6), 3 * 10**6 - 2),
        ((10**12, 1, 1), 5 * 10**11),
        ((), 0),
        ((), 1),
        ((2, 2), 5),
    ]
    rng = random.Random(304)
    for _ in range(300):
        caps = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 6)))
        cases.append((caps, rng.randint(0, sum(caps) + 1)))
    for caps, total in cases:
        rows = composition_table(caps, total)
        clipped = [min(cap, total) for cap in caps]
        spare = sum(clipped) - total
        if spare < 0:
            assert rows == []
            continue
        assert len(rows) == len(caps) + 1
        for j, (low, prefix) in enumerate(rows):
            high = min(total, sum(clipped[j:]))
            assert low == max(0, total - sum(clipped[:j]))
            assert prefix[0] == 0 and len(prefix) - 1 == high - low + 1 <= min(total, spare) + 1
            counts = [b - a for a, b in zip(prefix, prefix[1:])]
            assert counts == [count_by_inclusion_exclusion(caps[j:], r) for r in range(low, high + 1)]
        if len(caps) <= 6 and total <= 20:
            # Every prefix of a candidate leaves a rest inside its depth's row.
            for xs in compositions(caps, total):
                for j, (low, prefix) in enumerate(rows):
                    assert low <= total - sum(xs[:j]) <= low + len(prefix) - 2, (caps, total, xs, j)
