"""Unit tests for pattern (configuration) enumeration (Definition 3)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Instance
from repro.core.errors import SolverLimitError
from repro.eptas import (
    classify_bags,
    classify_jobs,
    collect_entry_types,
    enumerate_patterns,
)
from repro.eptas.classification import SIZE_TOL
from repro.eptas.patterns import WILDCARD_BAG, Pattern, PatternEntry, PatternSet


def _entry(size: float, bag: int) -> PatternEntry:
    return PatternEntry(size=size, bag=bag)


class TestEnumeration:
    def test_empty_pattern_always_present(self):
        patterns = enumerate_patterns([], budget=1.0, max_slots=3)
        assert len(patterns) == 1
        assert patterns.patterns[0].entries == ()
        assert patterns.patterns[0].height == 0.0

    def test_budget_respected(self):
        entries = [(_entry(0.6, 0), 3), (_entry(0.5, 1), 3)]
        patterns = enumerate_patterns(entries, budget=1.0, max_slots=5)
        for pattern in patterns.patterns:
            assert pattern.height <= 1.0 + 1e-9
        # 0.6 + 0.5 > 1.0, so no pattern holds both
        assert not any(
            pattern.uses_bag(0) and pattern.uses_bag(1) for pattern in patterns.patterns
        )

    def test_at_most_one_slot_per_priority_bag(self):
        entries = [(_entry(0.3, 0), 5), (_entry(0.2, 0), 5), (_entry(0.25, 1), 5)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=6)
        for pattern in patterns.patterns:
            slots_bag0 = sum(
                count
                for entry, count in pattern.entries
                if entry.bag == 0
            )
            assert slots_bag0 <= 1

    def test_wildcard_multiplicity_up_to_availability(self):
        entries = [(_entry(0.3, WILDCARD_BAG), 2)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=10)
        max_count = max(
            (pattern.count_of(_entry(0.3, WILDCARD_BAG)) for pattern in patterns.patterns),
            default=0,
        )
        assert max_count == 2  # bounded by availability, not by the budget

    def test_wildcard_bounded_by_max_slots(self):
        entries = [(_entry(0.1, WILDCARD_BAG), 50)]
        patterns = enumerate_patterns(entries, budget=10.0, max_slots=4)
        for pattern in patterns.patterns:
            assert pattern.num_slots <= 4

    def test_max_patterns_limit(self):
        entries = [(_entry(0.05, bag), 1) for bag in range(20)]
        with pytest.raises(SolverLimitError):
            enumerate_patterns(entries, budget=5.0, max_slots=20, max_patterns=100)

    def test_pattern_helpers(self):
        entries = [(_entry(0.5, 3), 1), (_entry(0.4, WILDCARD_BAG), 2)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=4)
        full = max(patterns.patterns, key=lambda p: p.num_slots)
        assert full.uses_bag(3)
        assert not full.uses_bag(99)
        assert full.wildcard_slots() == {0.4: 2}
        assert full.priority_slots() == {(3, 0.5): 1}
        assert "B^0.5_3" in full.label()
        summary = patterns.summary()
        assert summary["num_patterns"] == len(patterns)


def reference_enumerate_patterns(
    entry_types, *, budget, max_slots, max_patterns=50_000
):
    """Reference DFS: rebuilds each pattern's entries by scanning all counts.

    Kept as the specification :func:`enumerate_patterns` must match pattern
    for pattern, including order, float heights and the cap's error.
    """
    entries = list(entry_types)
    patterns = []
    current_counts = [0] * len(entries)

    def emit(height, slots):
        if len(patterns) >= max_patterns:
            raise SolverLimitError(
                f"pattern enumeration exceeded max_patterns={max_patterns}; "
                "increase the limit or use a larger eps"
            )
        chosen = tuple(
            (entries[index][0], count)
            for index, count in enumerate(current_counts)
            if count > 0
        )
        patterns.append(Pattern(entries=chosen, height=height, num_slots=slots))

    def recurse(start, height, slots, used_bags):
        emit(height, slots)
        for index in range(start, len(entries)):
            entry, available = entries[index]
            if available <= 0:
                continue
            if not entry.is_wildcard and entry.bag in used_bags:
                continue
            if slots >= max_slots:
                continue
            if height + entry.size > budget + SIZE_TOL:
                continue
            if entry.is_wildcard:
                limit = min(available, max_slots - slots)
                taken = 0
                added_height = 0.0
                while taken < limit and height + added_height + entry.size <= budget + SIZE_TOL:
                    taken += 1
                    added_height += entry.size
                    current_counts[index] = taken
                    recurse(index + 1, height + added_height, slots + taken, used_bags)
                current_counts[index] = 0
            else:
                current_counts[index] = 1
                recurse(index + 1, height + entry.size, slots + 1, used_bags | {entry.bag})
                current_counts[index] = 0

    recurse(0, 0.0, 0, frozenset())
    return PatternSet(
        patterns=tuple(patterns),
        entry_types=tuple(entries),
        budget=budget,
        max_slots=max_slots,
    )


def _outcome(enumerate_fn, entries, **kwargs):
    """The pattern set as (entries, exact height, slots) rows, or the cap error."""
    try:
        result = enumerate_fn(entries, **kwargs)
    except SolverLimitError as exc:
        return ("limit", str(exc))
    rows = tuple(
        (pattern.entries, pattern.height.hex(), pattern.num_slots)
        for pattern in result.patterns
    )
    return (rows, result.entry_types, result.budget, result.max_slots)


# Sizes that collide in floating point (0.1 + 0.2 != 0.3) and sit on the
# budget boundary, so height accumulation order matters.
_sizes = st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.5, 0.6, 1.0]) | st.floats(
    min_value=0.01, max_value=1.2, allow_nan=False
)
_entry_types = st.lists(
    st.tuples(
        st.builds(
            PatternEntry,
            size=_sizes,
            bag=st.sampled_from([WILDCARD_BAG, 0, 1, 2, 3]),
        ),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=7,
)


class TestReferenceEquivalence:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        entries=_entry_types,
        budget=st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.5625, 2.0])
        | st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
        max_slots=st.integers(min_value=0, max_value=8),
        max_patterns=st.integers(min_value=1, max_value=400),
    )
    def test_same_patterns_or_same_limit_error(
        self, entries, budget, max_slots, max_patterns
    ):
        kwargs = dict(budget=budget, max_slots=max_slots, max_patterns=max_patterns)
        assert _outcome(enumerate_patterns, entries, **kwargs) == _outcome(
            reference_enumerate_patterns, entries, **kwargs
        )

    def test_collected_entry_types(self):
        instance = Instance.from_sizes(
            [0.3, 0.21, 0.21, 0.17, 0.13, 0.13, 0.11, 0.09, 0.05, 0.3, 0.25],
            bags=[0, 1, 2, 3, 4, 5, 6, 0, 1, 7, 8],
            num_machines=4,
        )
        job_classes = classify_jobs(instance, 0.25, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=4)
        entries = collect_entry_types(instance, job_classes, bag_classes)
        kwargs = dict(budget=1.5625, max_slots=40)
        new = _outcome(enumerate_patterns, entries, **kwargs)
        assert new == _outcome(reference_enumerate_patterns, entries, **kwargs)
        assert len(new[0]) > 1

    def test_cap_boundary(self):
        entries = [
            (_entry(0.3, 0), 1),
            (_entry(0.3, 1), 2),
            (_entry(0.2, WILDCARD_BAG), 3),
            (_entry(0.1, 2), 1),
        ]
        exact = len(enumerate_patterns(entries, budget=1.0, max_slots=5))
        assert exact == len(
            reference_enumerate_patterns(entries, budget=1.0, max_slots=5)
        )
        at_cap = enumerate_patterns(
            entries, budget=1.0, max_slots=5, max_patterns=exact
        )
        assert len(at_cap) == exact
        with pytest.raises(SolverLimitError) as caught:
            enumerate_patterns(entries, budget=1.0, max_slots=5, max_patterns=exact - 1)
        assert str(caught.value) == (
            f"pattern enumeration exceeded max_patterns={exact - 1}; "
            "increase the limit or use a larger eps"
        )


class TestCollectEntryTypes:
    def test_priority_and_wildcard_split(self):
        # bag 0 priority with one large job, bags 1..3 non-priority with large jobs
        sizes = [0.5, 0.5, 0.5, 0.5, 0.02]
        bags = [0, 1, 2, 3, 0]
        instance = Instance.from_sizes(sizes, bags, num_machines=4)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        entry_types = collect_entry_types(instance, job_classes, bag_classes)
        wildcard = [(e, c) for e, c in entry_types if e.is_wildcard]
        priority = [(e, c) for e, c in entry_types if not e.is_wildcard]
        assert len(priority) == 1
        assert priority[0][1] == 1
        assert len(wildcard) == 1
        assert wildcard[0][1] == 3  # three non-priority large jobs of size 0.5

    def test_small_jobs_ignored(self):
        instance = Instance.from_sizes([0.5, 0.01, 0.02], bags=[0, 0, 1], num_machines=2)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=2)
        entry_types = collect_entry_types(instance, job_classes, bag_classes)
        assert all(entry.size >= 0.25 for entry, _ in entry_types)

    def test_entries_sorted_large_first(self):
        instance = Instance.from_sizes(
            [0.3, 0.6, 0.9], bags=[0, 1, 2], num_machines=3
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=5)
        entry_types = collect_entry_types(instance, job_classes, bag_classes)
        sizes = [entry.size for entry, _ in entry_types]
        assert sizes == sorted(sizes, reverse=True)
