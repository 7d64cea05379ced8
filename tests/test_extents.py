"""Property test of the incremental extent map against a byte-set model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extents import ExtentMap

#: (op, start, length) steps over a small span, so ranges overlap often.
steps = st.lists(
    st.tuples(st.sampled_from("+-?"), st.integers(0, 60), st.integers(0, 20)),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(steps=steps)
def test_extent_map_matches_byte_set(steps):
    m = ExtentMap()
    held: set[int] = set()
    for op, start, length in steps:
        end = start + length
        span = set(range(start, end))
        if op == "+" and length:
            s, e, added = m.add(start, end)
            assert added == len(span - held)
            held |= span
            assert s <= start and end <= e and set(range(s, e)) <= held
        elif op == "-":
            assert m.subtract(start, end) == len(span & held)
            held -= span
        elif op == "?":
            assert m.covers(start, end) == (span <= held)
        # Sorted, disjoint, non-adjacent, non-empty, and exactly the held bytes.
        assert all(a < b for a, b in m)
        assert all(b < a2 for (_, b), (a2, _) in zip(m, m[1:]))
        assert {x for a, b in m for x in range(a, b)} == held
