"""Property-based tests for the state machinery (turning points, profile,
size estimation)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import StateHint, StateProfile, TurningPointDetector, estimate_state_size


@given(
    sizes=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=2, max_size=60)
)
@settings(max_examples=60, deadline=None)
def test_turning_points_alternate_kinds(sizes):
    """Consecutive turning points always alternate min/max."""
    det = TurningPointDetector()
    kinds = []
    for i, s in enumerate(sizes):
        tp = det.observe(float(i), s)
        if tp:
            kinds.append(tp.kind)
    for a, b in zip(kinds, kinds[1:]):
        assert a != b


@given(
    sizes=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=2, max_size=60)
)
@settings(max_examples=60, deadline=None)
def test_turning_points_are_local_extrema(sizes):
    det = TurningPointDetector()
    series = list(enumerate(sizes))
    for i, s in series:
        tp = det.observe(float(i), s)
        if tp is None:
            continue
        idx = int(tp.time)
        left = sizes[idx - 1] if idx > 0 else None
        right = sizes[idx + 1] if idx + 1 < len(sizes) else None
        if tp.kind == "max":
            if left is not None:
                assert tp.size >= left or tp.size >= sizes[idx]
            if right is not None:
                assert tp.size >= right
        else:
            if right is not None:
                assert tp.size <= right


@given(
    series=st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=4, max_size=80),
    period=st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=50, deadline=None)
def test_profile_smax_at_least_smin(series, period):
    prof = StateProfile(checkpoint_period=period)
    for i, s in enumerate(series):
        prof.observe("h", float(i), s)
    result = prof.result()
    assert result.smax >= result.smin >= 0.0
    assert result.relaxation >= 0.0


@given(
    n=st.integers(min_value=0, max_value=200),
    element=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_size_estimate_exact_for_uniform_elements(n, element):
    class Blob:
        def __init__(self, size):
            self.nominal_size = size

    class Op:
        state_attrs = ("data",)
        state_hints = {}

        def __init__(self):
            self.data = [Blob(element) for _ in range(n)]

    assert estimate_state_size(Op()) == n * element


@given(
    n=st.integers(min_value=0, max_value=100),
    element=st.integers(min_value=1, max_value=10_000),
    hint_size=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_element_size_hint_always_wins(n, element, hint_size):
    class Blob:
        def __init__(self, size):
            self.nominal_size = size

    class Op:
        state_attrs = ("data",)

        def __init__(self):
            self.data = [Blob(element) for _ in range(n)]
            self.state_hints = {"data": StateHint(element_size=hint_size)}

    assert estimate_state_size(Op()) == n * hint_size
