"""Tests of the benchmark's own tracing arithmetic and metric names.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from run import JSON_END_TO_END  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == 2.0


def test_self_times_on_nested_tree():
    # root 0..10 holds a 1..4 (which holds b 2..3) and c 5..9 with 0.5 s of
    # hidden hot-helper time; a second span named "c" sits at top level
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "b", 2.0, 3.0),
        Span(3, 0, "c", 5.0, 9.0, hidden=0.5),
        Span(4, None, "c", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.5}
    # self times of a tree add up to the top-level durations minus hidden time
    assert sum(own.values()) == 10.0 + 1.0 - 0.5


def test_patch_reaches_every_binding_and_nests():
    package = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    inner.leaf = leaf
    outer.leaf = leaf  # bound by name, as "from .inner import leaf" does
    outer.top = lambda x: outer.leaf(x) * 2
    package.leaf = leaf
    sys.modules.update({"fakepkg": package, "fakepkg.inner": inner, "fakepkg.outer": outer})
    try:
        tracer = Tracer()
        tracer.patch_function("fakepkg", inner, "leaf", "inner.leaf")
        tracer.patch_function("fakepkg", outer, "top", "outer.top")
        assert inner.leaf is outer.leaf is package.leaf is not leaf
        assert outer.top(1) == 4
        assert tracer.calls["inner.leaf"] == 0  # inactive: passes through
        tracer.active = True
        assert outer.top(1) == 4
        assert package.leaf(1) == 2
        assert tracer.calls["inner.leaf"] == 2
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner.leaf"].parent is None  # the top-level call
        assert [s.parent for s in tracer.spans if s.name == "inner.leaf"][0] == (
            by_name["outer.top"].id
        )
    finally:
        for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
            sys.modules.pop(name)


def test_hot_helpers_are_hidden_from_their_parent():
    tracer = Tracer()
    hot = tracer.wrap("hot", lambda: sum(range(1000)), hot=True)
    parent = tracer.wrap("parent", lambda: [hot() for _ in range(50)])
    tracer.active = True
    parent()
    assert tracer.calls == {"hot": 50, "parent": 1}
    (span,) = tracer.spans
    assert 0.0 < span.hidden < span.end - span.start
    own = tracer.self_by_name()
    assert abs(own["parent"] + own["hot"] - (span.end - span.start)) < 1e-9


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = set(layer_metrics(Tracer(), 1.0)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == set(JSON_END_TO_END)
