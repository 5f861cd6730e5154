"""Wrapper coverage: every binding of a traced function is wrapped, so child
spans are recorded and self time is not charged to the caller."""

from fractions import Fraction

import pytest

from perfbench import tracing

#: Bindings made by ``from .x import f`` that a wrapper on the defining
#: module alone would miss.
COPIED_BINDINGS = [
    ("rebalancing", "t_to_matrix"),
    ("rebalancing", "muirhead_decompose"),
    ("measures", "random_weight_vector"),
    ("measures", "random_majorization_pair"),
    ("preferences", "d_stochastic_witness"),
    ("cli", "compare"),
]


@pytest.fixture
def traced(program):
    originals = tracing.traced_functions(program.package)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, program.package)
    try:
        yield tracer, originals
    finally:
        undo()
    for namespace in tracing.package_namespaces(program.package):
        assert not any(hasattr(obj, "__perfbench_original__") for obj in vars(namespace).values())


def test_every_binding_is_wrapped(program, traced):
    _, originals = traced
    assert tracing.unwrapped_bindings(program.package, originals.values()) == []
    for module, name in COPIED_BINDINGS:
        assert hasattr(getattr(getattr(program, module), name), "__perfbench_original__"), (module, name)


def test_scalar_helpers_stay_bare(program, traced):
    assert not hasattr(program.simplex.as_fraction, "__perfbench_original__")
    assert not hasattr(program.fileio.parse_rational, "__perfbench_original__")


def _span(tracer, name):
    (idx,) = tracer.spans_named(name)[:1]
    return idx


def _parent_name(tracer, idx):
    return tracer.names[tracer.name[tracer.parent[idx]]]


def test_child_spans_nest_under_their_callers(program, traced):
    tracer, _ = traced
    vec = program.simplex.WeightVector
    a = vec((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    b = vec((Fraction(1, 3),) * 3)
    program.preferences.naive_prefer(a, b)
    program.rebalancing.rebalance_to(a, b)
    program.preferences.relative_naive_prefer(a, b, b)

    compares = tracer.spans_named("simplex.compare")
    assert any(_parent_name(tracer, i) == "preferences.naive_prefer" for i in compares)
    for child, parent in (
        ("matrices.muirhead_decompose", "rebalancing.rebalance_to"),
        ("matrices.t_to_matrix", "rebalancing.rebalance_to"),
        ("matrices.d_stochastic_witness", "preferences.relative_naive_prefer"),
        ("lp.solve_equality_feasibility", "matrices.d_stochastic_witness"),
    ):
        assert _parent_name(tracer, _span(tracer, child)) == parent

    own = tracer.self_times()
    top = _span(tracer, "rebalancing.rebalance_to")
    duration = tracer.end[top] - tracer.start[top]
    children = sum(
        tracer.end[i] - tracer.start[i] for i, p in enumerate(tracer.parent) if p == top
    )
    assert own[top] == pytest.approx(duration - children)
    assert 0 <= own[top] < duration


def test_sampler_spans_inside_the_axiom_harness(program, traced):
    tracer, _ = traced
    measures = program.measures
    measures.axiom_suite(measures.get_measure("hhi"), seed=1, samples=5, n=4)
    names = {_parent_name(tracer, i) for i in tracer.spans_named("simplex.random_weight_vector")}
    assert "measures.axiom_suite" in names
    agg = tracer.aggregate()
    assert agg["measures.evaluate.hhi"][1] == agg["measures.evaluate"][1] > 0
