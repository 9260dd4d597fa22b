"""Plan-equivalence differential harness for the cost-based optimizer.

The optimizer (``repro.planner.optimizer``) may reorder joins, hoist guards
and anti-joins, and install extra indexes — but it must never change *what*
a rule derives, only the order work happens in.  The oracle is the
naive plan (nodes built under ``naive_plans()``, ``tests/support/oracles.py``)
run by the reference run loop (``tests/support/reference.py``, which fires
the interpreted element walk): every other point of the
{optimized, naive} × {procedure, reference} grid must produce

* the same routed-head **multiset** and the same tables per firing of a
  trigger's procedure (derivation order may legitimately differ under a
  different join order), and
* the same fixpoint table states and derived-stream multisets after a
  node-level event drive.

Programs come from the shared seeded generator
(``tests.support.genprograms``) — whose randomized shapes are built so no
firing can raise from one plan order but not another — plus the fixed rule
shapes and all four bundled overlays.  The slow acceptance sweep re-runs
the full chord static and churn experiments optimized vs. under
``naive_plans()``; chord's cost ties all resolve to body order and its
reordered strands probe singleton tables, so those runs are required to be
bit-identical — and the naive side must have run the naive plans of a
program the optimizer does reorder.
"""

import random
from collections import Counter
from contextlib import nullcontext
from functools import partial

import pytest

from repro.core import Tuple
from repro.overlog import parse_program
from repro.planner import Planner, optimize_program, plan_program, plan_strand
from repro.planner.optimizer import DEFAULT_CARDINALITY

from tests.support.genprograms import (
    GENERATED_PROGRAMS,
    SHAPES,
    generate_program,
    make_node,
    populate_tables,
    random_value,
)
from tests.support.oracles import naive_plans
from tests.support.procedures import fire, procedure_bind
from tests.support.reference import node_bind, reference_bind
from tests.test_strand_fusion import OVERLAY_PROGRAMS

#: every non-oracle point of the optimized × {procedure, reference} grid
#: (``False``: built under ``naive_plans()``)
GRID = [(True, "procedure"), (True, "reference"), (False, "procedure")]
ORACLE = (False, "reference")


def make_grid(program, seed=0):
    """One node per grid point; index 0 is the naive reference oracle.
    A reference point's node runs the reference run loop."""
    nodes = []
    for optimized, executor in [ORACLE] + GRID:
        with nullcontext() if optimized else naive_plans():
            node = make_node(program, seed=seed)
        if executor == "reference":
            node._bind = partial(node_bind, node)
        nodes.append(node)
    return nodes


def bind_of(node):
    """How *node* binds a trigger: the reference ``make_grid`` installed, or
    its procedures."""
    return reference_bind if "_bind" in vars(node) else procedure_bind


def triggers(node):
    """Every trigger *node* fires strands on, with the event arity they need."""
    compiled = node.compiled
    out = [(name, max(s.min_event_arity for s in compiled.strands_by_event[name]))
           for name in sorted(compiled.strands_by_event)]
    out += [(("periodic", i), spec.strand.min_event_arity)
            for i, spec in enumerate(compiled.periodics)]
    return out


def route_key(route):
    destination, head = route
    return (repr(destination), head.name, repr(head.fields))


def fire_multiset_differentially(nodes, rng, events_per_trigger=25):
    """Fire every trigger's procedure on every grid node; compare the routed
    head multisets, the errors and the tables (deletes land there).  Every
    other pair of trials hands a relation's event over as a head derived on
    the node is, bare fields, and the rest as a tuple that exists."""
    addr = nodes[0].address
    per_node = [triggers(node) for node in nodes]
    assert all(lst == per_node[0] for lst in per_node)
    for trigger, arity in per_node[0]:
        name = trigger if type(trigger) is str else "periodic"
        for trial in range(events_per_trigger):
            # exact event arity only: an over-wide event shifts the join
            # schema, and what *garbage* it derives is plan-dependent — the
            # fusion suite (identical plans) covers that path instead
            fields = [addr if trial % 2 else random_value(rng, addr)] + [
                random_value(rng, addr) for _ in range(max(arity - 1, 0))
            ]
            event = Tuple(name, fields or [addr])
            outcomes = []
            for node in nodes:
                routes, error = fire(node, trigger, event, bind_of(node), derived=trial % 4 > 1)
                tables = {t.name: sorted(map(repr, t)) for t in node.tables}
                outcomes.append((sorted(map(route_key, routes)), error, tables))
            for other in outcomes[1:]:
                assert other == outcomes[0], (trigger, event)


def drive_node_differentially(nodes, rng, events_per_stream=10):
    """Inject identical event streams into every node; compare fixpoints."""
    addr = nodes[0].address
    derived = [Counter() for _ in nodes]
    event_names = sorted(nodes[0].compiled.strands_by_event)
    table_names = sorted(nodes[0].compiled.program.materialized_names())
    for index, node in enumerate(nodes):
        for name in set(
            [rule.head.name for rule in node.compiled.program.rules]
        ) - set(table_names):
            node.subscribe(
                name,
                lambda tup, counter=derived[index]: counter.update(
                    [(tup.name, repr(tup.fields))]
                ),
            )
        node.alive = True
    for name in event_names:
        arities = {
            s.min_event_arity for s in nodes[0].compiled.strands_by_event[name]
        }
        arity = max(arities)
        for _ in range(events_per_stream):
            fields = [addr] + [
                random_value(rng, addr) for _ in range(max(arity - 1, 0))
            ]
            event = Tuple(name, fields)
            for node in nodes:
                node.route(event)
    oracle_tables = {
        name: sorted(repr(t) for t in nodes[0].scan(name)) for name in table_names
    }
    for node in nodes[1:]:
        for name in table_names:
            assert (
                sorted(repr(t) for t in node.scan(name)) == oracle_tables[name]
            ), name
    for counter in derived[1:]:
        assert counter == derived[0]


# ---------------------------------------------------------------------------
# The differential grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENERATED_PROGRAMS))
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_shapes_grid_vs_oracle(name, seed):
    rng = random.Random(seed * 1000 + 31)
    nodes = make_grid(GENERATED_PROGRAMS[name], seed=seed)
    fire_multiset_differentially(nodes, random.Random(seed), events_per_trigger=5)
    populate_tables(nodes, rng, rows_per_table=8)
    fire_multiset_differentially(nodes, rng)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_shapes_grid_vs_oracle(shape, seed):
    source = generate_program(shape, seed)
    rng = random.Random(seed * 677 + 11)
    nodes = make_grid(source, seed=seed)
    fire_multiset_differentially(nodes, random.Random(seed), events_per_trigger=5)
    populate_tables(nodes, rng, rows_per_table=8)
    fire_multiset_differentially(nodes, rng, events_per_trigger=40)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_shapes_node_fixpoint(shape, seed):
    source = generate_program(shape, seed)
    rng = random.Random(seed * 313 + 7)
    nodes = make_grid(source, seed=seed)
    populate_tables(nodes, rng, rows_per_table=6)
    drive_node_differentially(nodes, rng)


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_strands_grid_vs_oracle(name):
    rng = random.Random(len(name) * 97 + 3)
    nodes = make_grid(OVERLAY_PROGRAMS[name], seed=13)
    fire_multiset_differentially(nodes, random.Random(2), events_per_trigger=4)
    populate_tables(nodes, rng)
    fire_multiset_differentially(nodes, rng, events_per_trigger=12)


# ---------------------------------------------------------------------------
# Optimizer unit behavior
# ---------------------------------------------------------------------------

WIDE_VS_LINK = """
    materialize(wide, infinity, 512, keys(2, 3)).
    materialize(link, infinity, 16, keys(2, 3)).
    J1 out@NI(NI, A, B, C) :- trig@NI(NI, A), wide@NI(NI, B, C), link@NI(NI, A, B).
"""


def test_join_order_prefers_bound_small_table():
    """The naive walk picks `wide` (first body join sharing NI); the cost
    model must pick `link`, whose probe binds two of three fields."""
    program = parse_program(WIDE_VS_LINK)
    plan = optimize_program(program)
    rule_plan = plan.rules[0]
    assert rule_plan.reordered
    join_names = [t.term.name for t in rule_plan.terms if t.kind == "join"]
    assert join_names == ["link", "wide"]


def test_optimizer_is_stable_on_ties():
    """Equal-cost joins keep rule-body order, so undiscriminated plans are
    byte-identical to the naive planner's."""
    source = """
        materialize(a, infinity, infinity, keys(2)).
        materialize(b, infinity, infinity, keys(2)).
        R1 out@NI(NI, X, Y) :- evt@NI(NI), a@NI(NI, X), b@NI(NI, Y).
    """
    program = parse_program(source)
    rule_plan = optimize_program(program).rules[0]
    assert not rule_plan.reordered
    assert [t.term.name for t in rule_plan.terms] == ["a", "b"]


def test_guard_hoisting_recorded():
    source = """
        materialize(t, infinity, infinity, keys(2)).
        R1 out@NI(NI, X, Y) :- evt@NI(NI, X), t@NI(NI, Y), X != 7.
    """
    rule_plan = optimize_program(parse_program(source)).rules[0]
    assert [t.kind for t in rule_plan.terms] == ["select", "join"]
    assert rule_plan.terms[0].hoisted


def test_antijoin_waits_for_first_positive_join():
    """Anti-joins hoist between joins but never ahead of the first positive
    join (the count<*> fallback snapshots the batch there)."""
    source = """
        materialize(t1, infinity, 4, keys(2, 3)).
        materialize(t2, infinity, 512, keys(2)).
        materialize(seen, infinity, infinity, keys(2)).
        R1 out@NI(NI, X, Y, Z) :- evt@NI(NI, X), not seen@NI(NI, X),
           t1@NI(NI, X, Y), t2@NI(NI, Z).
    """
    rule_plan = optimize_program(parse_program(source)).rules[0]
    kinds = [t.kind for t in rule_plan.terms]
    assert kinds == ["join", "antijoin", "join"]
    assert [t.term.name for t in rule_plan.terms] == ["t1", "seen", "t2"]
    # this antijoin was *deferred* (body had it before any join), not hoisted
    assert not rule_plan.terms[1].hoisted


def test_antijoin_hoists_between_joins():
    """A trailing antijoin whose variables bind early filters ahead of the
    remaining positive joins."""
    source = """
        materialize(t1, infinity, 4, keys(2, 3)).
        materialize(t2, infinity, 512, keys(2)).
        materialize(seen, infinity, infinity, keys(2)).
        R1 out@NI(NI, X, Y, Z) :- evt@NI(NI, X), t1@NI(NI, X, Y),
           t2@NI(NI, Z), not seen@NI(NI, X).
    """
    rule_plan = optimize_program(parse_program(source)).rules[0]
    assert [t.term.name for t in rule_plan.terms] == ["t1", "seen", "t2"]
    assert rule_plan.terms[1].kind == "antijoin"
    assert rule_plan.terms[1].hoisted


def test_index_plan_covers_chosen_probes():
    program = parse_program(WIDE_VS_LINK)
    plan = optimize_program(program)
    # link probed on (NI, A) = positions (0, 1); wide probed on (NI, B)
    # after link binds B — both off the (2,3)-keyed tables' primary keys
    assert (0, 1) in plan.indexes["link"]
    assert (0, 1) in plan.indexes["wide"]


def test_planner_installs_plan_indexes():
    node = make_node(WIDE_VS_LINK)
    assert (0, 1) in node.tables.get("link").indexed_positions()
    assert (0, 1) in node.tables.get("wide").indexed_positions()


def test_join_order_work_counts_on_wide_vs_link():
    """What reordering buys, as exact work: with 512 `wide` rows and 8 `link`
    rows one firing derives the same 8 heads from 9 table probes (1 on
    `link`, then 1 on `wide` per surviving row) instead of the naive 513
    (1 on `wide`, then 1 on `link` per wide row)."""
    probes = {}
    for optimize in (True, False):
        with nullcontext() if optimize else naive_plans():
            node = make_node(WIDE_VS_LINK)
        for i in range(512):
            node.tables.get("wide").insert(Tuple.make("wide", "n1", i, i * 2), 0.0)
        for i in range(8):
            node.tables.get("link").insert(Tuple.make("link", "n1", 7, i), 0.0)
        (strand,) = node.compiled.strands_by_event["trig"]
        assert len(strand.fire(Tuple.make("trig", "n1", 7))) == 8
        probes[optimize] = sum(t.stats.lookups for t in node.tables)
    assert probes == {True: 9, False: 513}


def test_program_plan_is_cached_on_program():
    program = parse_program(WIDE_VS_LINK)
    assert optimize_program(program) is optimize_program(program)


def test_default_cardinality_used_without_hints():
    source = """
        materialize(t, infinity, infinity, keys(2)).
        R1 out@NI(NI, X) :- evt@NI(NI), t@NI(NI, X).
    """
    rule_plan = optimize_program(parse_program(source)).rules[0]
    choice = rule_plan.terms[0].choice
    assert choice.size_hint == DEFAULT_CARDINALITY
    assert not choice.covers_key


def test_plan_strand_naive_matches_historic_order():
    """optimize=False replays the historical walk: body-order joins first
    sharing a bound variable, negated predicates last."""
    program = parse_program(WIDE_VS_LINK)
    rule = program.rules[0]
    event = rule.body[0]
    naive = plan_strand(rule, event, {}, optimize=False)
    assert [t.term.name for t in naive.terms if t.kind == "join"] == ["wide", "link"]


def test_explain_renders_stable_text():
    text = Planner.explain(WIDE_VS_LINK)
    assert "rule J1 on trig (reordered):" in text
    assert "join link probe(0,1)" in text
    assert "indexes:" in text
    assert text == Planner.explain(WIDE_VS_LINK)  # deterministic


def test_explain_naive_mode_shows_body_order():
    with naive_plans():
        text = Planner.explain(WIDE_VS_LINK)
    assert "(reordered)" not in text
    assert text.index("join wide") < text.index("join link")


def test_escape_hatch_flags():
    """The naive plans are the test seam's, not a node's mode: a node built
    under ``naive_plans()`` instantiates ``plan_program(program,
    optimize=False)``, the one recorded, and one built after it the
    optimizer's plan again."""
    with naive_plans() as installed:
        naive = make_node(WIDE_VS_LINK)
    opt = make_node(WIDE_VS_LINK)
    program = parse_program(WIDE_VS_LINK)
    assert [planned.plan.render() for planned in installed] == [
        plan_program(program, optimize=False).plan.render()
    ]
    assert "(reordered)" not in installed[0].plan.render()
    assert naive.compiled.procedure == installed[0].procedure
    assert opt.compiled.procedure == plan_program(opt.compiled.program).procedure
    assert opt.compiled.procedure != naive.compiled.procedure
    assert not hasattr(opt, "optimize") and not hasattr(opt.compiled, "optimized")


def assert_naive_plans_ran(installed):
    """The naive side of a full run ran the naive plans of a program whose
    optimized plan reorders at least one rule, so the comparison is not
    vacuous."""
    assert installed
    for planned in installed:
        program = planned.dataflow.program
        assert planned is plan_program(program, optimize=False)
        assert any(rule.reordered for rule in plan_program(program).plan.rules)


# ---------------------------------------------------------------------------
# Acceptance: full chord runs, optimized vs. naive
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_chord_static_bit_identical_optimized_vs_naive():
    from repro.experiments import run_static_experiment

    kwargs = dict(
        seed=3,
        stabilization_time=120.0,
        idle_measurement_time=30.0,
        lookup_count=30,
        lookup_rate=3.0,
        drain_time=15.0,
    )
    a = run_static_experiment(8, **kwargs)
    with naive_plans() as installed:
        b = run_static_experiment(8, **kwargs)
    assert a.__dict__ == b.__dict__
    assert_naive_plans_ran(installed)


@pytest.mark.slow
def test_chord_churn_bit_identical_optimized_vs_naive():
    from repro.experiments import run_churn_experiment

    kwargs = dict(
        seed=5,
        stabilization_time=60.0,
        churn_duration=60.0,
        lookup_rate=2.0,
        drain_time=15.0,
        program_kwargs=dict(
            stabilize_period=5.0,
            succ_lifetime=4.0,
            ping_period=2.0,
            finger_period=5.0,
        ),
    )
    a = run_churn_experiment(6, 120.0, **kwargs)
    with naive_plans() as installed:
        b = run_churn_experiment(6, 120.0, **kwargs)
    assert a.__dict__ == b.__dict__
    assert_naive_plans_ran(installed)
