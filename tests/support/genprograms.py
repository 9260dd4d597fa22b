"""Reusable OverLog program generation + node helpers for differentials.

Shared by the strand-fusion suite (``tests/test_strand_fusion.py``) and the
planner-optimizer harness (``tests/test_planner_opt.py``).  Two kinds of
programs live here:

* :data:`GENERATED_PROGRAMS` — the fixed hand-written rule shapes the fusion
  suite has always used (multi-join, antijoin, aggregate-with-fallback,
  aggregate-max, delete head, select/assign chain, constant join key).
* :func:`generate_program` — a *seeded, shape-parameterized* generator that
  randomizes table counts, arities, key declarations, cardinality hints, and
  body order per seed, so the optimizer faces a different join-ordering
  problem every time.  Generated guards use only ``==``/``!=`` and generated
  assigns only ``* 2``: both are total over the mixed value pool
  (:func:`random_value`), so no firing can raise from one plan order but not
  another — a requirement for comparing *different* plans differentially
  (the fusion suite compares identical plans, where error equality is the
  observable instead).
"""

from __future__ import annotations

import random
import zlib

from repro.core import Tuple
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlog import ast
from repro.runtime.node import P2Node
from repro.sim.event_loop import EventLoop

GENERATED_PROGRAMS = {
    "multi_join": """
        materialize(t1, infinity, infinity, keys(2, 3)).
        materialize(t2, infinity, infinity, keys(2, 3)).
        J1 out@NI(NI, A, B, C) :- trig@NI(NI, A), t1@NI(NI, A, B), t2@NI(NI, B, C).
    """,
    "antijoin": """
        materialize(seen, infinity, infinity, keys(2)).
        A1 fresh@NI(NI, X) :- evt@NI(NI, X), not seen@NI(NI, X).
    """,
    "aggregate_with_fallback": """
        materialize(member, infinity, infinity, keys(2)).
        G1 found@NI(NI, A, count<*>) :- probe@NI(NI, A), member@NI(NI, A, S), S > 10.
    """,
    "aggregate_max": """
        materialize(member, infinity, infinity, keys(2)).
        G2 best@NI(NI, max<S>) :- probe2@NI(NI), member@NI(NI, A, S).
    """,
    "delete_head": """
        materialize(seen, infinity, infinity, keys(2)).
        D1 delete seen@NI(NI, X) :- drop@NI(NI, X), seen@NI(NI, X).
    """,
    "select_assign_chain": """
        materialize(peer, infinity, infinity, keys(2)).
        C1 out@NI(NI, Y, D) :- tick@NI(NI, V), V > 3, peer@NI(NI, Y),
           D := V * 2, D < 100.
    """,
    "constant_join_key": """
        materialize(kv, infinity, infinity, keys(2, 3)).
        K1 hit@NI(NI, V) :- q@NI(NI), kv@NI(NI, 7, V).
    """,
}

#: the shapes :func:`generate_program` knows how to randomize
SHAPES = ("multi_join", "antijoin", "aggregate", "delete")


def _size_hint(rng: random.Random) -> str:
    return rng.choice(["infinity", "1", "8", "64", "256"])


def _keys_decl(rng: random.Random, arity: int) -> str:
    """A random keys(...) declaration over a table of *arity* fields."""
    if rng.random() < 0.4:
        return ", ".join(str(i) for i in range(1, arity + 1))  # whole-row key
    width = rng.randrange(1, arity)
    return ", ".join(str(i + 1) for i in sorted(rng.sample(range(1, arity), width)))


def generate_program(shape: str, seed: int) -> str:
    """One randomized OverLog program of the given *shape*.

    The same (shape, seed) always yields the same source text.
    """
    rng = random.Random(zlib.crc32(shape.encode()) * 100003 + seed)
    if shape == "multi_join":
        num_joins = rng.randrange(2, 5)
        mats, joins = [], []
        for i in range(1, num_joins + 1):
            mats.append(
                f"materialize(t{i}, infinity, {_size_hint(rng)}, "
                f"keys({_keys_decl(rng, 3)}))."
            )
            joins.append(f"t{i}@NI(NI, X{i - 1}, X{i})")
        rng.shuffle(joins)  # naive body order is deliberately arbitrary
        body = ["trig@NI(NI, X0)"] + joins + [f"X{rng.randrange(num_joins)} != 7"]
        head_vars = ", ".join(f"X{i}" for i in range(num_joins + 1))
        rule = f"J1 out@NI(NI, {head_vars}) :- {', '.join(body)}."
        return "\n".join(mats + [rule])
    if shape == "antijoin":
        mats = [
            f"materialize(t1, infinity, {_size_hint(rng)}, keys({_keys_decl(rng, 3)})).",
            f"materialize(t2, infinity, {_size_hint(rng)}, keys({_keys_decl(rng, 3)})).",
            "materialize(seen, infinity, infinity, keys(2)).",
        ]
        joins = ["t1@NI(NI, X0, X1)", "t2@NI(NI, X1, X2)"]
        anti = f"not seen@NI(NI, X{rng.randrange(3)})"
        body = ["evt@NI(NI, X0)"] + joins
        body.insert(rng.randrange(1, len(body) + 1), anti)
        rule = f"A1 fresh@NI(NI, X0, X1, X2) :- {', '.join(body)}."
        return "\n".join(mats + [rule])
    if shape == "aggregate":
        mats = [
            f"materialize(m1, infinity, {_size_hint(rng)}, keys({_keys_decl(rng, 3)})).",
            f"materialize(m2, infinity, {_size_hint(rng)}, keys({_keys_decl(rng, 3)})).",
        ]
        # every non-aggregate head field is event-bound, so the count<*>
        # fallback (the planner's trickiest path) stays live under reordering
        body = ["probe@NI(NI, A)", "m1@NI(NI, A, S)", "m2@NI(NI, S, T)", "S != 3"]
        rule = f"G1 found@NI(NI, A, count<*>) :- {', '.join(body)}."
        return "\n".join(mats + [rule])
    if shape == "delete":
        mats = [
            "materialize(seen, infinity, infinity, keys(2)).",
            f"materialize(link, infinity, {_size_hint(rng)}, keys({_keys_decl(rng, 3)})).",
        ]
        body = ["drop@NI(NI, X)", "link@NI(NI, X, Y)", "seen@NI(NI, Y)", "Y != 0"]
        rule = f"D1 delete seen@NI(NI, Y) :- {', '.join(body)}."
        return "\n".join(mats + [rule])
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# Node helpers
# ---------------------------------------------------------------------------


def make_node(program, seed=0, address="n1", optimize=True, **kwargs):
    """One isolated node on a network of its own (not booted)."""
    loop = EventLoop()
    net = Network(loop, UniformTopology(latency=0.01))
    node = P2Node(address, program, net, loop, seed=seed, optimize=optimize, **kwargs)
    net.register(node)
    return node


def table_arities(program_ast):
    """Arity of each materialized relation, recovered from its uses."""
    names = set(program_ast.materialized_names())
    arities = {}
    for rule in program_ast.rules:
        if rule.head.name in names:
            arities[rule.head.name] = len(rule.head.fields)
        for term in rule.body:
            if isinstance(term, ast.Predicate) and term.name in names:
                arities[term.name] = len(term.args)
    for fact in program_ast.facts:
        if fact.name in names:
            arities[fact.name] = len(fact.args)
    return arities


def random_value(rng, address):
    pool = (address, "n2", "n3", "-", 0, 1, 2, 7, 13, 42, 1009)
    if rng.random() < 0.6:
        return rng.choice(pool)
    return rng.getrandbits(32)


def populate_tables(nodes, rng, rows_per_table=6):
    """Insert the same random rows into the tables of each of *nodes*."""
    program_ast = nodes[0].compiled.program
    arities = table_arities(program_ast)
    for name in sorted(arities):
        for _ in range(rows_per_table):
            fields = [nodes[0].address] + [
                random_value(rng, nodes[0].address) for _ in range(arities[name] - 1)
            ]
            tup = Tuple(name, fields)
            for node in nodes:
                node.tables.get(name).insert(tup, 0.0)


def paired_strands(node_a, node_b):
    """Same-rule strand pairs across two nodes compiled from one program."""
    pairs = []
    for name in node_a.compiled.strands_by_event:
        pairs.extend(
            zip(
                node_a.compiled.strands_by_event[name],
                node_b.compiled.strands_by_event[name],
            )
        )
    pairs.extend(
        (sa.strand, sb.strand)
        for sa, sb in zip(node_a.compiled.periodics, node_b.compiled.periodics)
    )
    return pairs
