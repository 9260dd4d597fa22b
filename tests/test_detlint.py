"""detlint: golden diagnostics, pragmas, call graph, CLI, and self-lint.

The DET0xx codes are a stable contract (ROADMAP: they gate the process-pool
shard backend), so these tests golden-match exact spans and rendered caret
reports, not just finding counts.  The final class asserts the acceptance
criterion of PR 9: the engine's own source lints strict-clean, with every
remaining pragma carrying a justification.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.detlint import lint_paths, lint_source
from repro.detlint.callgraph import CallGraph
from repro.detlint.cli import main as detlint_main
from repro.detlint.engine import iter_python_files
from repro.overlog.diagnostics import render_report

import ast as python_ast

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source: str):
    return lint_source(textwrap.dedent(source), filename="snippet.py")


def codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# DET001 — wall clock / entropy
# ---------------------------------------------------------------------------


class TestDet001:
    def test_direct_call_span(self):
        diags = lint(
            """\
            import time

            def measure():
                return time.perf_counter()
            """
        )
        assert codes(diags) == ["DET001"]
        span = diags[0].span
        assert (span.line, span.column) == (4, 12)
        assert diags[0].subject == "time.perf_counter"

    def test_seen_through_import_alias(self):
        diags = lint(
            """\
            from time import perf_counter as pc

            def measure():
                return pc()
            """
        )
        assert codes(diags) == ["DET001"]
        assert diags[0].span.line == 4

    def test_seen_through_assignment_alias(self):
        diags = lint(
            """\
            import time as _t

            clock = _t.perf_counter

            def measure():
                return clock()
            """
        )
        assert codes(diags) == ["DET001"]
        assert diags[0].span.line == 6

    def test_datetime_and_urandom(self):
        diags = lint(
            """\
            import datetime
            import os

            def stamp():
                return datetime.datetime.now(), os.urandom(8)
            """
        )
        assert codes(diags) == ["DET001", "DET001"]

    def test_loop_clock_is_fine(self):
        diags = lint(
            """\
            def deadline(loop):
                return loop.now + 2.0
            """
        )
        assert diags == []

    def test_rendered_caret_report(self):
        source = "import time\n\ndef measure():\n    return time.perf_counter()\n"
        diags = lint_source(source, filename="measure.py")
        report = render_report(diags, "measure.py", source)
        lines = report.splitlines()
        assert lines[0].startswith(
            "measure.py:4:12: error[DET001]: call to wall-clock/entropy source "
            "'time.perf_counter'"
        )
        assert lines[1] == "    4 |     return time.perf_counter()"
        assert lines[2] == "      |            ^"


# ---------------------------------------------------------------------------
# DET002 — PYTHONHASHSEED hazards
# ---------------------------------------------------------------------------


class TestDet002:
    def test_hash_of_string(self):
        diags = lint(
            """\
            def key_for(name):
                return hash(name)
            """
        )
        assert codes(diags) == ["DET002"]
        assert (diags[0].span.line, diags[0].span.column) == (2, 12)

    def test_hash_of_numeric_constant_ok(self):
        assert lint("x = hash(42)\ny = hash(3.5)\n") == []

    def test_hash_of_bool_constant_flagged(self):
        # bool is numeric but hash(True) of a literal is pointless enough to
        # keep the rule simple: only int/float constants are exempt
        assert codes(lint("x = hash(True)\n")) == ["DET002"]

    def test_shadowed_hash_ok(self):
        diags = lint(
            """\
            from hashlib import sha256 as hash

            def key_for(name):
                return hash(name.encode())
            """
        )
        assert diags == []


# ---------------------------------------------------------------------------
# DET003 — RNG discipline
# ---------------------------------------------------------------------------


class TestDet003:
    def test_module_global_draw(self):
        diags = lint(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        )
        assert codes(diags) == ["DET003"]
        assert diags[0].subject == "random.uniform"

    def test_module_global_draw_via_from_import(self):
        diags = lint(
            """\
            from random import shuffle

            def mix(items):
                shuffle(items)
            """
        )
        assert codes(diags) == ["DET003"]

    def test_unseeded_random_instance(self):
        diags = lint(
            """\
            import random

            def make_rng():
                return random.Random()
            """
        )
        assert codes(diags) == ["DET003"]
        assert "OS entropy" in diags[0].message

    def test_hash_seed_flagged_by_both_codes(self):
        diags = lint(
            """\
            import random

            def make_rng(address):
                return random.Random(hash(address) & 0xFFFF)
            """
        )
        assert sorted(codes(diags)) == ["DET002", "DET003"]
        assert "PYTHONHASHSEED" in diags[0].message

    def test_unknown_call_in_seed_flagged(self):
        diags = lint(
            """\
            import random

            def make_rng(peer):
                return random.Random(peer.identity())
            """
        )
        assert codes(diags) == ["DET003"]
        assert "identity" in diags[0].message

    def test_keyed_fstring_idiom_clean(self):
        diags = lint(
            """\
            import random

            def stream(seed, src):
                return random.Random(f"{seed}:{src}")
            """
        )
        assert diags == []

    def test_crc32_seed_clean(self):
        diags = lint(
            """\
            import random
            import zlib

            def for_address(address):
                return random.Random(zlib.crc32(address.encode()))
            """
        )
        assert diags == []

    def test_arithmetic_seed_clean(self):
        diags = lint(
            """\
            import random

            def link_rng(seed, lo, hi):
                return random.Random(seed * 1_000_003 + lo * 65_537 + hi)
            """
        )
        assert diags == []

    def test_instance_reseed_with_unstable_value(self):
        diags = lint(
            """\
            def reseed(rng, peer):
                rng.seed(peer.identity())
            """
        )
        assert codes(diags) == ["DET003"]

    def test_instance_draws_clean(self):
        diags = lint(
            """\
            def draw(rng):
                return rng.uniform(0.0, 1.0) + rng.getrandbits(8)
            """
        )
        assert diags == []


# ---------------------------------------------------------------------------
# DET004 — set iteration on emit-reaching paths
# ---------------------------------------------------------------------------

EMITTING_SET_LOOP = """\
class Node:
    def broadcast(self, peers):
        targets = set(peers)
        for addr in targets:
            self.network.send_batch(addr, None)
"""


class TestDet004:
    def test_set_loop_in_sender(self):
        diags = lint(EMITTING_SET_LOOP)
        assert codes(diags) == ["DET004"]
        assert (diags[0].span.line, diags[0].span.column) == (4, 21)
        assert diags[0].subject == "targets"

    def test_sorted_wrapper_clean(self):
        diags = lint(EMITTING_SET_LOOP.replace("in targets", "in sorted(targets)"))
        assert diags == []

    def test_not_emit_reaching_clean(self):
        diags = lint(EMITTING_SET_LOOP.replace("self.network.send_batch(addr, None)", "print(addr)"))
        assert diags == []

    def test_transitive_reachability(self):
        diags = lint(
            """\
            class Node:
                def _tick(self):
                    for addr in self.pending:
                        self._forward(addr)

                def _forward(self, addr):
                    self.network.send_batch(addr, None)

                def __init__(self):
                    self.pending = set()
            """
        )
        assert codes(diags) == ["DET004"]
        assert diags[0].span.line == 3

    def test_set_literal_and_comprehension_inference(self):
        diags = lint(
            """\
            class Node:
                def fanout(self, rows):
                    live = {r for r in rows}
                    self.loop.schedule(0.0, list(live))
            """
        )
        assert codes(diags) == ["DET004"]

    def test_set_algebra_and_annotation_inference(self):
        diags = lint(
            """\
            from typing import Set

            class Node:
                def fanout(self, a: Set[str], b: Set[str]):
                    for addr in a | b:
                        self.network.send_batch(addr)
            """
        )
        assert codes(diags) == ["DET004"]

    def test_order_sensitive_method_consumer(self):
        diags = lint(
            """\
            class Node:
                def fanout(self, out):
                    dests = frozenset(out)
                    batch = []
                    batch.extend(dests)
                    self.network.send_batch(batch)
            """
        )
        assert codes(diags) == ["DET004"]

    def test_membership_and_len_clean(self):
        diags = lint(
            """\
            class Node:
                def fanout(self, addr):
                    seen = set()
                    if addr not in seen and len(seen) < 5:
                        self.network.send_batch(addr, None)
            """
        )
        assert diags == []


# ---------------------------------------------------------------------------
# DET005 — control-plane mutation
# ---------------------------------------------------------------------------


class TestDet005:
    def test_mutation_outside_control_plane(self):
        diags = lint(
            """\
            class Admin:
                def chaos(self, conditioner):
                    conditioner.set_partition("a", "b")
            """
        )
        assert codes(diags) == ["DET005"]
        assert diags[0].subject == "set_partition"

    def test_mutation_inside_fault_controller(self):
        diags = lint(
            """\
            class FaultController:
                def _execute(self, conditioner):
                    conditioner.set_partition("a", "b")
            """
        )
        assert diags == []

    def test_helper_reachable_only_from_control_plane(self):
        diags = lint(
            """\
            class FaultController:
                def _execute(self, conditioner):
                    apply_partition(conditioner)

            def apply_partition(conditioner):
                conditioner.set_partition("a", "b")
            """
        )
        assert diags == []

    def test_helper_also_reachable_from_outside(self):
        diags = lint(
            """\
            class FaultController:
                def _execute(self, conditioner):
                    apply_partition(conditioner)

            def apply_partition(conditioner):
                conditioner.set_partition("a", "b")

            def sneaky_path(conditioner):
                apply_partition(conditioner)
            """
        )
        assert codes(diags) == ["DET005"]
        assert "sneaky_path" in diags[0].message

    def test_module_level_mutation(self):
        diags = lint(
            """\
            conditioner = make_conditioner()
            conditioner.heal_partition("a", "b")
            """
        )
        assert codes(diags) == ["DET005"]
        assert "module level" in diags[0].message


# ---------------------------------------------------------------------------
# Pragmas — suppression, DET006, DET007
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_line_pragma_suppresses(self):
        diags = lint(
            """\
            def key_for(name):
                return hash(name)  # det: allow(DET002): cache key, in-process only
            """
        )
        assert diags == []

    def test_file_pragma_suppresses_everywhere(self):
        diags = lint(
            """\
            # det: allow(DET002, file): module computes in-process cache keys
            def key_a(name):
                return hash(name)

            def key_b(name):
                return hash((name, 1))
            """
        )
        assert diags == []

    def test_pragma_for_other_code_does_not_suppress(self):
        diags = lint(
            """\
            def key_for(name):
                return hash(name)  # det: allow(DET001): wrong code on purpose
            """
        )
        assert sorted(codes(diags)) == ["DET002", "DET007"]

    def test_missing_justification_is_det006(self):
        diags = lint(
            """\
            def key_for(name):
                return hash(name)  # det: allow(DET002)
            """
        )
        assert sorted(codes(diags)) == ["DET002", "DET006"]
        det006 = [d for d in diags if d.code == "DET006"][0]
        assert "justification" in det006.message
        assert det006.is_error

    def test_unknown_scope_word_is_det006(self):
        diags = lint(
            """\
            x = hash("a")  # det: allow(DET002, module): bad scope word
            """
        )
        assert sorted(codes(diags)) == ["DET002", "DET006"]

    def test_malformed_directive_is_det006(self):
        diags = lint("x = 1  # det: allow DET002 missing parens\n")
        assert codes(diags) == ["DET006"]

    def test_unsuppressible_code_is_det006(self):
        diags = lint("x = 1  # det: allow(DET006): nice try\n")
        assert codes(diags) == ["DET006"]

    def test_unused_pragma_is_det007_warning(self):
        diags = lint("x = 1  # det: allow(DET001): nothing here uses a clock\n")
        assert codes(diags) == ["DET007"]
        assert not diags[0].is_error

    def test_pragma_inside_string_ignored(self):
        diags = lint(
            """\
            DOC = "# det: allow(DET002): not a real pragma"
            """
        )
        assert diags == []


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


def _graph(source: str) -> CallGraph:
    graph = CallGraph()
    graph.add_module("mod.py", python_ast.parse(textwrap.dedent(source)))
    return graph


class TestCallGraph:
    SOURCE = """\
    class Node:
        def route(self, tup):
            self._deliver(tup)

        def _deliver(self, tup):
            self.network.send(tup.addr, tup)

    def helper(node, tup):
        node.route(tup)

    def bystander():
        return 7
    """

    def test_functions_and_qualnames(self):
        graph = _graph(self.SOURCE)
        assert set(graph.functions) == {
            "mod.py::Node.route",
            "mod.py::Node._deliver",
            "mod.py::helper",
            "mod.py::bystander",
        }

    def test_reaching_includes_transitive_callers(self):
        graph = _graph(self.SOURCE)
        reach = graph.reaching(frozenset({"send"}))
        assert reach == {
            "mod.py::Node.route",
            "mod.py::Node._deliver",
            "mod.py::helper",
        }

    def test_sink_implementations_are_reaching(self):
        # `route` is itself a sink name in the default config: its
        # implementation is in the reaching set even with no call edge
        graph = _graph(self.SOURCE)
        assert "mod.py::Node.route" in graph.reaching(frozenset({"route"}))

    def test_root_callers(self):
        graph = _graph(self.SOURCE)
        roots = graph.root_callers("mod.py::Node._deliver")
        assert roots == {"mod.py::helper"}

    def test_uncalled_function_is_its_own_root(self):
        graph = _graph(self.SOURCE)
        assert graph.root_callers("mod.py::bystander") == {"mod.py::bystander"}

    def test_constructor_aliasing(self):
        graph = _graph(
            """\
            class Widget:
                def __init__(self):
                    self.network.send(None, None)

            def build():
                return Widget()
            """
        )
        reach = graph.reaching(frozenset({"send"}))
        assert "mod.py::build" in reach


# ---------------------------------------------------------------------------
# CLI and engine plumbing
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(loop):\n    return loop.now\n")
        assert detlint_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_exits_one_with_caret(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert detlint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "error[DET001]" in out
        assert "^" in out

    def test_warning_fatal_only_under_strict(self, tmp_path, capsys):
        target = tmp_path / "stale.py"
        target.write_text("x = 1  # det: allow(DET001): stale allowance\n")
        assert detlint_main([str(target)]) == 0
        assert detlint_main(["--strict", str(target)]) == 1
        assert "warning[DET007]" in capsys.readouterr().out

    def test_unparseable_file_is_det000(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert detlint_main([str(target)]) == 1
        assert "error[DET000]" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert detlint_main(["/no/such/detlint/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_iter_python_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]


# ---------------------------------------------------------------------------
# Acceptance: the engine lints strict-clean
# ---------------------------------------------------------------------------


class TestReliableLayerPatterns:
    """The idioms net/reliable.py leans on must stay exactly on the line the
    linter draws: ordered structures through emit-reaching timer closures are
    clean, raw set iteration on the same path is not."""

    DELAYED_ACK_PATTERN = """\
        class ReceiverState:
            def __init__(self):
                self.ooo = {}          # dict as ordered set: insertion-ordered
                self.ack_pending = False
                self.delack = None

        class Layer:
            def on_data(self, owner, peer, seq):
                st = self.receivers[(owner, peer)]
                st.ooo[seq] = True
                st.ack_pending = True
                if st.delack is None:
                    # the delayed-ack timer: an emit-reaching closure armed on
                    # the owner's loop, firing a pure ack later
                    st.delack = self.loop.schedule(
                        0.1, lambda: self.on_delack(owner, peer)
                    )

            def on_delack(self, owner, peer):
                st = self.receivers[(owner, peer)]
                st.delack = None
                if st.ack_pending:
                    sacks = tuple(sorted(st.ooo))
                    self.network.send_batch(peer, sacks)
        """

    def test_delayed_ack_timer_pattern_is_clean(self):
        assert lint(self.DELAYED_ACK_PATTERN) == []

    def test_same_pattern_with_raw_set_is_flagged(self):
        tainted = self.DELAYED_ACK_PATTERN.replace(
            "sacks = tuple(sorted(st.ooo))",
            "pending = {s for s in st.ooo}\n                    sacks = tuple(pending)",
        )
        diags = lint(tainted)
        assert codes(diags) == ["DET004"]
        assert diags[0].subject == "pending"


class TestSelfLint:
    def test_src_repro_and_benchmarks_strict_clean(self):
        results = lint_paths(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "benchmarks")]
        )
        findings = [
            diag.format(result.path)
            for result in results
            for diag in result.diagnostics
        ]
        # strict: warnings (stale pragmas) fail this too, not just errors
        assert findings == [], "\n".join(findings)

    def test_cross_file_reachability_is_active(self):
        # sanity that the self-lint is not vacuous: the whole-repo call graph
        # must classify the transport send path as emit-reaching
        from repro.detlint.callgraph import CallGraph
        from repro.detlint.config import DEFAULT_CONFIG

        transport = REPO_ROOT / "src" / "repro" / "net" / "transport.py"
        graph = CallGraph()
        graph.add_module(
            str(transport), python_ast.parse(transport.read_text(encoding="utf-8"))
        )
        reach = graph.reaching(DEFAULT_CONFIG.sink_names)
        assert any(q.endswith("Network.send_batch") for q in reach)
