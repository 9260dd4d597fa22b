PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-faults test-planner test-reliable test-runloop test-tables golden lint lint-py bench bench-check bench-p2 bench-pairs loc census ops check-pythonpath

test:
	$(PYTHON) -m pytest -x -q

# The fault-injection and monitor suite on its own (includes the slow
# partition/heal acceptance runs even when iterating with test-fast).
test-faults:
	$(PYTHON) -m pytest -x -q tests/test_faults.py

# The wire suites: the reliable layer's ack/retransmit/dedup units, accrual
# failure detector, work counts, cross-shard bit-identity and slow chord loss
# sweep, plus the best-effort transport, datagram trains of every length
# (send_batch is the one send body; checked against the pack-then-send model
# of tests/support/packing.py and against one-tuple trains, nodes built under
# the unbatched() context of tests/support/oracles.py) and the one-tuple train
# against its old helper chain, on the launch and landing steps every
# reliable wire unit shares (with the pinned reliable-wire golden,
# tests/golden/wire/); and what the wire runs on: the event loop and its
# timers, the fault conditioner and the sharded driver.
test-reliable:
	$(PYTHON) -m pytest -x -q tests/test_reliable.py tests/test_network.py \
	  tests/test_transport_batching.py tests/test_one_tuple_path.py \
	  tests/test_event_loop.py tests/test_timer_lifecycle.py tests/test_faults.py \
	  tests/test_sharded_sim.py

# The cost-based planner suite on its own: the {optimized, naive} ×
# {procedure, reference run loop} differential grid, where the naive side is
# nodes built under the naive_plans() context of tests/support/oracles.py;
# plan unit tests, golden plan snapshots, the slow full-run bit-identity
# acceptance (chord static + churn, optimized vs naive), and the
# every-handler-is-generated grid of test_relation_procedure, run on both.
test-planner:
	$(PYTHON) -m pytest -x -q tests/test_planner_opt.py tests/test_golden_plans.py tests/test_plan_once.py \
	  tests/test_relation_procedure.py

# The node run loop: the one drain's per-tuple contract (each tuple of a
# datagram to fixpoint with its trains sent before the next, a route from
# inside a firing only queues, a raising tuple ends its datagram, a failed
# node routes nothing); where a firing's fields become a Tuple (the egress,
# a changed row, a subscriber, a delete, an error: every construction of a
# Narada window counted) and the one row-identity rule for every writer (a
# refresh keeps the stored row, a change stores the new one; inside a drain
# as outside); every firing's generated procedure (tuple, periodic tick,
# single-head or not, dirty continuous aggregate) against the reference run loop in
# tests/support/reference.py, which fires the element walk and evaluates PEL
# through the opcode interpreter; generated PEL against that interpreter; the
# firing tail's ordering and all-or-nothing guarantees, the continuous
# procedures' rescan skip, rules past CPython's nesting limits run as
# generated code (split strands, spilled chains) with the walk and the
# interpreter made to raise, the generated table writes and key probes against
# the model table, the runtime node, the guarded native fast paths (float
# operators, the ring test, the default built-ins, folds, single-group
# aggregates) against the calls they replace, the golden generated text, and
# the exact work counter's reproducibility (make ops).
test-runloop:
	$(PYTHON) -m pytest -x -q tests/test_drain.py tests/test_late_heads.py tests/test_relation_procedure.py \
	  tests/test_firing_tail.py tests/test_strand_fusion.py tests/test_strand_source.py tests/test_soft_state_deltas.py \
	  tests/test_emitter_limits.py tests/test_pel.py tests/test_fast_paths.py tests/test_generated_tables.py \
	  tests/test_runtime_node.py tests/test_golden_plans.py tests/test_ops.py

# Rewrite every golden under tests/golden/ from the current code — the plans,
# the generated procedures and the seeded reliable-wire script — then show
# which snapshots moved; review the diff before committing it.
golden:
	$(PYTHON) -m pytest -q tests/test_golden_plans.py \
	  tests/test_one_tuple_path.py::test_the_reliable_wire_path_is_pinned --update-golden
	git diff --stat tests/golden

# The table layer and its access paths: key formats and table operations, the
# remove-then-re-add model table (the one oracle; covering probes included),
# the write blocks and key probes generated from a table's declaration — a
# node's and Table.insert's own — against that model, the index plan and where
# it is installed, the golden plans and strands, the procedures that probe and
# write, and the runtime node (the change signal's one subscriber).
test-tables:
	$(PYTHON) -m pytest -x -q tests/test_tables.py tests/test_soft_state_deltas.py \
	  tests/test_generated_tables.py \
	  tests/test_planner_opt.py tests/test_plan_once.py tests/test_golden_plans.py \
	  tests/test_relation_procedure.py tests/test_runtime_node.py

# Static analysis over the bundled overlays and every example program;
# --strict makes warnings (dead rules, unread tables, ...) fail the build.
lint: check-pythonpath
	$(PYTHON) -m repro.overlog.check --strict \
	  --overlay chord --overlay narada --overlay gossip --overlay pingpong \
	  $(wildcard examples/*.olg)

# Determinism lint over the engine's own Python (DET0xx codes): wall-clock
# reads, PYTHONHASHSEED-dependent hash()/seeds, global-RNG draws, unsorted
# set iteration on emit paths, out-of-control-plane fault mutation.
# --strict makes stale-pragma warnings fail too; the tree must stay clean.
lint-py: check-pythonpath
	$(PYTHON) -m repro.detlint --strict src/repro benchmarks

# The quick loop: everything except the multi-second Figure 3/4 experiment
# sweeps (marked `slow`); under a minute on two cores (1,130 tests in 52 s),
# against a little over a minute for the whole suite (1,154 tests in 75 s).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# A command-line PYTHONPATH override (`make bench PYTHONPATH=...`) silently
# replaces the export above; fail loudly instead of benchmarking a stale or
# missing package.  A path component ending in 'src' (relative or absolute)
# counts as included.
check-pythonpath:
	@case ":$(PYTHONPATH):" in \
	  *:src:*|*/src:*) ;; \
	  *) echo "error: PYTHONPATH ('$(PYTHONPATH)') does not include 'src';" \
	     "benchmarks would not import the in-tree package" >&2; exit 1 ;; \
	esac

# The one-command CI target: tier-1 suite, both lints, BENCHMARK.json's own
# command, then the p2bench gate.
bench: test lint lint-py bench-check bench-p2

# BENCHMARK.json's command exactly as written there, once per workload it
# lists, at the default run length (shorter runs fail their output checks):
# each run's last line is its verdict, and the target fails unless every one
# reads "correct": true.  About 8 s per workload.
BENCH_WORKLOADS = $(shell python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
	  out=$$(python3 benchmarks/p2bench/run.py --workload $$w) || { echo "bench-check: $$w exited with an error" >&2; exit 1; }; \
	  last=$$(printf '%s\n' "$$out" | tail -n 1); \
	  echo "$$w: $$last"; \
	  case "$$last" in *'"correct": true'*) ;; *) echo "bench-check: $$w is not correct" >&2; exit 1 ;; esac; \
	done

# p2bench (BENCHMARK.json's harness) as a gate: the full report — interleaved
# repetitions of the four workloads, the probes, one traced run each — into
# benchmarks/p2bench/out/, then its verdict against the committed anchor:
# counts and digests at zero tolerance, host metrics by their bounds.  The
# exit status is the verdict.
P2BENCH_RESULT := benchmarks/p2bench/out/result_seed7.json
bench-p2:
	$(PYTHON) -m benchmarks.p2bench --output $(P2BENCH_RESULT)
	$(PYTHON) -m benchmarks.p2bench --compare benchmarks/p2bench/baseline_seed7.json $(P2BENCH_RESULT)

# A perf claim's evidence: N interleaved pairs of p2bench workloads, the
# committed files of BASE against this checkout, alternating which side runs
# first; prints one row per workload: medians, quartiles, wins, the ratio of
# medians and the set-up/RSS ratios.  WORKLOAD is one name, a comma-separated
# list, or all (the no-regression check over every workload).
#   make bench-pairs BASE=HEAD~1 [WORKLOAD=chord_static|a,b|all] [N=10]
WORKLOAD ?= chord_static
N ?= 10
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [WORKLOAD=chord_static|a,b|all] [N=10]" >&2; exit 2; }
	$(PYTHON) benchmarks/pairs.py $(BASE) --workload $(WORKLOAD) --pairs $(N)

# The function-level census aim-2 PRs re-run after every move: the src/
# functions tier-1 reaches but no p2bench workload, probe or example does,
# and those nothing reaches, with line counts per module (one process under
# sys.setprofile; several minutes).  Pytest arguments go after --:
#   make census [CENSUS_ARGS='-- -m "not slow"']
census:
	$(PYTHON) -m tests.support.census $(CENSUS_ARGS)

# Exact work counts (tests/support/ops.py): the bytecodes CPython executes on
# two fixed simulated windows (32-node Chord, 16-member Narada), in total, per
# dispatch, per layer, per generated procedure and per function; with BASE,
# the same windows on a git archive of BASE too, and the exact deltas.  About
# 20 s per tree, ≈40 s for both (CPython 3.11.7).
#   make ops [BASE=<rev>]
ops:
	$(PYTHON) -m tests.support.ops $(if $(BASE),--base $(BASE))

# The count aim-2 (less code) PRs cite: lines of *.py files git tracks or would
# (-o: a file a PR adds counts before it is committed; ignored ones never do),
# src/ by package, then benchmarks/ outside p2bench, benchmarks/p2bench/ and tests/.
# Outside a git checkout (a `git archive` copy) there is nothing to list: fail.
loc:
	@git rev-parse --is-inside-work-tree >/dev/null 2>&1 || { echo "loc: not a git checkout (git ls-files lists the files)" >&2; exit 1; }
	@git ls-files -co --exclude-standard '*.py' | xargs wc -l | awk '$$2 != "total" { \
	    n = split($$2, p, "/"); \
	    if (p[1] == "src") key = "src/repro/" (n > 3 ? p[3] : "(top level)"); \
	    else if (p[1] == "benchmarks") key = (p[2] == "p2bench") ? "benchmarks/p2bench/" : "benchmarks/ outside p2bench"; \
	    else if (p[1] == "tests") key = "tests/"; \
	    else next; \
	    lines[key] += $$1; if (p[1] == "src") src += $$1 } \
	  END { for (k in lines) printf "%7d  %s\n", lines[k], k; printf "%7d  src/ total\n", src }' | sort -k2
