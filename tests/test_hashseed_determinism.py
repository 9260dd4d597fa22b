"""Chord runs are bit-identical across PYTHONHASHSEED values.

The engine's determinism claim must hold across *processes*, not just within
one: the planned process-pool shard backend (ROADMAP open item 1) will run
node code in workers whose string hashes differ per process unless
``PYTHONHASHSEED`` is pinned.  PR 9 removed the one seed that depended on it
— ``P2Node``'s per-address RNG fallback now folds the address through
``zlib.crc32`` instead of builtin ``hash()`` (``detlint`` codes DET002 and
DET003 keep it that way).

Two layers of proof:

* a unit test that the fallback seed is exactly ``zlib.crc32(address)``, so
  the contract is pinned where the bug lived;
* a subprocess test that runs the same Chord network under two different
  ``PYTHONHASHSEED`` values — with every node forced onto the fallback-seed
  path, the worst case — and asserts the full state digest (table contents,
  RNG stream positions, message counters, simulated clock) is identical.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.runtime.node import P2Node
from repro.sim.event_loop import EventLoop

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Worker: build a 5-node Chord ring with every node forced onto the
#: fallback (address-derived) RNG seed, run it, and print a sha256 over all
#: observable state.  Runs via ``python -c`` so each invocation gets a fresh
#: interpreter whose PYTHONHASHSEED actually takes effect.
DIGEST_SCRIPT = r"""
import hashlib
import sys

import repro.runtime.node as node_module

_original_init = node_module.P2Node.__init__

def _seedless_init(self, address, program, network, loop, **kwargs):
    # Worst case for hash-seed sensitivity: every node takes the
    # address-derived fallback seed instead of the simulation-provided one.
    kwargs["seed"] = None
    _original_init(self, address, program, network, loop, **kwargs)

node_module.P2Node.__init__ = _seedless_init

from repro.overlays import chord

network = chord.build_chord_network(5, seed=3)
sim = network.simulation
sim.run_for(90.0)

digest = hashlib.sha256()
digest.update(repr(sim.now).encode())
digest.update(str(sim.network.messages_sent).encode())
for node in network.ring_order():
    digest.update(node.address.encode())
    digest.update(str(node.node_id).encode())
    # RNG stream position: identical seeds and identical draw counts are
    # both required for the next draw to agree.
    digest.update(repr(node.rng.getstate()).encode())
    for table_name in sorted(table.name for table in node.tables):
        digest.update(table_name.encode())
        for row in sorted(node.scan(table_name), key=repr):
            digest.update(repr(row).encode())
sys.stdout.write(digest.hexdigest())
"""


def _run_digest(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.strip()
    assert len(digest) == 64, f"unexpected digest output: {proc.stdout!r}"
    return digest


def test_fallback_seed_is_crc32_of_address():
    loop = EventLoop()
    network = Network(loop, topology=UniformTopology(), seed=0)
    node = P2Node("n1.example:1", "ping pingEvent@NI(NI).", network, loop)
    expected = random.Random(zlib.crc32(b"n1.example:1"))
    assert node.rng.getstate() == expected.getstate()


def test_chord_run_identical_across_hashseeds():
    digest_a = _run_digest("1")
    digest_b = _run_digest("2")
    assert digest_a == digest_b
