"""Golden snapshots of ``Planner.explain()`` and ``Planner.explain_source()``
for the bundled overlays.

The explain text is the optimizer's public, stable rendering of every chosen
plan — join order, probe/index annotations, hoisted guards, and the
secondary-index plan.  Any optimizer or cost-model change that alters a
bundled overlay's plan must show up here as a reviewed golden diff, not as a
silent behavior change.  The generated strand source (``golden/strands/``) is
the same contract one level down: it is the Python each node runs, so a
change to the emitters shows up as a reviewed diff of what they emit.

Regenerate with ``pytest tests/test_golden_plans.py --update-golden``.
"""

import pathlib

import pytest

from repro.planner import Planner

from tests.test_strand_fusion import OVERLAY_PROGRAMS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "plans"


def _check_golden(text, path, what, request):
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.skip(f"golden snapshot rewritten: {path}")
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        "`pytest tests/test_golden_plans.py --update-golden`"
    )
    assert text == path.read_text(), (
        f"{what} changed; if intended, regenerate with "
        "`pytest tests/test_golden_plans.py --update-golden` and review the diff"
    )


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_plan_matches_golden(name, request):
    text = Planner.explain(OVERLAY_PROGRAMS[name]) + "\n"
    _check_golden(text, GOLDEN_DIR / f"{name}.txt", f"plan for {name!r}", request)


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_strand_source_matches_golden(name, request):
    text = Planner.explain_source(OVERLAY_PROGRAMS[name])
    path = GOLDEN_DIR.parent / "strands" / f"{name}.txt"
    _check_golden(text, path, f"generated source for {name!r}", request)


def test_explain_is_deterministic_across_parses():
    """Two independent parses of the same source yield identical text (the
    plan cache is per-AST, so this exercises a cold plan each time)."""
    name = sorted(OVERLAY_PROGRAMS)[0]
    assert Planner.explain(OVERLAY_PROGRAMS[name]) == Planner.explain(
        OVERLAY_PROGRAMS[name]
    )
