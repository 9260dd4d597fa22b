"""Planner: compiles OverLog programs into executable dataflow graphs."""

from .analyzer import (
    RuleAnalysis,
    RuleKind,
    analyze_rule,
    analyze_rule_into,
)
from .optimizer import (
    JoinChoice,
    PlannedTerm,
    ProgramPlan,
    RulePlan,
    join_choice,
    plan_strand,
)
from .planner import (
    CompiledDataflow,
    Planner,
    optimize_program,
    plan_program,
)
from .strand import ContinuousAggregateStrand, HeadRoute, PeriodicSpec, RuleStrand

__all__ = [
    "Planner",
    "CompiledDataflow",
    "plan_program",
    "RuleStrand",
    "ContinuousAggregateStrand",
    "PeriodicSpec",
    "HeadRoute",
    "ProgramPlan",
    "RulePlan",
    "PlannedTerm",
    "JoinChoice",
    "join_choice",
    "optimize_program",
    "plan_strand",
    "RuleAnalysis",
    "RuleKind",
    "analyze_rule",
    "analyze_rule_into",
]
