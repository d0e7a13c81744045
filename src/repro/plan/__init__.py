"""Logical planning: plan nodes, builder, cardinality, and plan-time
expression compilation."""

from repro.plan.builder import PlanBuilder, output_names
from repro.plan.cardinality import CardinalityEstimator, Estimate
from repro.plan.compiled import compile_predicate, compile_value, is_electronic

__all__ = [
    "PlanBuilder",
    "output_names",
    "CardinalityEstimator",
    "Estimate",
    "compile_value",
    "compile_predicate",
    "is_electronic",
]
