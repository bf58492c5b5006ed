"""Predicate introduction: rewriting queries to exploit correlations.

The paper's prototype runs as a front end that rewrites ``SELECT`` queries to
add an ``IN`` clause over the clustered attribute (Section 7.1)::

    SELECT * FROM lineitem WHERE receiptdate = t
        -->
    SELECT * FROM lineitem WHERE receiptdate = t
                             AND shipdate IN (s1 ... sn)

where ``s1 ... sn`` are the clustered values the CM maps ``t`` to.  The
rewritten query lets an unmodified optimizer use the clustered index while
the original predicate filters out the CM's false positives.

This module produces that rewriting in a declarative form
(:class:`RewrittenPredicate`) consumed by the execution engine, and can also
render it as SQL text for documentation and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.correlation_map import CorrelationMap
from repro.core.composite import ValueConstraint


@dataclass(frozen=True)
class RewrittenPredicate:
    """The result of rewriting a query through a CM.

    ``clustered_attribute`` / ``clustered_values``
        The introduced ``IN`` predicate: the clustered attribute (or the
        clustered bucket-id column) restricted to the CM's lookup result.
    ``residual_constraints``
        The original predicates over the CM attributes; they must still be
        applied to every fetched tuple because the CM (especially when
        bucketed) over-approximates the matching clustered values.
    """

    clustered_attribute: str
    clustered_values: tuple[Any, ...]
    residual_constraints: Mapping[str, ValueConstraint]

    @property
    def is_empty(self) -> bool:
        """True when no clustered value co-occurs: the result is empty."""
        return not self.clustered_values

    def to_sql(self, table: str) -> str:
        """Render the rewritten query as SQL text (for reports/debugging)."""
        clauses = []
        for attribute, constraint in self.residual_constraints.items():
            clauses.append(_constraint_to_sql(attribute, constraint))
        in_list = ", ".join(_literal(v) for v in self.clustered_values)
        clauses.append(f"{self.clustered_attribute} IN ({in_list})")
        where = " AND ".join(clauses)
        return f"SELECT * FROM {table} WHERE {where}"


def _literal(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _constraint_to_sql(attribute: str, constraint: ValueConstraint) -> str:
    if constraint.values is not None:
        values = sorted(constraint.values, key=repr)
        if len(values) == 1:
            return f"{attribute} = {_literal(values[0])}"
        rendered = ", ".join(_literal(v) for v in values)
        return f"{attribute} IN ({rendered})"
    if constraint.low is not None and constraint.high is not None:
        return (
            f"{attribute} BETWEEN {_literal(constraint.low)}"
            f" AND {_literal(constraint.high)}"
        )
    if constraint.low is not None:
        return f"{attribute} >= {_literal(constraint.low)}"
    if constraint.high is not None:
        return f"{attribute} <= {_literal(constraint.high)}"
    return "TRUE"


class QueryRewriter:
    """Rewrites predicates over CM attributes into clustered-index lookups."""

    def __init__(self, cm: CorrelationMap, *, clustered_column: str | None = None) -> None:
        self.cm = cm
        #: Column name the introduced IN-list ranges over.  When the table
        #: assigns clustered bucket ids, this is the bucket-id column rather
        #: than the clustered attribute itself.
        self.clustered_column = clustered_column or cm.clustered_attribute

    def applicable(self, constraints: Mapping[str, ValueConstraint]) -> bool:
        """A CM is usable when the query constrains at least one CM attribute.

        (Partially constrained composite CMs are allowed; unconstrained
        attributes simply match every bucket.)
        """
        return any(attribute in constraints for attribute in self.cm.attributes)

    def rewrite(
        self, constraints: Mapping[str, ValueConstraint]
    ) -> RewrittenPredicate:
        """Produce the rewritten predicate for the given query constraints."""
        if not self.applicable(constraints):
            raise ValueError(
                f"no predicate over CM attributes {self.cm.attributes}"
            )
        cm_constraints = {
            attribute: constraint
            for attribute, constraint in constraints.items()
            if attribute in self.cm.attributes
        }
        clustered_values = self.cm.lookup_constraints(cm_constraints)
        return RewrittenPredicate(
            clustered_attribute=self.clustered_column,
            clustered_values=tuple(clustered_values),
            residual_constraints=dict(cm_constraints),
        )
