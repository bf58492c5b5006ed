"""Selection predicates.

The paper's workloads only need conjunctions of equality, ``IN`` and range
predicates over single attributes (plus one computed-expression predicate in
the SDSS Q2 variant, handled as a residual filter), so that is what the
engine supports.  Predicates convert to the value-level constraints consumed
by correlation maps and the query rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import CodeType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.composite import ValueConstraint
from repro.core.ordering import order_key


class Predicate:
    """Base class: a condition over one attribute (or a computed expression)."""

    attribute: str

    def matches(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        """The row filter :meth:`condition_source` calls by default.

        The built-in comparisons inline their test into the compiled batch
        kernel instead; only a predicate wrapping an opaque callable
        (:class:`ExpressionPredicate`) overrides this hook.  The default
        falls back to the bound :meth:`matches`.
        """
        return self.matches

    def condition_source(self, index: int) -> tuple[str, dict[str, Any]]:
        """A Python expression testing this predicate on ``row``, plus its
        environment.

        The fragments of every predicate in a :class:`PredicateSet` are
        ``and``-joined into one compiled batch comprehension (see
        :meth:`PredicateSet.batch_kernel`), so the per-row cost drops from
        one closure call per predicate to inline comparisons.  ``index``
        uniquifies the environment names of this predicate's constants.  The
        default falls back to calling the :meth:`selector` closure.
        """
        name = f"_predicate{index}"
        return f"{name}(row)", {name: self.selector()}

    def constraint(self) -> ValueConstraint:
        raise NotImplementedError

    @property
    def lookup_values(self) -> tuple[Any, ...] | None:
        """The explicit values an index would probe, if enumerable."""
        return None


@dataclass(frozen=True)
class Equals(Predicate):
    """``attribute = value``"""

    attribute: str
    value: Any

    def __post_init__(self) -> None:
        # Compared as its order key: NULL_KEY equals no row value, NAN_KEY
        # every NaN, and any other value is its own key.
        object.__setattr__(self, "_key", order_key(self.value))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] == self._key

    def condition_source(self, index: int) -> tuple[str, dict[str, Any]]:
        return (
            f"row[_attr{index}] == _value{index}",
            {f"_attr{index}": self.attribute, f"_value{index}": self._key},
        )

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.equals(self.value)

    @property
    def lookup_values(self) -> tuple[Any, ...]:
        return (self.value,)

    def describe(self) -> str:
        return f"{self.attribute} = {self.value!r}"


@dataclass(frozen=True)
class InSet(Predicate):
    """``attribute IN (v1, ..., vN)``"""

    attribute: str
    values: tuple[Any, ...]

    def __init__(self, attribute: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", tuple(values))
        # Tuple containment over the values' order keys, as Equals compares.
        object.__setattr__(self, "_keys", tuple(map(order_key, self.values)))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] in self._keys

    def condition_source(self, index: int) -> tuple[str, dict[str, Any]]:
        return (
            f"row[_attr{index}] in _values{index}",
            {f"_attr{index}": self.attribute, f"_values{index}": self._keys},
        )

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.in_set(self.values)

    @property
    def lookup_values(self) -> tuple[Any, ...]:
        return self.values

    def describe(self) -> str:
        return f"{self.attribute} IN ({', '.join(map(repr, self.values))})"


@dataclass(frozen=True)
class Between(Predicate):
    """``attribute BETWEEN low AND high`` (inclusive; either bound optional)."""

    attribute: str
    low: Any = None
    high: Any = None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ValueError("a range predicate needs at least one bound")
        if self.low != self.low or self.high != self.high:
            raise ValueError("a range bound cannot be NaN")

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row[self.attribute]
        return (
            value is not None
            and (self.low is None or not value < self.low)
            and (self.high is None or value <= self.high)
        )

    def condition_source(self, index: int) -> tuple[str, dict[str, Any]]:
        # NULL fails the first test; NaN passes "not < low" and fails "<= high".
        value = f"_v{index}"
        conditions = [f"({value} := row[_attr{index}]) is not None"]
        if self.low is not None:
            conditions.append(f"not {value} < _low{index}")
        if self.high is not None:
            conditions.append(f"{value} <= _high{index}")
        names = (f"_attr{index}", f"_low{index}", f"_high{index}")
        env = dict(zip(names, (self.attribute, self.low, self.high)))
        return " and ".join(conditions), env

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.between(self.low, self.high)

    def describe(self) -> str:
        return f"{self.attribute} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True)
class ExpressionPredicate(Predicate):
    """A computed-expression filter, e.g. ``g + rho BETWEEN 23 AND 25``.

    Expression predicates cannot be used for index or CM lookups; they are
    applied as residual filters only.  ``attribute`` names the expression for
    reporting purposes.
    """

    attribute: str
    function: Callable[[Mapping[str, Any]], bool]

    def matches(self, row: Mapping[str, Any]) -> bool:
        return bool(self.function(row))

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        return self.function

    def constraint(self) -> ValueConstraint:
        return ValueConstraint()

    def describe(self) -> str:
        return f"expr({self.attribute})"


@lru_cache(maxsize=256)
def _kernel_code(source: str) -> CodeType:
    """The compiled code of one batch-kernel source text.

    The text names only generated identifiers -- attributes and constants
    travel in the ``eval`` namespace -- so there is one text per predicate
    *shape*, and every :class:`PredicateSet` of that shape (an inner probe
    binds a fresh one per outer row) shares the code object.  A workload
    has a handful of shapes; the bound only keeps a process that generates
    them without end from growing the cache with it.
    """
    return compile(source, "<batch-kernel>", "eval")


class PredicateSet:
    """A conjunction (AND) of predicates."""

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        #: Compiled batch kernels keyed by projection tuple (None = no
        #: projection), built lazily by :meth:`batch_kernel`.
        self._kernels: dict[tuple[str, ...] | None, Callable[[list], list]] = {}

    def __iter__(self) -> Iterator["Predicate"]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    def __bool__(self) -> bool:
        return bool(self.predicates)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(predicate.matches(row) for predicate in self.predicates)

    def batch_kernel(
        self, project: Sequence[str] | None = None
    ) -> Callable[[list], list]:
        """A compiled single-pass batch kernel: filter, optionally project.

        The kernel is one ``eval``-built list comprehension whose condition
        ``and``-joins every predicate's :meth:`Predicate.condition_source`
        fragment and whose element is either the row itself or, with
        ``project``, a fresh dict of just those columns — so a fused
        scan→filter→project pipeline runs as one C-driven pass per page with
        no intermediate batch materialisation.  Constants are bound through
        the evaluation namespace; only generated identifiers appear in the
        source text, so its compiled code is shared by every set of the same
        shape (:func:`_kernel_code`) and building a kernel costs one ``eval``.
        Kernels are cached per projection tuple for the lifetime of this set.
        """
        key = tuple(project) if project is not None else None
        kernel = self._kernels.get(key)
        if kernel is None:
            env: dict[str, Any] = {}
            conditions: list[str] = []
            for index, predicate in enumerate(self.predicates):
                fragment, bindings = predicate.condition_source(index)
                conditions.append(f"({fragment})")
                env.update(bindings)
            if key is None:
                element = "row"
            else:
                env["_columns"] = key
                element = "{column: row[column] for column in _columns}"
            condition = " and ".join(conditions)
            suffix = f" if {condition}" if condition else ""
            source = f"lambda rows: [{element} for row in rows{suffix}]"
            kernel = eval(_kernel_code(source), env)
            self._kernels[key] = kernel
        return kernel

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(predicate.attribute for predicate in self.predicates)

    def indexable_predicates(self) -> list[Predicate]:
        """Predicates usable for index/CM lookups (not expression filters)."""
        return [p for p in self.predicates if not isinstance(p, ExpressionPredicate)]

    def best_by_attribute(self) -> dict[str, Predicate]:
        """The most selective indexable predicate per attribute.

        When several predicates constrain the same attribute (e.g. a local
        range filter plus a join-key equality bound by an inner probe), the
        lookup-driving one is the tightest: ``Equals`` beats ``InSet`` beats
        ``Between``.  All of them still apply as residual filters.  This is
        the single precedence rule shared by index probing, CM constraint
        derivation and :meth:`on_attribute`.
        """
        best: dict[str, Predicate] = {}
        for predicate in self.indexable_predicates():
            current = best.get(predicate.attribute)
            if current is None or self._selectivity_rank(predicate) < self._selectivity_rank(
                current
            ):
                best[predicate.attribute] = predicate
        return best

    def on_attribute(self, attribute: str) -> Predicate | None:
        """The most selective indexable predicate on ``attribute`` (or None)."""
        return self.best_by_attribute().get(attribute)

    @staticmethod
    def _selectivity_rank(predicate: Predicate) -> int:
        if isinstance(predicate, Equals):
            return 0
        if isinstance(predicate, InSet):
            return 1
        if isinstance(predicate, Between):
            return 2
        return 3

    def constraints(self) -> dict[str, ValueConstraint]:
        """Per-attribute value constraints (for CMs and the rewriter).

        One constraint per attribute, from its most selective predicate
        (:meth:`best_by_attribute`); the weaker predicates on the attribute
        remain residual filters.
        """
        return {
            attribute: predicate.constraint()
            for attribute, predicate in self.best_by_attribute().items()
        }

    def describe(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(
            getattr(p, "describe", lambda: repr(p))() for p in self.predicates
        )

    @classmethod
    def of(cls, *predicates: Predicate) -> "PredicateSet":
        return cls(predicates)
