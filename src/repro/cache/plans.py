"""Plan reuse: one prepared plan per statement shape (docs/caching.md,
"Plan reuse").

Selection runs at execution time from the statement's values (the
paper's Section 3.2), so one placed plan serves every literal of a shape.
:func:`shape_of` reads the shape off the statement's one token stream;
a hit is never parsed.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from ..sql.lexer import NUMBER, PUNCT, STRING, Token
from ..sql.parser import literal_value

#: prepared plans a database keeps, least recently used dropped first
PLAN_MAX_ENTRIES = 256


class Shape(NamedTuple):
    """One statement's plan-cache key and its literal values."""

    key: tuple
    #: each literal's value at its token index (a Literal's ``slot``)
    values: list
    #: slot of each literal keyed by type -> slot of the first literal
    #: equal to it (its class)
    classes: dict[int, int]

    def served_by(self, parsed: set[int], planned: set[int]) -> bool:
        """Whether a plan of this statement serves the shape: the parser
        made every literal keyed by type a slot (``parsed``), and the plan
        holds a slot of each class of them (``planned``); a literal it
        dropped or folded would keep this statement's value for the next."""
        classes = self.classes
        return classes.keys() <= parsed and set(classes.values()) <= {
            classes[slot] for slot in planned if slot in classes
        }


def shape_of(
    tokens: list[Token],
    fingerprint: str,
    params: Sequence[Any] | None,
    plan_key: tuple,
    versions: tuple,
    exact: bool = False,
) -> Shape | None:
    """The shape of one lexed statement (None for INSERT ... VALUES, which
    is not planned).  The key is the fingerprint; each literal's type
    after the parser's coercion and which earlier literal it equals (the
    Memo may share one node between equal literals); the values of a
    LIMIT count and IN-list entries, which the plan holds as plain values;
    the parameter types, ``plan_key`` and the catalog and statistics
    ``versions``.  ``exact`` keys every literal by value: the legacy
    Planner lists the leaves a literal selects."""
    if tokens[0].is_keyword("insert") and any(
        token.is_keyword("values") for token in tokens
    ):
        return None
    values: list[Any] = [None] * len(tokens)
    typed: list[tuple] = []
    fixed: list[tuple] = []
    classes: dict[int, int] = {}
    first: dict[Any, int] = {}  # value -> slot of the first holding it
    in_list = False
    for index, token in enumerate(tokens):
        if token.kind in (NUMBER, STRING):
            value = values[index] = literal_value(token)
            if in_list or tokens[index - 1].is_keyword("limit"):
                fixed.append((index, token.kind, token.value))
            else:
                classes[index] = first.setdefault(value, index)
                typed.append((type(value).__name__, classes[index]))
        elif token.kind == PUNCT and token.value in "()":
            in_list = (
                token.value == "("
                and tokens[index - 1].is_keyword("in")
                and not tokens[index + 1].is_keyword("select")
            )
    params_key = tuple(type(value).__name__ for value in params or ())
    key = (fingerprint, tuple(typed), tuple(fixed), params_key, plan_key, versions)
    return Shape(key + (tuple(values),) if exact else key, values, classes)
