"""Cache keys: the contract that makes caching sound.

:func:`repro.obs.stats_store.fingerprint` deliberately erases literal
*values* — ``WHERE a = 42`` and ``WHERE a = 99`` share one fingerprint so
``pg_stat_statements``-style aggregation works.  A cache must never make
that identification: the two statements select different partition OID
sets and return different rows.  The cache-key contract is therefore

    **fingerprint + normalized literal vector + parameter vector
    + plan-shaping options (the optimizer and its options)**

realised by :class:`StatementKey`.  Two statements share a key iff they
lex to the same token shape *and* every literal and parameter value is
identical *and* they are planned the same way — which is exactly the
condition under which the engine produces the same physical plan with the
same ``part_scan_id`` assignment and the same partition OID sets.

Literals are normalized to ``(kind, repr(value))`` pairs so ``'05-15-2013'``
(a string that later coerces to a date) and ``05152013`` (a number) can
never collide, and so unhashable raw values are impossible by
construction.  Statements that do not lex fall back to the
whitespace-collapsed statement text as a single opaque literal — never a
shared key with a different statement.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from ..errors import ReproError
from ..sql import lexer
from ..obs.stats_store import fingerprint


class StatementKey(NamedTuple):
    """One cacheable statement identity (hashable, order-stable)."""

    fingerprint: str
    literals: tuple[str, ...]
    params: tuple[str, ...]
    optimizer: str
    #: always ``False`` from the engine, which no longer lowers selectors;
    #: kept because benchmark code builds keys with four arguments
    lowered: bool

    def describe(self) -> str:
        """Short human-readable form for logs and the ``\\cache`` view."""
        text = self.fingerprint
        if len(text) > 48:
            text = text[:45] + "..."
        extras = []
        if self.literals:
            extras.append(f"{len(self.literals)} literal(s)")
        if self.params:
            extras.append(f"{len(self.params)} param(s)")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"{text}{suffix}"


def normalized_literals(
    query: str, tokens: list | None = None
) -> tuple[str, ...]:
    """The statement's literal vector, in token order (``tokens``: the
    statement already lexed).

    Every value the fingerprint erased comes back here, tagged with its
    token kind: ``NUMBER:42``, ``STRING:'05-15-2013'``.  Identifiers,
    keywords and parameters are not literals and do not contribute.
    """
    try:
        tokens = lexer.tokenize(query) if tokens is None else tokens
    except ReproError:
        # Unlexable statements key on their collapsed text: no token shape
        # means no literal positions, so the whole text is the "literal".
        return ("RAW:" + " ".join(query.split()),)
    literals: list[str] = []
    for token in tokens:
        if token.kind == lexer.EOF:
            break
        if token.kind in (lexer.NUMBER, lexer.STRING):
            literals.append(f"{token.kind}:{token.value!r}")
    return tuple(literals)


def _normalize_param(value: Any) -> str:
    """One parameter value, type-tagged like a literal so ``1`` (int),
    ``1.0`` (float) and ``'1'`` (str) never collide."""
    return f"{type(value).__name__}:{value!r}"


def statement_key(
    query: str,
    params: Sequence[Any] | None = None,
    optimizer: str = "orca",
    lowered: bool = False,
    tokens: list | None = None,
) -> StatementKey:
    """Build the cache key for one statement execution (``tokens``: the
    statement already lexed, None lexes it here; an unlexable statement
    passes None)."""
    return StatementKey(
        fingerprint=fingerprint(query, tokens),
        literals=normalized_literals(query, tokens),
        params=tuple(
            _normalize_param(value) for value in (params or ())
        ),
        optimizer=optimizer,
        lowered=bool(lowered),
    )
