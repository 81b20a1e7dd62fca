"""Expression evaluation by source generation.

An expression is rendered against a :class:`~repro.expr.eval.RowLayout`
to Python source, compiled once per *shape* and called as an ordinary
function.  Three render modes keep SQL's three-valued logic exact without
materialising ``None`` where the caller only wants a decision:

* **value** — the SQL value of the expression, ``None`` meaning NULL;
* **truth** — a Python bool: the predicate is TRUE (what a filter asks);
* **falsity** — a Python bool: the predicate is FALSE.

``truth(NOT x)`` is ``falsity(x)``, ``falsity(a AND b)`` is ``falsity(a)
or falsity(b)``, ``truth(a < b)`` is ``a is not None and b is not None and
a < b``; the NULL guard is dropped where an operand is a non-NULL constant
and a complex nullable operand is bound once with ``:=``.

**No value reaches source.**  Every literal and ``$n`` value (NULL apart,
which renders as ``None``) becomes a parameter of the generated factory::

    def make(c0):
        def k(rows):
            return [r for r in rows if (r[2] is not None and r[2] > c0)]
        return k

so the text holds only slot indexes, operators from a fixed table and
generated names, and two statements that differ in literals share one
compiled factory.  Factories live in a bounded LRU keyed by their text
(:data:`KERNEL_CACHE_SIZE`); a statement with a fresh literal costs one
``make(...)`` call, never a ``compile()``.

**Errors are reached as an eager evaluator reaches them.**  Short-circuit
rendering may skip an operand whose value cannot change the answer; that
is only observable when the skipped operand divides by zero.  Wherever an
operand after the first contains ``/`` or ``%`` the node is rendered
through value mode, which evaluates every operand the tree-walking
evaluator (``tests/expr/test_codegen_properties.py``) evaluates.
"""

from __future__ import annotations

import itertools
import linecache
import threading
from collections import OrderedDict
from typing import Any, Callable, Sequence

from ..errors import ExecutionError
from .ast import (
    AggCall,
    Arithmetic,
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Parameter,
)

#: compiled factories kept, least recently used dropped first
KERNEL_CACHE_SIZE = 1024

_COMPARE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_INFIX = {"+": "+", "-": "-", "*": "*"}
_CALLED = {"/": "_div", "%": "_mod"}


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    return a % b


_GLOBALS = {"_div": _div, "_mod": _mod}

_factories: "OrderedDict[str, Callable]" = OrderedDict()
_lock = threading.Lock()
_ids = itertools.count()


def cached_shapes() -> int:
    """How many compiled factories the cache holds right now."""
    return len(_factories)


def _factory(text: str) -> Callable:
    """The compiled ``make`` for ``text``, compiling it on a miss.  Two
    threads that miss on one shape each compile it; the first to store
    wins and the other's copy is dropped."""
    with _lock:
        make = _factories.get(text)
        if make is not None:
            _factories.move_to_end(text)
            return make
    filename = f"<repro-kernel-{next(_ids)}>"
    namespace = dict(_GLOBALS)
    exec(compile(text, filename, "exec"), namespace)
    make = namespace["make"]
    with _lock:
        winner = _factories.setdefault(text, make)
        if winner is not make:
            return winner
        # mtime None: linecache.checkcache leaves the entry alone
        linecache.cache[filename] = (
            len(text), None, text.splitlines(True), filename
        )
        while len(_factories) > KERNEL_CACHE_SIZE:
            _, evicted = _factories.popitem(last=False)
            linecache.cache.pop(evicted.__code__.co_filename, None)
    return make


def _raises(expr: Expression) -> bool:
    """Whether evaluating ``expr`` can raise: it divides somewhere."""
    return any(
        isinstance(node, Arithmetic) and node.op in _CALLED
        for node in expr.walk()
    )


def _later_operand_raises(expr: Expression) -> bool:
    return any(_raises(child) for child in expr.children()[1:])


class KernelSource:
    """One kernel being rendered: the constants that become the factory's
    parameters, where each came from (a literal's slot, a
    :class:`Parameter`, or None: fixed by the shape), and a supply of
    temporary names."""

    def __init__(self, params: Sequence[Any] | None = None):
        self.params = params
        self.consts: list[Any] = []
        self.origins: list[Any] = []
        self._temps = itertools.count()

    def const(self, value: Any, origin: Any = None) -> str:
        self.consts.append(value)
        self.origins.append(origin)
        return f"c{len(self.consts) - 1}"

    def temp(self) -> str:
        return f"t{next(self._temps)}"

    def over(self, layout, row: str = "r") -> "RowScope":
        """Renderer for expressions over rows of ``layout`` held in the
        generated variable ``row``."""
        return RowScope(self, layout, row)

    def build(self, body: Sequence[str]) -> Any:
        """Wrap the lines of ``body`` (function definitions and a final
        ``return``) in the factory, fetch or compile it, and call it with
        this kernel's constants.  Every function returned carries
        ``__source__``, and as ``__recipe__`` the factory, the constants
        and their origins: what a prepared plan makes it again from."""
        names = ", ".join(f"c{i}" for i in range(len(self.consts)))
        text = f"def make({names}):\n    " + "\n    ".join(body) + "\n"
        make = _factory(text)
        made = make(*self.consts)
        recipe = (make, tuple(self.consts), tuple(self.origins))
        for kernel in made if isinstance(made, tuple) else (made,):
            kernel.__source__ = text
            kernel.__recipe__ = recipe
        return made


class RowScope:
    """Renders expressions against one row variable.

    :meth:`operand` is the building block: the text that reads a value
    once it is known not to be NULL, and the text to test for NULL first
    (``None`` when the operand never is)."""

    def __init__(self, source: KernelSource, layout, row: str):
        self.source = source
        self.layout = layout
        self.row = row

    # -- value mode ---------------------------------------------------------

    def value(self, expr: Expression) -> str:
        if isinstance(expr, Literal):
            return self._constant(expr.value, expr.slot)
        if isinstance(expr, ColumnRef):
            return f"{self.row}[{self.layout.resolve(expr)}]"
        if isinstance(expr, Parameter):
            params = self.source.params
            if params is None or expr.index > len(params):
                raise ExecutionError(
                    f"no value bound for parameter ${expr.index}"
                )
            return self._constant(params[expr.index - 1], expr)
        if isinstance(expr, (Comparison, Between)):
            return self._null_unless(expr, *self._comparison(expr))
        if isinstance(expr, Arithmetic):
            left, right = self.operand(expr.left), self.operand(expr.right)
            if expr.op in _CALLED:
                body = f"{_CALLED[expr.op]}({left[0]}, {right[0]})"
            else:
                body = f"{left[0]} {_INFIX[expr.op]} {right[0]}"
            return self._null_unless(expr, [left, right], body)
        if isinstance(expr, IsNull):
            test = "is not None" if expr.negated else "is None"
            return f"({self.value(expr.subject)} {test})"
        if isinstance(expr, InList):
            subject = self.operand(expr.subject)
            member = f"{subject[0]} in {self._members(expr)}"
            if None in expr.values:
                member = f"({member} or None)"  # a miss is NULL, not FALSE
            return self._null_unless(expr, [subject], member)
        if isinstance(expr, BoolExpr):
            if expr.op == BoolExpr.NOT:
                inner = self.operand(expr.args[0])
                return self._null_unless(expr, [inner], f"not {inner[0]}")
            return self._kleene(expr)
        if isinstance(expr, AggCall):
            raise ExecutionError(
                "aggregate calls are evaluated by the Agg operator, not inline"
            )
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def operand(self, expr: Expression) -> tuple[str, str | None]:
        """``(use, probe)``: ``probe is None`` tests the operand for NULL
        (and binds it when it is complex), after which ``use`` reads it.
        ``probe`` is ``None`` for an operand that is never NULL and cannot
        raise: one that may raise is bound, so a guard that must evaluate
        every operand reaches it."""
        text = self.value(expr)
        if isinstance(expr, (Literal, Parameter)):
            return text, (text if text == "None" else None)
        if isinstance(expr, ColumnRef):
            return text, text
        if isinstance(expr, IsNull) and not _raises(expr):
            return text, None
        name = self.source.temp()
        return name, f"({name} := {text})"

    def _comparison(
        self, expr: Comparison | Between
    ) -> tuple[list[tuple[str, str | None]], str]:
        """The operands of a comparison or BETWEEN, in evaluation order,
        and the test over them once none is NULL."""
        if isinstance(expr, Comparison):
            left, right = self.operand(expr.left), self.operand(expr.right)
            return [left, right], f"{left[0]} {_COMPARE[expr.op]} {right[0]}"
        subject, lo, hi = (
            self.operand(e) for e in (expr.subject, expr.lo, expr.hi)
        )
        return [subject, lo, hi], f"{lo[0]} <= {subject[0]} <= {hi[0]}"

    def _constant(self, value: Any, origin: Any) -> str:
        return "None" if value is None else self.source.const(value, origin)

    def _members(self, expr: InList) -> str:
        return self.source.const(
            frozenset(v for v in expr.values if v is not None)
        )

    def _null_unless(
        self, expr: Expression, operands: list, body: str
    ) -> str:
        """``body`` unless an operand is NULL.  Operands are tested left to
        right and the rest skipped at the first NULL, unless a skipped one
        could have raised: then all are evaluated (``|``)."""
        tests = [f"{probe} is None" for _, probe in operands if probe]
        if not tests:
            return f"({body})"
        if _later_operand_raises(expr):
            nulls = " | ".join(f"({test})" for test in tests)
        else:
            nulls = " or ".join(tests)
        return f"(None if {nulls} else {body})"

    def _kleene(self, expr: BoolExpr) -> str:
        """AND / OR in value mode, evaluating operands exactly as far as
        the first one that decides the result."""
        decides, otherwise = (
            ("False", "True") if expr.op == BoolExpr.AND else ("True", "False")
        )
        names = [self.source.temp() for _ in expr.args]
        chain = "".join(
            f"{decides} if ({name} := {self.value(arg)}) is {decides} else "
            for name, arg in zip(names, expr.args)
        )
        any_null = " or ".join(f"{name} is None" for name in names)
        return f"({chain}None if {any_null} else {otherwise})"

    # -- truth and falsity --------------------------------------------------

    def truth(self, expr: Expression) -> str:
        return self._decided(expr, True)

    def falsity(self, expr: Expression) -> str:
        return self._decided(expr, False)

    def _decided(self, expr: Expression, want: bool) -> str:
        """A Python bool: ``expr`` evaluates to exactly ``want``."""
        if isinstance(expr, BoolExpr) and expr.op == BoolExpr.NOT:
            return self._decided(expr.args[0], not want)
        if _later_operand_raises(expr) or not isinstance(
            expr, (Comparison, Between, InList, IsNull, BoolExpr)
        ):
            return f"({self.value(expr)} is {want})"
        if isinstance(expr, BoolExpr):
            # AND is TRUE when all are and FALSE when any is; OR mirrors it
            every = (expr.op == BoolExpr.AND) == want
            return "(" + (" and " if every else " or ").join(
                self._decided(arg, want) for arg in expr.args
            ) + ")"
        if isinstance(expr, IsNull):
            test = "is not None" if expr.negated == want else "is None"
            return f"({self.value(expr.subject)} {test})"
        if isinstance(expr, InList):
            if want:  # NULL is in no set: no guard needed
                return (
                    f"({self.value(expr.subject)} in {self._members(expr)})"
                )
            if None in expr.values:  # a miss is NULL: never FALSE
                return f"({self.value(expr)} is False)"
            use, probe = self.operand(expr.subject)
            test = f"{use} not in {self._members(expr)}"
            return f"({probe} is not None and {test})" if probe else f"({test})"
        operands, test = self._comparison(expr)
        if not want:
            test = f"not ({test})"
        guards = [f"{probe} is not None" for _, probe in operands if probe]
        return "(" + " and ".join(guards + [test]) + ")"
