"""The source generator against a tree-walking oracle.

``repro.expr`` has one evaluator: expressions are rendered to Python
source and compiled (:mod:`repro.expr.codegen`).  The closure compiler it
replaced lives on here as the oracle — with ``IN`` corrected to SQL's
three-valued answer, so the two agree on SQL and not on the old bug — and
a hypothesis property holds the generator to it row by row, in all three
render modes, errors included.  The rest pins what the generated text may
contain and how the shape cache behaves.
"""

from __future__ import annotations

import datetime
import linecache
from typing import Any, Callable, Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ExecutionError
from repro.expr.ast import (
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
from repro.expr import codegen
from repro.expr.codegen import KERNEL_CACHE_SIZE, KernelSource, cached_shapes
from repro.expr.eval import RowLayout, compile_expression, compile_predicate

# -- the oracle: one closure per node, evaluated by walking the tree --------


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    return {
        "=": lambda: left == right,
        "<>": lambda: left != right,
        "<": lambda: left < right,
        "<=": lambda: left <= right,
        ">": lambda: left > right,
        ">=": lambda: left >= right,
    }[op]()


def oracle(
    expr: Expression, layout: RowLayout, params: Sequence[Any] | None = None
) -> Callable[[tuple], Any]:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        idx = layout.resolve(expr)
        return lambda row: row[idx]
    if isinstance(expr, Parameter):
        if params is None or expr.index > len(params):
            raise ExecutionError(f"no value bound for parameter ${expr.index}")
        value = params[expr.index - 1]
        return lambda row: value
    if isinstance(expr, Comparison):
        op = expr.op
        left = oracle(expr.left, layout, params)
        right = oracle(expr.right, layout, params)
        return lambda row: _compare(op, left(row), right(row))
    if isinstance(expr, BoolExpr):
        arg_funcs = [oracle(a, layout, params) for a in expr.args]
        if expr.op == BoolExpr.NOT:
            inner = arg_funcs[0]

            def negate(row: tuple) -> bool | None:
                value = inner(row)
                return None if value is None else not value

            return negate
        decides = expr.op == BoolExpr.OR  # AND stops at FALSE, OR at TRUE

        def kleene(row: tuple) -> bool | None:
            saw_null = False
            for func in arg_funcs:
                value = func(row)
                if value is decides:
                    return decides
                if value is None:
                    saw_null = True
            return None if saw_null else not decides

        return kleene
    if isinstance(expr, Between):
        subject = oracle(expr.subject, layout, params)
        lo = oracle(expr.lo, layout, params)
        hi = oracle(expr.hi, layout, params)

        def between(row: tuple) -> bool | None:
            value, low, high = subject(row), lo(row), hi(row)
            if value is None or low is None or high is None:
                return None
            return low <= value <= high

        return between
    if isinstance(expr, InList):
        subject = oracle(expr.subject, layout, params)
        values = {v for v in expr.values if v is not None}
        has_null = None in expr.values

        def in_list(row: tuple) -> bool | None:
            value = subject(row)
            if value is None:
                return None
            if value in values:
                return True
            return None if has_null else False  # a NULL member: unknown

        return in_list
    if isinstance(expr, IsNull):
        subject = oracle(expr.subject, layout, params)
        if expr.negated:
            return lambda row: subject(row) is not None
        return lambda row: subject(row) is None
    if isinstance(expr, Arithmetic):
        op = expr.op
        left = oracle(expr.left, layout, params)
        right = oracle(expr.right, layout, params)

        def arith(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise ExecutionError("division by zero")
            if op == "%":
                return a % b
            if isinstance(a, int) and isinstance(b, int):
                return a // b
            return a / b

        return arith
    raise ExecutionError(f"cannot compile expression {expr!r}")


# -- random typed trees ------------------------------------------------------
#
# Trees are grown from a hypothesis-supplied ``random.Random`` with explicit
# odds, so every node kind, NULLs in every position and zero divisors behind
# NULL operands turn up in every run (strategy combinators left divisions
# in one example out of twenty).

LAYOUT = RowLayout(
    [("t", name) for name in ("i1", "i2", "f1", "f2", "s1", "s2", "d1", "d2", "b1")]
)
HOSTILE = "'); import os; os.system('x') #"
NASTY = 'a line\nbreak and """ three quotes \'\'\''

DAY = datetime.date(2013, 6, 1)
#: small domains: zero divisors, equal operands and NULLs must be common
VALUES = {
    "num": [0, 1, 2, -3, 7, 0.0, 0.5, -2.5, 1e6],
    "text": ["", "a", "b", "zebra", HOSTILE, NASTY],
    "date": [DAY + datetime.timedelta(days=n) for n in (0, 1, 30, 200)],
    "bool": [True, False],
}
COLUMNS = {
    "num": ["i1", "i2", "f1", "f2"],
    "text": ["s1", "s2"],
    "date": ["d1", "d2"],
    "bool": ["b1"],
}
#: ``$n`` by position: two numeric, one text, one date
PARAM_KINDS = ["num", "num", "text", "date"]
NULL_ODDS = 0.2


def constant(rng, kind: str) -> Any:
    return None if rng.random() < NULL_ODDS else rng.choice(VALUES[kind])


def scalar(rng, kind: str, depth: int) -> Expression:
    if kind == "bool":
        return predicate(rng, depth)
    if kind == "num" and depth > 0 and rng.random() < 0.5:
        return Arithmetic(
            rng.choice(["+", "-", "*", "/", "/", "%"]),
            scalar(rng, "num", depth - 1),
            scalar(rng, "num", depth - 1),
        )
    pick = rng.random()
    if pick < 0.5:
        return ColumnRef(rng.choice(COLUMNS[kind]), "t")
    if pick < 0.8:
        return Literal(constant(rng, kind))
    return Parameter(
        rng.choice([i + 1 for i, k in enumerate(PARAM_KINDS) if k == kind])
    )


def predicate(rng, depth: int) -> Expression:
    pick = rng.random()
    if depth > 0 and pick < 0.45:
        if pick < 0.15:
            return BoolExpr("NOT", [predicate(rng, depth - 1)])
        return BoolExpr(
            rng.choice(["AND", "OR"]),
            [predicate(rng, depth - 1) for _ in range(rng.choice([2, 2, 3]))],
        )
    kind = rng.choice(["num", "num", "text", "date", "bool"])
    if depth == 0 and kind == "bool":
        kind = "num"
    shape = rng.choice(["compare", "compare", "between", "in", "null", "leaf"])
    if shape == "compare":
        ops = ["=", "<>"] if kind == "bool" else ["=", "<>", "<", "<=", ">", ">="]
        return Comparison(
            rng.choice(ops), scalar(rng, kind, depth - 1), scalar(rng, kind, depth - 1)
        )
    if shape == "between" and kind != "bool":
        return Between(*(scalar(rng, kind, depth - 1) for _ in range(3)))
    if shape == "in" and kind != "bool":
        return InList(
            scalar(rng, kind, depth - 1),
            [constant(rng, kind) for _ in range(rng.choice([1, 2, 4]))],
        )
    if shape == "null":
        return IsNull(scalar(rng, kind, depth - 1), rng.random() < 0.5)
    if rng.random() < 0.5:
        return ColumnRef("b1", "t")
    return Literal(rng.choice([True, False, None]))


def random_row(rng) -> tuple:
    kinds = ["num", "num", "num", "num", "text", "text", "date", "date", "bool"]
    return tuple(constant(rng, kind) for kind in kinds)


def outcome(func: Callable[[tuple], Any], row: tuple) -> Any:
    try:
        return func(row)
    except ExecutionError as error:
        return f"ExecutionError: {error}"


def same(a: Any, b: Any) -> bool:
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)  # NaN equals NaN here


def falsity_function(expr: Expression, params) -> Callable[[tuple], bool]:
    source = KernelSource(params)
    test = source.over(LAYOUT).falsity(expr)
    return source.build(["def k(r):", f"    return {test}", "return k"])


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(rng=st.randoms(use_true_random=False))
def test_generated_code_agrees_with_the_oracle(rng):
    """Value, truth and falsity, row by row; a division by zero is raised
    by both or by neither."""
    expr = (
        scalar(rng, "num", 3) if rng.random() < 0.2 else predicate(rng, 3)
    )
    params = [constant(rng, kind) for kind in PARAM_KINDS]
    batch = [random_row(rng) for _ in range(4)]
    expected = oracle(expr, LAYOUT, params)
    value = compile_expression(expr, LAYOUT, params)
    truth = compile_predicate(expr, LAYOUT, params)
    falsity = falsity_function(expr, params)
    for row in batch:
        want = outcome(expected, row)
        got = outcome(value, row)
        assert same(got, want), (expr, row, value.__source__)
        raised = isinstance(want, str) and want.startswith("ExecutionError")
        for decide, decided in ((truth, True), (falsity, False)):
            answer = outcome(decide, row)
            if raised:
                assert answer == want, (expr, row, decide.__source__)
            else:
                assert answer is (want is decided), (expr, row, decide.__source__)


def test_a_skippable_operand_that_divides_by_zero_still_raises():
    """Short-circuiting would stop at the NULL; the oracle goes on to the
    division, so the generated code does too (DESIGN.md, short-circuit
    rule)."""
    i1, i2 = ColumnRef("i1", "t"), ColumnRef("i2", "t")
    divides = Comparison("=", Arithmetic("/", Literal(1), i2), Literal(1))
    row = (None, 0) + (None,) * 7
    for expr in (
        BoolExpr("AND", [Comparison("=", i1, Literal(1)), divides]),
        BoolExpr("OR", [Comparison("=", i1, Literal(1)), divides]),
        Comparison("<", i1, Arithmetic("%", Literal(1), i2)),
        Arithmetic("+", i1, Arithmetic("/", Literal(1), i2)),
        Between(i1, Literal(0), Arithmetic("/", Literal(1), i2)),
        # an IS NULL operand is never NULL itself, yet may divide
        Comparison("=", i1, IsNull(Arithmetic("/", Literal(1), i2), True)),
    ):
        with pytest.raises(ExecutionError, match="division by zero"):
            oracle(expr, LAYOUT)(row)
        for compiled in (
            compile_expression(expr, LAYOUT),
            compile_predicate(expr, LAYOUT),
            falsity_function(expr, None),
        ):
            with pytest.raises(ExecutionError, match="division by zero"):
                compiled(row)
    # ... and an operand the oracle never reaches is not reached here either
    decided = BoolExpr("AND", [Comparison("=", i2, Literal(1)), divides])
    assert compile_predicate(decided, LAYOUT)(row) is False
    assert oracle(decided, LAYOUT)(row) is False


# -- SQL's IN over a list with a NULL member --------------------------------


def test_in_list_with_a_null_member_is_three_valued():
    v = ColumnRef("i1", "t")
    member = InList(v, [10, None])
    row = lambda i1: (i1,) + (None,) * 8  # noqa: E731
    value = compile_expression(member, LAYOUT)
    assert value(row(10)) is True
    assert value(row(11)) is None  # a miss is unknown, not FALSE
    assert value(row(None)) is None
    not_in = compile_predicate(BoolExpr("NOT", [member]), LAYOUT)
    assert [not_in(row(i)) for i in (10, 11, None)] == [False, False, False]
    plain = compile_predicate(BoolExpr("NOT", [InList(v, [10, 12])]), LAYOUT)
    assert [plain(row(i)) for i in (10, 11, None)] == [False, True, False]


# -- no value reaches source -------------------------------------------------


@pytest.mark.parametrize("text", [HOSTILE, NASTY])
def test_hostile_text_never_reaches_the_source(text):
    s1 = ColumnRef("s1", "t")
    row = (None,) * 4 + (text, None, None, None, None)
    cases = [
        (Comparison("=", s1, Literal(text)), None),
        (Comparison("=", s1, Parameter(1)), [text]),
        (InList(s1, [text, "other"]), None),
    ]
    for expr, params in cases:
        for compiled in (
            compile_expression(expr, LAYOUT, params),
            compile_predicate(expr, LAYOUT, params),
        ):
            assert compiled(row) is True
            for fragment in (text, "os.system", "import", '"""'):
                assert fragment not in compiled.__source__
    echo = compile_expression(Literal(text), LAYOUT)
    assert echo(row) == text  # a plain string, not code


def test_source_is_kept_and_tracebacks_can_read_it():
    compiled = compile_predicate(
        Comparison(">", ColumnRef("i1", "t"), Literal(5)), LAYOUT
    )
    assert "r[0] is not None and r[0] > c0" in compiled.__source__
    lines = linecache.getlines(compiled.__code__.co_filename)
    assert "".join(lines) == compiled.__source__


# -- the shape cache ---------------------------------------------------------


def _assert_literals_share_one_entry():
    """A literal-only difference reuses one compiled factory; a NULL
    literal is a new shape.  Holds however full the process-wide cache
    already is: a full cache evicts one entry for the new shape."""

    def compiled(bound, member):
        expr = BoolExpr(
            "AND",
            [
                Comparison("<", ColumnRef("f1", "t"), Literal(bound)),
                InList(ColumnRef("s1", "t"), [member, "x"]),
            ],
        )
        return compile_predicate(expr, LAYOUT)

    first = compiled(1.5, "a")
    shapes = cached_shapes()
    second = compiled(99.25, "zebra")
    assert cached_shapes() == shapes
    assert second.__code__ is first.__code__
    assert second.__source__ == first.__source__
    row = (None, None, 50.0, None, "zebra", None, None, None, None)
    assert (first(row), second(row)) == (False, True)
    # a NULL literal is a different shape: it renders as None
    before = set(codegen._factories)
    null = compile_predicate(
        Comparison("<", ColumnRef("f1", "t"), Literal(None)), LAYOUT
    )
    assert null.__source__ not in before
    assert null.__source__ in codegen._factories
    assert null.__code__ is not first.__code__
    assert cached_shapes() == min(shapes + 1, KERNEL_CACHE_SIZE)


def test_statements_differing_only_in_literals_share_one_entry():
    _assert_literals_share_one_entry()


def test_literal_sharing_holds_with_a_full_cache():
    """The cache is process-wide: earlier tests may have filled it."""
    filler = RowLayout([("w", f"c{i}") for i in range(KERNEL_CACHE_SIZE)])
    for i in range(KERNEL_CACHE_SIZE):
        compile_predicate(IsNull(ColumnRef(f"c{i}", "w")), filler)
    assert cached_shapes() == KERNEL_CACHE_SIZE
    _assert_literals_share_one_entry()


def test_cache_stays_within_its_bound_over_ten_thousand_shapes():
    wide = RowLayout([("w", f"c{i}") for i in range(10_000)])
    kernels = lambda: sum(  # noqa: E731
        1 for name in linecache.cache if name.startswith("<repro-kernel-")
    )
    for i in range(10_000):
        compile_predicate(IsNull(ColumnRef(f"c{i}", "w")), wide)
        if i % 500 == 0 or i == 9_999:
            assert cached_shapes() <= KERNEL_CACHE_SIZE
            assert kernels() <= KERNEL_CACHE_SIZE
    assert cached_shapes() == KERNEL_CACHE_SIZE
    # the newest shape is still cached, the oldest was dropped and recompiles
    newest = compile_predicate(IsNull(ColumnRef("c9999", "w")), wide)
    assert cached_shapes() == KERNEL_CACHE_SIZE
    assert newest((None,) * 10_000) is True
