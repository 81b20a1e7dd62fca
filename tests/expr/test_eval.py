"""Expression evaluation: compiled functions, layouts, three-valued logic."""

import pytest

from repro.errors import BindError, ExecutionError
from repro.expr.ast import (
    AggCall,
    Arithmetic,
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Parameter,
)
from repro.expr.eval import (
    RowLayout,
    compile_expression,
    compile_predicate,
    evaluate,
)

LAYOUT = RowLayout([("t", "a"), ("t", "b"), ("u", "a")])


def test_layout_resolution():
    assert LAYOUT.resolve(ColumnRef("b", "t")) == 1
    assert LAYOUT.resolve(ColumnRef("b")) == 1  # unique unqualified
    assert LAYOUT.resolve(ColumnRef("a", "u")) == 2
    with pytest.raises(BindError):
        LAYOUT.resolve(ColumnRef("a"))  # ambiguous
    with pytest.raises(BindError):
        LAYOUT.resolve(ColumnRef("zzz"))
    assert LAYOUT.has(ColumnRef("b"))
    assert not LAYOUT.has(ColumnRef("zzz"))


def test_layout_concat():
    left = RowLayout([("t", "a")])
    right = RowLayout([("u", "b")])
    merged = left.concat(right)
    assert merged.resolve(ColumnRef("b", "u")) == 1


def test_literals_and_columns():
    row = (1, 2, 3)
    assert evaluate(Literal(42), row, LAYOUT) == 42
    assert evaluate(ColumnRef("a", "t"), row, LAYOUT) == 1
    assert evaluate(ColumnRef("a", "u"), row, LAYOUT) == 3


@pytest.mark.parametrize(
    "op,left,right,expected",
    [
        ("=", 1, 1, True),
        ("=", 1, 2, False),
        ("<>", 1, 2, True),
        ("<", 1, 2, True),
        ("<=", 2, 2, True),
        (">", 3, 2, True),
        (">=", 1, 2, False),
        ("=", None, 1, None),
        ("<", 1, None, None),
    ],
)
def test_comparisons(op, left, right, expected):
    expr = Comparison(op, Literal(left), Literal(right))
    assert evaluate(expr) is expected


def test_three_valued_and_or():
    null = Literal(None)
    true, false = Literal(True), Literal(False)
    null_cmp = Comparison("=", null, Literal(1))
    assert evaluate(BoolExpr("AND", [true, null_cmp])) is None
    assert evaluate(BoolExpr("AND", [false, null_cmp])) is False
    assert evaluate(BoolExpr("OR", [true, null_cmp])) is True
    assert evaluate(BoolExpr("OR", [false, null_cmp])) is None
    assert evaluate(BoolExpr("NOT", [null_cmp])) is None
    assert evaluate(BoolExpr("NOT", [false])) is True


def test_between_and_in():
    assert evaluate(Between(Literal(5), Literal(1), Literal(10))) is True
    assert evaluate(Between(Literal(0), Literal(1), Literal(10))) is False
    assert evaluate(Between(Literal(None), Literal(1), Literal(10))) is None
    assert evaluate(InList(Literal(3), [1, 2, 3])) is True
    assert evaluate(InList(Literal(9), [1, 2, 3])) is False
    assert evaluate(InList(Literal(None), [1])) is None


def test_is_null():
    assert evaluate(IsNull(Literal(None))) is True
    assert evaluate(IsNull(Literal(1))) is False
    assert evaluate(IsNull(Literal(1), negated=True)) is True


def test_arithmetic():
    assert evaluate(Arithmetic("+", Literal(2), Literal(3))) == 5
    assert evaluate(Arithmetic("*", Literal(2), Literal(3))) == 6
    assert evaluate(Arithmetic("-", Literal(2), Literal(3))) == -1
    assert evaluate(Arithmetic("/", Literal(7), Literal(2))) == 3  # int div
    assert evaluate(Arithmetic("/", Literal(7.0), Literal(2))) == 3.5
    assert evaluate(Arithmetic("%", Literal(7), Literal(3))) == 1
    assert evaluate(Arithmetic("+", Literal(None), Literal(3))) is None
    with pytest.raises(ExecutionError):
        evaluate(Arithmetic("/", Literal(1), Literal(0)))


def test_parameters():
    expr = Comparison("=", Parameter(1), Literal(5))
    assert evaluate(expr, params=[5]) is True
    assert evaluate(expr, params=[6]) is False
    with pytest.raises(ExecutionError):
        evaluate(Parameter(2), params=[1])
    with pytest.raises(ValueError):
        Parameter(0)


def test_predicate_treats_null_as_false():
    pred = compile_predicate(
        Comparison("=", ColumnRef("a", "t"), Literal(1)), LAYOUT
    )
    assert pred((1, 0, 0)) is True
    assert pred((None, 0, 0)) is False


def test_aggregates_do_not_compile_inline():
    with pytest.raises(ExecutionError):
        compile_expression(AggCall("sum", Literal(1)), LAYOUT)


def test_compiled_closure_is_reusable():
    func = compile_expression(
        Arithmetic("+", ColumnRef("a", "t"), ColumnRef("b", "t")), LAYOUT
    )
    assert func((1, 2, 0)) == 3
    assert func((10, 20, 0)) == 30
