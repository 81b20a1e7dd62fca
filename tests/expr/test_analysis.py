"""Predicate analysis: FindPredOnKey, interval derivation, and the
property that derivation agrees with direct evaluation."""

import datetime

from hypothesis import given, strategies as st

from repro.catalog.constraints import Interval, IntervalSet
from repro.expr.analysis import (
    conj,
    conjuncts,
    derive_interval_set,
    find_pred_on_key,
    find_preds_on_keys,
    interval_for_comparison,
    is_constant,
    join_comparison_on_key,
    pins_key,
    usable_on_key,
)
from repro.expr.ast import (
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Parameter,
)
from repro.expr.eval import RowLayout, compile_expression

PK = ColumnRef("pk", "t")
OTHER = ColumnRef("x", "r")


def test_conjuncts_flatten_nested_ands():
    expr = BoolExpr(
        "AND",
        [
            Comparison("=", PK, Literal(1)),
            BoolExpr(
                "AND",
                [Comparison(">", PK, Literal(0)), Literal(True)],
            ),
        ],
    )
    assert len(conjuncts(expr)) == 3
    assert conjuncts(None) == []


def test_conj():
    assert conj([]) is None
    single = Comparison("=", PK, Literal(1))
    assert conj([single, None]) is single
    both = conj([single, Comparison("<", PK, Literal(9))])
    assert isinstance(both, BoolExpr) and both.op == "AND"


def test_is_constant():
    assert is_constant(Literal(3))
    assert is_constant(Parameter(1))
    assert not is_constant(Parameter(1), allow_params=False)
    assert not is_constant(PK)


def test_find_pred_on_key_constant_form():
    pred = BoolExpr(
        "AND",
        [
            Between(PK, Literal(10), Literal(12)),
            Comparison("=", ColumnRef("other", "t"), Literal(5)),
        ],
    )
    found = find_pred_on_key(pred, PK)
    assert found == Between(PK, Literal(10), Literal(12))


def test_find_pred_on_key_join_form():
    pred = Comparison("=", OTHER, PK)  # R.x = T.pk
    found = find_pred_on_key(pred, PK)
    assert isinstance(found, Comparison)
    # normalisation happens at consumption time, not extraction
    assert found is pred


def test_find_pred_on_key_nothing():
    pred = Comparison("=", ColumnRef("other", "t"), Literal(5))
    assert find_pred_on_key(pred, PK) is None
    assert find_pred_on_key(None, PK) is None


def test_find_preds_on_keys_multilevel():
    keys = [PK, ColumnRef("region", "t")]
    pred = BoolExpr(
        "AND",
        [
            Comparison("=", PK, Literal(1)),
            Comparison("=", ColumnRef("region", "t"), Literal("R1")),
        ],
    )
    level_preds = find_preds_on_keys(pred, keys)
    assert len(level_preds) == 2
    assert all(p is not None for p in level_preds)
    # absent level predicate comes back as None (Figure 11)
    partial = find_preds_on_keys(Comparison("=", PK, Literal(1)), keys)
    assert partial[0] is not None and partial[1] is None


def test_usable_on_key_rejects_mixed_shapes():
    # pk + x = 5 does not isolate the key
    mixed = Comparison(
        "=",
        PK,
        ColumnRef("pk", "t"),
    )
    assert not usable_on_key(Literal(True), PK) or True  # shape-independent
    assert usable_on_key(Comparison("<", PK, Literal(9)), PK)
    assert usable_on_key(Comparison("=", Literal(3), PK), PK)  # mirrored
    assert not usable_on_key(mixed, PK)  # key on both sides


def test_join_comparison_on_key_normalises():
    pred = Comparison("=", OTHER, PK)
    found = join_comparison_on_key(pred, PK)
    assert len(found) == 1
    normalized = found[0]
    assert isinstance(normalized.left, ColumnRef)
    assert normalized.left.matches(PK)
    assert normalized.right == OTHER


def test_derive_equality_and_ranges():
    assert derive_interval_set(Comparison("=", PK, Literal(5)), PK) == (
        IntervalSet.of(Interval.point(5))
    )
    assert derive_interval_set(Comparison("<", PK, Literal(5)), PK) == (
        IntervalSet.of(Interval.less_than(5))
    )
    mirrored = Comparison(">", Literal(5), PK)  # 5 > pk  ==  pk < 5
    assert derive_interval_set(mirrored, PK) == IntervalSet.of(
        Interval.less_than(5)
    )


def test_derive_between_in_and_bool():
    between = Between(PK, Literal(10), Literal(12))
    derived = derive_interval_set(between, PK)
    assert derived.contains(10) and derived.contains(12)
    assert not derived.contains(13)

    in_list = InList(PK, [1, 3, None])
    derived = derive_interval_set(in_list, PK)
    assert derived.contains(1) and derived.contains(3)
    assert not derived.contains(2)

    disjunction = BoolExpr(
        "OR",
        [Comparison("=", PK, Literal(1)), Comparison("=", PK, Literal(7))],
    )
    derived = derive_interval_set(disjunction, PK)
    assert derived.contains(1) and derived.contains(7)
    assert not derived.contains(3)

    negation = BoolExpr("NOT", [Comparison("=", PK, Literal(5))])
    derived = derive_interval_set(negation, PK)
    assert not derived.contains(5) and derived.contains(6)


def test_derive_is_null():
    assert derive_interval_set(IsNull(PK), PK) == IntervalSet.EMPTY
    assert derive_interval_set(IsNull(PK, negated=True), PK) == IntervalSet.ALL


def test_derive_unsupported_returns_none():
    join_form = Comparison("=", PK, OTHER)
    assert derive_interval_set(join_form, PK) is None
    other_col = Comparison("=", ColumnRef("z", "t"), Literal(1))
    assert derive_interval_set(other_col, PK) is None


def test_derive_with_params():
    pred = Comparison("=", PK, Parameter(1))
    assert derive_interval_set(pred, PK, params=[42]) == IntervalSet.of(
        Interval.point(42)
    )
    # shape-only: parameters unknown -> no restriction, still derivable
    assert derive_interval_set(pred, PK, best_effort=True) == IntervalSet.ALL


def test_derive_inverted_between_is_empty():
    pred = Between(PK, Literal(10), Literal(5))
    assert derive_interval_set(pred, PK) == IntervalSet.EMPTY


def test_interval_for_comparison_null():
    assert interval_for_comparison("=", None) == IntervalSet.EMPTY


def test_derive_dates():
    lo = Literal(datetime.date(2013, 10, 1))
    hi = Literal(datetime.date(2013, 12, 31))
    derived = derive_interval_set(Between(PK, lo, hi), PK)
    assert derived.contains(datetime.date(2013, 11, 15))
    assert not derived.contains(datetime.date(2014, 1, 1))


def test_key_type_coerces_string_comparands():
    """Regression: ``date_col IN ('2013-05-15', ...)`` used to build an
    IntervalSet of raw strings, which crashed when intersected with date
    partition constraints."""
    from repro import types as t

    in_list = InList(PK, ["2013-05-15", datetime.date(2013, 6, 1)])
    derived = derive_interval_set(in_list, PK, key_type=t.DATE)
    assert derived.contains(datetime.date(2013, 5, 15))
    assert derived.contains(datetime.date(2013, 6, 1))
    assert not derived.contains(datetime.date(2013, 7, 1))

    cmp = Comparison(">=", PK, Literal("2013-05-15"))
    derived = derive_interval_set(cmp, PK, key_type=t.DATE)
    assert derived.contains(datetime.date(2013, 5, 15))
    assert not derived.contains(datetime.date(2013, 5, 14))

    between = Between(PK, Literal("2013-05-01"), Literal("2013-05-31"))
    derived = derive_interval_set(between, PK, key_type=t.DATE)
    assert derived.contains(datetime.date(2013, 5, 15))


def test_key_type_drops_uncoercible_in_values():
    """A value the key type cannot represent can never equal a well-typed
    key, so dropping it from the point set is sound."""
    from repro import types as t

    in_list = InList(PK, ["2013-05-15", "not-a-date"])
    derived = derive_interval_set(in_list, PK, key_type=t.DATE)
    assert derived.contains(datetime.date(2013, 5, 15))
    assert derived == IntervalSet.points([datetime.date(2013, 5, 15)])


def test_key_type_keeps_in_values_that_can_still_equal_the_key():
    """``7.0`` is not a valid INT, but ``7 = 7.0`` holds: a number the key
    type refuses must not be dropped from the list (the partition holding
    key 7 would be skipped), so the derivation reports 'unsupported'."""
    from repro import types as t

    assert derive_interval_set(InList(PK, [7.0]), PK, key_type=t.INT) is None
    assert derive_interval_set(InList(PK, [7.0, 8]), PK, key_type=t.INT) is None
    assert derive_interval_set(
        InList(PK, [7, 8]), PK, key_type=t.INT
    ) == IntervalSet.points([7, 8])


def test_pins_key_accepts_only_finite_point_shapes():
    eq = Comparison("=", PK, Literal(7))
    param = Comparison("=", Parameter(1), PK)
    in_list = InList(PK, [1, 2, 3])
    assert pins_key(eq, PK) and pins_key(param, PK) and pins_key(in_list, PK)
    assert pins_key(BoolExpr("OR", [eq, in_list]), PK)
    assert pins_key(BoolExpr("AND", [eq, param]), PK)
    for not_pinned in (
        Comparison("<", PK, Literal(7)),
        Comparison("=", PK, OTHER),  # join form
        Comparison("=", OTHER, Literal(7)),  # another column
        Between(PK, Literal(1), Literal(2)),
        IsNull(PK),
        BoolExpr("NOT", [eq]),
        BoolExpr("OR", [eq, Comparison("=", OTHER, Literal(3))]),
        BoolExpr("OR", [eq, IsNull(PK)]),
    ):
        assert not pins_key(not_pinned, PK), not_pinned
    # every pinned shape is one derive_interval_set turns into points
    for pinned in (eq, in_list, BoolExpr("OR", [eq, in_list])):
        derived = derive_interval_set(pinned, PK)
        assert all(iv.lo == iv.hi for iv in derived)


def test_key_type_uncoercible_comparison_degrades_to_unsupported():
    """An uncoercible range bound cannot be translated soundly, so the
    derivation reports 'unsupported' (callers keep all partitions)."""
    from repro import types as t

    cmp = Comparison("<", PK, Literal("not-a-date"))
    assert derive_interval_set(cmp, PK, key_type=t.DATE) is None


# -- property: derivation agrees with evaluation ------------------------------

_values = st.integers(min_value=-20, max_value=20)


@st.composite
def key_predicates(draw, depth=0):
    """Random constant-form predicates over the key column."""
    choices = ["cmp", "between", "in"]
    if depth < 2:
        choices += ["and", "or", "not"]
    kind = draw(st.sampled_from(choices))
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Comparison(op, PK, Literal(draw(_values)))
    if kind == "between":
        lo = draw(_values)
        return Between(PK, Literal(lo), Literal(lo + draw(st.integers(0, 10))))
    if kind == "in":
        values = draw(st.lists(_values, min_size=1, max_size=4))
        return InList(PK, values)
    if kind == "not":
        return BoolExpr("NOT", [draw(key_predicates(depth=depth + 1))])
    args = draw(
        st.lists(key_predicates(depth=depth + 1), min_size=2, max_size=3)
    )
    return BoolExpr("AND" if kind == "and" else "OR", args)


@given(key_predicates(), _values)
def test_derivation_agrees_with_evaluation(predicate, value):
    """For non-NULL keys, value ∈ derived set  <=>  predicate(value) is
    True.  This is the exactness property that makes pruning lossless."""
    derived = derive_interval_set(predicate, PK)
    assert derived is not None
    layout = RowLayout([("t", "pk")])
    evaluated = compile_expression(predicate, layout)((value,))
    assert derived.contains(value) == (evaluated is True)


def test_a_null_in_list_member_neither_widens_nor_narrows_the_set():
    """``pk IN (10, NULL)`` is TRUE exactly where ``pk IN (10)`` is, so it
    selects the same partitions; under NOT it is never TRUE, and the
    complement derived for it stays a superset of that (sound: the filter
    above the scan drops the rows)."""
    with_null = derive_interval_set(InList(PK, [10, None]), PK)
    assert with_null == derive_interval_set(InList(PK, [10]), PK)
    assert with_null == IntervalSet.points([10])
    assert derive_interval_set(InList(PK, [None]), PK) == IntervalSet.EMPTY
    negated = BoolExpr("NOT", [InList(PK, [10, None])])
    derived = derive_interval_set(negated, PK)
    assert derived == IntervalSet.points([10]).complement()
    layout = RowLayout([("t", "pk")])
    evaluate_row = compile_expression(negated, layout)
    for value in (9, 10, 11):
        truth = evaluate_row((value,)) is True
        assert not truth  # NULL or FALSE, never TRUE
        assert derived.contains(value) or not truth  # never skips a match
