"""The settings contract, driven by the field table (``repro.settings.FIELDS``).

One file, four promises: (i) Database default < Session override <
per-call override, for every field; (ii) every ``SET`` answers the pinned
line or a typed ``ERROR (sql)`` line and never raises; (iii) a
``QuerySettings`` is a hashable value whose ``plan_key`` moves only with
the plan-shaping fields; (iv) no layer re-declares a field as a parameter.
Plus the docs: the table in docs/architecture.md equals the field table.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro import Database
from repro import types as t
from repro.cache import CacheManager
from repro.cache.keys import statement_key
from repro.catalog import TableSchema
from repro.cli import ReplSession
from repro.errors import ReproError
from repro.executor.executor import MppExecutor
from repro.serving import QueryServer, Session
from repro.settings import (
    DEFAULT_SETTINGS,
    FIELDS,
    OPTIMIZER_OPTIONS,
    SET_FIELDS,
    QuerySettings,
    resolve,
)

QUERY = "SELECT count(*) FROM t WHERE a > 1"
BY_NAME = pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
CHECKED = pytest.mark.parametrize(
    "field", [f for f in FIELDS if f.check], ids=lambda f: f.name
)
SETTABLE = pytest.mark.parametrize(
    "field", SET_FIELDS.values(), ids=lambda f: f.set_name
)


def valid_values(field) -> list:
    """Distinct values the field accepts, read off its ``valid`` text."""
    if " | " in field.valid:
        return field.valid.split(" | ")
    if field.valid == "bool":
        return [True, False]
    if field.valid.startswith(">="):
        return [7, 8, 9]
    return [(("enable_join_dpe", False),), (("enable_top_n", False),)]


def invalid_value(field):
    """A value the field's check rejects."""
    return "bogus" if " | " in field.valid else -1


@pytest.fixture()
def db() -> Database:
    db = Database(num_segments=2)
    db.create_table("t", TableSchema.of(("a", t.INT), ("b", t.TEXT)))
    db.insert("t", [(i, "x") for i in range(10)])
    return db


@pytest.fixture()
def seen(db, monkeypatch) -> list[QuerySettings]:
    """The settings of every plan the executor was handed."""
    captured: list[QuerySettings] = []
    execute = db.executor.execute

    def spy(plan, params=None, settings=DEFAULT_SETTINGS, **handles):
        captured.append(settings)
        return execute(plan, params, settings, **handles)

    monkeypatch.setattr(db.executor, "execute", spy)
    return captured


# -- (i) precedence ----------------------------------------------------------


@BY_NAME
def test_database_then_session_then_call(db, seen, field):
    values = valid_values(field)
    low, mid, high = values[0], values[1], values[-1]
    name = field.name
    assert getattr(db.settings, name) == getattr(QuerySettings(), name)

    # distinct statements, so cache='results' executes every one of them
    queries = (f"SELECT count(*) FROM t WHERE a > {n}" for n in range(9))
    db.settings = dataclasses.replace(db.settings, **{name: low})
    inherits = db.session()
    overrides = db.session(**{name: mid})
    db.sql(next(queries))
    inherits.sql(next(queries))
    overrides.sql(next(queries))
    overrides.sql(next(queries), **{name: high})
    db.sql(next(queries), **{name: high})
    overrides.sql(next(queries))  # a per-call override does not stick
    assert [getattr(s, name) for s in seen] == [
        low, low, mid, high, high, mid
    ]
    db.serve().close()


def test_pure_resolution_layers():
    base = QuerySettings(batch_size=2)
    assert resolve(base) is base
    assert resolve(base, None, {}) is base
    assert resolve(base, None, {"batch_size": None}) is base  # None = not set
    other = QuerySettings(batch_size=3)
    assert resolve(base, other) is other  # settings= replaces the default
    assert resolve(base, other, {"cache": "results"}) == QuerySettings(
        batch_size=3, cache="results"
    )
    # a keyword that is no field is an optimizer option, merged and sorted
    tuned = resolve(base, None, {"enable_top_n": False})
    assert tuned.optimizer_options == (("enable_top_n", False),)
    both = resolve(tuned, None, {"enable_join_dpe": False})
    assert both.optimizer_options == (
        ("enable_join_dpe", False),
        ("enable_top_n", False),
    )


def test_database_constructor_keywords(db):
    assert db.settings == QuerySettings()
    tuned = Database(num_segments=2, batch_size=7, cache="results")
    assert tuned.settings == QuerySettings(batch_size=7, cache="results")
    shared = CacheManager()
    # a prebuilt manager carries no mode: that lives in the settings only
    assert Database(num_segments=2, cache=shared).cache is shared
    assert tuned.cache is not shared


def test_resolution_is_free_when_nothing_is_overridden(db, seen):
    db.sql(QUERY)
    assert seen[-1] is db.settings
    session = db.session(batch_size=2)
    session.sql(QUERY)
    assert seen[-1] is session.settings
    assert db.session().settings is db.settings
    shell = ReplSession(db)
    shell.handle_line(QUERY + ";")
    assert seen[-1] is db.settings
    assert db.settings.plan_key is db.settings.plan_key  # computed once
    db.serve().close()


@pytest.mark.parametrize("optimizer", ["orca", "planner"])
def test_unknown_keyword_raises_a_typed_error(db, seen, optimizer):
    """A keyword that is neither a field nor an option of the optimizer
    raises a ``ReproError`` naming it, before the statement runs."""
    for call in (db.sql, db.plan, db.session().sql):
        with pytest.raises(ReproError, match="'enable_warp_drive'"):
            call(QUERY, optimizer=optimizer, enable_warp_drive=True)
    with pytest.raises(ReproError, match="'enable_warp_drive'"):
        db.session(optimizer=optimizer, enable_warp_drive=True)
    # nothing was registered, let alone executed
    assert seen == [] and (db.live.completed, db.live.failed) == (0, 0)
    db.serve().close()


def test_option_table_matches_the_optimizer_constructors(db):
    for name, accepted in OPTIMIZER_OPTIONS.items():
        constructor = type(db.make_optimizer(name)).__init__
        parameters = set(inspect.signature(constructor).parameters)
        engine_given = {"self", "catalog", "stats", "cost_model", "num_segments"}
        assert parameters - engine_given == set(accepted), name


# -- satellite: every layer rejects what sql() rejects, where it is given ----


@CHECKED
def test_invalid_values_are_rejected_at_construction(db, field):
    bad = invalid_value(field)
    with pytest.raises((ValueError, ReproError)) as at_sql:
        db.sql(QUERY, **{field.name: bad})
    error = at_sql.type
    assert error is (ReproError if field.name == "optimizer" else ValueError)
    with pytest.raises(error, match=re.escape(str(at_sql.value))):
        db.session(**{field.name: bad})
    with pytest.raises(error, match=re.escape(str(at_sql.value))):
        QuerySettings(**{field.name: bad})
    with pytest.raises(error):
        db.session().sql(QUERY, **{field.name: bad})
    if field.name in inspect.signature(Database.__init__).parameters:
        with pytest.raises(error, match=re.escape(str(at_sql.value))):
            Database(num_segments=2, **{field.name: bad})
    db.serve().close()


def test_zero_workers_and_zero_batch_size_are_rejected(db):
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        db.session(batch_size=0)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        Database(num_segments=2, batch_size=0)
    # workers is no setting; the constructor keyword takes None or 1 only
    with pytest.raises(ValueError, match="workers was removed"):
        Database(num_segments=2, workers=0)
    with pytest.raises(ReproError, match="'workers'"):
        db.session(workers=0)
    db.serve().close()


def test_workers_is_gone_and_the_two_kept_keywords_construct(db):
    """Segment instances run in segment order on the statement's thread,
    so ``workers`` is no setting.  ``Database(workers=1)`` and
    ``serve(pool_workers=...)`` stay accepted for existing callers."""
    with pytest.raises(ReproError, match="'workers'"):
        db.sql(QUERY, workers=4)
    shell = ReplSession(db)
    assert shell.handle_line("SET workers 4;") == (
        "ERROR (sql): unknown setting 'workers'"
    )
    assert not shell.done
    assert "(1 rows)" in shell.handle_line(QUERY + ";")
    assert Database(num_segments=2, workers=1).settings == QuerySettings()
    with Database(num_segments=2).serve(pool_workers=2) as server:
        assert not server.closed
    with pytest.raises(ValueError, match="workers was removed"):
        Database(num_segments=2, workers=4)


# -- (ii) SET round trip -----------------------------------------------------


def _valid_text(field) -> str:
    return str(valid_values(field)[-1])


@SETTABLE
def test_set_valid_value_then_every_off_spelling(db, field):
    db.settings = dataclasses.replace(
        db.settings, **{field.name: valid_values(field)[0]}
    )
    shell = ReplSession(db)
    text = _valid_text(field)
    value = field.parse(text)
    assert shell.handle_line(f"SET {field.set_name} {text};") == (
        f"{field.set_name} is {value}"
    )
    assert getattr(shell.settings, field.name) == value
    for spelling in field.off:
        shell.handle_line(f"SET {field.set_name} = {text};")
        line = f"SET {field.set_name} {spelling.upper()};"
        assert shell.handle_line(line) == field.off_ack
        # "off" drops the shell's override: back to the database's value
        assert shell.settings == db.settings
    assert shell.errors == 0
    assert "ERROR" not in shell.handle_line(QUERY + ";")


@SETTABLE
def test_set_garbage_and_out_of_range_answer_typed_errors(db, field):
    shell = ReplSession(db)
    shell.handle_line(f"SET {field.set_name} {_valid_text(field)};")
    before = shell.settings
    bad = [str(invalid_value(field)), "zzz"]
    for count, text in enumerate(bad, start=1):
        answer = shell.handle_line(f"SET {field.set_name} {text};")
        assert answer.startswith("ERROR (sql): "), answer
        assert "\n" not in answer
        assert shell.settings is before  # setting unchanged
        assert shell.errors == count
    # the session is alive and the next statement answers
    assert "(1 rows)" in shell.handle_line(QUERY + ";")


def test_set_acknowledgements_are_pinned(db):
    """The exact lines of the shell before the table existed."""
    shell = ReplSession(db)
    for line, answer in [
        ("SET batch_size 7;", "batch_size is 7"),
        ("SET batch_size default;", "batch_size follows the database default"),
        ("SET batch_size 0;", "ERROR (sql): batch_size must be >= 1"),
        ("SET cache results;", "cache is results"),
        ("SET cache OFF;", "cache is off"),
        ("SET cache default;", "cache follows the database default"),
        (
            "SET cache sideways;",
            "ERROR (sql): unknown cache mode 'sideways' "
            "(one of: off, results)",
        ),
        ("SET timeout_seconds 0.5;", "timeout_seconds is 0.5"),
        ("SET timeout_seconds = 30;", "timeout_seconds is 30.0"),
        ("SET timeout_seconds off;", "timeout_seconds is off"),
        ("SET timeout_seconds soon;", "ERROR (sql): invalid timeout_seconds 'soon'"),
        ("SET max_rows 10;", "max_rows is 10"),
        ("SET max_rows none;", "max_rows is off"),
        ("SET max_rows 1.5;", "ERROR (sql): invalid max_rows '1.5'"),
        ("SET nonsense 1;", "ERROR (sql): unknown setting 'nonsense'"),
        ("\\optimizer planner", "optimizer: planner"),
        ("\\optimizer", "optimizer: planner"),
        ("\\optimizer foo", "unknown optimizer 'foo' (orca | planner)"),
    ]:
        assert shell.handle_line(line) == answer, line


def test_bad_set_no_longer_kills_the_session(db):
    """``SET max_rows -5`` was acknowledged, and the *next* statement
    raised ``ValueError`` out of ``handle_line``."""
    shell = ReplSession(db)
    assert shell.handle_line("SET max_rows -5;") == (
        "ERROR (sql): max_rows must be >= 0"
    )
    assert shell.handle_line("SET timeout_seconds -1;") == (
        "ERROR (sql): timeout_seconds must be >= 0"
    )
    assert shell.settings is db.settings
    assert shell.errors == 2
    assert "(1 rows)" in shell.handle_line(QUERY + ";")


def test_help_lists_every_settable_field(db):
    text = ReplSession(db).handle_line("\\help")
    for field in SET_FIELDS.values():
        assert f"  SET {field.set_name} V;" in text
        assert field.valid in text


# -- (iii) a hashable value with a plan key ----------------------------------


def test_settings_are_a_hashable_value():
    one = QuerySettings(
        batch_size=4, optimizer_options={"enable_top_n": 1, "enable_join_dpe": 2}
    )
    two = QuerySettings(
        batch_size=4, optimizer_options=(("enable_join_dpe", 2), ("enable_top_n", 1))
    )
    assert one == two and hash(one) == hash(two)
    assert one.optimizer_options == (  # sorted tuple
        ("enable_join_dpe", 2),
        ("enable_top_n", 1),
    )
    assert len({one, two, QuerySettings()}) == 2
    assert one.plan_key == two.plan_key
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.batch_size = 2
    assert [f.name for f in dataclasses.fields(QuerySettings)] == [
        f.name for f in FIELDS
    ]


@BY_NAME
def test_plan_key_moves_with_plan_shaping_fields_only(field):
    base = QuerySettings()
    other = next(
        value
        for value in valid_values(field)
        if value != getattr(base, field.name)
    )
    changed = dataclasses.replace(base, **{field.name: other})
    assert changed != base
    assert (changed.plan_key != base.plan_key) == field.plan_shaping
    assert base.plan_key == ("orca", ())


def test_default_statement_key_is_the_plain_one(db):
    """bench/ computes keys itself and must hit entries ``sql()`` stored."""
    plain = statement_key(QUERY, [1], "orca", False)
    assert db._statement_key(QUERY, [1], db.settings) == plain
    assert db._statement_key(QUERY, [1], QuerySettings(batch_size=4)) == plain
    for shaping in (
        {"optimizer": "planner"},
        {"optimizer_options": {"enable_top_n": False}},
    ):
        shaped = QuerySettings(**shaping)
        assert db._statement_key(QUERY, [1], shaped) != plain


# -- (iv) nobody re-declares a field -----------------------------------------


@pytest.mark.parametrize(
    "function",
    [
        Database.sql,
        Database._sql,
        Database.execute_plan,
        MppExecutor.execute,
        QueryServer.submit,
        Session.__init__,
    ],
    ids=lambda f: f.__qualname__,
)
def test_no_parameter_is_named_after_a_field(function):
    parameters = inspect.signature(function).parameters
    assert not {field.name for field in FIELDS} & set(parameters)
    assert "settings" in parameters


# -- the docs ----------------------------------------------------------------


def test_docs_table_equals_the_field_table():
    text = (
        pathlib.Path(__file__).parent.parent / "docs" / "architecture.md"
    ).read_text()
    section = text.split("## Statement settings", 1)[1].split("\n## ", 1)[0]
    rows = [
        tuple(
            cell.strip().strip("`").replace("\\|", "|")
            for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))
        )[:5]  # the sixth column is prose
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [
        (
            field.name,
            field.set_name or "-",
            repr(getattr(DEFAULT_SETTINGS, field.name)),
            field.valid,
            "yes" if field.plan_shaping else "no",
        )
        for field in FIELDS
    ]
