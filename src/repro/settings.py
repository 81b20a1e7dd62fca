"""Statement settings: one immutable value per statement.

Everything a caller may choose about *how* a statement runs is a field of
:class:`QuerySettings`, and everything known about a field — its keyword,
its ``SET`` spelling, how text parses into it, what it accepts, what the
shell answers — is one row of :data:`FIELDS`.  The value resolves once per
statement (:func:`resolve`: Database default <- Session override <-
per-call override) and travels unchanged through engine, serving tier,
executor and execution context.  Reference: docs/architecture.md,
"Statement settings" (compared with :data:`FIELDS` by tests/test_settings.py).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Any, Callable, Mapping, NamedTuple

from .errors import ReproError
from .types import DEFAULT_BATCH_SIZE

ORCA = "orca"
PLANNER = "planner"
CACHE_MODES = ("off", "results")
#: the constructor keywords each optimizer takes from ``optimizer_options``
#: (the engine passes the rest: catalog, statistics, cost model, segments)
OPTIMIZER_OPTIONS = {
    ORCA: (
        "enable_partition_elimination",
        "enable_join_dpe",
        "enable_two_stage_agg",
        "enable_top_n",
    ),
    PLANNER: (
        "enable_static_elimination",
        "enable_param_dpe",
        "enable_partition_wise_join",
    ),
}


def _at_least(minimum: int, message: str) -> Callable[[Any], None]:
    def check(value) -> None:
        if value is not None and value < minimum:
            raise ValueError(message)

    return check


def _check_optimizer(value) -> None:
    if value not in (ORCA, PLANNER):
        raise ReproError(f"unknown optimizer {value!r}")


def _check_cache_mode(value) -> None:
    if value not in CACHE_MODES:
        raise ValueError(
            f"unknown cache mode {value!r} (one of: {', '.join(CACHE_MODES)})"
        )


class Field(NamedTuple):
    """One row of the settings table."""

    #: the :class:`QuerySettings` attribute and ``sql()`` keyword
    name: str
    #: accepted values and what the field does, as docs and ``\\help`` print
    valid: str
    summary: str
    #: raises on a value the field does not accept
    check: Callable[[Any], None] | None = None
    #: part of :attr:`QuerySettings.plan_key`
    plan_shaping: bool = False
    #: the ``SET`` spelling (None = not settable from the shell) and parser
    #: (text -> value, ``ValueError`` on garbage)
    set_name: str | None = None
    parse: Callable[[str], Any] | None = None
    #: ``SET`` spellings that drop the override, and the answer to them
    off: tuple[str, ...] = ()
    off_ack: str = ""

    def acknowledge(self, value) -> str:
        """What the shell answers to a successful ``SET``."""
        return f"{self.set_name} is {value}"


FIELDS: tuple[Field, ...] = (
    Field(
        "optimizer", "orca | planner",
        "Orca-style optimizer or the legacy Planner (shell: \\optimizer)",
        check=_check_optimizer, plan_shaping=True,
    ),
    Field(
        "optimizer_options", "keywords of the optimizer's constructor",
        "any other sql() keyword, e.g. enable_partition_elimination=False",
        plan_shaping=True,
    ),
    Field(
        "batch_size", ">= 1",
        "rows per executor batch (1 = one row per batch)",
        check=_at_least(1, "batch_size must be >= 1"),
        set_name="batch_size", parse=int, off=("off", "none", "default", ""),
        off_ack="batch_size follows the database default",
    ),
    Field(
        "cache", " | ".join(CACHE_MODES),
        "serve repeat SELECTs from cached result sets",
        check=_check_cache_mode,
        set_name="cache", parse=str.lower, off=("none", "default", ""),
        off_ack="cache follows the database default",
    ),
    Field(
        "timeout", ">= 0, or None (no limit)",
        "seconds of wall clock before QueryTimeout",
        check=_at_least(0, "timeout_seconds must be >= 0"),
        set_name="timeout_seconds", parse=float, off=("off", "none", ""),
        off_ack="timeout_seconds is off",
    ),
    Field(
        "max_rows", ">= 0, or None (no limit)",
        "buffered-row budget before ResourceLimitExceeded",
        check=_at_least(0, "max_rows must be >= 0"),
        set_name="max_rows", parse=int, off=("off", "none", ""),
        off_ack="max_rows is off",
    ),
    Field(
        "analyze", "bool",
        "collect per-node wall-clock timings (EXPLAIN ANALYZE)",
    ),
    Field(
        "trace", "bool",
        "record the lifecycle trace and optimizer search events",
    ),
)
_FIELD_NAMES = frozenset(field.name for field in FIELDS)
#: the shell's ``SET`` names -> their rows
SET_FIELDS = {field.set_name: field for field in FIELDS if field.set_name}


@dataclasses.dataclass(frozen=True)
class QuerySettings:
    """How one statement runs.  Frozen and hashable; every check on a
    value lives in :data:`FIELDS` (option names in
    :data:`OPTIMIZER_OPTIONS`) and runs here, so an instance that exists
    is valid."""

    optimizer: str = ORCA
    optimizer_options: tuple = ()
    batch_size: int = DEFAULT_BATCH_SIZE
    cache: str = "off"
    timeout: float | None = None
    max_rows: int | None = None
    analyze: bool = False
    trace: bool = False

    def __post_init__(self):
        options = tuple(sorted(dict(self.optimizer_options).items()))
        object.__setattr__(self, "optimizer_options", options)
        for field in FIELDS:
            if field.check is not None:
                field.check(getattr(self, field.name))
        accepted = OPTIMIZER_OPTIONS[self.optimizer]
        for name, _ in options:
            if name not in accepted:
                raise ReproError(
                    f"unknown keyword {name!r} for optimizer "
                    f"{self.optimizer!r} (one of: {', '.join(accepted)})"
                )

    @cached_property
    def plan_key(self) -> tuple:
        """``(optimizer, options)``: the plan is a function of
        the statement and this value, and of no other setting."""
        return tuple(
            getattr(self, field.name) for field in FIELDS if field.plan_shaping
        )


DEFAULT_SETTINGS = QuerySettings()


def resolve(
    default: QuerySettings,
    settings: QuerySettings | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> QuerySettings:
    """The settings of one statement (or one session): ``settings`` if
    given, else ``default``, with the keyword ``overrides`` on top.  A
    keyword that names a field sets it (``None`` = not overridden); any
    other keyword is an optimizer option.  With nothing overridden the
    base object itself is returned."""
    base = settings if settings is not None else default
    changes: dict[str, Any] = {}
    options: dict[str, Any] = {}
    for name, value in (overrides or {}).items():
        if name not in _FIELD_NAMES:
            options[name] = value
        elif value is not None:
            changes[name] = value
    if options:
        given = changes.get("optimizer_options", base.optimizer_options)
        changes["optimizer_options"] = {**dict(given), **options}
    return dataclasses.replace(base, **changes) if changes else base


def apply_set(
    settings: QuerySettings, default: QuerySettings, name: str, text: str
) -> tuple[QuerySettings, str]:
    """One shell ``SET name text``: the new settings and the line to
    print.  Never raises: garbage and out-of-range values leave the
    settings unchanged and answer a typed ``ERROR (sql)`` line; an "off"
    spelling drops the override, i.e. restores ``default``'s value."""
    field = SET_FIELDS.get(name)
    if field is None:
        return settings, f"ERROR (sql): unknown setting {name!r}"
    try:
        if text.lower() in field.off:
            value, answer = getattr(default, field.name), field.off_ack
        else:
            value = field.parse(text)
            answer = field.acknowledge(value)
    except ValueError:
        return settings, f"ERROR (sql): invalid {name} {text!r}"
    try:
        return dataclasses.replace(settings, **{field.name: value}), answer
    except ValueError as error:
        return settings, f"ERROR (sql): {error}"
