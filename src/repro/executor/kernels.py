"""Generated whole-batch kernels for the row-loop operators.

Each function here renders one operator's inner loop to source through
:mod:`repro.expr.codegen` with its expressions inlined, and returns the
compiled function(s); the batch iterators call them once per batch.  What
varies per plan (one key or several, semi or inner, residual or not, which
aggregates) is decided while the text is generated, never tested per row.
Literals and ``$n`` values are closure cells of the cached factory, so a
kernel is compiled once per shape.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..expr.ast import AggCall, Expression
from ..expr.codegen import KernelSource, RowScope
from ..expr.eval import RowLayout


def filter_kernel(
    predicate: Expression, layout: RowLayout, params
) -> Callable[[list], list]:
    """``rows -> rows`` keeping those where ``predicate`` is TRUE."""
    source = KernelSource(params)
    truth = source.over(layout).truth(predicate)
    return source.build(
        ["def k(rows):", f"    return [r for r in rows if {truth}]", "return k"]
    )


def _tuple_of(scope: RowScope, exprs: Sequence[Expression]) -> str:
    return "(" + "".join(f"{scope.value(e)}, " for e in exprs) + ")"


def project_kernel(
    exprs: Sequence[Expression], layout: RowLayout, params
) -> Callable[[list], list]:
    """``rows -> rows`` of the projected tuples: the input list itself when
    ``exprs`` are the layout's slots in order (no operator mutates a batch
    it receives, so sharing it is safe)."""
    source = KernelSource(params)
    row = _tuple_of(source.over(layout), exprs)
    identity = "(" + "".join(f"r[{i}], " for i in range(len(layout))) + ")"
    rows = "rows" if row == identity else f"[{row} for r in rows]"
    return source.build(["def k(rows):", f"    return {rows}", "return k"])


def sort_key_kernel(
    exprs: Sequence[Expression], layout: RowLayout, params, wrap
) -> Callable[[tuple], Any]:
    """``row -> wrap(key values)``: the ``key=`` of the sort."""
    source = KernelSource(params)
    values = _tuple_of(source.over(layout), exprs)
    return source.build(
        ["def k(r):", f"    return {source.const(wrap)}({values})", "return k"]
    )


def _key_of(scope: RowScope, keys: Sequence[Expression]) -> str:
    """A scalar for one key expression, a tuple for several."""
    return scope.value(keys[0]) if len(keys) == 1 else _tuple_of(scope, keys)


def _indent(lines: Sequence[str], levels: int = 1) -> list[str]:
    return ["    " * levels + line for line in lines]


def hash_join_kernels(
    build_keys: Sequence[Expression],
    probe_keys: Sequence[Expression],
    residual: Expression | None,
    semi: bool,
    build_layout: RowLayout,
    probe_layout: RowLayout,
    params,
) -> tuple[Callable[[list, dict], int], Callable[[list, dict, list], None]]:
    """``build(rows, table) -> rows added`` and ``probe(rows, table, out)``.

    NULL keys never join: the build loop skips them, so a probe key that
    is or holds NULL finds nothing in the table and needs no test."""
    source = KernelSource(params)
    single = len(build_keys) == 1 and len(probe_keys) == 1
    build_key = _key_of(source.over(build_layout, "b"), build_keys)
    probe_key = _key_of(source.over(probe_layout, "p"), probe_keys)
    if residual is None:
        emit = ["append(p)"] if semi else ["for b in matches:", "    append(b + p)"]
    else:
        keep = source.over(build_layout.concat(probe_layout)).truth(residual)
        emit = [
            "for b in matches:",
            "    r = b + p",
            f"    if {keep}:",
            *_indent(["append(p)", "break"] if semi else ["append(r)"], 2),
        ]
    return source.build([
        "def build(rows, table):",
        "    added = 0",
        "    setdefault = table.setdefault",
        "    for b in rows:",
        f"        key = {build_key}",
        f"        if {'key is None' if single else 'None in key'}:",
        "            continue",
        "        setdefault(key, []).append(b)",
        "        added += 1",
        "    return added",
        "def probe(rows, table, out):",
        "    get = table.get",
        "    append = out.append",
        "    for p in rows:",
        f"        matches = get({probe_key})",
        "        if matches is None:",
        "            continue",
        *_indent(emit, 2),
        "return build, probe",
    ])


def _emitted(func: str, count: str, acc: str, partial: bool) -> str:
    """What one aggregate emits from its two state slots: its transition
    state below a final stage, its result otherwise."""
    if func == "count":
        return count
    if func != "avg":
        return acc
    if partial:
        return f"({acc}, {count})"  # the final stage needs sum and count
    return f"({acc} / {count} if {count} else None)"


def _update(scope: RowScope, agg: AggCall, count: str, acc: str) -> list[str]:
    """Statements folding one row into one aggregate's ``count`` / ``acc``
    (only the slots the function's result reads are maintained)."""
    if agg.arg is None:
        return [f"{count} += 1"]
    use, probe = scope.operand(agg.arg)
    if agg.func == "count":
        steps = [f"{count} += 1"]
    elif agg.func in ("sum", "avg"):
        # left to right, one + per row: float totals match the row path
        steps = [f"{acc} = {use} if {acc} is None else {acc} + {use}"]
        if agg.func == "avg":
            steps.append(f"{count} += 1")
    else:
        better = "<" if agg.func == "min" else ">"
        steps = [f"if {acc} is None or {use} {better} {acc}:", f"    {acc} = {use}"]
    if probe is None:
        return steps
    return [f"if {probe} is not None:", *_indent(steps)]


def hash_agg_kernels(
    group_keys: Sequence[Expression],
    aggregates: Sequence[AggCall],
    partial: bool,
    layout: RowLayout,
    params,
) -> tuple[Callable[[list, dict], int], Callable[[dict], list]]:
    """``update(rows, groups) -> groups added`` and ``emit(groups) -> rows``.

    ``groups`` maps a group key (a scalar for one key expression) to a
    flat state list, two slots per aggregate: count, accumulator.  A
    scalar aggregate keeps its one group under ``()``, holds the slots in
    locals for the length of the batch and counts ``count(*)`` as
    ``len(rows)``."""
    source = KernelSource(params)
    scope = source.over(layout)
    fresh = "[" + "0, None, " * len(aggregates) + "]"
    numbered = list(enumerate(aggregates))
    if group_keys:
        update = [
            "def update(rows, groups):",
            "    added = 0",
            "    get = groups.get",
            "    for r in rows:",
            f"        key = {_key_of(scope, group_keys)}",
            "        s = get(key)",
            "        if s is None:",
            f"            s = groups[key] = {fresh}",
            "            added += 1",
            *_indent(
                [
                    line
                    for i, agg in numbered
                    for line in _update(scope, agg, f"s[{2 * i}]", f"s[{2 * i + 1}]")
                ],
                2,
            ),
            "    return added",
        ]
    else:
        names = ", ".join(f"n{i}, a{i}" for i, _ in numbered)
        per_row = [
            line
            for i, agg in numbered
            if agg.arg is not None
            for line in _update(scope, agg, f"n{i}", f"a{i}")
        ]
        update = [
            "def update(rows, groups):",
            "    s = groups.get(())",
            "    added = 0",
            "    if s is None:",
            f"        s = groups[()] = {fresh}",
            "        added = 1",
            *([f"    {names}, = s"] if numbered else []),
            *[
                f"    n{i} += len(rows)"
                for i, agg in numbered
                if agg.arg is None
            ],
            *(["    for r in rows:", *_indent(per_row, 2)] if per_row else []),
            *([f"    s[:] = {names},"] if numbered else []),
            "    return added",
        ]
    results = "".join(
        _emitted(agg.func, f"s[{2 * i}]", f"s[{2 * i + 1}]", partial) + ", "
        for i, agg in numbered
    )
    if not group_keys:
        rows = f"[({results}) for s in groups.values()]"
    elif len(group_keys) == 1:
        rows = f"[(key, {results}) for key, s in groups.items()]"
    else:
        rows = f"[key + ({results}) for key, s in groups.items()]"
    return source.build([
        *update,
        "def emit(groups):",
        f"    return {rows}",
        "return update, emit",
    ])
