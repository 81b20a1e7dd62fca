"""The oracle's comparison rule, and that a wrong answer fails the run."""

from __future__ import annotations

import json

from bench import oracle
from bench.run import main


def test_same_rows_ignores_order_and_float_noise():
    got = [("b", 2, 0.1 + 0.2), ("a", 1, None)]
    assert oracle.same_rows(got, [("a", 1, None), ("b", 2, 0.3)])
    assert not oracle.same_rows(got, [("a", 1, None), ("b", 2, 0.3001)])
    assert not oracle.same_rows(got, [("a", 1, None)])
    assert not oracle.same_rows([(1,), (1,)], [(1,), (2,)])


def test_a_wrong_expected_answer_makes_the_command_exit_non_zero(monkeypatch, capsys):
    honest = oracle.SqliteOracle.query

    def off_by_one(self, stmt):
        rows = honest(self, stmt)
        if "count(*)" in stmt.sql:
            rows = [(row[0] + 1,) + tuple(row[1:]) for row in rows]
        return rows

    monkeypatch.setattr(oracle.SqliteOracle, "query", off_by_one)
    assert main(["--workload", "point_lookup", "--smoke", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().rsplit("\n", 1)[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
