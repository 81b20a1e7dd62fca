"""The benchmark's one command.

``python -m bench.run --seed 2014`` (or ``python3 bench/run.py``) runs every
workload twice, each run in a process of its own: an untraced run for the
end-to-end metrics and a single-client traced run for the per-layer ones.
It prints every metric by name with its unit and sample count, writes
``bench/out/results.json`` and one ``trace_<workload>.jsonl`` per workload,
and exits non-zero if any statement failed or answered wrongly.

``--workload NAME --trace 0|1`` makes one such run and prints, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` — the form the
benchmark contract in ``BENCHMARK.json`` asks for.  ``--smoke`` runs the same
code at 1/20 of the rows and statements, one repetition, for the self-tests;
its numbers are marked and never compared with a full run's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # run as a script: the checkout root, not bench/, belongs on the path
    # (bench/trace.py must not shadow the standard library's ``trace``)
    sys.path[0] = str(ROOT)
if (ROOT / "src").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from bench import config, derive, trace  # noqa: E402
from bench.oracle import same_rows  # noqa: E402
from bench.passes import (  # noqa: E402
    Checker,
    Repetition,
    Tally,
    latency_summary,
    run_repetition,
    summarize,
)
from bench.staged import TracedPass, admission_counters, cache_counters, delta  # noqa: E402
from bench.workloads import CLASSES, Built, Workload, open_database  # noqa: E402

OUT = ROOT / "bench" / "out"


def _out_dir(smoke: bool) -> Path:
    return OUT / "smoke" if smoke else OUT


# -- one run of one workload ---------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Set up, verify against the oracle, measure; returns the run's detail."""
    import repro  # noqa: F401  (without the engine there is nothing to measure)

    sizes = config.SMOKE if smoke else config.FULL
    out = _out_dir(smoke)
    scratch = out / "tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload: Workload = CLASSES[name](seed, sizes)
    tally = Tally()
    checker = Checker(workload, tally)
    built: Built | None = None
    try:
        setups = []
        for attempt in range(1 if smoke or traced else config.SETUP_REPETITIONS):
            if built is not None:
                built.discard()
            built = workload.build(scratch / f"data{attempt}")
            setups.append(built.setup_seconds)
        mismatches = checker.oracle_pass(built)
        # one untimed repetition fills the result cache and whatever else
        # only fills under the real statement mix
        run_repetition(workload, built, checker, list(range(workload.clients)))
        gc.collect()
        gc.freeze()
        if traced:
            detail = _traced_run(workload, built, checker, smoke, out, scratch)
        else:
            detail = _timed_run(workload, built, checker, seconds, smoke)
            detail["end_to_end"]["setup_s"] = summarize(setups)
            detail["end_to_end"]["fail_share"] = {
                **summarize([tally.failed / tally.attempted]),
                "samples": tally.attempted,
            }
            detail["end_to_end"]["peak_rss_mb"] = summarize(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
            )
    finally:
        if built is not None:
            built.discard()
        shutil.rmtree(scratch, ignore_errors=True)
    detail.update(
        workload=name,
        seed=seed,
        smoke=smoke,
        traced=traced,
        attempted=tally.attempted,
        failed=tally.failed,
        oracle_mismatches=mismatches,
        correct=tally.failed == 0 and mismatches == 0,
    )
    return detail


def _timed_run(
    workload: Workload, built: Built, checker: Checker, seconds: float, smoke: bool
) -> dict:
    """Whole repetitions of the fixed statement list until ``seconds`` of
    timed wall have been measured, never fewer than the minimum."""
    clients = list(range(workload.clients))
    repetitions: list[Repetition] = []
    durable = built.db.durability is not None
    cache_before = cache_counters(built.db)
    while (
        len(repetitions) < (1 if smoke else config.MIN_REPETITIONS)
        or sum(r.wall_seconds for r in repetitions) < seconds
    ):
        repetitions.append(run_repetition(workload, built, checker, clients))
        if durable:
            built.db.checkpoint()
    end_to_end = {
        "stmt_per_s": summarize([r.statements_per_second for r in repetitions]),
        "p50_ms": latency_summary(repetitions, False, 0.50),
        "p95_ms": latency_summary(repetitions, False, 0.95),
    }
    report_only = {"repetitions": len(repetitions)}
    if durable:
        end_to_end["write_p50_ms"] = latency_summary(repetitions, True, 0.50)
        end_to_end["write_p95_ms"] = latency_summary(repetitions, True, 0.95)
        # the concurrent run's own counters: they depend on how the two
        # clients interleaved, so they are reported and never compared
        report_only["cache"] = delta(cache_before, cache_counters(built.db))
        report_only["admission"] = admission_counters(built.server)
        recovery = _close_and_recover(workload, built, checker.tally)
        end_to_end["recovery_s"] = summarize([recovery["seconds"]])
    return {"end_to_end": end_to_end, "report_only": report_only}


def _close_and_recover(workload: Workload, built: Built, tally: Tally) -> dict:
    """The durable workload's ending: the end state must equal the oracle's
    (every acknowledged write applied) before close and after a reopen, and
    the reopen is timed to its first correct answer."""
    oracle = workload.oracle

    def matches(db, stmt) -> bool:
        return same_rows(db.sql(stmt.sql).rows, oracle.query(stmt))

    tally.record(matches(built.db, workload.END_STATE), reason="differs before close")
    built.close()
    start_ns = perf_counter_ns()
    start = perf_counter()
    db = open_database(built.data_dir)
    try:
        first_ok = matches(db, workload.FIRST_ANSWER)
        seconds = perf_counter() - start
        tally.record(first_ok, reason="wrong first answer after reopen")
        tally.record(matches(db, workload.END_STATE), reason="differs after reopen")
        replayed = db.durability.stats_dict()["recovery_replayed_records"]
    finally:
        db.durability.close()
    return {"seconds": seconds, "start_ns": start_ns, "replayed": replayed}


def _traced_run(
    workload: Workload,
    built: Built,
    checker: Checker,
    smoke: bool,
    out: Path,
    scratch: Path,
) -> dict:
    """Single client: a few untraced repetitions as the baseline, one traced
    repetition, the stand-alone probes; then the per-layer metrics are
    derived from the trace file alone."""
    recorder = trace.Recorder()
    recorder.note("pass", "config", "engine", num_segments=built.db.num_segments)
    recorder.note(
        "pass", "bulk_insert", "storage",
        rows=built.rows_inserted, seconds=built.insert_seconds,
    )
    for rep in range(1 if smoke else config.TRACE_BASELINE_REPETITIONS):
        repetition = run_repetition(workload, built, checker, [0])
        for index, sample in enumerate(repetition.samples):
            start_ns = int(sample.started * 1e9)
            recorder.add(
                f"u{rep}", "untraced", "engine",
                start_ns, start_ns + int(sample.seconds * 1e9),
                index=index, kind=sample.stmt.kind, sql=sample.stmt.sql, ok=sample.ok,
            )
    durable = built.db.durability is not None
    if durable:
        with recorder.span("pass", "checkpoint", "durability"):
            built.db.checkpoint()
    statements = workload.repetition(0)
    traced = TracedPass(workload, built, checker, recorder, scratch)
    traced.run(statements)
    traced.probes(statements)
    if durable:
        recovery = _close_and_recover(workload, built, checker.tally)
        recorder.add(
            "pass", "recovery", "durability",
            recovery["start_ns"], recovery["start_ns"] + int(recovery["seconds"] * 1e9),
        )
        recorder.note("pass", "recovery_counts", "durability", replayed=recovery["replayed"])
    path = out / f"trace_{workload.name}.jsonl"
    recorder.write(path)
    metrics, unavailable = derive.derive(trace.load(path))
    return {
        "per_layer": metrics,
        "unavailable": unavailable,
        "trace_file": str(path.relative_to(ROOT)),
        "trace_spans": len(recorder.spans),
    }


# -- printing ------------------------------------------------------------------------------------


def _print_end_to_end(detail: dict) -> None:
    for metric in config.END_TO_END:
        got = detail["end_to_end"].get(metric.name)
        if got is None:
            continue
        print(
            f"  {metric.name:<14} {got['value']:>12.4f} {metric.unit:<6}"
            f" n={got['samples']:<6} min={got['min']:.4f} max={got['max']:.4f}"
        )
    for key, value in detail["report_only"].items():
        print(f"  (report only) {key}: {value}")


def _print_per_layer(detail: dict) -> None:
    for metric in config.PER_LAYER:
        value = detail["per_layer"][metric.name]
        if metric.name in detail["unavailable"]:
            print(f"  {metric.name:<40} unavailable ({detail['unavailable'][metric.name]})")
        else:
            print(f"  {metric.name:<40} {value:>16.4f} {metric.unit}")


def _contract_line(detail: dict) -> str:
    """The result line of the benchmark contract."""
    if detail["traced"]:
        metrics = {
            m.name: {"value": detail["per_layer"][m.name], "unit": m.unit}
            for m in config.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": detail["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in config.CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def _detail_path(name: str, traced: bool, smoke: bool) -> Path:
    return _out_dir(smoke) / f"run_{name}_trace{int(traced)}.json"


def _single(args) -> int:
    detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    path = _detail_path(args.workload, bool(args.trace), args.smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1))
    label = f"{args.workload} seed={args.seed}" + (" SMOKE" if args.smoke else "")
    if args.trace:
        print(f"{label}: per-layer metrics (traced, single client)")
        _print_per_layer(detail)
    else:
        print(f"{label}: end-to-end metrics (untraced)")
        _print_end_to_end(detail)
    print(_contract_line(detail))
    return 0 if detail["correct"] else 1


# -- every workload ------------------------------------------------------------------------------------


def _all(args) -> int:
    """Each (workload, pass) in a process of its own, so ``peak_rss_mb`` and
    the frozen heap belong to one workload."""
    results = {
        "seed": args.seed,
        "smoke": args.smoke,
        "run_seconds": args.seconds,
        "config": {
            "engine": config.ENGINE,
            "serving": config.SERVING,
            "wal_sync": config.WAL_SYNC,
            "session_cache": config.SESSION_CACHE,
            "sizes": (config.SMOKE if args.smoke else config.FULL)._asdict(),
        },
        "workloads": {},
    }
    failed = False
    for name in config.WORKLOADS:
        merged: dict = {}
        for traced in (False, True):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(traced)),
            ] + (["--smoke"] if args.smoke else [])
            path = _detail_path(name, traced, args.smoke)
            path.unlink(missing_ok=True)
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
            failed = failed or child.returncode != 0
            if not path.exists():
                print(f"{name}: run exited with code {child.returncode}", file=sys.stderr)
                continue
            detail = json.loads(path.read_text())
            key = "traced" if traced else "untraced"
            merged[key] = {k: detail[k] for k in ("attempted", "failed", "correct")}
            for section in ("end_to_end", "report_only", "per_layer", "unavailable",
                            "trace_file"):
                if section in detail:
                    merged[section] = detail[section]
        results["workloads"][name] = merged
    path = _out_dir(args.smoke) / "results.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"wrote {path.relative_to(ROOT)}" + (" (smoke: not comparable)" if args.smoke else ""))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    return _single(args) if args.workload else _all(args)


if __name__ == "__main__":
    sys.exit(main())
