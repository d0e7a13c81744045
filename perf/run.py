"""Run the benchmark: ``python3 perf/run.py [--workload W] [--seed N]
[--seconds S] [--trace [0|1]] [--smoke] [--out DIR]``.

With ``--workload`` it measures that one workload in this interpreter and
prints, last, the one-line JSON result the driver reads.  Without, it runs
every workload in a fresh interpreter each (so ``peak_rss_mb`` and the
program's id counters are per workload) and exits non-zero if any operation
failed.  Every run appends its full result, with the machine fingerprint,
to ``<out>/results.jsonl`` — the file ``perf/compare.py`` reads.

End-to-end metrics are measured with tracing off.  ``--trace`` is a
separate run: one untraced pass, then one pass with the spans of
``perf/trace.py`` installed; it reports the per-layer metrics and writes
``<out>/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perf: the program's source (src/repro) is not in this checkout")
# run as a script, sys.path[0] is perf/ itself, where trace.py would shadow
# the standard library's module of that name
if Path(sys.path[0]).resolve() == ROOT / "perf":
    sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from perf import layers, metrics, trace  # noqa: E402
from perf.harness import Outcome  # noqa: E402
from perf.workloads import BY_NAME  # noqa: E402

# set-ups per untraced run; setup_s is their median.  A set-up of a tenth of
# a second is timed more often than one of two seconds: three of those read
# a quarter apart from run to run, and nine cost under a second.
MIN_SETUPS = 3
MAX_SETUPS = 9
SHORT_SETUPS_SECONDS = 1.0  # keep setting up until this much was timed
SMOKE_SCALE = 0.0133


@dataclass
class Pass:
    """One set-up, measured phase, finish and check of a workload."""

    outcome: Outcome
    setup_s: float
    scoped: dict[str, float]
    counters: dict[str, float]  # deltas over the measured phase
    marks: tuple[int, int] = (0, 0)  # tracer.spans indexes around the phase


def _timed_setup(module: Any, inputs: Any, workdir: str) -> tuple[Any, float]:
    gc.collect()
    started = perf_counter()
    state = module.setup(inputs, workdir)
    return state, perf_counter() - started


def run_pass(
    module: Any, inputs: Any, workdir: str, tracer: Optional[trace.Tracer]
) -> Pass:
    state, setup_s = _timed_setup(module, inputs, workdir)
    try:
        before = layers.read_counters(state)
        mark = len(tracer.spans) if tracer is not None else 0
        outcome = module.run(state, inputs, tracer)
        marks = (mark, len(tracer.spans) if tracer is not None else 0)
        after = layers.read_counters(state)
        scoped = module.finish(state, inputs, outcome)
    finally:
        module.close(state)
    module.check(inputs, outcome)
    counters = {key: after[key] - before.get(key, 0) for key in after}
    return Pass(outcome, setup_s, scoped, counters, marks)


def end_to_end(
    workload: str, passed: Pass, setup_s: float, peak_rss_mb: float
) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics bounded on every workload, workload-scoped ones)."""
    outcome = passed.outcome
    latencies = sorted(ns / 1e6 for ns in outcome.latencies_ns)
    everywhere = {
        "setup_s": setup_s,
        "throughput_ops_s": len(latencies) / (outcome.measured_ns / 1e9),
        "stmt_p50_ms": metrics.percentile(latencies, 0.50),
        "peak_rss_mb": peak_rss_mb,
    }
    scoped = {
        "stmt_p95_ms": metrics.percentile(latencies, 0.95),
        "stmt_p99_ms": metrics.percentile(latencies, 0.99),
        "failed_ops_ratio": outcome.failures / outcome.attempted,
        **passed.scoped,
    }
    scoped = {
        metric.name: scoped[metric.name]
        for metric in metrics.SCOPED
        if metrics.applies(metric, workload)
    }
    return everywhere, scoped


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository; no process is started to find out)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int, seconds: float) -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    out_dir: Path,
) -> dict[str, Any]:
    """One run of one workload; returns the full result record."""
    module = BY_NAME[workload]
    scale = SMOKE_SCALE if smoke else seconds / metrics.REFERENCE_SECONDS
    inputs = module.generate(seed, scale, smoke)
    workdir = out_dir / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record: dict[str, Any] = {
        **fingerprint(seed, seconds),
        "workload": workload,
        "trace": int(traced),
        "smoke": smoke,
    }
    try:
        with warnings.catch_warnings():
            # the noisy crowd's tie-break warnings are expected output
            warnings.simplefilter("ignore")
            setup_times = []
            if not traced:
                while len(setup_times) < MIN_SETUPS - 1 or (
                    len(setup_times) < MAX_SETUPS - 1
                    and sum(setup_times) < SHORT_SETUPS_SECONDS
                    and not smoke
                ):
                    state, setup_s = _timed_setup(module, inputs, str(workdir))
                    module.close(state)
                    setup_times.append(setup_s)
            untraced = run_pass(module, inputs, str(workdir), None)
            setup_times.append(untraced.setup_s)
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            passes = [untraced]
            if traced:
                tracer = trace.Tracer()
                uninstall = trace.install(tracer)
                try:
                    passes.append(run_pass(module, inputs, str(workdir), tracer))
                finally:
                    uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    everywhere, scoped = end_to_end(
        workload, untraced, statistics.median(setup_times), peak_rss_mb
    )
    record.update(
        attempted=sum(p.outcome.attempted for p in passes),
        failed=sum(p.outcome.failures for p in passes),
        samples=len(untraced.outcome.latencies_ns),
        end_to_end=everywhere,
        scoped=scoped,
    )
    if traced:
        spans = tracer.spans
        low, high = passes[1].marks

        def totals(part: list) -> dict:
            return trace.totals_by_name(trace.ended(part))

        notes = {**untraced.outcome.notes, **passes[1].outcome.notes}
        record["per_layer"] = layers.per_layer_metrics(
            totals(spans[low:high]), totals(spans[:high]), totals(spans[high:]),
            passes[1].counters, passes[1].outcome, untraced.outcome, notes,
        )
        record["layer_budget"] = layers.layer_budget(
            trace.ended(spans[low:high])
        )
        record["traced_statement_wall_ns"] = sum(
            passes[1].outcome.latencies_ns
        )
        tracer.write_jsonl(str(out_dir / f"trace-{workload}.jsonl"))
    record["correct"] = record["failed"] == 0
    return record


# -- printing -----------------------------------------------------------------


def print_record(record: dict[str, Any]) -> None:
    print(
        f"== {record['workload']}  seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}  "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    groups = [("end-to-end", {**record["end_to_end"], **record["scoped"]})]
    if "per_layer" in record:
        groups.append(("per-layer", record["per_layer"]))
    for title, values in groups:
        print(f"  {title} (n={record['samples']} statements)")
        for name, value in values.items():
            print(f"    {name:<40} {value:>16.6g} {metrics.UNITS[name]}")
    if "layer_budget" in record:
        print("  share of statement wall, self time per layer")
        for layer, share in sorted(
            record["layer_budget"].items(), key=lambda item: -item[1]
        ):
            print(f"    {layer:<40} {share:>16.1%}")


def driver_line(record: dict[str, Any]) -> str:
    """The contract's last line: exactly the metrics ``BENCHMARK.json``
    lists for this kind of run.  Its ``per_layer`` list carries the scoped
    end-to-end metrics too; one that does not apply here reads 0."""
    if record["trace"]:
        values = {
            **{metric.name: 0.0 for metric in metrics.SCOPED},
            **record["scoped"],
            **record["per_layer"],
        }
    else:
        values = record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    })


# -- command line -------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=metrics.REFERENCE_SECONDS,
        help="length of the measured phase the statement counts are sized "
        "for on the reference box (default %(default)s)",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; for the tier-1 smoke test")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    if args.workload is None:
        status = 0
        for workload in metrics.WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out),
            ] + (["--smoke"] if args.smoke else [])
            status |= subprocess.run(command, check=False).returncode
        return status

    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, args.out,
    )
    with open(args.out / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print_record(record)
    print(driver_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
