"""proctriage benchmark: HTTP classify, bulk ingest and offline training.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload classify-fleet --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload per run.  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer metrics (spans are written to
``.perfbench/traces/``).  ``--workload all`` runs every workload untraced
and then traced, each in a process of its own, and prints the tracing
overhead between the two.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
correctness check fails and 2 when the checkout has no sources.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def _environment(args) -> str:
    import numpy
    import workloads
    return (f"# env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} connections={workloads.CONNECTIONS} seed={args.seed} "
            f"seconds={args.seconds} workload={args.workload} trace={args.trace}")


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload in a fresh work directory; return its Outcome."""
    import workloads
    work = STATE / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = logging.getLogger()
    handler = logging.FileHandler(work / "bench.log", encoding="utf-8")
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    ctx = workloads.Context(workload=name, seed=seed, seconds=seconds, trace=trace,
                            work=work, src=SRC, sizes=sizes or workloads.Sizes())
    try:
        outcome = workloads.WORKLOADS[name](ctx)
        if trace:
            ctx.tracer.write(STATE / "traces" / f"{name}-seed{seed}.jsonl")
        return outcome
    finally:
        log.removeHandler(handler)
        handler.close()
        shutil.rmtree(work, ignore_errors=True)


def result_line(outcome, trace: bool) -> str:
    import workloads
    units = workloads.PER_LAYER_UNITS if trace else workloads.E2E_UNITS
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def print_report(name: str, outcome, trace: bool) -> None:
    import workloads
    if trace:
        rows = [(k, v, workloads.PER_LAYER_UNITS[k], None) for k, v in outcome.metrics.items()]
    else:
        rows = list(outcome.table)
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    rows.append(("error_rate", rate, "share", outcome.attempted))
    for metric, value, unit, n in rows:
        count = f"  n={n}" if n is not None else ""
        print(f"{name:<14} {metric:<28} {value:>14.6g} {unit}{count}")
    print(f"{name:<14} {'operations':<28} attempted {outcome.attempted}, "
          f"succeeded {outcome.attempted - outcome.failed}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"{name:<14} FAILED: {problem}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["classify-fleet", "ingest-bulk", "train-offline", "all"])
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proctriage" / "__init__.py").is_file():
        print(f"perfbench: no proctriage sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import proctriage
    if not Path(proctriage.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: proctriage imported from {proctriage.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    # a plain SIGTERM would skip the clean-up that stops the server process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(_environment(args), flush=True)

    if args.workload != "all":
        outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(args.workload, outcome, bool(args.trace))
        print(result_line(outcome, bool(args.trace)), flush=True)
        return 0 if outcome.correct else 1

    ok = True
    for name in workloads.WORKLOADS:
        latency = {}
        for trace in (0, 1):
            # each run in its own process, so peak memory is that run's alone
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[1:]), flush=True)
            ok = ok and child.returncode == 0
            if child.returncode in (0, 1):
                metrics = json.loads(lines[-1])["metrics"]
                latency[trace] = metrics["trace.latency_ms" if trace else "latency_ms"]["value"]
        if len(latency) == 2:
            overhead = (latency[1] / latency[0] - 1) * 100
            print(f"{name:<14} {'tracing_overhead':<28} {overhead:>14.3g} % "
                  f"(traced latency_ms against untraced)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
