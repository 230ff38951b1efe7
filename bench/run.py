"""Benchmark of asepx: sector sweeps and the verification ladder.

    python3 bench/run.py --workload sweep-n3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's `src/`.  Each run is one process, single-threaded, with one
operation at a time in a closed loop.  It repeats a fixed round of
operations, emptying the caches of asepx before each round, and times
each operation by the median of its rounds, scaled to a reference host
speed by a calibration loop run between operations.  With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of one traced round, together with the
tracing overhead against untraced rounds of the same run.  Raw per-run
records and span files go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150
TRACE_BASE_ROUNDS = 2  # untraced rounds that the traced round is compared with


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class SetupProbe:
    """Set-up time of fresh processes, scaled to the reference host speed
    by calibrations just before and after each process."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload,
                    str(seed)]
        self.samples: list[float] = []
        self._run()  # the first process compiles the bytecode; not counted

    def _run(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self) -> None:
        import workloads

        for _ in range(SETUP_PROBES_PER_ROUND):
            before = workloads.calibrate()
            seconds = self._run()
            after = workloads.calibrate()
            self.samples.append(seconds * workloads.CALIBRATION_REF_S * 2 / (before + after))

    def median(self) -> float:
        return statistics.median(self.samples)


def load_asepx():
    import workloads

    asepx = workloads.import_asepx(str(SRC))
    if not Path(asepx.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"asepx was imported from {asepx.__file__}, not from {SRC}")
    return asepx


def report(args, rounds, verdicts, metrics: dict, extra: dict) -> int:
    outcomes = [o for r in rounds for o in r]
    failed = [o for o in outcomes if o.error is not None]
    correct = all(v.ok for v in verdicts)
    for o in failed:
        print(f"FAILED {o.op.label}: {o.error}", file=sys.stderr)
    for v in verdicts:
        if not v.ok:
            print(f"CHECK FAILED {v.name}: {v.detail}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "rounds": [
            [{"label": o.op.label, "stage": o.op.stage, "seconds": o.seconds,
              "calibration": o.calibration, "error": o.error} for o in r]
            for r in rounds
        ],
        "checks": [{"name": v.name, "ok": v.ok, "compared": v.compared,
                    "detail": v.detail} for v in verdicts],
        "metrics": metrics,
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def untraced(args) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    setup = SetupProbe(args.workload, args.seed)
    asepx = load_asepx()
    ops = workloads.build_ops(w, args.seed, asepx)
    # set-up is probed after every round, so that its median spans the run
    rounds = workloads.run_rounds(ops, args.seconds, between=setup.sample)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = workloads.end_to_end(rounds)
    values["setup_s"] = setup.median()
    values["peak_rss_mib"] = peak_kib / 1024
    metrics = {k: _metric(values[k], unit) for k, unit in workloads.END_TO_END_UNITS.items()}
    verdicts = workloads.verify_rounds(rounds, asepx)
    return report(args, rounds, verdicts, metrics, {})


def traced(args) -> int:
    import micro
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    asepx = load_asepx()
    layer = micro.run(asepx.scalar)
    ops = workloads.build_ops(w, args.seed, asepx)
    rounds = workloads.run_rounds(ops, 0.0, TRACE_BASE_ROUNDS)
    untraced_wall = sum(t for t in workloads.op_times(rounds, reference=False) if t is not None)
    workloads.clear_caches()  # before the wrappers hide the cached functions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, wall = workloads.run_round(ops, tracer)
    finally:
        tracer.uninstall()
    for o in outcomes:
        if o.error is None and o.op.span.startswith("algebra_checks."):
            tracer.counters[o.op.span + ".trials"] += o.result.trials
        if o.error is None and o.op.stage == "sim":
            tracer.counters["asep_core.gillespie.events"] += o.result[1]
    layer.update(tracer.metrics())
    layer["trace.wall_s"] = wall
    layer["trace.overhead_s"] = wall - untraced_wall
    metrics = {k: _metric(layer[k], tracing.unit_of(k)) for k in tracing.per_layer_names()}
    rounds.append(outcomes)
    verdicts = workloads.verify_rounds(rounds, asepx)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return report(args, rounds, verdicts, metrics,
                  {"untraced_wall_s": untraced_wall, "missing_hooks": tracer.missing})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asepx" / "__init__.py").is_file():
        print(f"bench: no asepx source tree at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
