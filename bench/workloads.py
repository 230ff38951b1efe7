"""The benchmark's workloads: their inputs, their operations and their checks.

An operation is one (sector, method) solve, one identity-check suite or
one simulation seed.  A run repeats one fixed round of operations for
as many whole rounds as fit in its seconds, and every round starts with
the caches of asepx emptied, so each round costs what a fresh process
would.

On a shared 2-vCPU host the same operation runs up to 1.9 times slower
for seconds to minutes at a time, so a round alone reads the host as
much as the code.  Each untraced round therefore times a fixed stdlib
calibration loop between its operations, and an operation's time is
scaled to the reference host speed by the calibrations around it.  An
operation's reported time is the median of its scaled times over the
rounds.

Every workload has a main stage, which is most of its time, and short
riders from the other stages, so that every workload reports every
end-to-end metric.  The riders are spread evenly between the main
operations.

Only the simulator seeds come from --seed.  The sectors, their order
and the identity-check points are fixed (the checks use the points of
the acceptance suite), because the cost of exact arithmetic depends on
the bit size of random points: hat at n = 3 with 59 trials took 13 to
19 s over five seeded point sets.

Operations call asepx through module attributes at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Optional

import checks

METHODS = ("kernel", "mlq", "mp")
SIM_SECTOR = (2, 1, 1)
SIM_T = Fraction(1, 2)
RECURSION_DIM = 10
# the calibration loop's median time on the reference host (2-vCPU VM,
# Python 3.11.7)
CALIBRATION_REF_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "kernel_s": "s",
    "mlq_s": "s",
    "mp_s": "s",
    "ladder_s": "s",
    "sim_events_per_s": "events/s",
    "peak_rss_mib": "MiB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    main: str  # "sweep" or "ladder"; the other stages ride along
    sectors: tuple[tuple[int, ...], ...]
    # (kind, run_check kwargs, trials); kind "recursion" is criterion 6
    # at fock_dim RECURSION_DIM, with `trials` points
    suites: tuple[tuple[str, dict, int], ...]
    sim_horizon: float


# criterion 7 of the acceptance suite with its seed, cut to fit a round
# of about 6 s, so that a run holds several rounds: ybe and rll stop at
# n = 2, and rtt, zf and hat at n = 3 run 3, 2 and 3 of their trials
# (criterion 7 runs hat at n = 3 with 59, 18 to 25 s)
LADDER_PLAN = (
    [("ybe", {"n": 1}, 5), ("ybe", {"n": 2}, 2)]
    + [("rll", {"n": 1, "l": l}, 5) for l in (1, 2, 3)]
    + [("rll", {"n": 2, "l": 1}, 3)]
    + [("qp", {"n": n}, 5) for n in (1, 2, 3)]
    + [("lt-link", {"n": n, "l": 2}, 5) for n in (1, 2, 3, 4)]
    + [("rtt", {"n": 1, "fock_dim": 12}, 5), ("rtt", {"n": 2, "fock_dim": 12}, 5),
       ("rtt", {"n": 3, "fock_dim": 12}, 3)]
    + [("zf", {"n": 1, "fock_dim": 10}, 5), ("zf", {"n": 2, "fock_dim": 10}, 7),
       ("zf", {"n": 3, "fock_dim": 10}, 2)]
    + [("hat", {"n": 1, "fock_dim": 10}, 23), ("hat", {"n": 2, "fock_dim": 10}, 23),
       ("hat", {"n": 3, "fock_dim": 10}, 3)]
)
LADDER_PLAN = tuple((kind, {**kwargs, "seed": 77}, trials) for kind, kwargs, trials in LADDER_PLAN)

# criterion 6 at one of its points per rank, and criterion 4
RECURSION_PLAN = tuple(("recursion", {"n": n}, 1) for n in (2, 3, 4))
MS_THEOREM = ("ms-theorem", {"seed": 2024}, 100)
# 200 ms-theorem instances cut in 8 pieces, so that they spread over a round
MS_THEOREM_PIECES = tuple(("ms-theorem", {"seed": 2024 + k}, 25) for k in range(8))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-n3",
            why="kernel, mlq and mp on n=3 sectors; mp's traces and the symbolic "
                "scalar path dominate",
            main="sweep",
            sectors=((1, 1, 1, 1), (2, 1, 1, 1)),
            suites=MS_THEOREM_PIECES,
            sim_horizon=8000.0,
        ),
        Workload(
            name="sweep-n2",
            why="kernel, mlq and mp on n=2, L=6 sectors; mlq's pairings dominate and the "
                "kernel runs its dense and orbit-reduced paths",
            main="sweep",
            sectors=((2, 1, 3), (3, 1, 2), (4, 1, 1)),
            suites=MS_THEOREM_PIECES,
            sim_horizon=8000.0,
        ),
        Workload(
            name="verify",
            why="identity ladder, rank recursion, ms-theorem and the simulator; "
                "point-evaluated Fraction arithmetic dominates",
            main="ladder",
            sectors=((2, 1, 1), (1, 1, 3), (3, 2, 1), (2, 3, 1)),
            suites=LADDER_PLAN + RECURSION_PLAN + (MS_THEOREM,),
            sim_horizon=8000.0,
        ),
    )
}


def clear_caches() -> int:
    """Empty every lru_cache of the imported asepx modules; returns how many."""
    cleared = set()
    for name, mod in list(sys.modules.items()):
        if name != "asepx" and not name.startswith("asepx."):
            continue
        for value in vars(mod).values():
            if id(value) not in cleared and callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.add(id(value))
    return len(cleared)


def import_asepx(src: str):
    """Import asepx from the checkout's source tree, with every module the workloads use."""
    sys.path.insert(0, src)
    asepx = importlib.import_module("asepx")
    importlib.import_module("asepx.algebra_checks")
    return asepx


@dataclass
class Op:
    stage: str  # a method name, "ladder" or "sim"
    label: str
    span: str  # name of the operation's span in the traced run
    call: Callable[[], Any]
    sector: Optional[tuple[int, ...]] = None
    fock_dim: Optional[int] = None


def build_ops(w: Workload, seed: int, asepx) -> list[Op]:
    """Every operation of one round, in order.  `asepx` is the imported package."""
    sweep: list[Op] = []
    for counts in w.sectors:
        m = asepx.asep_core.Multiplicity(counts)
        solves = {
            "kernel": lambda m=m: asepx.asep_core.stationary_kernel(m),
            "mlq": lambda m=m: asepx.mlq.mlq_state(m, Fraction(1)).canonical(),
            "mp": lambda m=m: asepx.ctm.mp_stationary(m).canonical(),
        }
        for method in METHODS:
            sweep.append(Op(method, f"{method} {counts}", f"sweep.{method}",
                            solves[method], sector=counts))
    ladder: list[Op] = []
    for kind, kwargs, trials in w.suites:
        if kind == "recursion":
            call = lambda n=kwargs["n"], p=trials: _recursion(asepx, n, p)
            ladder.append(Op("ladder", f"recursion n={kwargs['n']}", "ladder.recursion",
                             call, fock_dim=RECURSION_DIM))
            continue
        call = lambda k=kind, kw=kwargs, n=trials: asepx.algebra_checks.run_check(
            k, trials=n, **kw)
        ladder.append(Op("ladder", f"{kind} {kwargs} trials={trials}",
                         f"algebra_checks.{kind}", call, fock_dim=kwargs.get("fock_dim")))
    sim_m = asepx.asep_core.Multiplicity(SIM_SECTOR)
    sim = [
        Op("sim", f"gillespie seed {s}", "sim.gillespie",
           lambda s=s: _simulate(asepx, sim_m, w.sim_horizon, s))
        for s in range(checks.PULL_SEEDS * seed, checks.PULL_SEEDS * (seed + 1))
    ]
    # the simulator seeds are short and ride along everywhere, so that
    # they sample the whole round rather than one moment of it
    if w.main == "sweep":
        return _spread(sweep, _interleave(ladder, sim))
    return _spread(ladder, _interleave(sweep, sim))


def _interleave(a: list[Op], b: list[Op]) -> list[Op]:
    """a and b merged, each keeping its order, evenly mixed."""
    return [op for _, op in sorted(
        [((k + 0.5) / len(a), op) for k, op in enumerate(a)]
        + [((k + 0.5) / len(b), op) for k, op in enumerate(b)],
        key=lambda pair: pair[0])]


def _spread(main: list[Op], riders: list[Op]) -> list[Op]:
    """main with riders inserted at evenly spaced positions."""
    slots = defaultdict(list)
    for k, op in enumerate(riders):
        slots[(k + 1) * len(main) // (len(riders) + 1)].append(op)
    out = []
    for i, op in enumerate(main):
        out.extend(slots[i])
        out.append(op)
    return out


def _recursion(asepx, n: int, points: int) -> SimpleNamespace:
    """Criterion 6: the rank recursion at its `points` fixed random (z, t)."""
    trunc = asepx.oscillator.FockTruncation(RECURSION_DIM)
    passed = True
    for k in range(points):
        z0 = asepx.scalar.random_point(5000 + 20 * n + 2 * k)
        t0 = asepx.scalar.random_point(5001 + 20 * n + 2 * k)
        passed = asepx.ctm.check_recursion(n, z0, t0, trunc) and passed
    return SimpleNamespace(name=f"recursion n={n}", passed=passed, trials=points)


def _simulate(asepx, m, horizon: float, seed: int):
    stats = {}
    dist = asepx.asep_core.gillespie(
        m, float(SIM_T), horizon=horizon, burn_in=horizon / 100, seed=seed, stats=stats)
    return dist, stats["events"]


@dataclass
class Outcome:
    op: Op
    seconds: float
    result: Any = None
    error: Optional[str] = None
    # mean calibration time around the operation; 0 in a traced round
    calibration: float = 0.0

    @property
    def reference_seconds(self) -> float:
        """The operation's time at the host speed of CALIBRATION_REF_S."""
        return self.seconds * CALIBRATION_REF_S / self.calibration


def calibrate() -> float:
    """Seconds of a fixed stdlib loop of Fraction and dict work, with the cyclic GC off.

    It reads the host's speed at the moment: when the host slows the
    operations down, this loop slows with it.  Nothing in it touches asepx.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            acc = Fraction(0)
            for i in range(1, 700):
                acc += Fraction(1, i * i + 1)
            table = {}
            for i in range(8000):
                table[(i, i ^ 5)] = [i, str(i)]
            sorted(table, key=lambda k: -k[1])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_round(ops: list[Op], tracer=None) -> tuple[list[Outcome], float]:
    """Run the operations one at a time; returns outcomes and their summed time.

    An untraced round calibrates before its first operation and after
    every operation, and gives each operation the mean of the
    calibrations just before and just after it.
    """
    outcomes = []
    perf = time.perf_counter
    wall = 0.0
    before = calibrate() if tracer is None else 0.0
    for op in ops:
        call = op.call
        if tracer is not None:
            tracer.op = op.label
            call = lambda op=op: tracer.run_span(op.span, op.call)
        t0 = perf()
        try:
            outcome = Outcome(op, 0.0, call())
        except Exception as exc:  # an operation that raises counts as failed
            outcome = Outcome(op, 0.0, error=f"{type(exc).__name__}: {exc}")
        outcome.seconds = perf() - t0
        wall += outcome.seconds
        if tracer is None:
            after = calibrate()
            outcome.calibration = (before + after) / 2
            before = after
        outcomes.append(outcome)
    return outcomes, wall


def run_rounds(ops: list[Op], seconds: float, min_rounds: int = 3,
               between: Optional[Callable[[], None]] = None) -> list[list[Outcome]]:
    """Untraced rounds of the operations, each from empty caches: at least
    `min_rounds`, then more while one more round as long as the longest so
    far still ends within `seconds`.  `between` runs after every round."""
    out = []
    perf = time.perf_counter
    start = perf()
    longest = 0.0
    while len(out) < min_rounds or perf() - start + longest <= seconds:
        t0 = perf()
        clear_caches()
        out.append(run_round(ops)[0])
        if between is not None:
            between()
        longest = max(longest, perf() - t0)
    return out


def op_times(rounds: list[list[Outcome]], reference: bool = True) -> list[Optional[float]]:
    """Each operation's median time over the rounds in which it did not fail,
    at the reference host speed or, with reference=False, as measured."""
    times = []
    for column in zip(*rounds):
        done = [o.reference_seconds if reference else o.seconds
                for o in column if o.error is None]
        times.append(statistics.median(done) if done else None)
    return times


def end_to_end(rounds: list[list[Outcome]]) -> dict[str, float]:
    """Stage sums of the operations' median reference times; every workload has every stage."""
    first = rounds[0]
    times = op_times(rounds)

    def total(stage):
        return sum(t for o, t in zip(first, times) if o.op.stage == stage and t is not None)

    events = sum(o.result[1] for o in first if o.op.stage == "sim" and o.error is None)
    return {
        "wall_s": sum(t for t in times if t is not None),
        "kernel_s": total("kernel"),
        "mlq_s": total("mlq"),
        "mp_s": total("mp"),
        "ladder_s": total("ladder"),
        "sim_events_per_s": events / total("sim") if total("sim") else 0.0,
    }


def _fingerprint(o: Outcome):
    """What a repeated operation must give again: its result, or a report's verdict."""
    if o.op.stage == "ladder":
        return (o.result.passed, o.result.trials)
    return o.result


def verify_rounds(rounds: list[list[Outcome]], asepx) -> list[checks.Verdict]:
    """Checks of the first round, and every later round gives the same results."""
    verdicts = verify_outcomes(rounds[0], asepx)
    fingerprints = [[None if o.error else _fingerprint(o) for o in r] for r in rounds]
    verdicts.append(checks.rounds_agree([o.op.label for o in rounds[0]], fingerprints))
    return verdicts


def verify_outcomes(outcomes: list[Outcome], asepx) -> list[checks.Verdict]:
    """Correctness checks on the operations that did not fail; untimed."""
    done = [o for o in outcomes if o.error is None]
    vectors: dict[tuple[int, ...], dict[str, dict]] = {}
    for o in done:
        if o.op.stage in METHODS:
            vectors.setdefault(o.op.sector, {})[o.op.stage] = o.result
    verdicts = []
    for counts, vecs in vectors.items():
        if len(vecs) > 1:
            verdicts.append(checks.vectors_equal(vecs))
            verdicts[-1].name += f" {counts}"
        for method, vec in vecs.items():
            for verdict in (checks.generator_residual(counts, vec),
                            checks.uniform_at_one(vec), checks.positive_at_half(vec)):
                verdict.name += f" {method} {counts}"
                verdicts.append(verdict)
    ladder = [o for o in done if o.op.stage == "ladder"]
    if ladder:
        verdicts.append(checks.reports_pass([o.result for o in ladder]))
    windows = {
        o.op.label: asepx.oscillator.FockTruncation(o.op.fock_dim).safe_window(2)
        for o in ladder if o.op.fock_dim is not None
    }
    if windows:
        verdicts.append(checks.windows_nonempty(windows))
    if any(o.op.span == "algebra_checks.ms-theorem" for o in ladder):
        verdicts.extend(closed_form_verdicts(asepx))
    runs = [o.result[0] for o in done if o.op.stage == "sim"]
    if runs:
        verdicts.append(checks.simulation_pulls(checks.exact_law(SIM_SECTOR, SIM_T), runs))
    return verdicts


def closed_form_verdicts(asepx) -> list[checks.Verdict]:
    """Criterion 4's two-ball element, by the pairing sum and by the trace."""
    out = []
    for alpha in (1, 2):
        for beta in (1, 2):
            q = asepx.scalar.random_point(4000 + 10 * alpha + beta)
            rows, num, den = checks.two_ball_closed_form(q, alpha, beta)
            out.append(checks.equals_closed_form(
                f"m_element a={alpha} b={beta}", asepx.mlq.m_element(q, *rows), num, den))
            out.append(checks.equals_closed_form(
                f"s_element a={alpha} b={beta}", asepx.oscillator.s_element(q, *rows), num, den))
    return out
