"""Mutation tests for the benchmark's correctness checks.

    python3 bench/test_checks.py

Each checker must pass on a correct result, fail on a deliberately
broken one, and fail when it has nothing to compare.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
asepx = workloads.import_asepx(str(BENCH.parent / "src"))

SECTOR = (2, 1, 1)


def kernel_vector(counts=SECTOR) -> dict:
    return asepx.asep_core.stationary_kernel(asepx.asep_core.Multiplicity(counts))


def simulate(t: float, horizon: float) -> list[dict]:
    m = asepx.asep_core.Multiplicity(SECTOR)
    return [
        asepx.asep_core.gillespie(m, t, horizon=horizon, burn_in=horizon / 100, seed=s)
        for s in range(checks.PULL_SEEDS)
    ]


class SweepChecks(unittest.TestCase):
    def test_correct_vector_passes_every_check(self):
        vec = kernel_vector((1, 2, 1, 1))
        for verdict in (
            checks.generator_residual((1, 2, 1, 1), vec),
            checks.uniform_at_one(vec),
            checks.positive_at_half(vec),
        ):
            self.assertTrue(verdict.ok, verdict)

    def test_doubled_entry_fails_residual(self):
        vec = dict(kernel_vector())
        cfg = sorted(vec)[3]
        vec[cfg] = vec[cfg].scale(2)
        self.assertFalse(checks.generator_residual(SECTOR, vec).ok)

    def test_permuted_entries_fail_equality(self):
        vec = kernel_vector()
        same = {"kernel": vec, "mlq": dict(vec), "mp": dict(vec)}
        self.assertTrue(checks.vectors_equal(same).ok)
        a, b = next((a, b) for a in sorted(vec) for b in sorted(vec) if vec[a] != vec[b])
        swapped = dict(vec)
        swapped[a], swapped[b] = vec[b], vec[a]
        self.assertFalse(checks.vectors_equal({**same, "mlq": swapped}).ok)

    def test_checkers_that_compare_nothing_fail(self):
        self.assertFalse(checks.vectors_equal({}).ok)
        self.assertFalse(checks.vectors_equal({"kernel": {}, "mlq": {}}).ok)
        self.assertFalse(checks.generator_residual(SECTOR, {}).ok)
        self.assertFalse(checks.uniform_at_one({}).ok)
        self.assertFalse(checks.positive_at_half({}).ok)
        self.assertFalse(checks.reports_pass([]).ok)
        self.assertFalse(checks.windows_nonempty({}).ok)
        self.assertFalse(checks.rounds_agree(["op"], [[1]]).ok)
        law = checks.exact_law(SECTOR, workloads.SIM_T)
        self.assertFalse(checks.simulation_pulls(law, []).ok)
        self.assertFalse(checks.simulation_pulls({}, [{}] * checks.PULL_SEEDS).ok)


class Rounds(unittest.TestCase):
    def test_a_round_that_differs_fails(self):
        vec = kernel_vector()
        self.assertTrue(checks.rounds_agree(["kernel"], [[vec], [dict(vec)]]).ok)
        changed = dict(vec)
        first = next(iter(changed))
        changed[first] = changed[first] + changed[first]
        self.assertFalse(checks.rounds_agree(["kernel"], [[vec], [changed]]).ok)

    def test_every_round_starts_from_empty_caches(self):
        asepx.ctm.mp_stationary(asepx.asep_core.Multiplicity(SECTOR))
        asepx.algebra_checks.run_check("rtt", n=2, fock_dim=6, trials=1)
        cached = [asepx.ctm.build_X, asepx.oscillator.trace_pem]
        self.assertTrue(all(f.cache_info().currsize for f in cached))
        self.assertGreaterEqual(workloads.clear_caches(), 3)
        self.assertFalse(any(f.cache_info().currsize for f in cached))


class VerifyChecks(unittest.TestCase):
    def test_exact_law_matches_the_kernel_vector(self):
        law = checks.exact_law(SECTOR, Fraction(1, 2))
        vec = kernel_vector()
        values = {c: p.eval(Fraction(1, 2)) for c, p in vec.items()}
        total = sum(values.values())
        self.assertEqual(law, {c: v / total for c, v in values.items()})

    def test_two_ball_closed_form(self):
        q = Fraction(3, 7)
        rows, num, den = checks.two_ball_closed_form(q, 2, 1)
        good = asepx.mlq.m_element(q, *rows)
        self.assertTrue(checks.equals_closed_form("m", good, num, den).ok)
        self.assertTrue(checks.equals_closed_form(
            "s", asepx.oscillator.s_element(q, *rows), num, den).ok)
        wrong = asepx.mlq.m_element(q + 1, *rows)
        self.assertFalse(checks.equals_closed_form("m", wrong, num, den).ok)

    def test_empty_safe_window_fails(self):
        window = asepx.oscillator.FockTruncation(2).safe_window(2)
        self.assertFalse(checks.windows_nonempty({"zf fock_dim=2": window}).ok)
        self.assertTrue(checks.windows_nonempty(
            {"zf fock_dim=10": asepx.oscillator.FockTruncation(10).safe_window(2)}).ok)

    def test_failed_report_fails(self):
        report = asepx.algebra_checks.run_check("ybe", n=1, trials=1)
        self.assertTrue(checks.reports_pass([report]).ok)
        report.passed = False
        self.assertFalse(checks.reports_pass([report]).ok)


class SimulatorPulls(unittest.TestCase):
    """The pull check at both horizons the workloads use."""

    law = checks.exact_law(SECTOR, workloads.SIM_T)
    horizons = sorted({w.sim_horizon for w in workloads.WORKLOADS.values()})

    def test_simulation_at_the_right_rate_passes(self):
        for horizon in self.horizons:
            verdict = checks.simulation_pulls(self.law, simulate(0.5, horizon))
            self.assertTrue(verdict.ok, verdict)

    def test_simulation_at_t_0_9_fails(self):
        for horizon in self.horizons:
            verdict = checks.simulation_pulls(self.law, simulate(0.9, horizon))
            self.assertFalse(verdict.ok, verdict)


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_match_what_the_runs_print(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracing.per_layer_names())
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], tracing.unit_of(m["name"]), m["name"])
            self.assertEqual(m["better"], tracing.better_of(m["name"]), m["name"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         workloads.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)


if __name__ == "__main__":
    sys.exit(unittest.main())
