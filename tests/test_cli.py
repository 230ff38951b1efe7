import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from asepx.asep_core import Multiplicity
from asepx.cli import _emit, _emit_streamed, main, run
from asepx.mlq import iter_mlqs
from asepx.scalar import RF_ZERO, RatFunc


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


class TestStationaryCommand:
    def test_matrix_product_fixture(self, capsys):
        code, out = _capture(
            capsys,
            ["stationary", "--n", "2", "--L", "4", "--mult", "2,1,1",
             "--method", "mp"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "asepx/1"
        assert data["state"]["0012"] == ["3", "1"]
        assert data["state"]["0102"] == ["2", "2"]
        assert data["state"]["1002"] == ["1", "3"]

    def test_single_species_kernel_uniform(self, capsys):
        code, out = _capture(
            capsys,
            ["stationary", "--n", "1", "--L", "3", "--mult", "2,1",
             "--method", "kernel"],
        )
        assert code == 0
        data = json.loads(out)
        assert list(data["state"].values()) == [["1"], ["1"], ["1"]]

    def test_all_methods_report_equal(self, capsys):
        code, out = _capture(
            capsys, ["stationary", "--mult", "1,1,1", "--all-methods"]
        )
        assert code == 0
        assert json.loads(out)["status"] == "EQUAL"

    def test_mlq_generic_q_emits_rational_functions(self, capsys):
        code, out = _capture(
            capsys,
            ["stationary", "--mult", "1,1,1", "--method", "mlq", "--q", "2/3"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["q"] == "2/3"
        entry = data["state"]["012"]
        assert set(entry) == {"num", "den"}


class TestVerifyCommand:
    def test_zf_suite_passes(self, capsys):
        code, out = _capture(
            capsys,
            ["verify", "zf", "--n", "2", "--trials", "5", "--seed", "7",
             "--fock-dim", "10"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True and data["trials"] == 5
        assert data["degree_bound"]

    def test_stationary_without_mult_is_computation_error(self, capsys):
        code, _ = _capture(capsys, ["verify", "stationary"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "rtt", "--trials", "0"],
            ["verify", "ybe", "--n", "0"],
            ["verify", "zf", "--fock-dim", "2"],
            ["sector", "--mult", "0,0"],
            ["simulate", "--mult", "1,1,1", "--horizon", "0"],
            ["simulate", "--mult", "1,1,1", "--horizon", "-5"],
            ["simulate", "--mult", "1,1,1", "--burn-in", "-3"],
            ["simulate", "--mult", "1,1,1", "--t", "nan"],
            ["simulate", "--mult", "2,1,1", "--horizon", "1e308", "--burn-in", "1e308"],
            ["stationary", "--mult", "2,1,1", "--method", "mp", "--q", "2/3"],
            ["stationary", "--mult", "2,1,1", "--method", "kernel", "--q", "0"],
            ["stationary", "--mult", "2,1,1", "--all-methods", "--q", "2/3"],
            ["stationary", "--n", "3", "--mult", "2,1,1"],
            ["stationary", "--mult", "1,1,1", "--L", "4"],
            ["dump-mlq", "--mult", "2,0,1"],
            ["dump-mlq", "--mult", "2,0,1", "--format", "text"],
        ],
    )
    def test_vacuous_arguments_exit_one_with_an_error_line(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_stationary_sector(self, capsys):
        code, out = _capture(
            capsys, ["verify", "stationary", "--mult", "1,2,1"]
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestDeterminism:
    def test_verify_qp_matches_the_recorded_digest(self, capsys):
        # sha256 of `verify qp` stdout for n = 1..3, json then text, recorded
        # while RatFunc.scale still reduced its result through poly_gcd
        digest = hashlib.sha256()
        for n in (1, 2, 3):
            for fmt in ("json", "text"):
                code, out = _capture(capsys, ["verify", "qp", "--n", str(n), "--trials", "3",
                                              "--seed", "11", "--format", fmt])
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "7af9a375f3fb9cfec5aa328911b0941205072aff5fbfc21cd3f0ebf7228e9036"
        )

    def test_byte_identical_output(self, capsys):
        argv = ["verify", "qp", "--n", "2", "--trials", "3", "--seed", "11"]
        _, first = _capture(capsys, argv)
        _, second = _capture(capsys, argv)
        assert first == second

    def test_simulation_deterministic_given_seed(self, capsys):
        argv = [
            "simulate", "--mult", "1,1,1", "--t", "0.5",
            "--horizon", "50", "--seed", "3",
        ]
        _, first = _capture(capsys, argv)
        _, second = _capture(capsys, argv)
        assert first == second
        data = json.loads(first)
        assert abs(sum(data["occupation"].values()) - 1.0) < 1e-9


class TestRatFuncIsOutputOnly:
    """The pipelines compute on numerators; a `RatFunc` is built only to print."""

    COMMANDS = [
        ["stationary", "--mult", "2,1,1,1", "--all-methods"],
        ["stationary", "--mult", "1,2,1", "--method", "mlq", "--q", "2/5"],
        ["stationary", "--mult", "2,1,1,1", "--method", "mlq", "--q", "2/5"],
        ["dump-mlq", "--mult", "1,2,1", "--q", "2/5"],
        ["verify", "ms-theorem"],
    ]

    def test_no_package_frame_adds_ratfuncs(self, capsys, monkeypatch):
        callers = []
        add = RatFunc.__add__

        def recorded(self, other):
            code = sys._getframe(1).f_code
            callers.append((Path(code.co_filename).resolve(), code.co_name))
            return add(self, other)

        monkeypatch.setattr(RatFunc, "__add__", recorded)
        RF_ZERO + RF_ZERO  # the wrapper sees its caller
        assert callers == [(Path(__file__).resolve(), "test_no_package_frame_adds_ratfuncs")]
        for module in [m for name, m in sys.modules.items() if name.startswith("asepx.")]:
            for cached in vars(module).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
        for argv in self.COMMANDS:
            assert run(argv) == 0, argv
        capsys.readouterr()
        package = Path(sys.modules["asepx"].__file__).resolve().parent
        assert [c for c in callers if c[0].is_relative_to(package)] == []


class TestSectorCommand:
    def test_dimension_and_matrix(self, capsys):
        code, out = _capture(capsys, ["sector", "--mult", "2,1,1"])
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 12
        assert data["configs"][0] == "0012"
        assert data["matrix"]["0,0"] == {"num": ["-1", "-2"], "den": ["1"]}


class TestDumpCommands:
    def test_dump_x_terms(self, capsys):
        code, out = _capture(capsys, ["dump-x", "--n", "2", "--alpha", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["modes"] == 1
        assert {"zdeg": 1, "word": "-"} in data["terms"]
        assert {"zdeg": 2, "word": ""} in data["terms"]

    def test_dump_x_multimode_separator(self, capsys):
        code, out = _capture(capsys, ["dump-x", "--n", "3", "--alpha", "1"])
        assert code == 0
        data = json.loads(out)
        assert {"zdeg": 1, "word": "k|k|"} in data["terms"]
        assert {"zdeg": 2, "word": "k|k|+"} in data["terms"]

    def test_dump_x_matches_the_recorded_digest(self, capsys):
        # sha256 of dump-x stdout for n = 0..4, every alpha, json then text,
        # recorded while multi-mode words were sorted (mode, word) pairs
        digest = hashlib.sha256()
        for n in range(5):
            for alpha in range(n + 1):
                for fmt in ("json", "text"):
                    code, out = _capture(capsys, [
                        "dump-x", "--n", str(n), "--alpha", str(alpha), "--format", fmt])
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "02a51d251270626b9a642bab8a37c3892bcbbe5fa1243d3723994417b851800c"
        )

    def test_dump_mlq_arrows(self, capsys):
        code, out = _capture(capsys, ["dump-mlq", "--mult", "1,1,1", "--q", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["mlqs"]
        rec = data["mlqs"][0]
        assert set(rec) == {"rows", "arrows", "weight", "config"}
        for arrow in rec["arrows"]:
            src, tgt, row = arrow
            assert 0 <= src < 3 and 0 <= tgt < 3 and row >= 2


# sha256 of `dump-mlq --format text` stdout, recorded while iter_mlqs still
# multiplied reduced RatFuncs
DUMP_MLQ_TEXT_DIGESTS = {
    ("1,2,1", "1"): "a148271313ba5a3c59d36251809fe84f54f19f8658709575801e5671e4777761",
    ("1,2,1", "-1"): "035494c1ff8514fe87aaef25425175759d0cb18fa0afa238e64cbc8ac2f43b0b",
    ("1,2,1", "1/3"): "1ff476bdc75ef483f15be5df7de8d20767b4d7fe33fb654ce72ee6f6e464da88",
    ("1,2,1", "2/5"): "33b00433cedf1dc5d2ca8e37cc4cc0e58e014ed9f938d8e95d7ec95eac213d77",
    ("2,1,1,1", "1"): "c319799e461d54a43a1618ccbe4b1f6e19f5cc4963d739fe95ed9a6b7c8c71ab",
    ("2,1,1,1", "-1"): "46df26358107b194038a08b5cdcd8b01ce5befbf46eb8845fba79c6cb5049959",
    ("2,1,1,1", "1/3"): "69a887fcefc18b473dfea4bb37473f46086a51cbb92ce933f4624a897596ac38",
    ("2,1,1,1", "2/5"): "710e19642571ae1ea845c4788cc772b9a022556947e90d290894be13fed85bd7",
    ("2,2,1", "1"): "59e99ea83022b793fc0f839c939dfc592dc40e24a18d74be1dc98082db1e0a2e",
    ("2,2,1", "-1"): "d2b9130ebbb632d5602a6753768c713a0a8d60c437426c8bbb166a19f1c865b2",
    ("2,2,1", "1/3"): "a32c1b4d0a9a27977d9135ba567b4eef2e81008559285d04bcc3a4b5e1a36c0c",
    ("2,2,1", "2/5"): "d65f8904610fc5c55c97ce71e11e8a5fa79b94bf71ef8e1f3b4185a947a12700",
}


class TestStreamedOutput:
    """dump-mlq writes its records one by one; the bytes are those of one json.dumps."""

    @staticmethod
    def _payload(mult, q):
        queues = [
            {
                "rows": ["".join(str(b) for b in row) for row in rec.rows],
                "arrows": [list(a) for a in rec.arrows],
                "weight": rec.weight.to_json(),
                "config": "".join(str(s) for s in rec.config),
            }
            for rec in iter_mlqs(Multiplicity(mult), q)
        ]
        return {"schema": "asepx/1", "q": str(q), "mlqs": queues}

    @pytest.mark.parametrize("mult", [(1, 2, 1), (2, 1, 1, 1)])
    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2, 5)])
    def test_dump_mlq_matches_whole_payload(self, capsys, mult, q):
        payload = self._payload(mult, q)
        argv = ["dump-mlq", "--mult", ",".join(map(str, mult)), "--q", str(q)]
        code, out = _capture(capsys, argv)
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        code, out = _capture(capsys, argv + ["--format", "text"])
        assert code == 0
        assert out == "".join(f"{k}: {v}\n" for k, v in payload.items())

    @pytest.mark.parametrize("case", list(DUMP_MLQ_TEXT_DIGESTS), ids="@".join)
    def test_dump_mlq_text_matches_the_recorded_digest(self, capsys, case):
        mult, q = case
        code, out = _capture(capsys, ["dump-mlq", "--mult", mult, "--q", q, "--format", "text"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_MLQ_TEXT_DIGESTS[case]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("items", [[], [{"b": [1, 2], "a": "x"}], [{"a": 1}, {"a": []}]])
    def test_streamed_equals_emitted(self, capsys, fmt, items):
        head = {"schema": "asepx/1", "q": "1"}
        _emit({**head, "mlqs": items}, fmt)
        whole = capsys.readouterr().out
        _emit_streamed(head, "mlqs", iter(items), fmt)
        assert capsys.readouterr().out == whole


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_bad_rational(self):
        with pytest.raises(SystemExit) as err:
            run(["stationary", "--mult", "1,1,1", "--q", "x"])
        assert err.value.code == 2


class TestEntryPoint:
    def test_installed_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asepx.cli", "dump-x", "--n", "1",
             "--alpha", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["modes"] == 0

    def test_package_runs_as_a_module(self, capsys, monkeypatch):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "asepx", "sector", "--mult", "2,1,1"],
            capture_output=True, text=True, env=env,
        )
        monkeypatch.setattr(sys, "argv", ["asepx", "sector", "--mult", "2,1,1"])
        with pytest.raises(SystemExit) as err:
            main()
        assert (proc.returncode, proc.stdout) == (err.value.code, capsys.readouterr().out)
        assert proc.returncode == 0 and proc.stdout
