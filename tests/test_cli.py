import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kalmanres import cli, kalman, schur
from kalmanres.bott import GrassmannianContext
from kalmanres.cli import _VERIFIERS, MISMATCH, OK, REFUSED, USAGE, main
from kalmanres.geometric import BettiTable, hilbert_series, hilbert_series_normalization, resolution_terms
from kalmanres.resolutions import conjecture_consistency, table_s1
from property_checks import kalman_stack_rank, sample_generic_oracle, sample_member_oracle

ROOT = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def perturbed_table_s1(d, n):
    table = table_s1(d, n)
    table.add(1, 2, (1, 1), (1, 1))  # a second copy of a generator
    return table


def with_residual(d, n):
    """The conjecture report of (d, n) with its prediction as a nonzero residual."""
    report = conjecture_consistency(d, n)
    return report._replace(residual=report.prediction)


def zero_series(ctx):
    """A zero Hilbert series, where the table route's is not."""
    series = hilbert_series_normalization(ctx)
    return series - series


# a call of each checking subcommand -> (the check it reads, a replacement that fails)
FAILING_CHECKS = {
    "hilbert --s 1 --d 2 --n 5": ("hilbert_series_normalization", zero_series),
    "conjecture --d 2 --n 5": ("conjecture_consistency", with_residual),
    "kalman-test --s 1 --d 2 --n 4 --trials 5": ("minors_vanish", lambda m, k: ~kalman.minors_vanish(m, k)),
    "codim --s 1 --d 2 --n 4": ("jacobian_codim", lambda *args: 0),
    "verify prop-2-2 --d 2 --n 5": ("table_s1", perturbed_table_s1),
}


class TestExitCodes:
    def test_missing_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == USAGE

    def test_missing_flag_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--s", "1", "--d", "2"])
        assert exc.value.code == USAGE

    def test_unknown_verify_id_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == USAGE

    def test_invalid_ranges_are_usage(self, capsys):
        assert main(["betti", "--s", "3", "--d", "2", "--n", "5"]) == USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_kalman_test_needs_a_trial(self, capsys, trials):
        argv = ["kalman-test", "--s", "1", "--d", "2", "--n", "4", "--trials", trials]
        assert main(argv) == USAGE
        assert "--trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "prop-2-2", "--d", "0"],
            ["verify", "prop-2-2", "--n", "0"],
            ["verify", "prop-2-4", "--n", "0"],
            ["verify", "thm-3-3", "--n", "0"],
            ["verify", "thm-3-5", "--n", "-1"],
            ["verify", "prop-sdm1", "--d", "0"],
            ["verify", "prop-ndp1", "--d", "0"],
            ["verify", "prop-ndp1", "--d", "-2"],
            ["verify", "inductive-d2", "--n", "0"],
            ["verify", "inductive-d3", "--n", "0"],
            # a flag the id does not read
            ["verify", "inductive-d3", "--d", "5", "--n", "5"],
            ["verify", "m2-output", "--n", "5"],
            ["verify", "thm-3-3", "--d", "7"],
            ["verify", "thm-3-5", "--d", "4"],
            ["verify", "prop-ndp1", "--n", "9"],
        ],
    )
    def test_verify_out_of_range_is_usage(self, capsys, argv):
        assert main(argv) == USAGE
        captured = capsys.readouterr()
        assert "error:" in captured.err and "OK" not in captured.out

    def test_budget_refusal(self, capsys):
        # (2, 4, 7) has 305576 rows at degree 7, (7 + 7) entries each
        code = main(["hf", "--s", "2", "--d", "4", "--n", "7", "--kmax", "8"])
        assert code == REFUSED
        err = capsys.readouterr().err
        assert "refused:" in err and "4278064" in err and "1000000" in err

    def test_minor_table_refusal_builds_no_table(self, capsys, monkeypatch):
        # (1, 3, 70) has C(201, 3) = 1333300 3-minors, and the table's smaller
        # levels 20301 more: the gate refuses before _minor_table runs
        def refuse(*args):
            raise AssertionError("_minor_table called")

        monkeypatch.setattr(kalman, "_minor_table", refuse)
        code = main(["hf", "--s", "1", "--d", "3", "--n", "70", "--kmax", "1"])
        assert code == REFUSED
        err = capsys.readouterr().err
        assert "refused:" in err and "1353601" in err and "1000000" in err

    def test_row_refusal_builds_no_table(self, capsys, monkeypatch):
        # (1, 3, 60) passes the minor gate with 833511 minors, but degree 3
        # has 29260 rows of 60 + 3 entries: the minors are counted by degree
        # without the table, so the gate refuses before _minor_table runs
        def refuse(*args):
            raise AssertionError("_minor_table called")

        monkeypatch.setattr(kalman, "_minor_table", refuse)
        code = main(["hf", "--s", "1", "--d", "3", "--n", "60", "--kmax", "3"])
        assert code == REFUSED
        err = capsys.readouterr().err
        assert err.strip() == "refused: degree-3 row entries 29260 x (60 + 3) = 1843380 exceeds budget 1000000"

    def test_below_the_least_minor_degree_builds_no_table(self, capsys, monkeypatch):
        # (1, 3, 60) passes the gate with 833511 minors, but every 3-minor
        # has degree >= 3: through degree 1 no row exists, so none is built
        def refuse(*args):
            raise AssertionError("_minor_table called")

        monkeypatch.setattr(kalman, "_minor_table", refuse)
        code = main(["hf", "--s", "1", "--d", "3", "--n", "60", "--kmax", "1"])
        assert code == OK
        assert capsys.readouterr().out.strip() == "HF(0..1) = [1, 3600]"


class TestBetti:
    def test_json_round_trips(self, capsys):
        code, payload = run_json(capsys, ["betti", "--s", "1", "--d", "2", "--n", "5"])
        assert code == OK
        assert payload["status"] == "ok"
        table = resolution_terms(GrassmannianContext(1, 2, 5))
        expected = table.to_json_obj()
        assert payload["entries"] == expected["entries"]
        assert payload["context"] == expected["context"]
        assert payload["proj_dim"] == table.proj_dim()
        assert payload["regularity"] == table.regularity()

    def test_human_output_mentions_invariants(self, capsys):
        assert main(["betti", "--s", "1", "--d", "2", "--n", "4"]) == OK
        out = capsys.readouterr().out
        assert "proj_dim" in out and "regularity" in out

    def test_human_output_is_pinned(self, capsys):
        assert main(["betti", "--s", "1", "--d", "2", "--n", "4"]) == OK
        assert capsys.readouterr().out == (
            "  i  deg  summand                  mult     rank\n"
            "------------------------------------------------\n"
            "  0    0  (0; 0)                      1        1\n"
            "  0    1  (0; 0)                      1        1\n"
            "  1    2  (1^2; 1^2)                  1        1\n"
            "  1    2  (1; 1)                      1        4\n"
            "  2    3  (2; 1^2)                    1        3\n"
            "proj_dim = 2  regularity = 1\n"
        )

    def test_json_never_renders_the_text_table(self, capsys, monkeypatch):
        def refuse(table):
            raise AssertionError("the text table is built under --json")

        monkeypatch.setattr(BettiTable, "render", refuse)
        code, payload = run_json(capsys, ["betti", "--s", "2", "--d", "3", "--n", "6"])
        assert code == OK
        assert payload["status"] == "ok"
        assert payload["proj_dim"] == resolution_terms(GrassmannianContext(2, 3, 6)).proj_dim()


class TestCohomology:
    def test_group_payload(self, capsys):
        code, payload = run_json(
            capsys, ["cohomology", "--s", "2", "--d", "3", "--n", "8", "--q", "1"]
        )
        assert code == OK
        assert payload["groups"] == {
            "1": {
                "rank": 1,
                "entries": [{"lambdaL": [], "muW": [], "mult": 1, "rank": 1}],
            }
        }

    def test_human_lines(self, capsys):
        assert main(["cohomology", "--s", "2", "--d", "3", "--n", "8", "--q", "2"]) == OK
        out = capsys.readouterr().out
        assert "H^1 total rank = 45" in out
        assert "H^2 total rank = 1" in out


class TestHilbert:
    def test_routes_agree_and_numerator(self, capsys):
        code, payload = run_json(capsys, ["hilbert", "--s", "1", "--d", "2", "--n", "5"])
        assert code == OK
        assert payload["routes_agree"] is True
        assert payload["status"] == "ok"
        assert payload["numerator"] == [1, 1, -9, 11, -4]
        assert payload["denominator_exponent"] == 25

    def test_human_shows_series(self, capsys):
        assert main(["hilbert", "--s", "2", "--d", "2", "--n", "4"]) == OK
        out = capsys.readouterr().out
        assert "(1-t)^16" in out and "agreement: True" in out


class TestConjecture:
    def test_zero_residual_d2(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--d", "2", "--n", "5"])
        assert code == OK
        assert payload["status"] == "ok"
        assert payload["residual_numerator"] == []

    def test_zero_residual_d3(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--d", "3", "--n", "6"])
        assert code == OK
        assert payload["residual_numerator"] == []

    def test_zero_residual_d2_at_n3(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--d", "2", "--n", "3"])
        assert code == OK
        assert payload["residual_numerator"] == []

    def test_prediction_with_telescope_d4(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--d", "4", "--n", "5"])
        assert code == OK
        assert "residual_numerator" not in payload
        assert payload["telescope_ok"] is True

    def test_prediction_only_d4_large_n(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--d", "4", "--n", "6"])
        assert code == OK
        assert "residual_numerator" not in payload
        assert "telescope_ok" not in payload
        assert payload["prediction_numerator"][0] == 1


class TestKalmanSampling:
    def test_kalman_test_small(self, capsys):
        code, payload = run_json(
            capsys,
            ["kalman-test", "--s", "1", "--d", "2", "--n", "4", "--trials", "25"],
        )
        assert code == OK
        assert payload["member_sound"] == 25
        assert payload["generic_nonvanishing"] >= 25 * 0.99

    def test_kalman_test_deterministic(self, capsys):
        argv = ["kalman-test", "--s", "2", "--d", "3", "--n", "5", "--trials", "10"]
        assert main(argv) == OK
        first = capsys.readouterr().out
        assert main(argv) == OK
        assert capsys.readouterr().out == first

    # kalman-test samples TRIAL_CHUNK trials at a time: the counts on either
    # side of a chunk edge must be those of one trial at a time.  Over F_3
    # some generic points have only vanishing 2-minors, so the counts differ
    # from the trial count; the CLI itself samples over P_DEFAULT, where a
    # negative seed must not overflow the uint64 state
    @pytest.mark.parametrize("p, seed", [(3, 0), (3, -3), (kalman.P_DEFAULT, -3)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_counts_at_chunk_edges_match_the_oracle_loop(self, capsys, monkeypatch, p, seed, offset):
        if p != kalman.P_DEFAULT:
            monkeypatch.setattr(cli, "sample_member", functools.partial(kalman.sample_member, p=p))
            monkeypatch.setattr(cli, "sample_generic", functools.partial(kalman.sample_generic, p=p))
        s, d, n = 1, 2, 4
        trials = cli.TRIAL_CHUNK + offset
        argv = ["kalman-test", "--s", "1", "--d", "2", "--n", "4", "--trials", str(trials), "--seed", str(seed)]
        code, payload = run_json(capsys, argv)
        sound = sum(
            kalman_stack_rank(sample_member_oracle(s, d, n, seed + t, p), d, p) <= d - s
            for t in range(trials)
        )
        nonzero = sum(
            kalman_stack_rank(sample_generic_oracle(n, seed + 10_000_019 + t, p), d, p) > d - s
            for t in range(trials)
        )
        assert (payload["member_sound"], payload["generic_nonvanishing"]) == (sound, nonzero)
        assert code == (OK if sound == trials and nonzero >= 0.99 * trials else MISMATCH)
        if p == kalman.P_DEFAULT:
            assert code == OK

    def test_codim(self, capsys):
        code, payload = run_json(
            capsys, ["codim", "--s", "1", "--d", "2", "--n", "4", "--seed", "5"]
        )
        assert code == OK
        assert payload["jacobian_rank"] == payload["expected"] == 2

    def test_codim_at_s_equal_d(self, capsys):
        # at s = d every member has M = 0, and the rank is s(n-d)
        code, payload = run_json(capsys, ["codim", "--s", "2", "--d", "2", "--n", "4"])
        assert code == OK
        assert payload["jacobian_rank"] == payload["expected"] == 4

    def test_hf(self, capsys):
        code, payload = run_json(
            capsys, ["hf", "--s", "1", "--d", "2", "--n", "4", "--kmax", "2"]
        )
        assert code == OK
        assert payload["hilbert_function"] == [1, 16, 135]

    @pytest.mark.parametrize("d,n", [(3, 5), (4, 6)])
    def test_hf_below_the_first_equation_degree(self, capsys, d, n):
        # hf 1 3 5 and hf 1 4 6 through degree 5: the series of the d = 3
        # cone and the d = 4 prediction (the d = 4 ideal starts in degree 6)
        from kalmanres.geometric import hilbert_series
        from kalmanres.resolutions import kalman_cone_d3, predicted_hilbert_series

        code, payload = run_json(capsys, ["hf", "--s", "1", "--d", str(d), "--n", str(n), "--kmax", "5"])
        assert code == OK
        series = hilbert_series(kalman_cone_d3(5)) if d == 3 else predicted_hilbert_series(4, 6)
        assert payload["hilbert_function"] == [series.coefficient(k) for k in range(6)]


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "prop-2-2", "--d", "2", "--n", "5"],
            ["verify", "prop-2-4", "--n", "5"],
            ["verify", "thm-3-3", "--n", "5"],
            ["verify", "thm-3-5", "--n", "6"],
            ["verify", "prop-sdm1", "--d", "3"],
            ["verify", "prop-ndp1"],
            ["verify", "inductive-d2", "--n", "5"],
            ["verify", "inductive-d3", "--n", "5"],
            ["verify", "thm-3-3", "--n", "3"],
            ["verify", "inductive-d2", "--n", "3"],
        ],
    )
    def test_narrowed_golden_checks(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        assert code == OK
        assert payload["status"] == "ok"
        assert payload["cases"] and all(c["ok"] for c in payload["cases"])

    def test_m2_output_full(self, capsys):
        code, payload = run_json(capsys, ["verify", "m2-output"])
        assert code == OK
        got = {c["case"]: c for c in payload["cases"]}
        assert got["q=1"]["got"] == [1, 0]
        assert got["q=4"]["got"] == [310, 145]
        assert got["q=5"]["got"] == 705

    def test_human_verdict_line(self, capsys):
        assert main(["verify", "thm-3-3", "--n", "4"]) == OK
        out = capsys.readouterr().out
        assert "verify thm-3-3: OK" in out

    def test_mismatch_names_the_case_and_prints_its_diff(self, capsys, monkeypatch):
        def perturbed(d, n):
            table = table_s1(d, n)
            table.add(0, 0, (), ())  # a second copy of the free summand A
            return table

        monkeypatch.setattr(cli, "table_s1", perturbed)
        argv = ["verify", "prop-2-2", "--d", "2", "--n", "5"]
        assert main(argv + ["--json"]) == MISMATCH
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["status"] == "mismatch"
        assert payload["cases"] == [
            {"case": "s=1 table (2,5)", "ok": False},
            {"case": "s=1 reg/pd (2,5)", "ok": True},
        ]
        assert captured.err.splitlines() == [
            "s=1 table (2,5) diff:",
            "(i=0, e=0) (Partition([]), Partition([])): 1 vs 2",
        ]
        assert main(argv) == MISMATCH
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "s=1 table (2,5): MISMATCH",
            "s=1 reg/pd (2,5): OK",
            "verify prop-2-2: MISMATCH",
        ]


class TestVerdict:
    """_emit is the one exit path: exit 0 with "status": "ok", or 1 with
    "status": "mismatch", the status last, or second for verify."""

    @staticmethod
    def status_position(command, keys):
        return 1 if command == "verify" else len(keys) - 1

    @pytest.mark.parametrize("call", sorted(FAILING_CHECKS))
    def test_a_failing_check_is_a_mismatch(self, capsys, monkeypatch, call):
        name, failing = FAILING_CHECKS[call]
        monkeypatch.setattr(cli, name, failing)
        assert main(call.split()) == MISMATCH
        capsys.readouterr()
        code, payload = run_json(capsys, call.split())
        assert code == MISMATCH
        keys = list(payload)
        assert keys.index("status") == self.status_position(call.split()[0], keys)
        assert payload["status"] == "mismatch"

    def test_a_hilbert_mismatch_shows_both_series(self, capsys, monkeypatch):
        # stderr holds the table route's series and the Euler route's; stdout
        # in text and JSON is what it was
        monkeypatch.setattr(cli, "hilbert_series_normalization", zero_series)
        table = hilbert_series(resolution_terms(GrassmannianContext(1, 2, 5)))
        both = f"routes differ: table route {table}, Euler route 0"
        call = ["hilbert", "--s", "1", "--d", "2", "--n", "5"]
        assert main(call) == MISMATCH
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["0", "double-computation agreement: False"]
        assert captured.err.splitlines() == [both]
        assert main(call + ["--json"]) == MISMATCH
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "context": {"s": 1, "d": 2, "n": 5},
            "numerator": [],
            "denominator_exponent": 25,
            "routes_agree": False,
            "status": "mismatch",
        }
        assert captured.err.splitlines() == [both]

    def test_an_lr_error_is_a_mismatch(self, monkeypatch):
        # the Euler route counts no LR coefficient, so one coefficient too
        # many on every c >= 2 reaches the table route alone
        count = schur.lr_coefficient
        monkeypatch.setattr(schur, "lr_coefficient", lambda *args: count(*args) + (count(*args) >= 2))
        assert main(["hilbert", "--s", "3", "--d", "5", "--n", "8"]) == MISMATCH

    def test_every_reference_puts_the_status_there(self):
        for path in sorted((ROOT / "bench" / "reference").glob("*.stdout")):
            keys = list(json.loads(path.read_text()))
            assert keys.index("status") == self.status_position(path.name.split("_")[0], keys), path.name

    def test_a_failed_inductive_case_reports_its_residual(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "conjecture_consistency", with_residual)
        assert main(["verify", "inductive-d2", "--n", "5"]) == MISMATCH
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["inductive d=2, n=5: MISMATCH", "verify inductive-d2: MISMATCH"]
        numerator = list(conjecture_consistency(2, 5).prediction.coeffs)
        assert captured.err.splitlines() == [
            f"d=2, n=5: got {{'residual_numerator': {numerator}}}, expected {{'residual_numerator': []}}"
        ]

    def test_a_failed_comparison_reports_what_it_got(self, capsys, monkeypatch):
        # every rank that m2-output compares goes through _group_rank
        monkeypatch.setattr(cli, "_group_rank", lambda ctx, lam, mu, mult: 0)
        assert main(["verify", "m2-output"]) == MISMATCH
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "q=1: got (0, 0), expected (1, 0)"
        assert err[-1] == "q=5: got 0, expected 705"


# Runs CLI calls in one fresh interpreter: the calls' stdout goes to stdout,
# and the last stderr line is a JSON object.  Its "calls" is a list of [call,
# exit code, whether numpy is loaded after it], led by ["import", None, ...]
# for the bare imports, and "imported" lists the modules those imports
# loaded; after the last call, "blas_env" is the process's
# OPENBLAS_NUM_THREADS and "threads" its thread count (None without
# /proc/self/task).
_STARTUP_PROBE = """
import json, os, sys
before = set(sys.modules)
import kalmanres, kalmanres.cli
imported = sorted(set(sys.modules) - before)
report = [["import", None, "numpy" in sys.modules]]
for call in json.loads(sys.argv[1]):
    code = kalmanres.cli.main(call.split())
    report.append([call, code, "numpy" in sys.modules])
tasks = "/proc/self/task"
print(json.dumps({
    "calls": report,
    "imported": imported,
    "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}), file=sys.stderr)
"""


def run_fresh(calls, blas_threads=None, block_numpy=False):
    """Run calls in a fresh interpreter whose OPENBLAS_NUM_THREADS is
    blas_threads, or unset when it is None; returns (stdout, probe object),
    the probe's "stderr" being the calls' stderr lines before it.  With
    block_numpy, sys.modules["numpy"] is None, so importing numpy raises
    ImportError and a call that tries exits nonzero."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ('import sys; sys.modules["numpy"] = None\n' if block_numpy else "") + _STARTUP_PROBE
    child = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(calls)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    *stderr, probe = child.stderr.decode().splitlines()
    return child.stdout, {**json.loads(probe), "stderr": stderr}


class TestStartup:
    """Only the F_p subcommands on batches of points (kalman-test, hf) load
    numpy, and only when they run, hf only once a degree has rows; codim
    checks one point on Python ints.
    The CLI loads numpy with one OpenBLAS thread unless the caller chose a
    count."""

    VERIFY_CALLS = {
        "prop-2-2": "--d 2 --n 5",
        "prop-2-4": "--n 5",
        "m2-output": "",
        "thm-3-3": "--n 4",
        "thm-3-5": "--n 6",
        "prop-sdm1": "--d 3",
        "prop-ndp1": "--d 2",
        "inductive-d2": "--n 4",
        "inductive-d3": "--n 5",
    }

    def test_symbolic_subcommands_never_load_numpy(self):
        assert set(self.VERIFY_CALLS) == set(_VERIFIERS)
        calls = [
            "betti --s 1 --d 2 --n 4",
            "hilbert --s 1 --d 2 --n 5",
            "cohomology --s 2 --d 3 --n 8 --q 1",
            "conjecture --d 2 --n 5",
            "codim --s 1 --d 3 --n 5",
        ] + [f"verify {vid} {rest}".strip() for vid, rest in self.VERIFY_CALLS.items()]
        _, probe = run_fresh(calls)
        report = probe["calls"]
        assert [row[0] for row in report] == ["import"] + calls
        assert [row for row in report if row[1] not in (None, OK) or row[2]] == []

    def test_the_import_loads_no_introspection_modules_and_no_numpy(self):
        # dataclasses alone loads inspect, ast, dis and tokenize; a module a
        # site hook loaded before the import is not counted
        _, probe = run_fresh([])
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "numpy"}
        assert "kalmanres.cli" in probe["imported"]
        assert heavy.intersection(probe["imported"]) == set()

    def test_python_m_runs_main_with_its_exit_codes(self):
        # `python -m kalmanres.cli` reaches main through the module's own
        # entry point; -W error makes a runpy warning on the import fail it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        reference = (ROOT / "bench" / "reference" / "verify_prop_2_2.stdout").read_bytes()
        calls = [
            ("verify prop-2-2 --json", OK, reference),
            ("hf --s 0 --d 2 --n 4 --kmax 1", USAGE, b""),
            ("hf --s 1 --d 3 --n 60 --kmax 3", REFUSED, b""),
        ]
        for call, code, stdout in calls:
            child = subprocess.run(
                [sys.executable, "-W", "error", "-m", "kalmanres.cli", *call.split()],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert (child.returncode, child.stdout) == (code, stdout), (call, child.stderr.decode())

    def test_codim_runs_with_numpy_unimportable(self):
        # the benchmark's four codim contexts against their references, and
        # s = d, where M = 0, against the output the numpy kernel gave
        reference = ROOT / "bench" / "reference"
        contexts = [(2, 4, 7), (2, 5, 7), (3, 5, 7), (1, 3, 5)]
        calls = [f"codim --s {s} --d {d} --n {n} --json" for s, d, n in contexts + [(2, 2, 5)]]
        stdout, probe = run_fresh(calls, block_numpy=True)
        assert [row[1] for row in probe["calls"][1:]] == [OK] * len(calls)
        s_equals_d = {"s": 2, "d": 2, "n": 5, "seed": 0, "jacobian_rank": 6, "expected": 6, "status": "ok"}
        assert stdout == b"".join(
            (reference / f"codim_s_{s}_d_{d}_n_{n}.stdout").read_bytes() for s, d, n in contexts
        ) + (json.dumps(s_equals_d, indent=2) + "\n").encode()

    def test_hf_without_rows_runs_with_numpy_unimportable(self):
        # through degree 1 no 3-minor of (1, 3, 60) has a row, and both budget
        # gates refuse before the minor table: none of them builds an array
        calls = [
            "hf --s 1 --d 3 --n 60 --kmax 1 --json",
            "hf --s 1 --d 3 --n 60 --kmax 3",
            "hf --s 1 --d 3 --n 70 --kmax 1",
        ]
        stdout, probe = run_fresh(calls, block_numpy=True)
        assert [row[1] for row in probe["calls"][1:]] == [OK, REFUSED, REFUSED]
        assert json.loads(stdout)["hilbert_function"] == [1, 3600]
        assert probe["stderr"] == [
            "refused: degree-3 row entries 29260 x (60 + 3) = 1843380 exceeds budget 1000000",
            "refused: minor count of the 3-minor table of the 201 x 3 stack = 1353601 exceeds budget 1000000",
        ]

    def test_fp_subcommand_loads_numpy_with_unchanged_output(self):
        stdout, probe = run_fresh(["kalman-test --s 1 --d 3 --n 5 --json"])
        assert probe["calls"] == [["import", None, False], ["kalman-test --s 1 --d 3 --n 5 --json", OK, True]]
        assert stdout == (ROOT / "bench" / "reference" / "kalman_test_s_1_d_3_n_5.stdout").read_bytes()
        assert probe["blas_env"] == "1"
        if probe["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert probe["threads"] == 1  # OpenBLAS starts one thread per core without the cap

    def test_an_empty_blas_thread_count_becomes_one(self):
        # OpenBLAS reads an empty value as unset and starts one thread per core
        _, probe = run_fresh(["kalman-test --s 1 --d 3 --n 5 --json"], blas_threads="")
        assert probe["calls"][-1] == ["kalman-test --s 1 --d 3 --n 5 --json", OK, True]
        assert probe["blas_env"] == "1"
        if probe["threads"] is None:
            pytest.skip("no /proc/self/task to count threads")
        assert probe["threads"] == 1

    def test_a_blas_thread_count_already_set_is_kept(self):
        _, probe = run_fresh(["kalman-test --s 1 --d 3 --n 5 --json"], blas_threads="2")
        assert probe["calls"][-1] == ["kalman-test --s 1 --d 3 --n 5 --json", OK, True]
        assert probe["blas_env"] == "2"

    def test_main_leaves_the_environment_alone_once_numpy_is_loaded(self, monkeypatch):
        import numpy  # noqa: F401  (an in-process caller that loaded BLAS already)

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["codim", "--s", "1", "--d", "3", "--n", "5"]) == OK
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_fp_outputs_do_not_depend_on_the_blas_thread_count(self, blas_threads):
        # every modular product sums integers below 2^53 in float64: exact
        # in any summation order and any split between threads
        references = {
            "hf --s 1 --d 2 --n 4 --kmax 5 --json": "hf_s_1_d_2_n_4_kmax_5",
            "codim --s 2 --d 4 --n 7 --json": "codim_s_2_d_4_n_7",
            "kalman-test --s 2 --d 4 --n 7 --trials 1000 --json": "kalman_test_s_2_d_4_n_7_trials_1000",
        }
        stdout, probe = run_fresh(list(references), blas_threads=blas_threads)
        assert [row[1] for row in probe["calls"][1:]] == [OK] * len(references)
        assert probe["blas_env"] == blas_threads
        reference = ROOT / "bench" / "reference"
        assert stdout == b"".join((reference / f"{name}.stdout").read_bytes() for name in references.values())
