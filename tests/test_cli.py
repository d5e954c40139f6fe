import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kalmanres import cli, kalman
from kalmanres.bott import GrassmannianContext
from kalmanres.cli import _VERIFIERS, MISMATCH, OK, REFUSED, USAGE, main
from kalmanres.geometric import BettiTable, resolution_terms
from kalmanres.resolutions import table_s1
from property_checks import kalman_stack_rank, sample_generic_oracle, sample_member_oracle

ROOT = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        code = main(["hf", "--s", "1", "--d", "3", "--n", "5", "--kmax", "5"])
        assert code == REFUSED
        err = capsys.readouterr().err
        assert "refused:" in err and "118755" in err


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
            kalman_stack_rank(sample_member_oracle(s, d, n, seed + t, p)[0], d, p) <= d - s
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

    def test_hf(self, capsys):
        code, payload = run_json(
            capsys, ["hf", "--s", "1", "--d", "2", "--n", "4", "--kmax", "2"]
        )
        assert code == OK
        assert payload["hilbert_function"] == [1, 16, 135]


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


# Runs CLI calls in one fresh interpreter: the calls' stdout goes to stdout,
# and the last stderr line is a JSON list of [call, exit code, whether numpy
# is loaded after it], led by ["import", None, ...] for the bare imports.
_STARTUP_PROBE = """
import json, sys
import kalmanres, kalmanres.cli
report = [["import", None, "numpy" in sys.modules]]
for call in json.loads(sys.argv[1]):
    code = kalmanres.cli.main(call.split())
    report.append([call, code, "numpy" in sys.modules])
print(json.dumps(report), file=sys.stderr)
"""


def run_fresh(calls):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(calls)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    return child.stdout, json.loads(child.stderr.decode().splitlines()[-1])


class TestStartup:
    """Only the F_p subcommands load numpy, and only when they run."""

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
        ] + [f"verify {vid} {rest}".strip() for vid, rest in self.VERIFY_CALLS.items()]
        _, report = run_fresh(calls)
        assert [row[0] for row in report] == ["import"] + calls
        assert [row for row in report if row[1] not in (None, OK) or row[2]] == []

    def test_fp_subcommand_loads_numpy_with_unchanged_output(self):
        stdout, report = run_fresh(["codim --s 1 --d 3 --n 5 --json"])
        assert report == [["import", None, False], ["codim --s 1 --d 3 --n 5 --json", OK, True]]
        assert stdout == (ROOT / "bench" / "reference" / "codim_s_1_d_3_n_5.stdout").read_bytes()
