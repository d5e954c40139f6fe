"""The benchmark's workloads: fixed lists of kalmanres CLI calls.

Every call runs with --json in a fresh process.  Calls to the sampling
subcommands get --seed from the benchmark's own --seed; the symbolic calls
are deterministic.  README.md beside this file says why each workload was
chosen.
"""

import re

SEEDED = frozenset({"kalman-test", "codim", "hf"})

WORKLOADS = {
    "cli-golden": (
        "the paper's checks as users run them: 15 short calls where interpreter start-up and imports dominate",
        [
            "verify prop-2-2",
            "verify prop-2-4",
            "verify m2-output",
            "verify thm-3-3",
            "verify thm-3-5",
            "verify prop-sdm1",
            "verify prop-ndp1",
            "verify inductive-d2",
            "verify inductive-d3",
            "betti --s 1 --d 2 --n 4",
            "hilbert --s 1 --d 2 --n 5",
            "cohomology --s 2 --d 3 --n 8 --q 3",
            "conjecture --d 4 --n 5",
            "kalman-test --s 1 --d 3 --n 5",
            "codim --s 1 --d 3 --n 5",
        ],
    ),
    "symbolic-large": (
        "large Betti tables and Hilbert series: LR backtracking, Bott and the LR cache, no F_p calls",
        [
            "betti --s 4 --d 7 --n 11",
            "hilbert --s 4 --d 6 --n 10",
            "hilbert --s 5 --d 7 --n 10",
            "hilbert --s 3 --d 6 --n 10",
            "conjecture --d 6 --n 9",
        ],
    ),
    "fp-dense": (
        "F_p Hilbert function by evaluation: elimination of matrices up to 1376x1381, no LR calls",
        [
            "hf --s 1 --d 2 --n 4 --kmax 5",
            "hf --s 2 --d 3 --n 4 --kmax 5",
        ],
    ),
    "fp-many-small": (
        "thousands of F_p matrices of size at most 4x4: adjugates, small ranks and SplitMix64 sampling",
        [
            "codim --s 2 --d 4 --n 7",
            "codim --s 2 --d 5 --n 7",
            "codim --s 3 --d 5 --n 7",
            "kalman-test --s 2 --d 4 --n 7 --trials 1000",
        ],
    ),
}

# Checks of an F_p result against the symbolic half: the Hilbert function
# of the d=2, s=1 variety found by evaluation must equal the coefficients of
# the Hilbert series of its closed-form Betti table.
# call -> (JSON field of the call's output, program printing the expected value)
ORACLES = {
    "hf --s 1 --d 2 --n 4 --kmax 5": (
        "hilbert_function",
        "import json\n"
        "from kalmanres.geometric import hilbert_series\n"
        "from kalmanres.resolutions import kalman_table_d2\n"
        "series = hilbert_series(kalman_table_d2(4))\n"
        "print(json.dumps([series.coefficient(k) for k in range(6)]))\n",
    ),
}

DEFAULT_SEED = 0  # the CLI's own --seed default; references are taken at it


def cli_args(call: str, seed: int) -> list:
    """Arguments for one call: JSON output, and --seed on sampling calls."""
    args = call.split() + ["--json"]
    if args[0] in SEEDED:
        args += ["--seed", str(seed)]
    return args


def slug(call: str) -> str:
    """File-name form of a call, e.g. 'codim_s_2_d_4_n_7'."""
    return re.sub(r"[^A-Za-z0-9]+", "_", call).strip("_")


def expected_stdout(reference: bytes, call: str, seed: int) -> bytes:
    """Reference stdout (taken at DEFAULT_SEED) as it must read at `seed`.

    Only the echoed seed differs between seeds: every other field is a
    property of the variety, not of the sample."""
    if call.split()[0] not in SEEDED or seed == DEFAULT_SEED:
        return reference
    old = f'\n  "seed": {DEFAULT_SEED},\n'.encode()
    new = f'\n  "seed": {seed},\n'.encode()
    return reference.replace(old, new)
