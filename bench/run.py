#!/usr/bin/env python3
"""kalmanres benchmark: fixed lists of CLI calls, each in a fresh process.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from src/ beside this directory.
One client runs the calls one after another (closed loop, no concurrency),
repeating whole passes over the workload's call list until --seconds have
passed.  Every call's stdout is compared byte for byte with the reference in
reference/, its exit code must be 0 and its JSON status "ok".

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes in which every call runs under traced_cli.py, and
reports the per-layer metrics of the traced passes plus trace.overhead_s.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A record with the environment and every sample is written to
results/.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import unreached
from workloads import DEFAULT_SEED, ORACLES, WORKLOADS, cli_args, expected_stdout, slug

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
RESULTS = BENCH / "results"

CLI_MAIN = "import sys; from kalmanres.cli import main; sys.exit(main())"
SETUP_PROGRAM = "import kalmanres.cli"
SETUP_SAMPLES = 15  # spread over the run in step with measured call time
RUN_LIMIT_S = 170  # a run kills what is left of its calls after this long
DIFF_LINES = 60  # a failing call's diff is cut after this many lines

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_numpy_s": "s",
    "cli.import_kalmanres_s": "s",
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "schur.lr_coefficient_calls": "count",
    "schur.lr_coefficient_hit_ratio": "ratio",
    "schur.lr_nonzero_ratio": "ratio",
    "schur.lr_product_calls": "count",
    "schur.self_s": "s",
    "bott.calls": "count",
    "bott.vanishing_ratio": "ratio",
    "bott.self_s": "s",
    "geometric.xi_summands": "count",
    "geometric.xi_decomp_self_s": "s",
    "geometric.table_entries": "count",
    "geometric.euler_route_s": "s",
    "geometric.table_route_s": "s",
    "geometric.self_s": "s",
    "resolutions.koszul_s": "s",
    "resolutions.cone_s": "s",
    "resolutions.cancellations": "count",
    "resolutions.self_s": "s",
    "kalman.draws": "count",
    "kalman.sample_s": "s",
    "kalman.stack_calls": "count",
    "kalman.stack_s": "s",
    "kalman.rank_calls": "count",
    "kalman.rank_s": "s",
    "kalman.jacobian_self_s": "s",
    "kalman.hf_self_s": "s",
    "trace.overhead_s": "s",
}

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# -- statistics --------------------------------------------------------------


def ratio(numerator: float, base: float) -> float:
    """numerator / base, and 0.0 when nothing was attempted (base 0)."""
    return numerator / base if base else 0.0


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int):
    """Highest percentile in PERCENTILES with at least 10 of n samples
    beyond it, or None when n is too small for any."""
    for p in PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def summarize(values) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


# -- one child process -------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Harness:
    """Spawns children with src/ on the path; every run ends by RUN_LIMIT_S.

    Children get the caller's environment without its PYTHON* settings, so
    the interpreter runs with its defaults (bytecode cache on, buffered
    stdout) whatever shell starts the benchmark."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, argv: list) -> Child:
        """Run argv to completion; times it and takes its rusage by wait4."""
        limit = self.deadline - time.monotonic()
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(max(limit, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                proc.returncode,
                out.read(),
                err.read(),
            )

    def python(self, program: str) -> Child:
        return self.spawn([sys.executable, "-c", program])

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


# -- correctness -------------------------------------------------------------


def load_references(calls) -> dict:
    return {call: (REFERENCE / f"{slug(call)}.stdout").read_bytes() for call in calls}


def stdout_diff(expected: bytes, got: bytes, label: str):
    """None if the bytes agree, else a unified diff naming the call."""
    if expected == got:
        return None
    diff = difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=f"reference/{label}",
        tofile=f"stdout/{label}",
    )
    lines = list(diff)
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... {len(lines) - DIFF_LINES} more diff lines\n"]
    # an empty diff means bytes that decode alike, e.g. invalid UTF-8
    return "".join(lines) or f"--- reference/{label}\n+++ stdout/{label}\n(bytes differ)\n"


def check_call(call: str, child: Child, expected: bytes, oracle_value) -> list:
    """Problems with one call's result; an empty list means it passed."""
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    try:
        payload = json.loads(child.stdout)
    except ValueError:
        payload = None
        problems.append("stdout is not JSON")
    if isinstance(payload, dict):
        if payload.get("status") != "ok":
            problems.append(f"status {payload.get('status')!r}")
        if oracle_value is not None:
            key, want = oracle_value
            if payload.get(key) != want:
                problems.append(f"{key} {payload.get(key)} != symbolic {want}")
    diff = stdout_diff(expected, child.stdout, slug(call))
    if diff:
        problems.append("stdout differs from reference:\n" + diff)
    return problems


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    call_walls: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    failed: int = 0


class Workload:
    def __init__(self, name: str, seed: int, harness: Harness):
        self.name = name
        self.seed = seed
        self.harness = harness
        self.calls = WORKLOADS[name][1]
        self.expected = {
            call: expected_stdout(ref, call, seed)
            for call, ref in load_references(self.calls).items()
        }
        self.oracles = {}
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0  # wall time of all calls so far

    def prepare(self) -> None:
        """Compute the symbolic side of every oracle this workload checks."""
        for call in self.calls:
            if call in ORACLES:
                key, program = ORACLES[call]
                child = self.harness.python(program)
                if child.code != 0:
                    raise RuntimeError(f"oracle for {call!r} failed:\n{child.stderr.decode()}")
                self.oracles[call] = (key, json.loads(child.stdout))

    def run_pass(self, traced: bool, after_call=None) -> Pass:
        p = Pass(traced)
        for i, call in enumerate(self.calls):
            argv = [sys.executable]
            trace_out = self.harness.work / f"trace-{i}.json"
            if traced:
                argv += [str(BENCH / "traced_cli.py"), str(trace_out)]
            else:
                argv += ["-c", CLI_MAIN]
            child = self.harness.spawn(argv + cli_args(call, self.seed))
            self.attempted += 1
            self.measured_s += child.wall_s
            p.wall_s += child.wall_s
            p.cpu_s += child.cpu_s
            p.peak_rss_mb = max(p.peak_rss_mb, child.maxrss_mb)
            p.call_walls[call] = child.wall_s
            problems = check_call(call, child, self.expected[call], self.oracles.get(call))
            if traced:
                if trace_out.exists():
                    p.reports.append(json.loads(trace_out.read_text()))
                    trace_out.unlink()
                else:
                    problems.append("no trace report")
            if problems:
                p.failed += 1
                self.failed += 1
                tail = child.stderr.decode(errors="replace")[-2000:]
                print(f"FAILED {self.name}: kalmanres {' '.join(cli_args(call, self.seed))}", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                if tail:
                    print(f"  stderr:\n{tail}", file=sys.stderr)
            if self.harness.expired:
                break
            if after_call is not None:
                after_call()
        return p


# -- metrics -----------------------------------------------------------------


def merge_reports(reports: list) -> dict:
    """Sum the traced children of one pass into one report."""
    spans: dict = {}
    counters: dict = {}
    calls: dict = {}
    merged = {"import_numpy_s": 0.0, "import_kalmanres_s": 0.0, "lr_hits": 0}
    for r in reports:
        for name, (n, total, self_s) in r["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += total
            acc[2] += self_s
        for name, v in r["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for key, n in r["binding_calls"].items():
            calls[key] = calls.get(key, 0) + n
        merged["import_numpy_s"] += r["import_numpy_s"]
        merged["import_kalmanres_s"] += r["import_kalmanres_s"]
        merged["lr_hits"] += r["lr_cache"]["hits"]
    merged.update(spans=spans, counters=counters, binding_calls=calls)
    return merged


def layer_metrics(merged: dict) -> dict:
    """Per-layer metrics of one traced pass (every metric but the overhead)."""
    spans, counters = merged["spans"], merged["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_of(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix))

    def layer_calls(layer):
        return sum(v[0] for k, v in spans.items() if k.startswith(layer + "."))

    lr_calls = calls("schur.lr_coefficient")
    bott_calls = calls("bott.cohomology_of_summand")
    return {
        "cli.import_numpy_s": merged["import_numpy_s"],
        "cli.import_kalmanres_s": merged["import_kalmanres_s"],
        "partitions.calls": layer_calls("partitions"),
        "partitions.self_s": self_of("partitions."),
        "schur.lr_coefficient_calls": lr_calls,
        "schur.lr_coefficient_hit_ratio": ratio(merged["lr_hits"], lr_calls),
        "schur.lr_nonzero_ratio": ratio(counters.get("schur.lr_nonzero", 0), lr_calls),
        "schur.lr_product_calls": calls("schur.lr_product"),
        "schur.self_s": self_of("schur."),
        "bott.calls": bott_calls,
        "bott.vanishing_ratio": ratio(counters.get("bott.vanishing", 0), bott_calls),
        "bott.self_s": self_of("bott."),
        "geometric.xi_summands": counters.get("geometric.xi_summands", 0),
        "geometric.xi_decomp_self_s": self_of("geometric.xi_exterior_decomposition"),
        "geometric.table_entries": counters.get("geometric.table_entries", 0),
        "geometric.euler_route_s": total("geometric.hilbert_series_normalization"),
        "geometric.table_route_s": counters.get("geometric.table_route_s", 0.0),
        "geometric.self_s": self_of("geometric."),
        "resolutions.koszul_s": total("resolutions.koszul_table"),
        "resolutions.cone_s": total("resolutions.mapping_cone"),
        "resolutions.cancellations": counters.get("resolutions.cancellations", 0),
        "resolutions.self_s": self_of("resolutions."),
        "kalman.draws": counters.get("kalman.draws", 0),
        "kalman.sample_s": total("kalman.SplitMix64.matrix"),
        "kalman.stack_calls": calls("kalman.reduced_kalman_matrix"),
        "kalman.stack_s": total("kalman.reduced_kalman_matrix"),
        "kalman.rank_calls": calls("kalman.FpMatrix.rank"),
        "kalman.rank_s": total("kalman.FpMatrix.rank"),
        "kalman.jacobian_self_s": self_of("kalman.jacobian_codim"),
        "kalman.hf_self_s": self_of("kalman.numeric_hilbert_function"),
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# -- environment -------------------------------------------------------------

NUMPY_INFO = (
    "import json, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'numpy': numpy.__version__, 'numpy_blas': blas}))\n"
)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(harness: Harness) -> dict:
    child = harness.python(NUMPY_INFO)
    info = json.loads(child.stdout) if child.code == 0 else {"numpy": None, "numpy_blas": None}
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        **info,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- one run -----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, harness: Harness) -> dict:
    load_start = os.getloadavg()[0]
    env = environment(harness)
    wl = Workload(name, seed, harness)
    wl.prepare()
    warm = harness.python(SETUP_PROGRAM)  # also writes the bytecode cache
    if warm.code != 0:
        raise RuntimeError(f"cannot import kalmanres.cli:\n{warm.stderr.decode()}")

    problems = []
    passes: list = []
    setup = []

    def sample_setup(due):
        # samples so far keep pace with the share of --seconds measured
        while len(setup) < due and not harness.expired:
            child = harness.python(SETUP_PROGRAM)
            if child.code != 0:
                problems.append("setup import failed")
            setup.append(child.wall_s)

    if trace:
        while not (passes and any(p.traced for p in passes)) or wl.measured_s < seconds:
            traced = sum(p.traced for p in passes) < sum(not p.traced for p in passes)
            passes.append(wl.run_pass(traced))
            if harness.expired:
                break
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        merged = [merge_reports(p.reports) for p in traced]
        metrics = median_of([layer_metrics(m) for m in merged])
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
            p.wall_s for p in plain
        )
        calls: dict = {}
        for m in merged:
            for key, n in m["binding_calls"].items():
                calls[key] = calls.get(key, 0) + n
        missing = unreached(calls, name)
        if missing:
            problems.append(f"bindings never called on {name}: {', '.join(missing)}")
        units = PER_LAYER
    else:
        def keep_pace():
            sample_setup(math.ceil(SETUP_SAMPLES * min(1.0, wl.measured_s / seconds)))

        while not passes or wl.measured_s < seconds:
            passes.append(wl.run_pass(False, keep_pace))
            if harness.expired:
                break
        sample_setup(SETUP_SAMPLES)
        metrics = {
            "run_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        units = END_TO_END
    if harness.expired:
        problems.append(f"run stopped after {RUN_LIMIT_S} s")
    for problem in problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    env["loadavg_1m_start"] = load_start
    env["loadavg_1m_end"] = os.getloadavg()[0]

    call_walls = [w for p in passes if not p.traced for w in p.call_walls.values()]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "fail_ratio": ratio(wl.failed, wl.attempted),
        "problems": problems,
        "pass_s": summarize([p.wall_s for p in passes if not p.traced]),
        "call_s": summarize(call_walls),
        "setup_samples_s": setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_mb, "failed": p.failed, "call_s": p.call_walls}
            for p in passes
        ],
        "result": {
            "correct": wl.failed == 0 and not problems,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def save(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = RESULTS / f"{stamp}-{record['workload']}-seed{record['seed']}-trace{record['trace']}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def print_summary(record: dict) -> None:
    name = record["workload"]
    for key, m in record["result"]["metrics"].items():
        print(f"{name:<15} {key:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:<15} {'fail_ratio':<32} {record['fail_ratio']:>14.6g} ratio "
          f"[{record['result']['failed']}/{record['result']['attempted']} calls]")
    for key in ("pass_s", "call_s"):
        s = record[key]
        tail = " ".join(f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
        print(f"{name:<15} {key:<32} median {s['median']:.4f} s {tail} (n={s['n']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kalmanres" / "cli.py").is_file():
        print(f"error: no kalmanres sources at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so Harness.spawn kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        harness = Harness(Path(work))
        records = []
        for name in names:
            harness.deadline = time.monotonic() + RUN_LIMIT_S
            try:
                record = run(name, args.seed, args.seconds, bool(args.trace), harness)
            except (RuntimeError, OSError, ValueError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            save(record)
            records.append(record)
            print(json.dumps({"environment": record["environment"]}))
            print_summary(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
