"""Command-line surface: every computation as a batch subcommand.

Exit codes: 0 success, 1 mismatch (a golden comparison or consistency check
failed), 2 usage error, 3 refused (resource budget).  JSON goes to stdout
with --json; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .bott import GrassmannianContext
from .geometric import (
    cohomology_table,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
)
from .kalman import (
    BudgetExceededError,
    jacobian_codim,
    minors_vanish,
    numeric_hilbert_function,
    reduced_kalman_matrix,
    sample_generic,
    sample_member,
)
from .partitions import schur_rank
from .resolutions import (
    cone_table_d2,
    conjecture_consistency,
    kalman_cone_d3,
    kalman_equations_d3,
    kalman_table_d2,
    table_corank1,
    table_s1,
    table_s2_d3,
    table_w_line,
)

OK, MISMATCH, USAGE, REFUSED = 0, 1, 2, 3
TRIAL_CHUNK = 64  # trials kalman-test samples and tests at once; bounds its memory


def _emit(payload: dict, as_json: bool, human_lines) -> None:
    """Print the payload as JSON, or else the lines human_lines() returns:
    the text is built only when it is printed."""
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines():
            print(line)


def _ctx(args) -> GrassmannianContext:
    return GrassmannianContext(args.s, args.d, args.n)


def _group_rank(ctx: GrassmannianContext, lam, mu, mult: int) -> int:
    """Rank of mult copies of S_lam(L) (x) S_mu(W) in a cohomology table."""
    return mult * schur_rank(lam, ctx.d) * schur_rank(mu, ctx.dim_w)


# -- plain computations ------------------------------------------------------


def _cmd_betti(args) -> int:
    table = resolution_terms(_ctx(args))
    payload = table.to_json_obj()
    payload["proj_dim"] = table.proj_dim()
    payload["regularity"] = table.regularity()
    payload["status"] = "ok"
    summary = f"proj_dim = {payload['proj_dim']}  regularity = {payload['regularity']}"
    _emit(payload, args.json, lambda: [table.render(), summary])
    return OK


def _cmd_cohomology(args) -> int:
    ctx = _ctx(args)
    coh = cohomology_table(ctx, args.q)
    payload = {"context": {"s": ctx.s, "d": ctx.d, "n": ctx.n}, "q": args.q, "groups": {}, "status": "ok"}
    lines = []
    for j in sorted(coh):
        entries = []
        total = 0
        for (lam, mu), mult in sorted(coh[j].items(), reverse=True):
            rank = _group_rank(ctx, lam, mu, mult)
            total += rank
            entries.append(
                {"lambdaL": list(lam), "muW": list(mu), "mult": mult, "rank": rank}
            )
            lines.append(
                f"H^{j}: ({lam.exponent_string()}; {mu.exponent_string()})"
                f" x{mult}  rank {rank}"
            )
        payload["groups"][str(j)] = {"rank": total, "entries": entries}
        lines.append(f"H^{j} total rank = {total}")
    if not coh:
        lines.append("no cohomology")
    _emit(payload, args.json, lambda: lines)
    return OK


def _cmd_hilbert(args) -> int:
    ctx = _ctx(args)
    direct = hilbert_series_normalization(ctx)
    assembled = hilbert_series(resolution_terms(ctx))
    agree = direct == assembled
    payload = {
        "context": {"s": ctx.s, "d": ctx.d, "n": ctx.n},
        "numerator": list(direct.coeffs),
        "denominator_exponent": direct.denominator_exponent,
        "routes_agree": agree,
        "status": "ok" if agree else "mismatch",
    }
    _emit(payload, args.json, lambda: [str(direct), f"double-computation agreement: {agree}"])
    return OK if agree else MISMATCH


def _cmd_conjecture(args) -> int:
    report = conjecture_consistency(args.d, args.n)
    payload = {
        "d": args.d,
        "n": args.n,
        "prediction_numerator": list(report.prediction.coeffs),
        "denominator_exponent": report.prediction.denominator_exponent,
    }
    lines = [f"predicted series: {report.prediction}"]
    status = OK
    if report.residual is not None:
        payload["residual_numerator"] = list(report.residual.coeffs)
        lines.append(f"residual: {report.residual}")
        status = OK if report.residual.is_zero else MISMATCH
    else:
        lines.append("no proven resolution route at this d; prediction only")
        if report.telescope_ok is not None:
            payload["telescope_ok"] = report.telescope_ok
            lines.append(f"telescoping cross-check: {report.telescope_ok}")
            status = OK if report.telescope_ok else MISMATCH
    payload["status"] = "ok" if status == OK else "mismatch"
    _emit(payload, args.json, lambda: lines)
    return status


def _cmd_kalman_test(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    k = args.d - args.s + 1
    sound = generic_nonzero = 0
    for start in range(0, args.trials, TRIAL_CHUNK):
        seeds = range(args.seed + start, args.seed + min(start + TRIAL_CHUNK, args.trials))
        members = sample_member(args.s, args.d, args.n, seeds)
        sound += int(minors_vanish(reduced_kalman_matrix(members), k).sum())
        generic = sample_generic(args.d, args.n, [t + 10_000_019 for t in seeds])
        generic_nonzero += int((~minors_vanish(reduced_kalman_matrix(generic), k)).sum())
    ok = sound == args.trials and generic_nonzero >= 0.99 * args.trials
    payload = {
        "s": args.s,
        "d": args.d,
        "n": args.n,
        "trials": args.trials,
        "member_sound": sound,
        "generic_nonvanishing": generic_nonzero,
        "status": "ok" if ok else "mismatch",
    }
    _emit(
        payload,
        args.json,
        lambda: [
            f"membership soundness: {sound}/{args.trials}",
            f"generic points with a nonzero {k}x{k} minor: "
            f"{generic_nonzero}/{args.trials}",
        ],
    )
    return OK if ok else MISMATCH


def _cmd_codim(args) -> int:
    rank = jacobian_codim(args.s, args.d, args.n, args.seed)
    expected = args.s * (args.n - args.d)
    payload = {
        "s": args.s,
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "jacobian_rank": rank,
        "expected": expected,
        "status": "ok" if rank == expected else "mismatch",
    }
    _emit(payload, args.json, lambda: [f"jacobian rank {rank}, expected s(n-d) = {expected}"])
    return OK if rank == expected else MISMATCH


def _cmd_hf(args) -> int:
    hf = numeric_hilbert_function(args.s, args.d, args.n, args.kmax, args.seed)
    payload = {
        "s": args.s,
        "d": args.d,
        "n": args.n,
        "kmax": args.kmax,
        "seed": args.seed,
        "hilbert_function": hf,
        "status": "ok",
    }
    _emit(payload, args.json, lambda: [f"HF(0..{args.kmax}) = {hf}"])
    return OK


# -- golden verifications ----------------------------------------------------


def _case(cases, lines, ok, label, line=None, **extra):
    """Record one verify case: its JSON entry and its human-readable line
    (`line` when the line says more than the label).  Verifiers record
    every case here and return nothing; _cmd_verify takes the verdict from
    the case list."""
    cases.append({"case": label, "ok": ok, **extra})
    lines.append(f"{line or label}: {'OK' if ok else 'MISMATCH'}")


def _tables_equal(engine, golden, label, cases, lines):
    ok = engine == golden
    _case(cases, lines, ok, label)
    if not ok:
        print(f"{label} diff:\n{engine.diff(golden)}", file=sys.stderr)


def _verify_prop_2_2(args, cases, lines):
    pairs = [(2, 5), (3, 6), (4, 8), (5, 9)]
    if args.d is not None or args.n is not None:
        d = 2 if args.d is None else args.d
        pairs = [(d, d + 3 if args.n is None else args.n)]
    for d, n in pairs:
        engine = resolution_terms(GrassmannianContext(1, d, n))
        _tables_equal(engine, table_s1(d, n), f"s=1 table ({d},{n})", cases, lines)
        extras = engine.regularity() == d - 1 and engine.proj_dim() == n - d
        _case(cases, lines, extras, f"s=1 reg/pd ({d},{n})")


def _verify_prop_2_4(args, cases, lines):
    for n in [5, 6, 7, 8] if args.n is None else [args.n]:
        engine = resolution_terms(GrassmannianContext(2, 3, n))
        _tables_equal(
            engine.restrict_index(3), table_s2_d3(n), f"(2,3,{n}) indices 0..3", cases, lines
        )
        _case(
            cases, lines, engine.regularity() == 2, f"(2,3,{n}) regularity",
            line=f"(2,3,{n}) regularity 2",
        )


def _verify_m2_output(args, cases, lines):
    ctx = GrassmannianContext(2, 3, 8)
    expected = {1: (1, 0), 2: (45, 1), 3: (180, 15), 4: (310, 145)}

    def group_rank(coh, j):
        return sum(_group_rank(ctx, lam, mu, mult) for (lam, mu), mult in coh.get(j, {}).items())

    for q, (h1, h2) in expected.items():
        coh = cohomology_table(ctx, q)
        got = (group_rank(coh, 1), group_rank(coh, 2))
        _case(
            cases, lines, got == (h1, h2), f"q={q}",
            line=f"q={q}: ranks {got}, expected {(h1, h2)}", got=list(got),
        )
    h2_5 = group_rank(cohomology_table(ctx, 5), 2)
    _case(cases, lines, h2_5 == 705, "q=5", line=f"q=5: H^2 rank {h2_5}, expected 705", got=h2_5)


def _verify_thm_3_3(args, cases, lines):
    for n in [4, 5, 6, 7, 8] if args.n is None else [args.n]:
        cone = cone_table_d2(n)
        _tables_equal(cone, kalman_table_d2(n), f"d=2 cone ({n})", cases, lines)
        extras = cone.proj_dim() == 2 * n - 5 and cone.regularity() == 2
        _case(cases, lines, extras, f"d=2 pd/reg ({n})")


def _verify_thm_3_5(args, cases, lines):
    for n in [6, 7, 8, 9] if args.n is None else [args.n]:
        table = kalman_cone_d3(n)
        counts = {e: table.rank(1, e) for e in table.degrees(1)}
        expected = {
            3: comb(n - 3, 3),
            4: 2 * comb(n - 2, 3),
            5: 2 * comb(n - 2, 3),
            6: comb(n - 1, 3),
        }
        expected = {e: c for e, c in expected.items() if c}
        listed = {(e, lam, mu) for lam, mu, e in kalman_equations_d3(n)}
        entries = {
            (e, lam, mu)
            for i, e, lam, mu, _m in table.entries()
            if i == 1
        }
        _case(
            cases, lines, counts == expected and entries == listed, f"d=3 generators ({n})",
            line=f"d=3 generator degrees ({n}): {counts} expected {expected}", counts=counts,
        )


def _verify_prop_sdm1(args, cases, lines):
    for d in [3, 4, 5, 6] if args.d is None else [args.d]:
        n = d + 3 if args.n is None else args.n
        engine = resolution_terms(GrassmannianContext(d - 1, d, n)).restrict_index(2)
        _tables_equal(engine, table_corank1(d, n), f"s=d-1 table ({d},{n})", cases, lines)


def _verify_prop_ndp1(args, cases, lines):
    for d in [1, 2, 3, 4, 5] if args.d is None else [args.d]:
        for s in range(1, d + 1):
            engine = resolution_terms(GrassmannianContext(s, d, d + 1))
            _tables_equal(
                engine, table_w_line(s, d), f"n=d+1 table (s={s}, d={d})", cases, lines
            )


def _verify_inductive(d):
    def run(args, cases, lines):
        for n in [4, 5, 6, 7] if args.n is None else [args.n]:
            _case(
                cases, lines, conjecture_consistency(d, n).consistent, f"d={d}, n={n}",
                line=f"inductive d={d}, n={n}",
            )

    return run


# id -> (verifier, the flags among --d/--n that it reads)
_VERIFIERS = {
    "prop-2-2": (_verify_prop_2_2, ("d", "n")),
    "prop-2-4": (_verify_prop_2_4, ("n",)),
    "m2-output": (_verify_m2_output, ()),
    "thm-3-3": (_verify_thm_3_3, ("n",)),
    "thm-3-5": (_verify_thm_3_5, ("n",)),
    "prop-sdm1": (_verify_prop_sdm1, ("d", "n")),
    "prop-ndp1": (_verify_prop_ndp1, ("d",)),
    "inductive-d2": (_verify_inductive(2), ("n",)),
    "inductive-d3": (_verify_inductive(3), ("n",)),
}


def _cmd_verify(args) -> int:
    verifier, flags = _VERIFIERS[args.id]
    for flag in ("d", "n"):
        if getattr(args, flag) is not None and flag not in flags:
            raise ValueError(f"verify {args.id} does not take --{flag}")
    cases, lines = [], []
    verifier(args, cases, lines)
    if not cases:
        raise ValueError(f"verify {args.id} runs no case with --d {args.d} --n {args.n}")
    ok = all(c["ok"] for c in cases)
    payload = {"id": args.id, "status": "ok" if ok else "mismatch", "cases": cases}
    _emit(payload, args.json, lambda: lines + [f"verify {args.id}: {'OK' if ok else 'MISMATCH'}"])
    return OK if ok else MISMATCH


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalmanres",
        description="Equivariant Betti tables and finite-field checks for "
        "invariant-subspace determinantal varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sdn(p, q=False):
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        if q:
            p.add_argument("--q", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("betti", help="resolution table of the normalization")
    sdn(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("cohomology", help="cohomology of one exterior power")
    sdn(p, q=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("hilbert", help="Hilbert series, both routes")
    sdn(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="golden comparisons")
    p.add_argument("id", choices=sorted(_VERIFIERS))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="inductive-sequence consistency")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("kalman-test", help="membership and genericity sampling")
    sdn(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_kalman_test)

    p = sub.add_parser("codim", help="Jacobian rank at a sampled member")
    sdn(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_codim)

    p = sub.add_parser("hf", help="numeric Hilbert function of the minor ideal")
    sdn(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hf)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
