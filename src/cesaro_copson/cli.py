"""Command-line front end.

Subcommands
-----------
norm         one operator norm / distance-to-identity on a cone (JSON)
two-op       best constant in a two-operator inequality (JSON)
power-table  CSV sweep of a closed-form branch table over alpha
verify       run the verification suites (JSON report array)

Weight specs:  ``power:<alpha>`` is the standard power-weight role
(k**(-alpha) on the domain side, n**(+alpha) on the codomain side, so equal
alphas form the matched pair the closed forms cover), ``powerpair:<alpha>``
sets both sides at once, and ``list:<path>`` reads one value per line from a
CSV file and poses the truncated problem.

Exit codes: 0 success (divergence is a correct answer, reported as the
string "inf"), 1 parse errors, 2 unsupported case (the open problem, or a
cone whose hypotheses the operator's rows fail; the reason is printed on
stderr), 3 verification failure.  A reader that closes standard output
early (``power-table ... | head``) ends the command quietly, with exit 0:
``power-table`` prints each row as it computes it, so a sweep of any length
runs in constant memory and stops at the first row the reader refuses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .norms import SPECIALIZED_BY_KIND, NormResult, Status, TruncConfig
from .oracle import (run_all_suites, run_identity_suite, run_oracle_suite,
                     run_power_consistency_suite)
from .power import (cesaro_minus_id_power, cesaro_power, copson_minus_id_power,
                    copson_power, two_op_cc_power, two_op_cstarc_power)
from .two_operator import Direction, TwoOpQuery, best_constant
from .weights import Cone, PowerWeight, Weight, weight_from_csv

_OPS = {kind.value: kind for kind in SPECIALIZED_BY_KIND}
_CONES = {c.value: c for c in Cone}
_DIRECTIONS = {d.value: d for d in Direction}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_weight(spec: str) -> tuple[Weight, bool]:
    """Returns (weight, is_pair_spec)."""
    if ":" not in spec:
        raise ValueError(f"weight spec needs a prefix: {spec!r}")
    head, _, rest = spec.partition(":")
    if head == "power":
        return PowerWeight(float(rest)), False
    if head == "powerpair":
        return PowerWeight(float(rest)), True
    if head == "list":
        return weight_from_csv(rest), False
    raise ValueError(f"unknown weight spec {head!r} (use power:, powerpair:, list:)")


def _weights_from_args(args) -> tuple[Weight, Weight]:
    if args.u is None:
        raise ValueError("--u is required")
    u, pair = _parse_weight(args.u)
    if pair:
        if args.v is not None:
            raise ValueError("powerpair: sets both weights; drop --v")
        return u, u
    if args.v is None:
        raise ValueError("--v is required (or use --u powerpair:<alpha>)")
    v, pair_v = _parse_weight(args.v)
    if pair_v:
        raise ValueError("powerpair: belongs in --u, alone")
    return u, v


def _cfg_from_args(args) -> TruncConfig:
    return TruncConfig(n_max=args.n_max, tol=args.tol)


def _json_value(x: float) -> object:
    return "inf" if math.isinf(x) else x


def _emit_result(head: dict, res: NormResult) -> int:
    doc = dict(head)
    if res.status is Status.UNSUPPORTED:
        doc.update({"value": None, "status": res.status.value,
                    "n_used": res.n_used, "residual": None})
        print(json.dumps(doc))
        print(f"unsupported: {res.reason}", file=sys.stderr)
        return 2
    doc.update({
        "value": _json_value(res.value),
        "status": res.status.value,
        "n_used": res.n_used,
        "residual": _json_value(res.residual_estimate),
    })
    print(json.dumps(doc))
    return 0


def _cmd_norm(args) -> int:
    u, v = _weights_from_args(args)
    kind = _OPS[args.op]
    cone = _CONES[args.cone]
    res = SPECIALIZED_BY_KIND[kind](u, v, cone, _cfg_from_args(args))
    return _emit_result({"op": args.op, "cone": args.cone}, res)


def _cmd_two_op(args) -> int:
    u, v = _weights_from_args(args)
    q = TwoOpQuery(_DIRECTIONS[args.dir], _CONES[args.cone], u, v,
                   _cfg_from_args(args))
    res = best_constant(q)
    return _emit_result({"direction": args.dir, "cone": args.cone}, res)


_TABLES = {
    "cesaro": (cesaro_power, (Cone.ALL, Cone.NONNEG, Cone.NONINCR, Cone.NONDECR), None),
    "copson": (copson_power, (Cone.ALL, Cone.NONNEG, Cone.NONINCR, Cone.NONDECR), None),
    "cesaro-minus-identity": (
        cesaro_minus_id_power, (Cone.ALL, Cone.NONNEG, Cone.NONINCR, Cone.NONDECR), None),
    "copson-minus-identity": (
        copson_minus_id_power, (Cone.ALL, Cone.NONNEG),
        "# nonincr omitted: open problem (no formula is known); "
        "nondecr is trivially 0"),
    "two-op-c-cstar": (two_op_cc_power, (Cone.ALL, Cone.NONNEG), None),
    "two-op-cstar-c": (two_op_cstarc_power, (Cone.ALL, Cone.NONNEG), None),
}


def _cmd_power_table(args) -> int:
    if not all(map(math.isfinite, (args.frm, args.to, args.step))):
        raise ValueError("--from, --to and --step must be finite")
    if args.step <= 0:
        raise ValueError("--step must be > 0")
    if args.to < args.frm:
        raise ValueError("--to must be >= --from")
    span = (args.to - args.frm) / args.step
    if not math.isfinite(span):
        raise ValueError("(--to - --from) / --step overflows float64")
    fn, cones, note = _TABLES[args.theorem]
    count = int(span + 1e-9) + 1
    # each row is printed as it is computed: memory stays flat on any sweep
    if note:
        print(note)
    print("alpha,cone,value,case_label")
    for i in range(count):
        alpha = args.frm + i * args.step
        for cone in cones:
            r = fn(alpha, cone)
            val = "inf" if math.isinf(r.value) else repr(r.value)
            print(f"{alpha:.12g},{cone.value},{val},{r.case_label}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "identities":
        reports = [run_identity_suite(seed=args.seed, N=args.N)]
    elif args.suite == "power-consistency":
        reports = run_power_consistency_suite(n_max=args.n_max)
    elif args.suite == "oracle":
        reports = run_oracle_suite(pairs=args.pairs, trials=args.trials,
                                   seed=args.seed)
    else:
        reports = run_all_suites(seed=args.seed, trials=args.trials, N=args.N,
                                 oracle_pairs=args.pairs, n_max=args.n_max)
    print(json.dumps(reports))
    return 0 if all(r["pass"] for r in reports) else 3


def _build_parser() -> _Parser:
    p = _Parser(prog="cesaro-copson",
                description="Weighted l-infinity norms and best constants for "
                            "the discrete averaging (Cesaro) and tail "
                            "(Copson) operators on cones.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_cfg(sp) -> None:
        sp.add_argument("--n-max", type=int, default=1_000_000)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--div-threshold", type=float, default=1e15,
                        help="ignored: divergence is decided analytically, never "
                             "from the size of a row (kept so that older command "
                             "lines still run)")

    sp = sub.add_parser("norm", parents=[], help="operator norm on a cone")
    sp.add_argument("--op", required=True, choices=sorted(_OPS))
    sp.add_argument("--cone", required=True, choices=sorted(_CONES))
    sp.add_argument("--u", help="domain weight spec")
    sp.add_argument("--v", help="codomain weight spec")
    add_cfg(sp)
    sp.set_defaults(fn=_cmd_norm)

    sp = sub.add_parser("two-op", help="best constant in a two-operator inequality")
    sp.add_argument("--dir", required=True, choices=sorted(_DIRECTIONS))
    sp.add_argument("--cone", required=True, choices=("all", "nonneg"))
    sp.add_argument("--u", help="domain weight spec")
    sp.add_argument("--v", help="codomain weight spec")
    add_cfg(sp)
    sp.set_defaults(fn=_cmd_two_op)

    sp = sub.add_parser("power-table", help="CSV sweep of a closed-form table")
    sp.add_argument("--theorem", required=True, choices=sorted(_TABLES))
    sp.add_argument("--from", dest="frm", type=float, required=True)
    sp.add_argument("--to", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.set_defaults(fn=_cmd_power_table)

    sp = sub.add_parser("verify", help="run the verification suites")
    sp.add_argument("--suite", required=True,
                    choices=("identities", "power-consistency", "oracle", "all"))
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--N", type=int, default=50)
    sp.add_argument("--pairs", type=int, default=20)
    sp.add_argument("--n-max", type=int, default=200_000)
    sp.set_defaults(fn=_cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()   # a closed pipe shows here, not at exit
        return rc
    except BrokenPipeError:
        # the reader closed standard output (``| head``): stop quietly, and
        # send the unwritten rest to devnull so the exit flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"cesaro-copson: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
