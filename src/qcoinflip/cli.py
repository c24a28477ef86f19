"""Batch command-line front end.

Four verbs reproduce the quantitative claims:

    penalty     --v V                bounds, SDP value and certificate for one game
    tournament  --k K [--g G]        analytic bias bounds, optional Monte Carlo
    lowerbound  --analytic --k K | FILE   bias lower bounds / protocol analysis
    broadcast   SUBVERB --k K        emulation fidelities and use counts

Records are machine-first (JSON by default, CSV or a rendered table on
request), embed the seed, version and full parameter echo, and are
deterministic under a fixed --seed.  Relative --output paths resolve under
$QCOINFLIP_OUTPUT_DIR when that is set.  Exit codes: 0 success, 2 invalid
arguments, 3 solver non-convergence, 4 malformed input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .broadcast import (
    EPR,
    broadcast_qubit,
    classical_broadcast,
    emulate_broadcast_pairwise,
    establish_epr,
    simulate_quantum_channel_via_qbc,
    teleport,
)
from .lowerbound import (
    cheat_product_check,
    group_players,
    kparty_product_check,
    multiparty_bias_bound,
)
from .multiparty import (
    ADVERSARY_PRESETS,
    BIN_STRATEGIES,
    TournamentConfig,
    combined_bias,
    committee_threshold,
    lightest_bin_select,
    naive_tournament_bound,
    simulate_tournament,
    tournament_bound,
    tournament_size,
)
from .penalty import (
    PenaltyGame,
    alice_attack_sdp,
    bob_attack,
    certificate_scalars,
    dual_certificate,
    expected_win_bound,
)
from .protocols import (
    ProtocolFormatError,
    TwoPartyProtocol,
    load_protocol,
    validate_kparty,
    validate_protocol,
)
from .quantum import StateVector, as_rng, qubits
from .sdp import solve, verify_dual

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_BADFILE = 4


def _emit(record: dict, fmt: str, out):
    if fmt == "json":
        json.dump(record, out, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        keys = sorted(record)
        out.write(",".join(keys) + "\n")
        out.write(",".join(_csv_cell(record[k]) for k in keys) + "\n")
    else:
        width = max(len(k) for k in record)
        for key in sorted(record):
            out.write(f"{key:<{width}}  {record[key]}\n")


def _emit_rows(rows: list, fmt: str, out):
    if fmt == "json":
        for row in rows:
            json.dump(row, out, sort_keys=True)
            out.write("\n")
        return
    keys = sorted(rows[0])
    if fmt == "csv":
        out.write(",".join(keys) + "\n")
        for row in rows:
            out.write(",".join(_csv_cell(row.get(k)) for k in keys) + "\n")
    else:
        out.write("  ".join(keys) + "\n")
        for row in rows:
            out.write("  ".join(str(row.get(k)) for k in keys) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    return f'"{text}"' if "," in text else text


def _base_record(args, command: str) -> dict:
    return {"command": command, "version": __version__, "seed": args.seed}


def cmd_penalty(args, out) -> int:
    if not math.isfinite(args.v) or args.v < 4:
        print(f"error: penalty must be finite and >= 4, got {args.v}", file=sys.stderr)
        return EXIT_USAGE
    game = PenaltyGame(args.v)
    attack = bob_attack(game)
    problem = alice_attack_sdp(game)
    solution = solve(problem)
    if solution.status != "converged":
        print(f"error: sender-attack SDP did not converge (status {solution.status})", file=sys.stderr)
        return EXIT_SOLVER
    cert = dual_certificate(game)
    report = verify_dual(problem, cert)
    scal = certificate_scalars(args.v)
    bounds = expected_win_bound(args.v)
    record = _base_record(args, "penalty")
    record.update(
        {
            "v": args.v,
            "delta": game.delta,
            "bob_bound": attack.expected_win,
            "alice_primal": solution.primal_value,
            "alice_dual_bound": report.bound,
            "alice_bound_chain": bounds.alice_chain,
            "lambda": scal.lam,
            "m0": scal.m0,
            "m1": scal.m1,
            "certificate_feasible": report.feasible,
            "duality_gap": report.bound - solution.primal_value,
        }
    )
    _emit(record, args.format, out)
    return EXIT_OK


def _parse_sweep(expr: str):
    # k=START..ENDxFACTOR expands geometrically
    try:
        name, spec = expr.split("=", 1)
        if name.strip() != "k":
            raise ValueError
        span, factor = spec.split("x", 1)
        start, end = span.split("..", 1)
        start, end, factor = int(start), int(end), int(factor)
        if start < 2 or end < start or factor < 2:
            raise ValueError
    except ValueError:
        return None
    values = []
    k = start
    while k <= end:
        values.append(k)
        k *= factor
    return values


def cmd_tournament(args, out) -> int:
    ks = _parse_sweep(args.sweep) if args.sweep else [args.k]
    if ks is None:
        print(f"error: cannot parse sweep {args.sweep!r} (expected k=8..4096x2)", file=sys.stderr)
        return EXIT_USAGE
    for k in ks:
        if k < 2 or args.g < 1 or args.g > k:
            print(f"error: need k >= 2 and 1 <= g <= k, got k={k} g={args.g}", file=sys.stderr)
            return EXIT_USAGE
    if args.adversary not in ADVERSARY_PRESETS:
        print(f"error: unknown adversary {args.adversary!r} (presets: {sorted(ADVERSARY_PRESETS)})", file=sys.stderr)
        return EXIT_USAGE
    if args.bins < 2:
        print(f"error: need --bins >= 2, got {args.bins}", file=sys.stderr)
        return EXIT_USAGE
    if args.runs < 0:
        print(f"error: need --runs >= 0, got {args.runs}", file=sys.stderr)
        return EXIT_USAGE
    if not (math.isfinite(args.threshold_factor) and args.threshold_factor > 0):
        print(f"error: need a finite --threshold-factor > 0, got {args.threshold_factor}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for k in ks:
        record = _base_record(args, "tournament")
        record.update(
            {
                "k": k,
                "g": args.g,
                "runs": args.runs,
                "adversary": args.adversary,
                "bins": args.bins,
                "threshold_factor": args.threshold_factor,
            }
        )
        record["analytic_bound"], _ = combined_bias(k, args.g, args.threshold_factor)
        record["naive_bias_bound"] = naive_tournament_bound(k)
        record["committee_threshold"] = None
        record["mc_estimate"] = None
        record["stderr"] = None
        if args.g == 1:
            ksub = tournament_size(k)
            not_fixed, _ = tournament_bound(ksub)
            record["analytic_not_fixed"] = not_fixed
            if args.runs:
                rep = simulate_tournament(
                    TournamentConfig.for_players(ksub),
                    0,
                    ADVERSARY_PRESETS[args.adversary],
                    as_rng(args.seed),
                    args.runs,
                )
                record["mc_estimate"] = rep.mc_estimate
                record["stderr"] = rep.stderr
        else:
            threshold = committee_threshold(k, args.g, args.threshold_factor)
            # the cap bounds the runs x bins count arrays when --bins is large
            seeds = min(args.runs, 10_000)
            record["committee_threshold"] = threshold
            record["committee_seeds"] = seeds
            if seeds:
                # committee-selection Monte Carlo against both bin presets
                for name, strategy in sorted(BIN_STRATEGIES.items()):
                    result = lightest_bin_select(
                        k, args.g, args.bins, threshold, as_rng(args.seed), strategy, runs=seeds
                    )
                    record[f"honest_presence_{name}"] = result.honest_presence
        rows.append(record)
    _emit_rows(rows, args.format, out)
    return EXIT_OK


def cmd_lowerbound(args, out) -> int:
    record = _base_record(args, "lowerbound")
    if args.analytic:
        if args.k is None or args.k < 1:
            print("error: --analytic needs --k >= 1", file=sys.stderr)
            return EXIT_USAGE
        if args.g is not None and not 1 <= args.g <= args.k:
            print(f"error: need 1 <= g <= k, got k={args.k} g={args.g}", file=sys.stderr)
            return EXIT_USAGE
        if args.g is None or args.g == 1:
            bound = multiparty_bias_bound(args.k)
            record.update({"k": args.k, "g": 1, "k_effective": args.k})
        else:
            k_eff, bound = group_players(args.k, args.g)
            record.update({"k": args.k, "g": args.g, "k_effective": k_eff})
        record.update(
            {"q_min": bound.q_min, "bias_lower_bound": bound.bias, "expansion": bound.expansion}
        )
        _emit(record, args.format, out)
        return EXIT_OK
    if not args.protocol:
        print("error: need a protocol file or --analytic", file=sys.stderr)
        return EXIT_USAGE
    try:
        protocol = load_protocol(args.protocol)
    except FileNotFoundError:
        print(f"error: no such file: {args.protocol}", file=sys.stderr)
        return EXIT_BADFILE
    except ProtocolFormatError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_BADFILE
    record["file"] = args.protocol
    if isinstance(protocol, TwoPartyProtocol):
        report = validate_protocol(protocol)
        record.update(
            {
                "kind": "two-party",
                "name": protocol.name,
                "valid": report.valid,
                "p0": report.p0,
                "p1": report.p1,
                "p_abort": report.p_abort,
                "conditions": {name: ok for name, ok, _ in report.checks},
            }
        )
        if report.valid:
            try:
                check = cheat_product_check(protocol)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_SOLVER
            record.update(
                {
                    "p_alice_forces_1": check.p_alice_forces,
                    "p_bob_forces_1": check.p_bob_forces,
                    "product": check.product,
                    "product_check_passed": check.passed,
                    "balanced_max_ok": check.balanced_max_ok,
                }
            )
    else:
        report = validate_kparty(protocol)
        record.update(
            {
                "kind": "k-party",
                "name": protocol.name,
                "valid": report.valid,
                "p0": report.p0,
                "p1": report.p1,
                "conditions": {name: ok for name, ok, _ in report.checks},
            }
        )
        if report.valid:
            try:
                check = kparty_product_check(protocol)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_SOLVER
            record.update(
                {
                    "forcing_probabilities": {f"{i}:{b}": p for (i, b), p in check.probabilities.items()},
                    "products": list(check.products),
                    "product_check_passed": check.passed,
                }
            )
    _emit(record, args.format, out)
    return EXIT_OK


def cmd_broadcast(args, out) -> int:
    if args.k < 2:
        print(f"error: need k >= 2 parties, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    rng = as_rng(args.seed)
    record = _base_record(args, f"broadcast {args.subverb}")
    record["k"] = args.k
    if args.subverb == "emulate":
        alpha, beta = 1 / math.sqrt(2), 1 / math.sqrt(2)
        shared, transcript = emulate_broadcast_pairwise(alpha, beta, args.k, rng)
        target = broadcast_qubit(alpha, beta, args.k)
        record.update(
            {
                "fidelity": shared.state.fidelity(target.state),
                "uses": transcript[-1]["use_count"],
                "transcript": transcript,
            }
        )
    elif args.subverb == "classical":
        outcomes, transcript = classical_broadcast(args.bit, args.k, rng)
        record.update({"bit": args.bit, "outcomes": outcomes, "uses": 1, "transcript": transcript})
    elif args.subverb == "epr":
        pair, _residual, transcript, uses = establish_epr(0, args.k - 1, args.k, rng)
        record.update({"fidelity": pair.fidelity(EPR), "uses": uses, "transcript": transcript})
    elif args.subverb == "teleport":
        payload = StateVector(qubits(1), np.array([1.0, 1.0j]) / math.sqrt(2))
        received, uses, transcript = simulate_quantum_channel_via_qbc(0, args.k - 1, payload, args.k, rng)
        record.update({"fidelity": received.fidelity(payload), "uses": uses, "transcript": transcript})
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    _emit(record, args.format, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcoinflip", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--output", default=None, help="write the record here instead of stdout")

    p = sub.add_parser("penalty", help="two-party penalty game bounds and SDP")
    p.add_argument("--v", type=float, required=True, help="penalty in coins (>= 4)")
    common(p)

    p = sub.add_parser("tournament", help="multiparty tournament bias bounds")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--runs", type=int, default=0)
    p.add_argument("--adversary", default="timid")
    p.add_argument("--bins", type=int, default=2)
    p.add_argument("--threshold-factor", type=float, default=4.0)
    p.add_argument("--sweep", default=None, help="geometric sweep, e.g. k=8..4096x2")
    common(p)

    p = sub.add_parser("lowerbound", help="bias lower bounds and protocol analysis")
    p.add_argument("protocol", nargs="?", default=None, help="protocol JSON file")
    p.add_argument("--analytic", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    common(p)

    p = sub.add_parser("broadcast", help="broadcast-channel emulations")
    p.add_argument("subverb", choices=("emulate", "classical", "epr", "teleport"))
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--bit", type=int, default=0, choices=(0, 1))
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "penalty": cmd_penalty,
        "tournament": cmd_tournament,
        "lowerbound": cmd_lowerbound,
        "broadcast": cmd_broadcast,
    }
    out = sys.stdout
    close = False
    if args.output:
        path = args.output
        outdir = os.environ.get("QCOINFLIP_OUTPUT_DIR")
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        out = open(path, "w", encoding="utf-8")
        close = True
    try:
        return handlers[args.verb](args, out)
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
