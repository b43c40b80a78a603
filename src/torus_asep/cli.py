"""Batch command-line front end.

One subcommand per verification family so failures isolate cleanly:

    enumerate    list the restricted states
    weights      per-state stationary weight monomials
    stationary   exact stationary table at a rate point
    verify       balance equations, weight identities, lumping certificate
    observables  densities and currents, closed form vs oracle
    special      special-case partition function certificates
    simulate     Monte Carlo run: manifest, ledger, estimates
    ta           surviving states when backward rates vanish, with closure

Exit status: 0 all requested checks passed, 1 a verification failed,
2 usage, parse or file error, 3 state-space cap exceeded.  Output files are
deterministic for a fixed configuration (seeds included), so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import observables as obs
from .dynamics import ResourceCapError, build_generator, check_state_cap, restrict_ta
from .mcmc import estimate_observables, run_manifest, simulate
from .model import enumerate_restricted
from .stationary import (
    StationaryError,
    StationaryTable,
    config_weight,
    exact_stationary,
    lumping_report,
    verify_balance,
    weight_identities,
)
from .symbolic import RatePoint

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _add_common(parser: argparse.ArgumentParser, rates: bool = False, directory: bool = False) -> None:
    """The lattice, the output (a file in a --format, or a `directory`) and, with `rates`, the rate flags."""
    parser.add_argument("--L", type=int, required=True, help="number of columns")
    parser.add_argument("--n", type=int, required=True, help="number of rows")
    if directory:
        parser.add_argument("--output", type=Path, default=Path("."), help="output directory (default .)")
    else:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
        parser.add_argument("--output", type=Path, default=None, help="output file (default stdout)")
    if rates:
        parser.add_argument("--rates", help="inline rates 'p1,..,pn;q1,..,qn' (a/b or decimals)")
        parser.add_argument("--rates-file", type=Path, help="JSON file with fields p and q")


def _parse_rates(args, n: int) -> RatePoint | None:
    if getattr(args, "rates", None) and getattr(args, "rates_file", None):
        raise ValueError("give either --rates or --rates-file, not both")
    if getattr(args, "rates", None):
        rp = RatePoint.parse(args.rates)
    elif getattr(args, "rates_file", None):
        rp = RatePoint.from_json_dict(json.loads(args.rates_file.read_text()))
    else:
        return None
    if rp.n != n:
        raise ValueError(f"rate vectors have length {rp.n}, expected n = {n}")
    return rp


def _emit(args, payload, csv_rows=None) -> None:
    if args.format == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text)


def _cmd_enumerate(args) -> int:
    check_state_cap(args.L, args.n)
    states = enumerate_restricted(args.L, args.n)
    payload = {
        "L": args.L,
        "n": args.n,
        "count": len(states),
        "states": [w.to_text() for w in states],
    }
    rows = [["index", "state"]] + [[str(i), w.to_text()] for i, w in enumerate(states)]
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_weights(args) -> int:
    rp = _parse_rates(args, args.n)
    check_state_cap(args.L, args.n)
    states = enumerate_restricted(args.L, args.n)
    records = StationaryTable(states, weights=[config_weight(w) for w in states]).to_json_rows(rp)
    payload = {"L": args.L, "n": args.n, "weights": records}
    header = ["state", "weight"] + (["weight_value"] if rp is not None else [])
    rows = [header] + [[r[h] for h in header] for r in records]
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_stationary(args) -> int:
    rp = _parse_rates(args, args.n)
    if rp is None:
        raise ValueError("stationary requires --rates or --rates-file")
    gen = build_generator(args.L, args.n)
    table = exact_stationary(gen, rp)
    table.weights = gen.weights
    records = table.to_json_rows(rp)
    payload = {"L": args.L, "n": args.n, "rates": rp.to_json_dict(), "table": records}
    header = ["state", "weight", "weight_value", "probability"]
    rows = [header] + [[r[h] for h in header] for r in records]
    _emit(args, payload, rows)
    if args.generator_out is not None:
        args.generator_out.mkdir(parents=True, exist_ok=True)
        triplets = gen.triplet_rows()
        with (args.generator_out / "generator.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["source", "target", "rate"])
            writer.writerows([[str(a), str(b), r] for a, b, r in triplets])
        manifest = {"states": [{"index": i, "state": s} for i, s in gen.state_manifest()]}
        (args.generator_out / "states.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rp = _parse_rates(args, args.n)
    gen = build_generator(args.L, args.n)
    balance = verify_balance(args.L, args.n, rates=rp, gen=gen)
    checks = [(f"balance_{balance.mode}", balance.ok, f"{balance.num_states} states")]
    if rp is None:
        lumping = lumping_report(args.L, args.n, gen=gen)
        checks.append(("lumping_fiber_rates", lumping.lumpable, f"{lumping.num_fibers} fibers"))
        checks.append(("lumping_marginals", lumping.marginal_ok, "product form"))
    else:
        table = exact_stationary(gen, rp)
        weights = [m.evaluate(rp) for m in gen.weights]
        total = sum(weights)
        proportional = all(
            prob * total == weight for prob, weight in zip(table.probabilities, weights)
        )
        checks.append(("stationary_matches_weights", proportional, f"{gen.num_states} states"))
    identities = weight_identities(args.n)
    checks.append(("weight_determinant", identities.determinant_ok, f"n={args.n}"))
    checks.append(("weight_pair_relation", identities.pair_ok, f"n={args.n}"))
    ok = all(flag for _, flag, _ in checks)
    payload = {
        "L": args.L,
        "n": args.n,
        "mode": balance.mode,
        "checks": [{"name": name, "ok": flag, "detail": detail} for name, flag, detail in checks],
        "ok": ok,
    }
    rows = [["name", "ok", "detail"]] + [[name, str(flag), detail] for name, flag, detail in checks]
    _emit(args, payload, rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_observables(args) -> int:
    rp = _parse_rates(args, args.n)
    payload = {"L": args.L, "n": args.n, "mode": "symbolic" if rp is None else "numeric", "ok": True}
    rows = None
    # Each oracle raises ObservableMismatch on any unequal entry, so a
    # report that returns is all equal.
    try:
        density_report = obs.densities(args.L, args.n, rp)
        current_report = obs.currents_exact(args.L, args.n, rp)
    except obs.ObservableMismatch as exc:
        payload.update(ok=False, error=str(exc))
    else:
        if args.format == "csv":
            rows = density_report.to_csv_rows() + current_report.to_csv_rows()[1:]
        else:
            payload["densities"] = density_report.to_json_rows()
            payload["currents"] = current_report.to_json_rows()
    _emit(args, payload, rows)
    return EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED


def _cmd_special(args) -> int:
    cases = ("identical", "symmetric", "totally_asymmetric")
    results = []
    ok = True
    for case in cases:
        try:
            cert = obs.partition_function_special(args.L, args.n, case)
            entry = {
                "case": case,
                "equal": cert.equal,
                "substituted": str(cert.substituted),
                "closed_form": str(cert.closed_form),
            }
            entry.update({k: v for k, v in cert.extra.items()})
        except obs.ObservableMismatch as exc:
            entry = {"case": case, "equal": False, "error": str(exc)}
            ok = False
        results.append(entry)
    payload = {"L": args.L, "n": args.n, "cases": results, "ok": ok}
    rows = [["case", "equal"]] + [[r["case"], str(r["equal"])] for r in results]
    _emit(args, payload, rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_simulate(args) -> int:
    rp = _parse_rates(args, args.n)
    if rp is None:
        raise ValueError("simulate requires --rates or --rates-file")
    if (args.events is None) == (args.time is None):
        raise ValueError("specify exactly one of --events or --time")
    state, ledger = simulate(
        args.L,
        args.n,
        rp,
        seed=args.seed,
        events=args.events,
        time_horizon=args.time,
        batches=args.batches,
    )
    report = estimate_observables(ledger, state)
    outdir = args.output
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest(state, ledger)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with (outdir / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(ledger.to_csv_rows())
    (outdir / "estimates.json").write_text(
        json.dumps(report.to_json_rows(), indent=2, sort_keys=True) + "\n"
    )
    sys.stdout.write(f"wrote manifest.json, ledger.csv, estimates.json to {outdir}\n")
    return EXIT_OK


def _row_labels(text: str, n: int) -> frozenset[int]:
    """The labels of a comma-separated `--set` list, each in 1..n."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    for token in tokens:
        if not (token.isdecimal() and 1 <= int(token) <= n):
            raise ValueError(f"--set takes comma-separated row labels in 1..{n}, got {token!r}")
    return frozenset(map(int, tokens))


def _cmd_ta(args) -> int:
    zero_q = _row_labels(args.set, args.n)
    states, certificate = restrict_ta(args.L, args.n, zero_q)
    payload = {
        "L": args.L,
        "n": args.n,
        "zero_q": sorted(zero_q),
        "count": len(states),
        "restricted_count": sum(1 for w in states if w.is_restricted()),
        "closed": certificate.ok,
        "transitions_checked": certificate.transitions_checked,
        "states": [w.to_text() for w in states],
    }
    rows = [["index", "state"]] + [[str(i), w.to_text()] for i, w in enumerate(states)]
    _emit(args, payload, rows)
    return EXIT_OK if certificate.ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-asep",
        description="Exact solver and simulator for the two-species disordered "
        "exclusion process on an L x n torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list restricted states")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("weights", help="stationary weight monomials per state")
    _add_common(p, rates=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("stationary", help="exact stationary distribution at a rate point")
    _add_common(p, rates=True)
    p.add_argument("--generator-out", type=Path, default=None, help="directory for the sparse generator dump")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("verify", help="balance equations, weight identities, lumping")
    _add_common(p, rates=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("observables", help="densities and currents vs oracles")
    _add_common(p, rates=True)
    p.set_defaults(func=_cmd_observables)

    p = sub.add_parser("special", help="special-case partition function certificates")
    _add_common(p)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("simulate", help="continuous-time Monte Carlo run")
    _add_common(p, rates=True, directory=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--batches", type=int, default=20)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ta", help="surviving states when backward rates vanish")
    _add_common(p)
    p.add_argument("--set", default="", help="comma-separated row labels with q = 0, e.g. '1' or '1,2'")
    p.set_defaults(func=_cmd_ta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, StationaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
