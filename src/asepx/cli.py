"""Command-line front end.

Subcommands: sector | stationary | verify | simulate | dump-x | dump-mlq.
Rationals cross the boundary as "p/q" strings; only the simulator takes
a decimal asymmetry parameter.  All JSON reports carry a schema tag and
are byte-stable for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable

from .algebra_checks import run_check
from .asep_core import Multiplicity, SectorBasis, gillespie, markov_sector, stationary_kernel
from .ctm import build_X, mp_stationary
from .mlq import iter_mlqs, mlq_state
from .oscillator import multimode_word_to_str
from .scalar import RatFunc

SCHEMA = "asepx/1"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _mult(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad multiplicity {text!r}: {exc}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _emit_streamed(payload: dict, key: str, items: Iterable, fmt: str) -> None:
    """`_emit` of `payload` plus a last entry `key: list(items)`, one item at a time."""
    # the first item is taken before anything is written: an error raised
    # before it leaves stdout empty
    items = iter(items)
    items = chain(list(islice(items, 1)), items)
    write = sys.stdout.write
    if fmt == "json":
        head, tail = json.dumps({**payload, key: 0}, sort_keys=True, indent=2).split(
            f'"{key}": 0', 1)
        write(f'{head}"{key}": [')
        sep = ""
        for item in items:
            text = json.dumps(item, sort_keys=True, indent=2).replace("\n", "\n    ")
            write(f"{sep}\n    {text}")
            sep = ","
        write(("\n  ]" if sep else "]") + tail + "\n")
    else:
        _emit(payload, fmt)
        write(f"{key}: [")
        for n, item in enumerate(items):
            write((", " if n else "") + repr(item))
        write("]\n")


def _config_str(config) -> str:
    return "".join(str(s) for s in config)


def _sector_multiplicity(args) -> Multiplicity:
    m = Multiplicity(args.mult)
    if args.n is not None and m.n != args.n:
        raise ValueError(f"--n {args.n} inconsistent with --mult {args.mult}")
    if args.L is not None and m.L != args.L:
        raise ValueError(f"--L {args.L} inconsistent with --mult {args.mult}")
    return m


def cmd_sector(args) -> int:
    m = _sector_multiplicity(args)
    basis = SectorBasis(m)
    mat = markov_sector(m, basis)
    payload = {
        "schema": SCHEMA,
        "n": m.n,
        "L": m.L,
        "mult": list(m.counts),
        "dimension": basis.dim,
        "configs": [_config_str(c) for c in basis.configs],
        "matrix": {
            f"{r},{c}": RatFunc(v).to_json() for (r, c), v in sorted(mat.items())
        },
    }
    _emit(payload, args.format)
    return 0


def cmd_stationary(args) -> int:
    m = _sector_multiplicity(args)
    if args.q != 1:
        if args.all_methods or args.method != "mlq":
            raise ValueError("--q other than 1 needs --method mlq without --all-methods")
        # away from q = 1 the mlq sum is not a stationary state: print it raw
        state = mlq_state(m, args.q)
        payload = {
            "schema": SCHEMA,
            "method": "mlq",
            "q": str(args.q),
            "state": {
                _config_str(c): state.values[c].to_json()
                for c in state.basis.configs
                if c in state.values
            },
        }
        _emit(payload, args.format)
        return 0
    methods = ["kernel", "mlq", "mp"] if args.all_methods else [args.method]
    results = {}
    for method in methods:
        if method == "kernel":
            results[method] = stationary_kernel(m)
        elif method == "mlq":
            results[method] = mlq_state(m).canonical()
        else:
            results[method] = mp_stationary(m).canonical()
    first = results[methods[0]]
    state = {_config_str(c): p.to_json() for c, p in first.items()}
    if args.all_methods:
        status = "EQUAL" if all(results[k] == first for k in methods) else "DIFFER"
        _emit({"schema": SCHEMA, "methods": methods, "status": status, "state": state},
              args.format)
        return 0 if status == "EQUAL" else 1
    _emit({"schema": SCHEMA, "method": methods[0], "state": state}, args.format)
    return 0


def cmd_verify(args) -> int:
    report = run_check(
        args.check,
        n=args.n,
        l=args.l,
        fock_dim=args.fock_dim,
        trials=args.trials,
        seed=args.seed,
        mult=args.mult,
    )
    payload = {"schema": SCHEMA, **report.to_json()}
    _emit(payload, args.format)
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    m = _sector_multiplicity(args)
    dist = gillespie(m, args.t, args.horizon, args.burn_in, args.seed)
    payload = {
        "schema": SCHEMA,
        "t": args.t,
        "horizon": args.horizon,
        "burn_in": args.burn_in,
        "seed": args.seed,
        "occupation": {
            _config_str(c): dist[c] for c in sorted(dist)
        },
    }
    _emit(payload, args.format)
    return 0


def cmd_dump_x(args) -> int:
    x = build_X(args.n, args.alpha)
    terms = []
    # sorted by z-degree, then by the nonempty (mode, word) pairs: sorting
    # the dense word tuples themselves would reorder the terms
    for term in sorted(x.terms, key=lambda t: (
            t.zdeg, [(m, w) for m, w in enumerate(t.words, 1) if w])):
        terms.append(
            {
                "zdeg": term.zdeg,
                "word": multimode_word_to_str(term.words),
            }
        )
    payload = {
        "schema": SCHEMA,
        "n": args.n,
        "alpha": args.alpha,
        "modes": x.nmodes,
        "terms": terms,
    }
    _emit(payload, args.format)
    return 0


def cmd_dump_mlq(args) -> int:
    m = _sector_multiplicity(args)
    weight_json = lru_cache(maxsize=None)(RatFunc.to_json)  # queues share their weights
    queues = (
        {
            "rows": ["".join(map(str, row)) for row in rec.rows],
            "arrows": [list(a) for a in rec.arrows],
            "weight": weight_json(rec.weight),
            "config": _config_str(rec.config),
        }
        for rec in iter_mlqs(m, args.q)
    )
    _emit_streamed({"schema": SCHEMA, "q": str(args.q)}, "mlqs", queues, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asepx",
        description="Exact stationary states of the multispecies ASEP on a ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sector_flags(p, need_mult=True):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--mult", type=_mult, required=need_mult,
                       help="comma-separated multiplicities m0,m1,...")

    p = sub.add_parser("sector", help="sector basis and Markov matrix")
    sector_flags(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_sector)

    p = sub.add_parser("stationary", help="stationary state of a sector")
    sector_flags(p)
    p.add_argument("--method", choices=("kernel", "mlq", "mp"), default="kernel")
    p.add_argument("--all-methods", action="store_true")
    p.add_argument("--q", type=_fraction, default=Fraction(1))
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("verify", help="run an identity check suite")
    p.add_argument(
        "check",
        choices=(
            "ybe", "rll", "lt-link", "qp", "rtt", "zf", "hat",
            "ms-theorem", "stationary",
        ),
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--fock-dim", type=int, default=10)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mult", type=_mult, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="continuous-time stochastic simulation")
    sector_flags(p)
    p.add_argument("--t", type=float, default=0.5, help="asymmetry (decimal)")
    p.add_argument("--horizon", type=float, default=10000.0)
    p.add_argument("--burn-in", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dump-x", help="terms of a layer operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_dump_x)

    p = sub.add_parser("dump-mlq", help="all multiline queues of a sector")
    sector_flags(p)
    p.add_argument("--q", type=_fraction, default=Fraction(1))
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_dump_mlq)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
