"""Batch front door: evaluate, convert, invert, verify, approximate, simulate.

Artifact contract: CSV for curves, JSON for structured reports. Every JSON
artifact embeds the tool version and the fully resolved configuration; no
artifact contains timestamps, so identical commands produce identical bytes.

Exit codes: 0 success, 1 I/O failure, 2 domain/validation failure. Domain
failures print {"error": {"code", "message"}} to stdout.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__

# every verb resolves a law through canonical and measure, which hold all of
# approx-cp; each other _run_<verb> imports the rest of what it runs, so a
# call loads only its verb's modules
from .canonical import (
    CompoundPoissonSpec,
    LevyKhintchinePair,
    catalog,
    definetti_sequence,
    law_from_json_dict,
    law_to_json_dict,
    law_to_lk,
    lk_to_kolmogorov,
    lk_to_levy,
    log_cf_lk,
)
from .measure import CanonicalMeasure, _json_atoms, _json_number, _json_object, symmetric_grid

OUTPUT_DIR_ENV = "IDLAWS_OUTPUT_DIR"

# numeric options that must be finite and positive (counts thus at least 1)
_POSITIVE_OPTIONS = (
    "t_max", "t_span", "t_step", "epsilon", "horizon", "cf_t_max",
    "points", "steps", "paths", "cf_points",
)
# the most t points, path rows or expected jumps of one call, far above any
# documented use; checked before anything is allocated or written
MAX_SIZE = 1 << 22


class BadOption(ValueError):
    """A numeric command-line option is out of range."""


def _invert_points(args):
    """invert's t points (inf past MAX_SIZE), on a span one wider each side."""
    half = (args.t_span + 1.0) / args.t_step
    return 2 * round(half) + 1 if half < MAX_SIZE else math.inf


def _check_options(args) -> None:
    """Reject out-of-range numeric options and sizes before any work or write."""
    for name in _POSITIVE_OPTIONS:
        v = getattr(args, name, None)
        if v is not None and not 0 < v < math.inf:
            raise BadOption(f"--{name.replace('_', '-')} must be finite and positive, got {v}")
    sizes = [(f"--{n.replace('_', '-')}", getattr(args, n, 0)) for n in ("points", "cf_points")]
    if args.verb == "invert":
        sizes.append(("the t grid, 2 round((t_span + 1) / t_step) + 1,", _invert_points(args)))
    if args.verb == "simulate":
        sizes.append(("the path rows, paths x (steps + 1),", args.paths * (args.steps + 1)))
        if not math.isfinite(2.0 * args.cf_t_max):  # the span of the CF grid
            raise BadOption(f"--cf-t-max must be below half the largest float, got {args.cf_t_max}")
    for what, n in sizes:
        if n > MAX_SIZE:
            raise BadOption(f"{what} is {n}, above the limit {MAX_SIZE}")


def _parse_catalog(text: str) -> LevyKhintchinePair:
    """Resolve 'name' or 'name:p1,p2,...' against the law catalog."""
    name, _, tail = text.partition(":")
    params = [float(p) for p in tail.split(",")] if tail else []
    return catalog(name, *params)


def _load_law_file(path: str) -> LevyKhintchinePair:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = _json_object(json.load(fh), "a law file")
        except RecursionError:
            raise ValueError("a law file nests too deeply to parse") from None
    if "law" in d and "form" not in d:
        # a convert artifact; unwrap so outputs feed back in as inputs
        d = _json_object(d["law"], "law")
    if "compound_poisson" in d:
        cp = d["compound_poisson"]
        spec = CompoundPoissonSpec(
            rate=_json_number(cp["rate"], "rate"),
            jump=CanonicalMeasure.from_atoms(_json_atoms(cp["jumps"], "jumps")),
        )
        return catalog("compound_poisson", spec)
    return law_to_lk(law_from_json_dict(d))


def _resolve_law(args) -> LevyKhintchinePair:
    if args.catalog is not None:
        return _parse_catalog(args.catalog)
    return _load_law_file(args.law)


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


def _write_blocks(artifacts) -> None:
    """Write each (path, text blocks) of artifacts, as they come, to a temporary
    file beside its path; rename them into place once every one is complete,
    printing each path.

    The temporary files left on any failure are removed, so a failure before
    the renames writes no artifact.
    """
    temps = []
    try:
        for path, blocks in artifacts:
            head, tail = os.path.split(path)
            temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                temps.append((temp, path))
                fh.writelines(blocks)
        while temps:
            os.replace(*temps[0])
            print(temps.pop(0)[1])
    finally:
        for temp, _ in temps:
            os.remove(temp)


def _write_json(path: str, payload: dict, config: dict) -> None:
    doc = {"version": __version__, "config": config}
    doc.update(payload)
    _write_blocks([(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])])


def _law_config(args) -> dict:
    if args.catalog is not None:
        return {"catalog": args.catalog}
    return {"law_file": args.law}


# -- verbs -------------------------------------------------------------------------


def _run_eval(args) -> int:
    from .divisibility import build_log_cf_grid, grid_to_csv

    law = _resolve_law(args)
    cf = build_log_cf_grid(
        lambda t: log_cf_lk(law, t), t_max=args.t_max, points=args.points
    )
    _write_blocks([(_out_path(args, "eval.csv"), [grid_to_csv(cf)])])
    return 0


def _run_convert(args) -> int:
    law = _resolve_law(args)
    if args.to == "lk":
        converted = law
    elif args.to == "kolmogorov":
        converted = lk_to_kolmogorov(law)
    else:
        converted = lk_to_levy(law)
    config = {**_law_config(args), "to": args.to}
    _write_json(
        _out_path(args, "convert.json"), {"law": law_to_json_dict(converted)}, config
    )
    return 0


def _run_invert(args) -> int:
    from .divisibility import build_log_cf_grid
    from .khinchin import inversion_report, invert_cf

    law = _resolve_law(args)
    points = _invert_points(args)
    cf = build_log_cf_grid(lambda t: log_cf_lk(law, t), t_max=args.t_span + 1.0, points=points)
    inv = invert_cf(cf)
    config = {
        **_law_config(args),
        "t_span": args.t_span,
        "t_step": args.t_step,
        "grid_points": points,
    }
    _write_json(_out_path(args, "invert.json"), inversion_report(inv), config)
    return 0


def _run_verify_id(args) -> int:
    from .divisibility import build_log_cf_grid, verify_infinitely_divisible

    law = _resolve_law(args)
    roots = tuple(int(n) for n in args.roots.split(","))
    # sampled as a log CF: exp(log phi) underflows to 0 (a Gaussian beyond
    # |t| ~ 38), which an unwrapped CF grid would read as a zero
    cf = build_log_cf_grid(lambda t: log_cf_lk(law, t), t_max=args.t_max, points=args.points)
    report = verify_infinitely_divisible(cf, roots_to_check=roots)
    config = {
        **_law_config(args),
        "roots": list(roots),
        "t_max": args.t_max,
        "points": args.points,
    }
    payload = {
        "passed": report.passed,
        "reason": report.reason,
        "zero_location": report.zero_location,
        "roots_checked": list(report.roots_checked),
    }
    _write_json(_out_path(args, "verify.json"), payload, config)
    return 0


def _run_approx_cp(args) -> int:
    law = _resolve_law(args)
    epsilons = [float(e) for e in args.epsilons.split(",")]
    t_grid = symmetric_grid(args.t_max, args.points)
    entries = definetti_sequence(law, epsilons, t_grid=t_grid)
    config = {
        **_law_config(args),
        "epsilons": epsilons,
        "t_max": args.t_max,
        "points": args.points,
    }
    payload = {
        "entries": [
            {
                "epsilon": e.truncation.epsilon,
                "lambda": e.truncation.lambda_eps,
                "drift": e.truncation.drift,
                "gaussian_mass": e.truncation.gaussian_mass,
                "sup_error": e.sup_error,
            }
            for e in entries
        ]
    }
    _write_json(_out_path(args, "approx_cp.json"), payload, config)
    return 0


def _run_simulate(args) -> int:
    from .simulate import (
        ProcessSpec,
        _paths_csv_blocks,
        empirical_cf,
        empirical_cf_to_csv,
        sample_paths,
    )

    law = _resolve_law(args)
    spec = ProcessSpec(
        law=law, epsilon=args.epsilon, horizon=args.horizon, seed=args.seed
    )
    jumps = spec.decomposition.lambda_eps * args.horizon * args.paths
    if jumps > MAX_SIZE:
        raise BadOption(f"the expected jump count {jumps:.4g} is above the limit {MAX_SIZE}")
    times = np.linspace(0.0, args.horizon, args.steps + 1)
    values = sample_paths(spec, times, range(args.paths))

    def artifacts():  # the CF is made once the paths are written
        yield _out_path(args, "paths.csv"), _paths_csv_blocks(times, values)
        if args.cf_out:
            t_grid = symmetric_grid(args.cf_t_max, args.cf_points)
            yield args.cf_out, [empirical_cf_to_csv(empirical_cf(values[:, -1], t_grid))]

    _write_blocks(artifacts())
    return 0


# -- argument plumbing ---------------------------------------------------------------


def _add_law_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", help="catalog law, e.g. gaussian:0,1 or poisson:1,1")
    src.add_argument("--law", help="path to a law JSON file")
    p.add_argument("--out", help="output path (default: verb-named file in "
                   f"${OUTPUT_DIR_ENV} or the working directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idlaws",
        description="Evaluate, convert, invert, verify, approximate, and "
        "simulate infinitely divisible laws.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="tabulate the CF and its exponent as CSV")
    _add_law_options(p)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(run=_run_eval)

    p = sub.add_parser("convert", help="convert between canonical forms")
    _add_law_options(p)
    p.add_argument("--to", choices=["lk", "kolmogorov", "levy"], required=True)
    p.set_defaults(run=_run_convert)

    p = sub.add_parser("invert", help="recover the canonical measure from the CF")
    _add_law_options(p)
    p.add_argument("--t-span", type=float, default=80.0)
    p.add_argument("--t-step", type=float, default=0.005)
    p.set_defaults(run=_run_invert)

    p = sub.add_parser("verify-id", help="zero-freeness and root-PSD certificates")
    _add_law_options(p)
    p.add_argument("--roots", default="2,3,5")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=401)
    p.set_defaults(run=_run_verify_id)

    p = sub.add_parser("approx-cp", help="compound-Poisson approximants per epsilon")
    _add_law_options(p)
    p.add_argument("--epsilons", required=True, help="comma list, decreasing")
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(run=_run_approx_cp)

    p = sub.add_parser("simulate", help="sample paths to CSV")
    _add_law_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--cf-out", help="also write the empirical CF of the "
                   "horizon marginal to this CSV path")
    p.add_argument("--cf-t-max", type=float, default=5.0)
    p.add_argument("--cf-points", type=int, default=101)
    p.set_defaults(run=_run_simulate)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.run(args)
    except OSError as exc:
        print(
            json.dumps({"error": {"code": "IOError", "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        code = type(exc).__name__
        print(json.dumps({"error": {"code": code, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
