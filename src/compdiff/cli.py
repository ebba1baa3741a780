"""Command-line entry point.

Subcommands: ``spectrum``, ``diff-spectrum``, ``lower-bound``, ``upper-bound``,
``hs-norm``, ``weighted``, ``bidisc``, ``experiment``, ``fit``.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  Outputs are
CSV/JSON files in the output directory (``--out`` or $COMPDIFF_OUTDIR, default
the working directory); a short human-readable summary goes to stdout.
Identical configurations produce byte-identical outputs for a fixed thread
count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

from .bounds import (_best_weighted_upper, hs_norm, lower_certificate,
                     optimize_upper, sequence_boundary_pinch, sequence_radial,
                     weighted_lower_certificate)
from .errors import CompdiffError, ParseError
from .experiments import (DEFAULT_R_GRID, fit_decay, run_bidisc,
                          run_corner_perturbation, run_smooth_perturbation,
                          run_weighted_power)
from .operators import (composition_matrix, convergence_horizon,
                        difference_matrix, spectrum_from_csv, spectrum_to_csv,
                        weighted_composition_matrix)
from .series import parse_symbol

_ENV_OUTDIR = "COMPDIFF_OUTDIR"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict:
    """Flat ``key = value`` text file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not key.isidentifier():
            raise ParseError(f"{path}:{lineno}: bad key {key!r}")
        values[key] = val.strip()
    return values


def _command_actions(parser: argparse.ArgumentParser, command: str):
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            sub = action.choices.get(command)
            if sub is not None:
                return sub._actions  # noqa: SLF001
    return []


def apply_config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """File values fill in options the command line left at their defaults."""
    if not getattr(args, "config", None):
        return
    file_values = read_config_file(args.config)
    for action in _command_actions(parser, args.command):
        key = action.dest
        if key not in file_values or not hasattr(args, key):
            continue
        if getattr(args, key) != action.default:
            continue  # the flag was given explicitly; flags win
        text = file_values[key]
        if isinstance(action.default, bool):
            setattr(args, key, text.lower() in ("1", "true", "yes", "on"))
        elif action.type is not None:
            setattr(args, key, action.type(text))
        else:
            setattr(args, key, text)


def parse_window(text: str) -> tuple:
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise ParseError(f"window must be lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"window bounds must be integers: {text!r}") from exc
    return lo, hi


def parse_r_grid(text: str):
    if text == "auto":
        return DEFAULT_R_GRID
    try:
        rs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"bad r grid {text!r}") from exc
    if not rs or not all(0 < r < 1 for r in rs):
        raise ParseError("r grid values must lie in (0, 1)")
    return rs


_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _set_blas_threads(count: int) -> None:
    """Set each loaded OpenBLAS's thread count through its run-time setter;
    numpy is loaded before any flag is read, so environment variables would
    come too late."""
    maps = Path("/proc/self/maps")
    paths = {line.split()[-1] for line in
             (maps.read_text().splitlines() if maps.exists() else [])
             if "openblas" in line.rsplit("/", 1)[-1]}
    setters = [getattr(lib, name) for lib in map(ctypes.CDLL, sorted(paths))
               for name in _BLAS_THREAD_SETTERS if hasattr(lib, name)]
    if not setters:
        raise ParseError(f"threads = {count}: no OpenBLAS thread setter found")
    for setter in setters:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(count)


def resolve_outdir(args) -> Path:
    out = args.out or os.environ.get(_ENV_OUTDIR) or "."
    return Path(out)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_spectrum_csv(args, spectrum) -> Path:
    out = resolve_outdir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / args.csv
    path.write_text(spectrum_to_csv(spectrum))
    return path


def _print_spectrum_head(spectrum, label: str) -> None:
    """sigma_n at n = 1, 2, 4, ..., 256; values past the horizon are marked."""
    print(f"{label}: N={spectrum.order} horizon={spectrum.horizon}")
    print("   n        sigma_n")
    shown = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    for n in shown:
        if n <= len(spectrum):
            mark = "  past horizon" if n > spectrum.horizon else ""
            print(f"{n:4d}  {spectrum.sigma(n):.10e}{mark}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    symbol = parse_symbol(args.symbol)
    weight = parse_symbol(args.weight) if args.weight else None
    if args.dry_run:
        print(f"dry-run: spectrum of {symbol.name}"
              + (f" weighted by {weight.name}" if weight else "")
              + f" at N={args.N}")
        return 0
    if weight is None:
        build = lambda m: composition_matrix(symbol, m)  # noqa: E731
    else:
        build = lambda m: weighted_composition_matrix(weight, symbol, m)  # noqa: E731
    spectrum = convergence_horizon(build, args.N)
    csv_path = _write_spectrum_csv(args, spectrum)
    _print_spectrum_head(spectrum, symbol.name)
    print(f"wrote {csv_path}")
    return 0


def cmd_diff_spectrum(args) -> int:
    phi = parse_symbol(args.phi)
    psi = parse_symbol(args.psi)
    if args.dry_run:
        print(f"dry-run: spectrum of C[{phi.name}] - C[{psi.name}] at N={args.N}")
        return 0
    spectrum = convergence_horizon(lambda m: difference_matrix(phi, psi, m),
                                   args.N)
    csv_path = _write_spectrum_csv(args, spectrum)
    _print_spectrum_head(spectrum, f"{phi.name} - {psi.name}")
    print(f"wrote {csv_path}")
    return 0


def _sequence(args, n: int):
    if args.sequence == "pinch":
        return sequence_boundary_pinch(2 * n)
    if args.sequence == "radial":
        return sequence_radial(n)
    raise ValueError(f"unknown sequence {args.sequence!r}")


def cmd_lower_bound(args) -> int:
    phi = parse_symbol(args.phi)
    psi = parse_symbol(args.psi)
    if args.dry_run:
        print(f"dry-run: lower bound for {phi.name} vs {psi.name}, "
              f"n={args.n}, sequence={args.sequence}")
        return 0
    cert = lower_certificate(phi, psi, _sequence(args, args.n))
    doc = cert.to_dict()
    out = resolve_outdir(args)
    _write_json(out / "lower_bound.json", doc)
    print(f"n={cert.n} delta_W={cert.fields['delta_W']:.6g} "
          f"inf_ratio={cert.fields['inf_ratio']:.6g}")
    print(f"value (with interpolation constants) = {cert.value_theorem:.6e}")
    print(f"value (constant-free)               = {cert.value:.6e}")
    print(f"wrote {out / 'lower_bound.json'}")
    return 0


def cmd_upper_bound(args) -> int:
    phi = parse_symbol(args.phi)
    psi = parse_symbol(args.psi)
    r_grid = parse_r_grid(args.r_grid)
    if args.dry_run:
        print(f"dry-run: upper bound for {phi.name} vs {psi.name}, n={args.n}, "
              f"{len(list(r_grid))} r values")
        return 0
    best = optimize_upper(phi, psi, args.n, r_grid)
    out = resolve_outdir(args)
    _write_json(out / "upper_bound.json", best.to_dict())
    sups = best.fields
    print(f"n={best.n} best r={best.r:.8g} value={best.value:.6e}")
    print(f"sups: B.phi={sups['sup_B_phi']:.3e} B.psi={sups['sup_B_psi']:.3e} "
          f"w.phi={sups['sup_w_phi']:.3e} w.psi={sups['sup_w_psi']:.3e}")
    print(f"wrote {out / 'upper_bound.json'}")
    return 0


def cmd_hs_norm(args) -> int:
    phi = parse_symbol(args.phi)
    psi = parse_symbol(args.psi)
    if args.dry_run:
        print(f"dry-run: HS integral for {phi.name} vs {psi.name}")
        return 0
    result = hs_norm(phi, psi)
    out = resolve_outdir(args)
    _write_json(out / "hs_norm.json", {
        "value": result.value, "diverged": result.diverged,
        "converged": result.converged, "rounds": result.rounds,
        "samples": result.samples,
    })
    state = "divergent" if result.diverged else (
        "converged" if result.converged else "not converged")
    print(f"squared HS norm = {result.value:.8e} ({state})")
    print(f"wrote {out / 'hs_norm.json'}")
    return 0


def cmd_weighted(args) -> int:
    omega = parse_symbol(args.omega)
    phi = parse_symbol(args.phi)
    if args.dry_run:
        print(f"dry-run: weighted operator {omega.name} * C[{phi.name}], "
              f"N={args.N}, n={args.n}")
        return 0
    spectrum = convergence_horizon(
        lambda m: weighted_composition_matrix(omega, phi, m), args.N)
    csv_path = _write_spectrum_csv(args, spectrum)
    out = resolve_outdir(args)

    lower = weighted_lower_certificate(omega, phi,
                                       sequence_boundary_pinch(2 * args.n))
    best = _best_weighted_upper(omega, phi, args.n, parse_r_grid(args.r_grid))
    _write_json(out / "certificates.json",
                {"lower": [lower.to_dict()], "upper": [best.to_dict()]})
    _print_spectrum_head(spectrum, f"{omega.name} * C[{phi.name}]")
    print(f"lower(n={args.n}) = {lower.value:.6e}   "
          f"upper(n={args.n}) = {best.value:.6e}")
    print(f"wrote {csv_path} and {out / 'certificates.json'}")
    return 0


def cmd_bidisc(args) -> int:
    if args.dry_run:
        print(f"dry-run: bidisc kind={args.kind} c={args.c} N={args.N}")
        return 0
    result = run_bidisc(args.kind, c=args.c, n_trunc=args.N)
    out = resolve_outdir(args)
    path = result.write(out)
    print(f"bidisc {args.kind}: verdicts {result.verdicts}")
    print(f"wrote {path}")
    return 0


def cmd_experiment(args) -> int:
    if args.dry_run:
        print(f"dry-run: experiment {args.which} alpha={args.alpha} "
              f"c={args.c} N={args.N}")
        return 0
    if args.which == "smooth":
        result = run_smooth_perturbation(args.alpha, args.c, args.N)
    elif args.which == "corner":
        result = run_corner_perturbation(args.c, args.N)
    elif args.which == "weighted":
        result = run_weighted_power(args.alpha, args.N)
    elif args.which == "bidisc":
        result = run_bidisc(args.kind, c=args.c, n_trunc=args.N)
    else:
        raise ValueError(f"unknown experiment {args.which!r}")
    out = resolve_outdir(args)
    path = result.write(out)
    for name, ok in sorted(result.verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"wrote {path}")
    return 0


def cmd_fit(args) -> int:
    window = parse_window(args.window)
    if args.dry_run:
        print(f"dry-run: fit {args.model} to {args.csv} on {window}")
        return 0
    spectrum = spectrum_from_csv(Path(args.csv).read_text())
    fit = fit_decay(spectrum, args.model, window, q=args.q)
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compdiff",
        description="Spectra and decay certificates for differences of "
                    "composition operators on the Hardy space.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help=f"output directory (default ${_ENV_OUTDIR} or .)")
    common.add_argument("--config", default=None,
                        help="flat key = value config file; flags win")
    common.add_argument("--threads", type=int, default=0,
                        help="OpenBLAS thread count (0 = leave alone)")
    common.add_argument("--dry-run", action="store_true", dest="dry_run",
                        help="validate configuration and exit")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="singular values of a (weighted) composition operator")
    p.add_argument("--symbol", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("diff-spectrum", parents=[common],
                       help="singular values of a difference of composition operators")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_diff_spectrum)

    p = sub.add_parser("lower-bound", parents=[common],
                       help="interpolation lower certificate")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--sequence", choices=("pinch", "radial"), default="pinch")
    p.set_defaults(handler=cmd_lower_bound)

    p = sub.add_parser("upper-bound", parents=[common],
                       help="Blaschke-damped upper certificate, optimised over r")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--r-grid", dest="r_grid", default="auto")
    p.set_defaults(handler=cmd_upper_bound)

    p = sub.add_parser("hs-norm", parents=[common],
                       help="squared Hilbert-Schmidt norm of the difference")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.set_defaults(handler=cmd_hs_norm)

    p = sub.add_parser("weighted", parents=[common],
                       help="weighted composition operator: spectrum and certificates")
    p.add_argument("--omega", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--r-grid", dest="r_grid", default="auto")
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_weighted)

    p = sub.add_parser("bidisc", parents=[common],
                       help="bidisc constructions: split / glued / triangular")
    p.add_argument("--kind", choices=("split", "glued", "triangular"),
                   required=True)
    p.add_argument("--c", type=float, default=0.01)
    p.add_argument("--N", type=int, default=512)
    p.set_defaults(handler=cmd_bidisc)

    p = sub.add_parser("experiment", parents=[common],
                       help="end-to-end experiment with verdicts")
    p.add_argument("which", choices=("smooth", "corner", "weighted", "bidisc"))
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--c", type=float, default=0.005)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--kind", choices=("split", "glued", "triangular"),
                   default="split")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a decay model to a spectrum CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--model", choices=("power", "power_log", "stretched",
                                       "root_exp"), required=True)
    p.add_argument("--window", default="8:64")
    p.add_argument("--q", type=float, default=0.0)
    p.set_defaults(handler=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        apply_config_defaults(args, parser)
        if args.threads > 0:
            _set_blas_threads(args.threads)
        return args.handler(args)
    except (ParseError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CompdiffError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
