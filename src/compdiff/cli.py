"""Command-line entry point.

Subcommands: ``spectrum``, ``diff-spectrum``, ``lower-bound``, ``upper-bound``,
``hs-norm``, ``weighted``, ``bidisc``, ``experiment``, ``fit``.

Every argument takes one path.  argparse converts and checks each option
(symbols, r grids, test sequences and fit windows through their ``type=``
parsers); a ``--config`` file becomes defaults of the chosen subcommand
before a second parse, so file values pass the same converters and explicit
flags always win; ``--dry-run`` stops after parsing, the config file and
``--threads``.  The handlers receive converted values, compute, and hand
every file, serialised, to one writer, so a failed command writes nothing.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  Outputs are
CSV/JSON files in the output directory (``--out`` or $COMPDIFF_OUTDIR, default
the working directory); a short human-readable summary goes to stdout.
Identical configurations produce byte-identical outputs for a fixed thread
count.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import os
import sys
from pathlib import Path

from .bounds import (hs_norm, lower_certificate, optimize_upper,
                     optimize_weighted_upper, sequence_boundary_pinch,
                     sequence_radial, weighted_lower_certificate)
from .errors import CompdiffError, ParseError
from .experiments import (DEFAULT_R_GRID, _json_text, _write_outputs,
                          bidisc_driver, fit_decay, run_corner_perturbation,
                          run_smooth_perturbation, run_weighted_power)
from .operators import (composition_matrix, convergence_horizon,
                        difference_matrix, spectrum_from_csv, spectrum_to_csv,
                        weighted_composition_matrix)
from .series import parse_symbol

_ENV_OUTDIR = "COMPDIFF_OUTDIR"
_TRUTHY = ("1", "true", "yes", "on")
# namespace entries that are not options: the subcommand's name and its handler
_NOT_OPTIONS = ("command", "handler")


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


def parse_threads(text: str) -> int:
    """OpenBLAS thread count; 0 leaves the library alone."""
    if not text.strip().isdecimal():
        raise ParseError(f"thread count must be an integer >= 0, got {text!r}")
    return int(text)


def parse_sequence(text: str):
    """Test sequence builder taking n: 2n pinch points, or n radial ones."""
    if text == "pinch":
        return lambda n: sequence_boundary_pinch(2 * n)
    if text == "radial":
        return sequence_radial
    raise ParseError(f"unknown sequence {text!r}")


def _parse_args(parser: argparse.ArgumentParser, commands: dict, argv):
    """Parse ``argv``; with ``--config``, the file's values become defaults of
    the chosen subcommand and ``argv`` is parsed again.

    argparse converts string defaults with the option's ``type=``, so a file
    value passes the same converter as the flag, and a flag given on the
    command line wins even when it equals the default.  Keys that are not
    options of the subcommand are ignored.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    defaults = {}
    for key, text in read_config_file(args.config).items():
        if key in _NOT_OPTIONS or not hasattr(args, key):
            continue
        if isinstance(getattr(args, key), bool):  # store_true flags take no type=
            defaults[key] = text.lower() in _TRUTHY
        else:
            defaults[key] = text
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _driver_run(args):
    """The driver call of an ``experiment`` or ``bidisc`` run, with the options given."""
    run = args.kind if args.command == "bidisc" else args.which
    driver = bidisc_driver(run) if args.command == "bidisc" else {
        "smooth": run_smooth_perturbation, "corner": run_corner_perturbation,
        "weighted": run_weighted_power}[run]
    keywords = {}
    for option, key in (("alpha", "alpha"), ("c", "c"), ("N", "n_trunc")):
        if getattr(args, option, None) is not None:
            keywords[key] = getattr(args, option)
            try:
                inspect.signature(driver).bind_partial(**keywords)
            except TypeError:
                raise ParseError(f"{args.command} {run} takes no --{option}") from None
    return lambda: driver(**keywords)


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


def _spectrum_run(args, build, label: str) -> dict:
    """Doubling spectrum of ``build`` at ``args.N``: print sigma_n at n = 1, 2,
    4, ..., 256 up to ``len(spectrum)`` (128 values when the sketches decide;
    values past the horizon are marked) and return ``{args.csv: CSV text}``
    for the caller to write."""
    spectrum = convergence_horizon(build, args.N)
    print(f"{label}: N={spectrum.order} horizon={spectrum.horizon}")
    print("   n        sigma_n")
    shown = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    for n in shown:
        if n <= len(spectrum):
            mark = "  past horizon" if n > spectrum.horizon else ""
            print(f"{n:4d}  {spectrum.sigma(n):.10e}{mark}")
    return {args.csv: spectrum_to_csv(spectrum)}


# ---------------------------------------------------------------------------
# subcommand handlers: arguments arrive converted and checked
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    symbol, weight = args.symbol, args.weight
    if weight is None:
        build = lambda m: composition_matrix(symbol, m)  # noqa: E731
    else:
        build = lambda m: weighted_composition_matrix(weight, symbol, m)  # noqa: E731
    files = _spectrum_run(args, build, symbol.name)
    print(f"wrote {_write_outputs(resolve_outdir(args), files) / args.csv}")
    return 0


def cmd_diff_spectrum(args) -> int:
    phi, psi = args.phi, args.psi
    files = _spectrum_run(args, lambda m: difference_matrix(phi, psi, m),
                          f"{phi.name} - {psi.name}")
    print(f"wrote {_write_outputs(resolve_outdir(args), files) / args.csv}")
    return 0


def cmd_lower_bound(args) -> int:
    cert = lower_certificate(args.phi, args.psi, args.sequence(args.n))
    out = _write_outputs(resolve_outdir(args),
                         {"lower_bound.json": _json_text(cert.to_dict())})
    print(f"n={cert.n} delta_W={cert.fields['delta_W']:.6g} "
          f"inf_ratio={cert.fields['inf_ratio']:.6g}")
    print(f"value (with interpolation constants) = {cert.value_theorem:.6e}")
    print(f"value (constant-free)               = {cert.value:.6e}")
    print(f"wrote {out / 'lower_bound.json'}")
    return 0


def cmd_upper_bound(args) -> int:
    best = optimize_upper(args.phi, args.psi, args.n, args.r_grid)
    out = _write_outputs(resolve_outdir(args),
                         {"upper_bound.json": _json_text(best.to_dict())})
    sups = best.fields
    print(f"n={best.n} best r={best.r:.8g} value={best.value:.6e}")
    print(f"sups: B.phi={sups['sup_B_phi']:.3e} B.psi={sups['sup_B_psi']:.3e} "
          f"w.phi={sups['sup_w_phi']:.3e} w.psi={sups['sup_w_psi']:.3e}")
    print(f"wrote {out / 'upper_bound.json'}")
    return 0


def cmd_hs_norm(args) -> int:
    result = hs_norm(args.phi, args.psi)
    # a divergent integral has no value; "diverged" says why
    out = _write_outputs(resolve_outdir(args), {"hs_norm.json": _json_text({
        "value": None if result.diverged else result.value,
        "diverged": result.diverged,
        "converged": result.converged, "rounds": result.rounds,
        "samples": result.samples,
    })})
    state = "divergent" if result.diverged else (
        "converged" if result.converged else "not converged")
    print(f"squared HS norm = {result.value:.8e} ({state})")
    print(f"wrote {out / 'hs_norm.json'}")
    return 0


def cmd_weighted(args) -> int:
    omega, phi = args.omega, args.phi
    out = resolve_outdir(args)
    if (os.path.abspath(out / args.csv)
            == os.path.abspath(out / "certificates.json")):
        raise ParseError(f"--csv {args.csv} would overwrite certificates.json")
    points = sequence_boundary_pinch(2 * args.n)  # checks --n before any numerics
    files = _spectrum_run(
        args, lambda m: weighted_composition_matrix(omega, phi, m),
        f"{omega.name} * C[{phi.name}]")
    lower = weighted_lower_certificate(omega, phi, points)
    best = optimize_weighted_upper(omega, phi, args.n, args.r_grid)
    files["certificates.json"] = _json_text(
        {"lower": [lower.to_dict()], "upper": [best.to_dict()]})
    _write_outputs(out, files)
    print(f"lower(n={args.n}) = {lower.value:.6e}   "
          f"upper(n={args.n}) = {best.value:.6e}")
    print(f"wrote {out / args.csv} and {out / 'certificates.json'}")
    return 0


def cmd_bidisc(args) -> int:
    result = args.run()
    path = result.write(resolve_outdir(args))
    for label, spectrum in result.spectra.items():
        print(f"{label}: N={spectrum.order} horizon={spectrum.horizon}")
    print(f"bidisc {args.kind}: verdicts {result.verdicts}")
    print(f"wrote {path}")
    return 0


def cmd_experiment(args) -> int:
    result = args.run()
    path = result.write(resolve_outdir(args))
    for name, ok in sorted(result.verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"wrote {path}")
    return 0


def cmd_fit(args) -> int:
    spectrum = spectrum_from_csv(Path(args.csv).read_text())
    fit = fit_decay(spectrum, args.model, args.window, q=args.q)
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the parser of each subcommand, by name."""
    parser = argparse.ArgumentParser(
        prog="compdiff",
        description="Spectra and decay certificates for differences of "
                    "composition operators on the Hardy space.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help=f"output directory (default ${_ENV_OUTDIR} or .)")
    common.add_argument("--config", default=None,
                        help="flat key = value config file; flags win")
    common.add_argument("--threads", type=parse_threads, default=0,
                        help="OpenBLAS thread count (0 = leave alone)")
    common.add_argument("--dry-run", action="store_true", dest="dry_run",
                        help="parse every option and config value, then exit")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="singular values of a (weighted) composition operator")
    p.add_argument("--symbol", type=parse_symbol, required=True)
    p.add_argument("--weight", type=parse_symbol, default=None)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("diff-spectrum", parents=[common],
                       help="singular values of a difference of composition operators")
    p.add_argument("--phi", type=parse_symbol, required=True)
    p.add_argument("--psi", type=parse_symbol, required=True)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_diff_spectrum)

    p = sub.add_parser("lower-bound", parents=[common],
                       help="interpolation lower certificate")
    p.add_argument("--phi", type=parse_symbol, required=True)
    p.add_argument("--psi", type=parse_symbol, required=True)
    p.add_argument("--n", type=int, default=16,
                   help="pinch: the n points of the 2n-point sequence; "
                        "radial: the last index, and the start trim drops "
                        "the first points (--n 40 certifies n = 28)")
    p.add_argument("--sequence", type=parse_sequence, default="pinch",
                   metavar="{pinch,radial}")
    p.set_defaults(handler=cmd_lower_bound)

    p = sub.add_parser("upper-bound", parents=[common],
                       help="Blaschke-damped upper certificate, optimised over r")
    p.add_argument("--phi", type=parse_symbol, required=True)
    p.add_argument("--psi", type=parse_symbol, required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--r-grid", dest="r_grid", type=parse_r_grid, default="auto")
    p.set_defaults(handler=cmd_upper_bound)

    p = sub.add_parser("hs-norm", parents=[common],
                       help="squared Hilbert-Schmidt norm of the difference")
    p.add_argument("--phi", type=parse_symbol, required=True)
    p.add_argument("--psi", type=parse_symbol, required=True)
    p.set_defaults(handler=cmd_hs_norm)

    p = sub.add_parser("weighted", parents=[common],
                       help="weighted composition operator: spectrum and certificates")
    p.add_argument("--omega", type=parse_symbol, required=True)
    p.add_argument("--phi", type=parse_symbol, required=True)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--r-grid", dest="r_grid", type=parse_r_grid, default="auto")
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(handler=cmd_weighted)

    p = sub.add_parser("bidisc", parents=[common],
                       help="bidisc constructions: split / glued / triangular")
    p.add_argument("--kind", choices=("split", "glued", "triangular"),
                   required=True)
    # None: the driver's default (see the README)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(handler=cmd_bidisc)

    p = sub.add_parser("experiment", parents=[common],
                       help="end-to-end experiment with verdicts")
    p.add_argument("which", choices=("smooth", "corner", "weighted"))
    # None: the driver's default (see the README)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a decay model to a spectrum CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--model", choices=("power", "power_log", "stretched",
                                       "root_exp"), required=True)
    p.add_argument("--window", type=parse_window, default="8:64")
    p.add_argument("--q", type=float, default=0.0)
    p.set_defaults(handler=cmd_fit)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        # a ParseError raised by a type= converter passes through argparse
        args = _parse_args(parser, commands, argv)
        if args.command in ("experiment", "bidisc"):  # rejects flags before --dry-run
            args.run = _driver_run(args)
        if args.threads > 0:
            _set_blas_threads(args.threads)
        if args.dry_run:
            print(f"dry-run: {args.command}")
            return 0
        return args.handler(args)
    # OSError: a config file, input CSV or output directory that cannot be used
    except (ParseError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CompdiffError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
