"""Symbol catalogue, pointwise evaluation and truncated power-series arithmetic.

A :class:`Symbol` is an immutable expression tree over the variable ``z``
built from complex constants, sums, products, real powers of ``(1 - z)``,
exponentials and reciprocals.  Every catalogued map used elsewhere in the
package (half map, corner map and their perturbations, power weights, disc
automorphisms) is assembled from these nodes, so a single evaluator and a
single Taylor engine serve all of them.

Evaluation uses the principal branch for ``(1 - z)**beta``; since
``Re(1 - z) > 0`` on the open disc the branch cut is never crossed, and at
the branch point ``z = 1`` values are taken as radial limits.

Taylor coefficients are computed bottom-up by truncated series arithmetic
(Cauchy products, the binomial series, the ``E' = u'E`` recurrence for the
exponential and the standard division recurrence), never by contour
sampling, which would amplify errors by ``r**-j`` for maps whose image
touches the circle.  Contour extraction lives in the tests, as an oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DivisionByZeroConstantTerm,
    ExpOfSingularSeries,
    NonFinite,
    ParseError,
)

SELF_MAP_TOL = 1e-12
_SUP_OCTAVES = 128.0  # sup_grid depth: its smallest |t| is about pi * 2**-128
# sup_grid side of the self-map scan and of every sup-norm; the upper
# certificates refine it once, to twice the side
_SUP_SAMPLES = 1 << 13

Complex = Union[complex, float, int]


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    """The variable z."""


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple


@dataclass(frozen=True)
class OneMinusZPower(Expr):
    """(1 - z)**beta with the principal branch, beta real."""

    exponent: float


@dataclass(frozen=True)
class Exp(Expr):
    argument: Expr


@dataclass(frozen=True)
class Reciprocal(Expr):
    argument: Expr


@dataclass(frozen=True)
class Symbol:
    """A named analytic map of the disc (or a weight on it)."""

    name: str
    expr: Expr


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def _eval(expr: Expr, z: np.ndarray, exp=np.exp) -> np.ndarray:
    # one walk for complex128 arrays and for object arrays of mpmath numbers;
    # exp is the one operation numpy cannot hand on to the elements
    if isinstance(expr, Var):
        return z
    if isinstance(expr, Const):
        return np.full(z.shape, expr.value, dtype=complex)
    if isinstance(expr, Sum):
        out = _eval(expr.terms[0], z, exp)
        for t in expr.terms[1:]:
            out = out + _eval(t, z, exp)
        return out
    if isinstance(expr, Product):
        out = _eval(expr.factors[0], z, exp)
        for f in expr.factors[1:]:
            out = out * _eval(f, z, exp)
        return out
    if isinstance(expr, OneMinusZPower):
        beta = expr.exponent
        u = 1.0 - z
        out = np.empty_like(u)
        at_branch = u == 0
        regular = ~at_branch
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[regular] = u[regular] ** beta
        if np.any(at_branch):
            # radial limit at the branch point z = 1
            if beta > 0:
                out[at_branch] = 0.0
            elif beta == 0:
                out[at_branch] = 1.0
            else:
                out[at_branch] = complex(np.inf, 0.0)
        return out
    if isinstance(expr, Exp):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return exp(_eval(expr.argument, z, exp))
    if isinstance(expr, Reciprocal):
        inner = _eval(expr.argument, z, exp)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / inner
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def eval_array(symbol: Symbol, z: np.ndarray) -> np.ndarray:
    """Vectorised evaluation; non-finite entries are passed through unraised."""
    return _eval(symbol.expr, np.asarray(z, dtype=complex))


def evaluate(symbol: Symbol, z: Complex) -> complex:
    """Evaluate ``symbol`` at a single point of the closed disc.

    Raises :class:`NonFinite` if the expression blows up at ``z`` (e.g. a
    reciprocal pole or a negative power of ``1 - z`` on the boundary).
    """
    zc = complex(z)
    if abs(zc) > 1 + 1e-12:
        raise ValueError(f"|z| = {abs(zc)} lies outside the closed disc")
    value = _eval(symbol.expr, np.array([zc], dtype=complex))[0]
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFinite(f"{symbol.name} is not finite at z = {zc}")
    return complex(value)


def eval_boundary(symbol: Symbol, t: np.ndarray) -> np.ndarray:
    """Evaluate on the unit circle at angles ``t``."""
    return eval_array(symbol, np.exp(1j * np.asarray(t, dtype=float)))


def boundary_rho_mp(phi: Symbol, psi: Symbol, t: float, dps: int = 60) -> float:
    """Pseudohyperbolic distance of boundary values in extended precision.

    All arithmetic (including the cancellation-prone 1 - conj(phi) psi) runs
    inside the working-precision context; only the final quotient, which lies
    in [0, 1], is returned as a double.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = np.array([mpmath.exp(1j * mpmath.mpf(t))], dtype=object)
        exp = np.frompyfunc(mpmath.exp, 1, 1)
        pv = _eval(phi.expr, z, exp)[0]
        sv = _eval(psi.expr, z, exp)[0]
        num = abs(pv - sv)
        if num == 0:
            return 0.0
        den = abs(1 - mpmath.conj(pv) * sv)
        if den == 0:
            return 1.0
        return float(min(max(num / den, mpmath.mpf(0)), mpmath.mpf(1)))


# ---------------------------------------------------------------------------
# truncated series arithmetic
# ---------------------------------------------------------------------------

def _conv_trunc(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a, b)[:n]


def _series_binomial(beta: float, n: int) -> np.ndarray:
    # (1 - z)**beta = sum_k binom(beta, k) (-z)**k
    c = np.empty(n, dtype=complex)
    c[0] = 1.0
    if n > 1:
        k = np.arange(1, n, dtype=float)
        ratios = -(beta - k + 1.0) / k
        c[1:] = np.cumprod(ratios)
    return c


def _series_exp(u: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise ExpOfSingularSeries("exp of a series with non-finite coefficients")
    m = len(u)
    e = np.zeros(m, dtype=complex)
    e[0] = cmath.exp(complex(u[0]))
    ju = np.arange(1, m) * u[1:]
    for k in range(1, m):
        e[k] = np.dot(ju[:k], e[k - 1 :: -1]) / k
    return e


def _series_reciprocal(a: np.ndarray) -> np.ndarray:
    if a[0] == 0:
        raise DivisionByZeroConstantTerm("reciprocal of a series with c_0 = 0")
    m = len(a)
    r = np.zeros(m, dtype=complex)
    r[0] = 1.0 / a[0]
    for k in range(1, m):
        r[k] = -r[0] * np.dot(a[1 : k + 1], r[k - 1 :: -1])
    return r


def _taylor(expr: Expr, n: int) -> np.ndarray:
    if isinstance(expr, Var):
        c = np.zeros(n, dtype=complex)
        if n > 1:
            c[1] = 1.0
        return c
    if isinstance(expr, Const):
        c = np.zeros(n, dtype=complex)
        c[0] = expr.value
        return c
    if isinstance(expr, Sum):
        out = np.zeros(n, dtype=complex)
        for t in expr.terms:
            out += _taylor(t, n)
        return out
    if isinstance(expr, Product):
        out = _taylor(expr.factors[0], n)
        for f in expr.factors[1:]:
            out = _conv_trunc(out, _taylor(f, n), n)
        return out
    if isinstance(expr, OneMinusZPower):
        return _series_binomial(expr.exponent, n)
    # coefficient k of exp(u) and of 1/u reads only u_0..u_k, so the inner
    # series is needed to order n and no further
    if isinstance(expr, Exp):
        return _series_exp(_taylor(expr.argument, n))
    if isinstance(expr, Reciprocal):
        return _series_reciprocal(_taylor(expr.argument, n))
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def taylor_array(symbol: Symbol, n: int) -> np.ndarray:
    """First ``n`` Maclaurin coefficients of ``symbol`` as a plain array."""
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    return _taylor(symbol.expr, n)


# ---------------------------------------------------------------------------
# boundary sampling grid
# ---------------------------------------------------------------------------

def sup_grid(samples_per_side: int) -> np.ndarray:
    """Two-sided exponential angle grid t = +/- pi * 2**(-m / per_octave),
    128 octaves deep, with per_octave = samples_per_side / 128.

    Clusters at t = 0, the contact point z = 1 where all suprema of the
    catalogued maps concentrate; densifies as the sample count grows.
    Sorted ascending; includes +/- pi.
    """
    m = np.arange(samples_per_side, dtype=float)
    t = np.pi * 2.0 ** (-m / (samples_per_side / _SUP_OCTAVES))
    return np.concatenate([-t, t[::-1]])


@functools.lru_cache(maxsize=128)
def _sup_values(symbol: Symbol, side: int) -> np.ndarray:
    """Cached boundary values on ``sup_grid(side)``, read-only."""
    values = eval_boundary(symbol, sup_grid(side))
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# self-map validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    max_modulus: float
    passed: bool


def validate_self_map(symbol: Symbol) -> ValidationReport:
    """Check |symbol| <= 1 + tol on ``sup_grid(_SUP_SAMPLES)``.

    A non-finite sample reads as +inf, so ``max_modulus`` is the sampled
    sup-norm on the circle, or +inf.  Failures are reported, not raised.
    """
    moduli = np.abs(_sup_values(symbol, _SUP_SAMPLES))
    peak = float(np.where(np.isfinite(moduli), moduli, np.inf).max())
    return ValidationReport(max_modulus=peak, passed=peak <= 1 + SELF_MAP_TOL)


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

_ONE = Const(1.0)
_Z = Var()


def _fmt(value: Complex) -> str:
    c = complex(value)
    if c.imag == 0:
        return repr(c.real)
    return f"{c.real!r}{c.imag:+}i"


def identity() -> Symbol:
    """z itself."""
    return Symbol("identity", _Z)


def constant(c: Complex) -> Symbol:
    """The constant map z -> c."""
    c = complex(c)
    return Symbol(f"constant(c={_fmt(c)})", Const(c))


def dilation(a: Complex) -> Symbol:
    """z -> a*z; a self-map iff |a| <= 1."""
    a = complex(a)
    return Symbol(f"dilation(a={_fmt(a)})", Product((Const(a), _Z)))


def half_map() -> Symbol:
    """z -> (1 + z)/2, the basic boundary-contact self-map."""
    expr = Product((Const(0.5), Sum((_ONE, _Z))))
    return Symbol("half_map", expr)


def power_perturbation(alpha: float, c: float) -> Symbol:
    """(1 + z)/2 + c*(z - 1)**alpha for alpha > 2 and 0 < c < 1/128.

    The principal branch of (z - 1)**alpha is realised as
    exp(i*pi*alpha) * (1 - z)**alpha, which is analytic on the disc.
    """
    alpha = float(alpha)
    c = float(c)
    if not alpha > 2:
        raise ValueError("power_perturbation requires alpha > 2")
    if not 0 < c < 1 / 128:
        raise ValueError("power_perturbation requires c in (0, 1/128)")
    phase = cmath.exp(1j * math.pi * alpha)
    expr = Sum((
        Product((Const(0.5), Sum((_ONE, _Z)))),
        Product((Const(c * phase), OneMinusZPower(alpha))),
    ))
    return Symbol(f"power_perturbation(alpha={alpha!r}, c={c!r})", expr)


def corner_map() -> Symbol:
    """z -> 1/(1 + (1 - z)**(1/2)); the image touches the circle at 1 with a corner."""
    expr = Reciprocal(Sum((_ONE, OneMinusZPower(0.5))))
    return Symbol("corner_map", expr)


def corner_perturbation(c: float = 0.01) -> Symbol:
    """Corner map plus c*exp(-(1 - z)**(-1/2)), a flat perturbation at z = 1."""
    c = float(c)
    if not 0 < c < 0.1:
        raise ValueError("corner_perturbation requires small c in (0, 0.1)")
    chi = Exp(Product((Const(-1.0), OneMinusZPower(-0.5))))
    expr = Sum((
        Reciprocal(Sum((_ONE, OneMinusZPower(0.5)))),
        Product((Const(c), chi)),
    ))
    return Symbol(f"corner_perturbation(c={c!r})", expr)


def weight_power(alpha: float) -> Symbol:
    """The weight (1 - z)**alpha (bounded on the disc for alpha >= 0)."""
    alpha = float(alpha)
    if alpha == 0:
        return Symbol("weight_power(alpha=0.0)", _ONE)
    return Symbol(f"weight_power(alpha={alpha!r})", OneMinusZPower(alpha))


def mobius(a: Complex) -> Symbol:
    """The disc involution z -> (a - z)/(1 - conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError("mobius requires |a| < 1")
    num = Sum((Const(a), Product((Const(-1.0), _Z))))
    den = Sum((_ONE, Product((Const(-a.conjugate()), _Z))))
    return Symbol(f"mobius(a={_fmt(a)})", Product((num, Reciprocal(den))))


CATALOGUE = {
    "identity": identity,
    "constant": constant,
    "dilation": dilation,
    "half_map": half_map,
    "power_perturbation": power_perturbation,
    "corner_map": corner_map,
    "corner_perturbation": corner_perturbation,
    "weight_power": weight_power,
    "mobius": mobius,
}


# ---------------------------------------------------------------------------
# textual form: name(key=value, ...)
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.S)
_COMPLEX_CHARS = frozenset("0123456789.eE+-")
# a sign after a digit or a point can only join the real and imaginary parts
# (an exponent's sign follows an 'e'); spaces may surround that sign alone
_JOINING_SIGN_RE = re.compile(r"(?<=[0-9.]) *([+-]) *")


def _parse_value(text: str) -> complex:
    token = _JOINING_SIGN_RE.sub(r"\1", text.strip())
    if not token:
        raise ParseError("empty parameter value")
    try:
        return complex(float(token))
    except ValueError:
        pass
    # a+bi or bi: Python's complex() grammar, once the characters are
    # restricted so that 'j', parentheses, 'inf' and '_' stay rejected
    if token.endswith("i") and set(token[:-1]) <= _COMPLEX_CHARS:
        try:
            return complex(token[:-1] + "j")
        except ValueError:
            pass
    raise ParseError(
        f"cannot parse value {text.strip()!r} (expected a real or a+bi)")


def parse_symbol(text: str) -> Symbol:
    """Build a catalogued symbol from ``name(key=value, ...)``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ParseError(f"malformed symbol spec {text!r}")
    name, arglist = m.group(1), m.group(2)
    builder = CATALOGUE.get(name)
    if builder is None:
        raise ParseError(
            f"unknown symbol {name!r}; known: {', '.join(sorted(CATALOGUE))}")
    kwargs = {}
    if arglist and arglist.strip():
        for item in arglist.split(","):
            if "=" not in item:
                raise ParseError(f"expected key=value, got {item.strip()!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if not key.isidentifier():
                raise ParseError(f"bad parameter name {key!r}")
            value = _parse_value(val)
            # real-typed builders take floats
            kwargs[key] = value.real if value.imag == 0 else value
    try:
        return builder(**kwargs)
    except TypeError as exc:
        raise ParseError(f"{name}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc
