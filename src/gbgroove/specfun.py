"""Gamma and generalized hypergeometric series.

Everything here is plain float64 arithmetic with compensated (Neumaier)
summation.  One series engine, `hyp_series`, sums over an array of points
at once and reports per point how many digits were lost to cancellation,
so that downstream profile code can flag unreliable values instead of
returning garbage.  It also takes a sequence of parameter rows (a
sequence of powers, one parameter tuple per row), so every series of one
evaluation at the same points is summed in a single term loop with one
stopping rule (x = 0 stops after its first term), terminating series too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "GammaPoleError",
    "SeriesError",
    "SeriesResult",
    "TERM_BUDGET",
    "CANCELLATION_FLAG_DIGITS",
    "ln_gamma",
    "gamma",
    "reciprocal_gamma",
    "compensated_sum",
    "cancel_digits",
    "hyp_series",
]

# a series element is done after three consecutive terms below TOL * |sum|
TOL = 1e-12
TERM_BUDGET = 500
# results with more cancelled digits than this are flagged unreliable
CANCELLATION_FLAG_DIGITS = 12.0


class GammaPoleError(ValueError):
    """Gamma evaluated at zero or a negative integer."""


class SeriesError(RuntimeError):
    """Series term overflowed, or the series did not converge within the term budget."""

    def __init__(self, message, terms_used=0, partial_sum=float("nan")):
        super().__init__(message)
        self.terms_used = terms_used
        self.partial_sum = partial_sum


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a summed series plus convergence diagnostics.

    Floats for one point; arrays of the points' shape from an array call.
    """

    value: float
    terms_used: int
    max_term_magnitude: float

    @property
    def cancellation_digits(self) -> float:
        """Digits lost to cancellation, computed when read (`cancel_digits`)."""
        return cancel_digits(self.max_term_magnitude, self.value)

    @property
    def reliable(self) -> bool:
        return self.cancellation_digits <= CANCELLATION_FLAG_DIGITS


def ln_gamma(x: float) -> tuple[float, int]:
    """log|Gamma(x)| and the sign of Gamma(x).

    Raises GammaPoleError at 0, -1, -2, ...
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"ln_gamma needs a finite argument, got {x}")
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"Gamma pole at x = {x}")
    val = math.lgamma(x)
    if x > 0:
        sign = 1
    else:
        # Gamma alternates sign between consecutive negative-integer poles
        sign = 1 if math.floor(x) % 2 == 0 else -1
    return val, sign


def gamma(x: float) -> float:
    """Gamma(x) with sign, via the log-gamma channel."""
    val, sign = ln_gamma(x)
    return sign * math.exp(val)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); entire, returns 0.0 at the poles of Gamma."""
    x = float(x)
    if _is_nonpositive_integer(x):
        return 0.0
    val, sign = ln_gamma(x)
    return sign * math.exp(-val)


def _neumaier_add(s, c, x):
    """One compensated (Neumaier) step, elementwise: the new (sum, compensation).

    The compensation gains the exact rounding error of s + x, taken by
    TwoSum, which needs no branch on |s| >= |x|.  Over n steps the error is
    O(eps)|sum| + O(n eps^2) sum|terms|.
    """
    t = s + x
    bp = t - s
    return t, c + ((s - (t - bp)) + (x - bp))


def compensated_sum(pieces):
    """Neumaier sum of a sequence of equal-shape arrays, elementwise, from 0."""
    s = c = 0.0
    for x in pieces:
        s, c = _neumaier_add(s, c, x)
    return s + c


@np.errstate(divide="ignore", invalid="ignore")
def cancel_digits(max_piece, value):
    """Decimal digits lost to cancellation: log10(max_piece / |value|), at least 0.

    inf where the pieces cancelled to an exact zero, 0 where there was
    nothing to cancel.  Elementwise over arrays, with math.log10 per point
    (numpy's log10 may differ from it in the last bit); a float in gives a
    float back.
    """
    ratio = np.divide(max_piece, np.abs(value))
    digits = np.zeros(np.shape(ratio))
    lossy = ratio > 1.0
    digits[lossy] = [math.log10(r) for r in ratio[lossy].tolist()]
    return digits if digits.ndim else float(digits)


def libm_pow(x, e):
    """x ** e per element of a 1-d array x through libm, as float ** takes it
    (numpy's power may differ in the last bit); a float x gives a float."""
    if np.ndim(x) == 0:
        return math.pow(x, e)
    return np.fromiter(map(math.pow, x.tolist(), repeat(e)), float, len(x))


def _finite(what: str, values) -> tuple:
    """The values as finite floats, else a ValueError naming `what`."""
    try:
        floats = tuple(map(float, values))
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an int past the float range") from None
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{what} must be finite, got {floats}")
    return floats


def up_to(limit: float, x, fn):
    """fn(x) where x <= limit and 0 past it, where fn is never called.

    fn takes a 1-d array of points and returns an array of their shape, or
    one with a leading axis (one row per quantity).  A float x gives a
    float back, or a list of floats along the leading axis.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    inside = ~(flat > limit)
    part = np.asarray(fn(flat[inside]))
    lead = part.shape[:-1]
    out = np.zeros(lead + flat.shape)
    out[..., inside] = part
    return out.reshape(lead + x.shape) if x.ndim else out[..., 0].tolist()


def _series_result(shape, value, terms, max_term) -> SeriesResult:
    """SeriesResult from flat per-point arrays: floats for shape (), else arrays."""
    if not shape:
        value, terms, max_term = float(value[0]), int(terms[0]), float(max_term[0])
    else:
        value, terms, max_term = (v.reshape(shape) for v in (value, terms, max_term))
    return SeriesResult(value, terms, max_term)


def _by_element(per_row: list, row: np.ndarray):
    """Per-row floats spread over elements whose rows are `row`; one float
    where every row has the same nonzero value, which multiplies alike."""
    first = per_row[0]
    if first != 0.0 and all(v == first for v in per_row):
        return first
    return np.array(per_row)[row]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite term raises SeriesError below
def hyp_series(numerators, denominators, scale: float, power, step: int,
               x, order: int) -> SeriesResult:
    """d^order/dx^order of  x**power * pFq(a; b; scale * x**step), at every x.

    Term-differentiated power series: the building block for similarity
    profiles (step=4) and corner-layer solutions (step=6), where finite
    differences would compound cancellation.  A float x gives float fields
    back; an array gives arrays of its shape (per-point values, largest
    terms and term counts; the cancellation digits are computed from the
    first two when read).

    Parameter rows: when `power` is a sequence, with one entry per row,
    `numerators` and `denominators` hold one parameter tuple per row and
    every result field gains a leading row axis.  One term loop sums every
    (row, point) element, a one-row call included, and each element gets
    exactly the arithmetic of a one-row call.

    The term coefficients depend on the row and k alone, so each is formed
    once per (row, k) as a Python float and applied to every point of the
    row still summing.  Every element starts at the first term the
    derivative keeps and follows one stopping rule: it is done when its
    running term is exactly 0, which is then true of every later term (past
    the end of a negative-integer numerator, or on underflow), at x = 0
    after its first term, or after three consecutive terms below
    TOL * |partial sum|.  Rows with a negative-integer numerator are
    polynomials: the small-term count skips them, so they are summed to
    their end.  `terms_used` is the number of terms an element summed.  Any
    non-finite term or partial sum, a power of x that overflows, or any
    element still summing after TERM_BUDGET terms raises SeriesError.  A
    non-integer order or step, an order below 0 or a step below 1, a row
    with more numerators than denominators (not an entire series), a
    non-finite scale, parameter or power (an int past the float range
    included), a negative power (whose k = 0 term the derivative start
    would drop), a NaN x, or a negative x under a non-integer power (a
    complex value) raises ValueError.
    """
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    if not (isinstance(step, (int, np.integer)) and step >= 1):
        raise ValueError(f"step must be an integer >= 1, got {step!r}")
    one_row = np.ndim(power) == 0
    if one_row:
        numerators, denominators, power = (numerators,), (denominators,), (power,)
    if not len(numerators) == len(denominators) == len(power):
        raise ValueError("need one numerator and one denominator tuple per power")
    if not all(p >= 0 for p in _finite("power", power)):
        raise ValueError(f"power must be non-negative, got {list(power)}")
    (scale,) = _finite("scale", (scale,))
    numerators = [_finite("numerator parameters", nums) for nums in numerators]
    denominators = [_finite("denominator parameters", dens) for dens in denominators]
    for i, (nums, dens) in enumerate(zip(numerators, denominators)):
        if len(nums) > len(dens):
            raise ValueError(f"row {i} has {len(nums)} numerators and {len(dens)} "
                             "denominators; an entire series needs p <= q")
        for b in dens:
            if _is_nonpositive_integer(b):
                raise GammaPoleError(f"denominator parameter {b} is zero or a negative integer")
    rows = range(len(power))
    polynomial = [any(map(_is_nonpositive_integer, nums)) for nums in numerators]

    def ratio(i: int, k: int) -> float:
        """Ratio of row i's series coefficients k+1 and k."""
        r = scale / (k + 1.0)
        for a in numerators[i]:
            r *= a + k
        for b in denominators[i]:
            r /= b + k
        return r

    def coefficient(i: int, k: int) -> float:
        coeff = 1.0
        for q in range(k):
            coeff *= ratio(i, q)
        return coeff

    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if not (flat >= 0).all():       # a NaN or a negative x
        if np.isnan(flat).any():
            raise ValueError("x is NaN")
        if not all(float(p).is_integer() for p in power):
            raise ValueError("a non-integer power of a negative x is complex "
                             f"(x = {flat.min():.4g})")
    n = flat.size
    shape = xs.shape if one_row else (len(rows),) + xs.shape
    value, max_term = np.zeros(len(rows) * n), np.zeros(len(rows) * n)
    terms = np.zeros(len(rows) * n, dtype=np.int64)
    if not n:
        return _series_result(shape, value, terms, max_term)

    # first index whose monomial power reaches the derivative order, per row;
    # no monomial of a non-integer power vanishes, so those rows start at 0
    k0 = [max(0, (order - int(p) + step - 1) // step) if float(p).is_integer() else 0
          for p in power]
    # Carry coeff * x^(step k + power - order) as one quantity: the naked
    # power overflows long before the term itself does.  Powers are taken
    # per point through libm (`libm_pow`): numpy's power may not match.
    exponents = [step * k0[i] + power[i] - order for i in rows]
    try:
        powered = {e: libm_pow(flat, e) if e else np.ones(n) for e in set(exponents)}
        xstep = np.tile(libm_pow(flat, step), len(rows))
    except (OverflowError, ValueError):      # or a negative power of x = 0
        raise SeriesError(f"a power of x overflowed (largest |x| {np.abs(flat).max():.4g}); "
                          "the value is outside the representable range") from None
    base = np.concatenate([coefficient(i, k0[i]) * powered[exponents[i]] for i in rows])
    row = np.arange(len(rows)).repeat(n)
    at = np.arange(len(rows) * n)       # each element's index into the flat results
    s, c, mx = np.zeros((3, at.size))
    small = np.zeros(at.size, dtype=np.int8)    # at most 3 while summing; `summing` masks the rest
    # Elements are recorded on the term they finish and dropped in batches,
    # once a quarter have finished; until then `summing` masks them.
    summing, tiny, stop = np.ones((3, at.size), dtype=bool)
    t, bp, w, val, aterm, prod = np.empty((6, at.size))
    finished = 0
    j = 0       # terms summed so far: row i is at k = k0[i] + j
    while True:
        term = base
        if order:       # times the falling factorials p (p-1) ... (p-order+1)
            falls = [math.prod((step * (k0[i] + j) + power[i] - q for q in range(order)),
                               start=1.0) for i in rows]
            term = np.multiply(base, _by_element(falls, row), out=prod)
        np.abs(term, out=aterm)
        if not aterm.max() < math.inf and (hit := summing & ~(aterm < math.inf)).any():
            bad = int(np.argmax(hit))
            k = k0[row[bad]] + j
            raise SeriesError(
                f"series term overflowed at k={k} (x={flat[at[bad] % n]:.4g}); the "
                "value is outside the representable range", terms_used=k,
                partial_sum=float(s[bad] + c[bad]))
        # _neumaier_add in buffers: c += (s - (t - bp)) + (term - bp), then t is s
        np.subtract(np.add(s, term, out=t), s, out=bp)
        np.subtract(s, np.subtract(t, bp, out=w), out=w)
        c += np.add(w, np.subtract(term, bp, out=bp), out=bp)
        s, t = t, s
        np.maximum(mx, aterm, out=mx)
        np.abs(np.add(s, c, out=val), out=w)      # tiny: aterm <= TOL * max(|val|, 1e-300)
        np.less_equal(aterm, np.multiply(np.maximum(w, 1e-300, out=w), TOL, out=w), out=tiny)
        if any(polynomial):     # summed to their end
            tiny &= ~np.array(polynomial)[row]
        small += tiny
        small *= tiny
        base *= np.multiply(_by_element([ratio(i, k0[i] + j) for i in rows], row), xstep,
                            out=w)
        j += 1
        np.logical_or(np.equal(base, 0.0, out=stop), np.greater_equal(small, 3, out=tiny),
                      out=stop)
        if j == 1:      # x = 0 ends on its first term, before an overflowing ratio
            stop |= np.tile(flat == 0, len(rows))       # makes the next inf x 0 = NaN
        stop &= summing
        if np.count_nonzero(stop):
            done = np.flatnonzero(stop)
            idx = at[done]
            value[idx], max_term[idx], terms[idx] = val[done], mx[done], j
            summing ^= stop     # stop is within summing
            finished += done.size
            if finished == at.size:
                break
            if 4 * finished >= at.size:
                keep = np.flatnonzero(summing)
                at, row, base, xstep, s, c, mx, small = (
                    a[keep] for a in (at, row, base, xstep, s, c, mx, small))
                summing, tiny, stop = np.ones((3, at.size), dtype=bool)
                t, bp, w, val, aterm, prod = np.empty((6, at.size))
                finished = 0
        if max(k0) + j >= TERM_BUDGET:
            over = np.isin(row, [i for i in rows if k0[i] + j >= TERM_BUDGET]) & summing
            if over.any():
                first = int(np.argmax(over))
                raise SeriesError(
                    f"term-differentiated series did not converge within {TERM_BUDGET} terms",
                    terms_used=k0[row[first]] + j, partial_sum=float(s[first] + c[first]))
    if not np.isfinite(value).all():    # finite terms whose partial sum overflowed
        bad = int(np.argmin(np.isfinite(value)))
        raise SeriesError(f"the partial sum overflowed (x={flat[bad % n]:.4g})",
                          k0[bad // n] + int(terms[bad]), float(value[bad]))

    return _series_result(shape, value, terms, max_term)


# The one-point faces below are called by no package code: perfbench/spans.py
# looks each up by name, to wrap it.

def hyp_pFq(numerators, denominators, z: float) -> SeriesResult:
    """pFq(a; b; z): the series engine at x = 1 with scale z."""
    return hyp_series(numerators, denominators, z, 0, 1, 1.0, 0)


def hyp_pFq_derivative(numerators, denominators, z: float, order: int) -> SeriesResult:
    """d^order/dz^order pFq(a; b; z): the engine's term differentiation at x = z."""
    return hyp_series(numerators, denominators, 1.0, 0, 1, z, order)


def hyp_series_derivative(numerators, denominators, scale: float, power, step: int,
                          x: float, order: int) -> SeriesResult:
    """hyp_series at one float x."""
    return hyp_series(numerators, denominators, scale, power, step, float(x), order)
