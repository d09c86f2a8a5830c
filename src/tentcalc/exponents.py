"""Exact extended-rational exponent calculus.

Everything here is computed in exact arithmetic: values are nonnegative
rationals extended with +inf (``ExtReal``), intervals are open intervals of
such values (``ExponentRange``).  No floating point enters this module.

The central quantities are the critical indices of a weight,

    r_w = inf{p : w is in A_p},     s_w = inf{q : w is in RH_{q'}},

which for the power weight |x|^alpha on an n-dimensional domain have the
closed forms

    r = max{1, 1 + alpha/n},        s = max{1, (1 + alpha/n)^{-1}},

and the derived scale of Sobolev-type exponents

    q^{K,*} = [ (1/q - K/(n r_w))^+ ]^{-1}

(equal to q*n*r_w / (n*r_w - K*q) when K*q < n*r_w, and +inf otherwise).
Admissible ranges combine these as the open interval (p0*r_w, q0/s_w).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .mesh import number

__all__ = [
    "ExtReal",
    "INF",
    "INF_SPELLINGS",
    "ZERO",
    "ONE",
    "ext",
    "conjugate",
    "CriticalPair",
    "ExponentRange",
    "power_weight_criticals",
    "power_weight_in_ap",
    "power_weight_in_rh",
    "power_weight_class_interval",
    "sobolev_exponent",
    "poisson_upper",
    "surrogate_p_bounds",
    "range_W",
    "corollary_ranges",
    "ext_to_json",
]

ExtLike = Union["ExtReal", Fraction, int, str]

# the strings ExtReal reads as +inf, after stripping and lower-casing
INF_SPELLINGS = ("inf", "+inf", "infinity", "oo")


@total_ordering
class ExtReal:
    """A nonnegative rational number or +inf, with total order (the other
    comparisons derived from == and <).  It reads ints, Fractions, and
    strings: a rational "num/den" or an infinity in INF_SPELLINGS.

    Its arithmetic is * and /, with the conventions a/inf = 0 and
    inf*a = inf for a > 0.  Division by zero of a positive value gives
    +inf (the reciprocal-form convention used by the Sobolev exponents);
    the genuinely indeterminate combinations inf*0, inf/inf and 0/0 raise.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: ExtLike = 0):
        if isinstance(value, ExtReal):
            self._frac = value._frac
            return
        if isinstance(value, str):
            if value.strip().lower() in INF_SPELLINGS:
                self._frac = None
                return
            value = Fraction(value)
        if isinstance(value, float):
            raise TypeError("ExtReal does not accept floats; pass Fraction, int or str")
        frac = Fraction(value)
        if frac < 0:
            raise ValueError(f"ExtReal must be nonnegative, got {frac}")
        self._frac = frac

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    @property
    def frac(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinite ExtReal has no finite value")
        return self._frac

    # -- total order -------------------------------------------------------

    def _cmp_key(self):
        return (1,) if self._frac is None else (0, self._frac)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtReal, Fraction, int, str)):
            return NotImplemented
        return self._cmp_key() == ExtReal(other)._cmp_key()

    def __hash__(self):
        return hash(self._cmp_key())

    def __lt__(self, other: ExtLike) -> bool:
        return self._cmp_key() < ExtReal(other)._cmp_key()

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: ExtLike) -> "ExtReal":
        other = ExtReal(other)
        if self.is_inf or other.is_inf:
            if self == 0 or other == 0:
                raise ValueError("inf * 0 is indeterminate")
            return INF
        return ExtReal(self._frac * other._frac)

    __rmul__ = __mul__

    def __truediv__(self, other: ExtLike) -> "ExtReal":
        other = ExtReal(other)
        if self.is_inf and other.is_inf:
            raise ValueError("inf / inf is indeterminate")
        if other.is_inf:
            return ZERO
        if other == 0:
            if self == 0:
                raise ValueError("0 / 0 is indeterminate")
            return INF
        if self.is_inf:
            return INF
        return ExtReal(self._frac / other._frac)

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"


INF = ExtReal("inf")
ZERO = ExtReal(0)
ONE = ExtReal(1)


def ext(value: ExtLike) -> ExtReal:
    """Coerce ints, Fractions and "num/den"/"inf" strings to ExtReal."""
    return ExtReal(value)


def conjugate(p: ExtLike) -> ExtReal:
    """Holder conjugate p' = p/(p-1), with 1' = inf and inf' = 1."""
    p = ExtReal(p)
    if p < 1:
        raise ValueError(f"conjugate requires p >= 1, got {p}")
    if p.is_inf:
        return ONE
    if p == 1:
        return INF
    return ExtReal(p.frac / (p.frac - 1))


def ext_to_json(x: ExtLike):
    """Serialize as {"num": ..., "den": ...} or the string "inf"."""
    x = ExtReal(x)
    if x.is_inf:
        return "inf"
    return {"num": x.frac.numerator, "den": x.frac.denominator}


@dataclass(frozen=True)
class CriticalPair:
    """The pair (r_w, s_w) of critical indices of a weight."""

    r_w: ExtReal
    s_w: ExtReal

    def __post_init__(self):
        object.__setattr__(self, "r_w", ExtReal(self.r_w))
        object.__setattr__(self, "s_w", ExtReal(self.s_w))
        if self.r_w < 1 or self.s_w < 1:
            raise ValueError("critical indices must be >= 1")


@dataclass(frozen=True)
class ExponentRange:
    """The open interval (lower, upper); flagged empty when lower >= upper."""

    lower: ExtReal
    upper: ExtReal

    def __post_init__(self):
        object.__setattr__(self, "lower", ExtReal(self.lower))
        object.__setattr__(self, "upper", ExtReal(self.upper))

    @property
    def empty(self) -> bool:
        return self.lower >= self.upper

    def contains(self, p: ExtLike) -> bool:
        p = ExtReal(p)
        return (not self.empty) and self.lower < p < self.upper

    def __str__(self) -> str:
        if self.empty:
            return "(empty)"
        return f"({self.lower}, {self.upper})"


# ---------------------------------------------------------------------------
# power weights
# ---------------------------------------------------------------------------


def _dimension(n, lo: int = 1) -> int:
    """The dimension n as an int: an integer of at least `lo`, not a bool,
    else a ValueError that names n."""
    return int(number("n", n, lo, integer=True))


def _check_alpha(alpha: Fraction, n: int) -> Fraction:
    alpha = Fraction(alpha)
    if not (-n < alpha < n):
        raise ValueError(f"alpha outside (-n, n): alpha={alpha}, n={n}")
    return alpha


def power_weight_criticals(alpha, n: int) -> CriticalPair:
    """Critical indices of |x|^alpha in dimension n.

    r = max{1, 1 + alpha/n} and s = max{1, (1 + alpha/n)^{-1}}, exact.
    Requires -n < alpha < n (local integrability of both the weight and,
    on this toolkit's grids, its relevant powers).
    """
    n = _dimension(n)
    alpha = _check_alpha(alpha, n)
    base = 1 + alpha / n
    r = max(Fraction(1), base)
    s = max(Fraction(1), 1 / base)
    return CriticalPair(ExtReal(r), ExtReal(s))


def power_weight_in_ap(alpha, n: int, p: ExtLike) -> bool:
    """Exact membership |x|^alpha in A_p: -n < alpha < n(p-1), with the
    A_1 class given by -n < alpha <= 0.

    Defined for every real alpha (alpha <= -n is simply not a weight, hence
    never a member), so divergence sweeps can probe out-of-class values."""
    n = _dimension(n)
    alpha = Fraction(alpha)
    p = ExtReal(p)
    if p < 1:
        raise ValueError(f"A_p requires p >= 1, got {p}")
    if alpha <= -n:
        return False
    if p.is_inf:
        return True  # A_inf = union of all A_p; any locally integrable power qualifies
    if p == 1:
        return alpha <= 0
    return alpha < n * (p.frac - 1)


def power_weight_in_rh(alpha, n: int, s: ExtLike) -> bool:
    """Exact membership |x|^alpha in RH_s: alpha > -n/s, with RH_inf given
    by alpha >= 0.  Values alpha <= -n are not weights and never members."""
    n = _dimension(n)
    alpha = Fraction(alpha)
    s = ExtReal(s)
    if s <= 1:
        raise ValueError(f"RH_s requires s > 1, got {s}")
    if alpha <= -n:
        return False
    if s.is_inf:
        return alpha >= 0
    return alpha > Fraction(-n) / s.frac


def power_weight_class_interval(alpha, n: int, kind: str) -> ExponentRange:
    """The set of indices for which |x|^alpha belongs to the class, as an
    interval: kind="ap" gives {p : w in A_p} = (r_w, inf) plus the closed
    endpoint iff w in A_{r_w}; kind="rh" gives the analogous RH_s picture.
    Returned as the open interval; endpoint membership is available through
    the predicates."""
    crit = power_weight_criticals(alpha, n)
    if kind == "ap":
        return ExponentRange(crit.r_w, INF)
    if kind == "rh":
        # w_alpha in RH_q iff q < n/(-alpha) for alpha < 0; all q for alpha >= 0
        alpha = Fraction(alpha)
        upper = INF if alpha >= 0 else ExtReal(Fraction(n) / -alpha)
        return ExponentRange(ONE, upper)
    raise ValueError(f"unknown class kind {kind!r}")


# ---------------------------------------------------------------------------
# Sobolev-type exponents
# ---------------------------------------------------------------------------


def sobolev_exponent(q: ExtLike, K: int, r_w: ExtLike, n: int) -> ExtReal:
    """q^{K,*} = [(1/q - K/(n r_w))^+]^{-1}.

    Finite branch q*n*r_w/(n*r_w - K*q) when K*q < n*r_w, else +inf.
    The special cases 2* (K=1) and 2** (K=2) are this with q=2.
    """
    K = int(number("K", K, 1, integer=True))
    n = _dimension(n)
    q = ExtReal(q)
    r_w = ExtReal(r_w)
    if q < 1:
        raise ValueError(f"sobolev_exponent requires q >= 1, got {q}")
    inv_q = ONE / q
    penalty = ExtReal(K) / (ExtReal(n) * r_w)
    if inv_q <= penalty:
        return INF
    return ONE / ExtReal(inv_q.frac - penalty.frac)


def poisson_upper(p_plus: ExtLike, K: int, r_w: ExtLike, n: int) -> ExtReal:
    """(p_+)^{K,*} = p_+*n*r_w/(n*r_w - (2K+1)p_+) when (2K+1)p_+ < n*r_w,
    +inf otherwise (boundary equality included in the infinite branch).
    Equals the (2K+1)-fold Sobolev exponent of p_+."""
    K = int(number("K", K, 0, integer=True))
    p_plus = ExtReal(p_plus)
    if p_plus <= 1:
        raise ValueError(f"poisson_upper requires p_plus > 1, got {p_plus}")
    return sobolev_exponent(p_plus, 2 * K + 1, r_w, n)


def surrogate_p_bounds(crit: CriticalPair, n: int) -> tuple[ExtReal, ExtReal]:
    """The conservative surrogate (p_-, p_+) = ((2*)', 2*) for a weight with
    the given criticals.  Every range computed from it is a subset of the
    range for the true operator bounds."""
    two_star = sobolev_exponent(2, 1, crit.r_w, n)
    return conjugate(two_star), two_star


def range_W(p0: ExtLike, q0: ExtLike, crit: CriticalPair) -> ExponentRange:
    """The admissible interval (p0*r_w, q0/s_w); (0, inf) maps to (0, inf).

    The same formula serves the weighted variant with the weighted critical
    pair substituted for (r_w, s_w).
    """
    p0 = ExtReal(p0)
    q0 = ExtReal(q0)
    if not (ZERO <= p0 < q0):
        raise ValueError(f"need 0 <= p0 < q0, got p0={p0}, q0={q0}")
    lower = ZERO if p0 == 0 else p0 * crit.r_w
    upper = q0 / crit.s_w
    return ExponentRange(lower, upper)


# ---------------------------------------------------------------------------
# corollary ranges
# ---------------------------------------------------------------------------


def _require_r(params: dict, n: int, r_cap: Fraction) -> Fraction:
    r = Fraction(params.get("r", 1))
    if not (1 <= r <= 2):
        raise ValueError(f"r outside [1, 2]: {r}")
    if r > r_cap:
        raise ValueError(f"r outside [1, {r_cap}] for n={n}: {r}")
    return r


def corollary_ranges(kind: str, params: dict) -> dict:
    """Exact admissible (p, weight-class) conditions for the unweighted
    boundedness corollaries.

    kind="power_weight": params {"n", "family": "heat"|"poisson"}; returns
        the open alpha interval for |x|^alpha (heat: (-2n/(n+2), n);
        poisson: (-2n/(n+2), min{n, 4})) and the matching gamma interval
        for the conjugate-form operator with gamma = -alpha.
    kind="heat_L2"/"poisson_L2": params {"n", "r"}; returns the A index r
        and the reverse-Holder index (n/2)r + 1; r is capped at 2 (heat)
        and min{2, 1 + 4/n} (poisson).
    kind="heat_Lp"/"poisson_Lp": params {"n", "r", "p"(optional)}; returns
        the p interval for the given r and, when p is supplied, the exact
        reverse-Holder index (p(nr+2)/(2nr))'.
    All values exact; serialized via ext_to_json.
    """
    n = _dimension(params["n"], 2)

    if kind == "power_weight":
        family = params.get("family", "heat")
        lower = Fraction(-2 * n, n + 2)
        if family == "heat":
            upper = Fraction(n)
        elif family == "poisson":
            upper = Fraction(min(n, 4))
        else:
            raise ValueError(f"unknown family {family!r}")
        # the alpha interval has a negative lower endpoint, so it is reported
        # as signed Fractions rather than an ExponentRange
        return {
            "kind": kind,
            "family": family,
            "alpha_lo": lower,
            "alpha_hi": upper,
            "gamma_lo": -upper,
            "gamma_hi": -lower,
        }

    if kind in ("heat_L2", "poisson_L2"):
        r_cap = Fraction(2) if kind == "heat_L2" else min(Fraction(2), 1 + Fraction(4, n))
        r = _require_r(params, n, r_cap)
        rh_index = Fraction(n, 2) * r + 1
        return {
            "kind": kind,
            "n": n,
            "a_index": r,
            "rh_index": rh_index,
            "r_cap": r_cap,
        }

    if kind in ("heat_Lp", "poisson_Lp"):
        r = _require_r(params, n, Fraction(2))
        nr = n * r
        if r == 1:
            p_lo, lo_closed = Fraction(2 * n, n + 2), False
        else:
            p_lo, lo_closed = Fraction(2 * nr, nr + 2), True
        if kind == "heat_Lp":
            p_hi: ExtReal = INF
            hi_closed = False
        else:
            if nr <= 4:
                p_hi, hi_closed = INF, False
            else:
                p_hi = ExtReal(Fraction(2 * n) / (nr - 4))
                hi_closed = r > 1  # the r > 1 case states a closed upper endpoint
        out = {
            "kind": kind,
            "n": n,
            "a_index": r,
            "p_lo": p_lo,
            "p_lo_closed": lo_closed,
            "p_hi": p_hi,
            "p_hi_closed": hi_closed,
        }
        if "p" in params:
            p = Fraction(params["p"])
            out["rh_index"] = conjugate(ExtReal(p * (nr + 2) / (2 * nr)))
        return out

    raise ValueError(f"unknown corollary kind {kind!r}")
