"""Exact arithmetic kernel.

Univariate polynomials over the rationals, Sturm-sequence real-root
counting, single-generator number fields Q[t]/(p(t)), each with its
embedded real root and that root's isolating interval, and rational
functions over Q.

A polynomial over Q is integer numerators over one denominator, and its
arithmetic runs on integer kernels: one Kronecker big-integer product
(`_mul_nums`), pseudo-division, a primitive remainder sequence for the gcd
and homogeneous Horner for evaluation.

Number-field elements and the rational functions over Q reach the same
kernels through their polynomials over Q.  A polynomial with coefficients
in a number field is never formed: the callers that meet one rewrite it
over Q first (see `proofs`).  A rational function is a numerator over
factors to nonzero integer exponents, not reduced: it is zero iff its
numerator is, and two are equal iff their difference is; no gcd is taken.

A number field is Q[t]/(p) for any p with the embedded root gamma, reduced
to its squarefree part: p need not be irreducible, and `degree`, p's degree,
is an upper bound on [Q(gamma):Q].  The field owns gamma: it checks once
that its interval brackets exactly one root of that part (the endpoint signs
and one Sturm count), and `brackets()` bisects the interval into the
enclosures of gamma that `refine`, `NFElem.sign` and `embedding_interval`
read.  An element is zero iff its rep is, or g = gcd(rep, p) has gamma as a
root, which a Sturm count of g on the field's interval decides (dynamic
evaluation: Della Dora, Dicrescenzo & Duval, EUROCAL 1985).  Elements are
equal iff their difference is zero, so they are unhashable.

Everything in this module is exact: no floating point, no tolerances.
All values are immutable after construction and all operations are pure,
so the module is safe to use from concurrent workers without coordination.
`Value` is their common base (and that of `balls.Ball`): it derives the
reflected operators, `-`, `/` and `**` from each type's own `+`, `-x`,
`*`, `inverse()` and `_coerce()`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class ZeroDivisorError(ZeroDivisionError):
    """Division by a zero polynomial / zero field element."""


Ival = tuple[Fraction, Fraction]  # a rational interval (lo, hi)


# ---------------------------------------------------------------------------
# the operator protocol of the algebraic values


class Value:
    """Base of the immutable algebraic values: `Poly`, `NFElem`, `RatFunc`
    and `balls.Ball`.  A subclass defines `+`, unary `-`, `*`, `inverse()`
    and `_coerce(x)`, which returns x lifted to the subclass when x is one
    already or an int or Fraction, else NotImplemented; the reflected
    operators, `-`, `/` and `**` follow here from those.  A `RatFunc` is
    zero iff its numerator is, however its factors are held."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int):
        """self**n by square-and-multiply, the product starting at the lowest
        set bit of n; a negative n through `inverse()`."""
        if n == 0:
            return self._coerce(1)
        base, n = (self, n) if n > 0 else (self.inverse(), -n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            base, n = base * base if n > 1 else base, n >> 1
        return result


# ---------------------------------------------------------------------------
# integer polynomial kernels (ascending coefficient sequences)


def _mul_nums(a, b) -> list:
    """The coefficients of the product of two nonempty integer polynomials,
    from one big-integer product.

    Kronecker substitution: an operand becomes sum_i a_i 2^(w i).  Each
    coefficient c_k of the product is a sum of at most m = min(len a, len b)
    terms, so |c_k| <= m max|a| max|b| < 2^(w-1) for
    w = bits(max|a|) + bits(max|b|) + bits(m) + 1, and slot k of the product
    holds c_k in w-bit two's complement, less the borrow of the slots below.
    A constant operand scales the other one instead.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return [a[0] * c for c in b]
    w = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + len(a).bit_length() + 1
    A = B = 0
    for c in reversed(a):
        A = (A << w) + c
    for c in reversed(b):
        B = (B << w) + c
    C = A * B
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(len(a) + len(b) - 1):
        c = C & mask
        if c >= half:
            c -= 1 << w
        out.append(c)
        C = (C - c) >> w
    return out


def _pseudo_divrem(a, b) -> tuple[list, list]:
    """(q, r) with lead(b)^e a = q b + r, e = len(a) - len(b) + 1 and
    len(r) = len(b) - 1, for integer polynomials with len(a) >= len(b):
    pseudo-division, Knuth, TAOCP vol. 2, 4.6.1, Algorithm R."""
    lead, db, r = b[-1], len(b) - 1, list(a)
    e = len(a) - db
    q = [0] * e
    for k in range(e - 1, -1, -1):
        c = r[k + db]
        q[k] = c * lead**k
        r = [lead * x for x in r[: k + db]]
        for i in range(db):
            r[k + i] -= c * b[i]
    return q, r


def _primitive_gcd(a, b) -> list[int]:
    """A gcd over Q of two integer polynomials, by the primitive
    pseudo-remainder sequence of Knuth, TAOCP vol. 2, 4.6.1: each remainder
    of a by b (`_pseudo_divrem`), an integer polynomial, is cut down to its
    primitive part.  Unique up to a rational factor; [] only for a = b = []."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_divrem(a, b)[1]
        while r and r[-1] == 0:
            r.pop()
        content = math.gcd(*r) if r else 1
        a, b = b, [x // content for x in r]
    return a


def _horner(ints: Sequence[int], n: int, d: int) -> int:
    """d^deg times the value of the integer polynomial `ints` at n/d, d > 0
    (homogeneous Horner on integers)."""
    acc, dpow = 0, 1
    for c in reversed(ints):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


# ---------------------------------------------------------------------------
# polynomials


class Poly(Value):
    """Dense univariate polynomial over Q, coefficients in ascending degree order.

    Stored as integer numerators `nums` over one positive denominator `den`,
    reduced so that gcd(den, *nums) = 1 and with no trailing zero: equal
    polynomials have equal (nums, den), and arithmetic runs on integers.  The
    zero polynomial has no coefficients; its degree is -1, standing in for
    "minus infinity" in divrem logic.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or Fraction")
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def _store(self, nums, den: int) -> None:
        while nums and not nums[-1]:
            nums = nums[:-1]
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))  # not `_set`: the hottest constructor
        object.__setattr__(self, "den", den)

    @staticmethod
    def _make(nums, den: int) -> "Poly":
        """The polynomial with coefficients nums/den, for integers nums, den != 0."""
        p = object.__new__(Poly)
        p._store(nums, den)
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.degree:
            return Fraction(0)
        return Fraction(self.nums[i], self.den)

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def is_zero(self) -> bool:
        return not self.nums

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly._make([x.numerator], x.denominator)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        den = math.lcm(self.den, other.den)
        a, b = self.nums, other.nums
        sa, sb = den // self.den, den // other.den
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [c * sa for c in a]
        for i, c in enumerate(b):
            out[i] += c * sb
        return Poly._make(out, den)

    def __neg__(self) -> "Poly":
        return Poly._make([-c for c in self.nums], self.den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        return Poly._make(_mul_nums(self.nums, other.nums), self.den * other.den)

    def scale(self, c) -> "Poly":  # by an int or Fraction
        return Poly._make([x * c.numerator for x in self.nums], self.den * c.denominator)

    def inverse(self) -> "Poly":
        if self.degree != 0:
            raise ValueError("only a nonzero constant polynomial has an inverse")
        return Poly._make([self.den], self.nums[0])

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: self = q*other + r with deg r < deg other, by
        integer pseudo-division of the numerators."""
        if other.is_zero():
            raise ZeroDivisorError("zero divisor")
        if self.degree < other.degree:
            return Poly(), self
        q, r = _pseudo_divrem(self.nums, other.nums)
        den = other.nums[-1] ** len(q) * self.den
        return Poly._make([c * other.den for c in q], den), Poly._make(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def derivative(self) -> "Poly":
        return Poly._make([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "Poly":
        return self if self.is_zero() else Poly._make(self.nums, self.nums[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd over Q (zero for two zero polynomials), from a
        primitive remainder sequence on the numerators."""
        g = _primitive_gcd(self.nums, other.nums)
        return Poly._make(g, g[-1]) if g else Poly()

    def compose(self, other: "Poly") -> "Poly":
        """self(other(x)) by Horner."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * other + Poly([c])
        return acc

    def __call__(self, x):
        """Evaluate at a scalar: at a rational x by the homogeneous Horner on
        the numerators, elsewhere (an NFElem, ...) by Horner on `coeffs`."""
        if isinstance(x, (int, Fraction)):
            n, d = x.numerator, x.denominator
            return Fraction(_horner(self.nums, n, d), self.den * d ** max(self.degree, 0))
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return x * 0
        return acc

    def eval_interval(self, iv: Ival) -> Ival:
        """Enclosure of the image of a rational interval: the interval Horner
        scheme, acc <- acc * iv + c, on integers.  With iv = (a/d, b/d), the
        step for the coefficient c = nums_i/den keeps acc = (L, U)/(den d^k),
        and both sides are scaled by the same positive factor, so min and max
        are those of the Fraction scheme."""
        lo, hi = iv
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        L = U = 0
        dpow = 1
        for c in reversed(self.nums):
            ps = (L * a, L * b, U * a, U * b)
            L, U = min(ps) + c * dpow, max(ps) + c * dpow
            dpow *= d
        return (Fraction(L * d, self.den * dpow), Fraction(U * d, self.den * dpow))

    def squarefree_part(self) -> "Poly":
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return (self // g).monic()

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def pretty(self, var: str = "y") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                term = f"{c}"
            elif i == 1:
                term = f"{c}*{var}" if c != 1 else var
            else:
                term = f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Sturm sequences and real-root counting


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [_sign(_horner(p.nums, x.numerator, x.denominator)) for p in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree p in the open (lo, hi)."""
    chain = _sturm_chain(p)
    n = _variations(chain, lo) - _variations(chain, hi)
    if p(hi) == 0:
        n -= 1
    return n


def _roots_on(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree p in the closed [lo, hi]."""
    return count_roots(p, lo, hi) + (p(lo) == 0) + (p(hi) == 0)


# ---------------------------------------------------------------------------
# number fields


class NumberField:
    """Q[t]/(modulus), the modulus reduced to its squarefree monic part, with a
    distinguished real root gamma: the one root of that part in the isolating
    interval [lo, hi]."""

    def __init__(self, modulus: Poly, interval: Ival):
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo > hi:
            raise ValueError("empty isolating interval")
        p = modulus.squarefree_part().monic()
        if p(lo) * p(hi) > 0:
            raise ValueError("interval endpoints do not bracket a root")
        n = _roots_on(p, lo, hi)
        if n != 1:
            raise ValueError(f"interval contains {n} roots, expected exactly 1")
        self.modulus, self.degree, self.lo, self.hi = p, p.degree, lo, hi

    def brackets(self) -> Iterator[Ival]:
        """The isolating interval, then the bracket of gamma after each
        bisection step, each half the one before.  A rational root that a step
        lands on ends the sequence on its point interval; a root at an endpoint
        of the isolating interval is that point interval alone."""
        ints = self.modulus.nums  # den > 0: the same signs as the modulus
        lo, hi = self.lo, self.hi
        slo = _sign(_horner(ints, lo.numerator, lo.denominator))
        if slo == 0 or _horner(ints, hi.numerator, hi.denominator) == 0:
            yield (lo, lo) if slo == 0 else (hi, hi)
            return
        # on integers: the bracket is (a/den, b/den), and each halving doubles den
        den = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        while True:
            yield (Fraction(a, den), Fraction(b, den))
            mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
            v = _sign(_horner(ints, mid, den))
            if v == 0:
                yield (Fraction(mid, den), Fraction(mid, den))
                return
            if v == slo:
                a = mid
            else:
                b = mid

    def refine(self, width: Fraction) -> Ival:
        """The first of `brackets()` no wider than `width`."""
        if width <= 0:
            raise ValueError("width must be positive")
        return next(iv for iv in self.brackets() if iv[1] - iv[0] <= width)

    def _at_root(self, g: Poly) -> bool:
        """Whether gamma is a root of g, a divisor of the modulus: the isolating
        interval holds no other root of the modulus, so a Sturm count of g on
        it, endpoints included, decides."""
        return g.degree > 0 and _roots_on(g, self.lo, self.hi) > 0

    def const(self, c: Fraction) -> "NFElem":
        return NFElem(self, Poly._make([c.numerator], c.denominator))

    def one(self) -> "NFElem":
        return self.const(Fraction(1))

    def gen(self) -> "NFElem":
        return NFElem(self, Poly([0, 1]))

    def __repr__(self):
        return f"NumberField({self.modulus.pretty('t')})"


def _bezout(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(g, s), g a gcd of a and b and s b = g mod a, by extended Euclid."""
    r0, r1, s0, s1 = a, b, Poly(), Poly([1])
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return r0, s0


class NFElem(Value):
    """Element of a NumberField: its reduced polynomial, compared at gamma."""

    __slots__ = ("field", "rep")

    def __init__(self, field: NumberField, rep: Poly):
        if rep.degree >= field.degree:
            rep = rep % field.modulus
        self._set(field=field, rep=rep)

    def _coerce(self, x) -> "NFElem":
        if isinstance(x, NFElem):
            if x.field is not self.field:
                raise ValueError("elements of different number fields")
            return x
        if isinstance(x, (int, Fraction)):
            return self.field.const(Fraction(x))
        return NotImplemented

    def is_zero(self) -> bool:
        """Zero at gamma: the rep is zero, or its gcd with the modulus has gamma
        as a root (dynamic evaluation)."""
        return self.rep.is_zero() or self.field._at_root(self.rep.gcd(self.field.modulus))

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o).is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NFElem(self.field, self.rep + o.rep)

    def __neg__(self):
        return NFElem(self.field, -self.rep)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NFElem(self.field, (self.rep * o.rep) % self.field.modulus)

    def inverse(self) -> "NFElem":
        """The inverse at gamma by the extended Euclidean algorithm: modulo the
        modulus, or, where the rep shares a factor g with it that is nonzero at
        gamma, modulo the modulus / g, which holds gamma."""
        g, s = _bezout(self.field.modulus, self.rep)
        if g.degree > 0:
            if self.field._at_root(g):
                raise ZeroDivisorError("zero divisor: zero at the field's root")
            g, s = _bezout(self.field.modulus // g, self.rep)
        return NFElem(self.field, s.scale(1 / g[0]))

    def embedding_interval(self, width: Fraction = Fraction(1, 10**12)) -> Ival:
        """Rational enclosure, no wider than `width`, of the element under the
        field's real embedding: the element evaluated on the field's
        `brackets()` at root widths w0, w0/16, w0/16^2, ... until narrow enough."""
        if width <= 0:
            raise ValueError("width must be positive")
        K = self.field
        w = (K.hi - K.lo) or Fraction(1, 2)
        for lo, hi in K.brackets():
            while hi - lo <= w:
                iv = self.rep.eval_interval((lo, hi))
                if iv[1] - iv[0] <= width:
                    return iv
                w /= 16

    def sign(self) -> int:
        """Sign of the real embedding: at the first of `brackets()` that excludes 0."""
        if self.is_zero():
            return 0
        for bracket in self.field.brackets():
            lo, hi = self.rep.eval_interval(bracket)
            if lo > 0 or hi < 0:
                return _sign(lo)

    def __repr__(self):
        return f"NFElem({self.rep.pretty('t')})"


# ---------------------------------------------------------------------------
# rational functions


def _rows(a: tuple, b: tuple) -> list:
    """[f, e_a, e_b] for each factor f of the pairs a or b: its exponents there, or 0."""
    rows = [[f, e, 0] for f, e in a]
    for g, e in b:
        for row in rows:
            if row[0] is g or row[0] == g:
                row[2] = e
                break
        else:
            rows.append([g, 0, e])
    return rows


def _times(num: Poly, pairs) -> Poly:
    """num times prod f^e over the pairs (f, e) with e > 0."""
    ups = [f**e for f, e in pairs if e > 0]
    return num * math.prod(ups[1:], start=ups[0]) if ups else num


@lru_cache(maxsize=64)
def _log_derivative(factors: tuple) -> tuple[Poly, tuple]:
    """(P, T) for factors f_i: P = prod f_i and T_i = f_i' P/f_i, so that
    sum e_i T_i / P is the logarithmic derivative of prod f_i^e_i."""
    return math.prod(factors, start=Poly([1])), tuple(
        math.prod((g for g in factors if g is not f), start=f.derivative()) for f in factors)


class RatFunc(Value):
    """num / prod f^e over Q in one variable: `num` a Poly, `den` a tuple of
    (factor, exponent) pairs, the factors distinct non-constant Polys and the
    exponents nonzero ints; a negative exponent puts its factor in the
    numerator.  Not reduced, so unhashable: a value is zero iff `num` is, and
    two values are equal iff their difference is zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den=None):
        """`den`: None, a Poly or pairs; equal factors merge, constant ones go into `num`."""
        if not isinstance(num, Poly):
            raise TypeError(f"{num!r} is not a polynomial over Q")
        exps: dict = {}
        for f, e in [(den, 1)] if isinstance(den, Poly) else den or ():
            if not isinstance(f, Poly):
                raise TypeError(f"{f!r} is not a polynomial over Q")
            if f.is_zero():
                raise ZeroDivisorError("zero divisor")
            if f.degree == 0:
                num = num * f[0] ** -e
            else:
                exps[f] = exps.get(f, 0) + e
        self._set(num=num, den=tuple((f, e) for f, e in exps.items() if e))

    @staticmethod
    def _make(num: Poly, den: tuple) -> "RatFunc":
        r = object.__new__(RatFunc)
        r._set(num=num, den=den)
        return r

    @staticmethod
    def _coerce(x) -> "RatFunc":
        if isinstance(x, (int, Fraction, Poly)):
            return RatFunc._make(Poly._coerce(x), ())
        return x if isinstance(x, RatFunc) else NotImplemented

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return o if o is NotImplemented else (self - o).is_zero()

    def __add__(self, other):
        """Both values over each factor's larger exponent."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        rows = [(f, max(a, b), a, b) for f, a, b in _rows(self.den, o.den)]
        num = (_times(self.num, [(f, t - a) for f, t, a, _ in rows])
               + _times(o.num, [(f, t - b) for f, t, _, b in rows]))
        return RatFunc._make(num, tuple((f, t) for f, t, _, _ in rows if t))

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        den = tuple((f, a + b) for f, a, b in _rows(self.den, o.den) if a + b)
        return RatFunc._make(self.num * o.num, den)

    def inverse(self) -> "RatFunc":
        """The exponents negated; a non-constant numerator becomes a factor."""
        return RatFunc(Poly([1]), [(f, -e) for f, e in self.den] + [(self.num, 1)])

    def derivative(self) -> "RatFunc":
        """(N'P - N S) / prod f^(e+1), with P = prod f and S = sum e f' P/f."""
        P, T = _log_derivative(tuple(f for f, _ in self.den))
        minus_S = sum((t.scale(-e) for t, (_, e) in zip(T, self.den)), Poly())
        return RatFunc._make(self.num.derivative() * P + self.num * minus_S,
                             tuple((f, e + 1) for f, e in self.den if e != -1))

    def compose(self, p: Poly) -> "RatFunc":
        """self(p(y)) for a polynomial p, factor by factor."""
        return RatFunc(self.num.compose(p), [(f.compose(p), e) for f, e in self.den])

    def __call__(self, x):
        """The value at x (a Fraction, an NFElem, a RatFunc, ...)."""
        bottom = math.prod((f(x) ** e for f, e in self.den if e > 0), start=1)
        if bottom == 0:
            raise ZeroDivisorError(f"a factor of {self!r} vanishes at {x!r}")
        return math.prod((f(x) ** -e for f, e in self.den if e < 0), start=self.num(x)) / bottom

    def __repr__(self):
        den = "".join(f" / ({f.pretty()})" + (f"^{e}" if e != 1 else "") for f, e in self.den)
        return f"RatFunc(({self.num.pretty()}){den})"
