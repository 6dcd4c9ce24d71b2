"""Exact sparse multivariate polynomial arithmetic over the rationals.

A `MultiPoly` in `nvars` variables stores one positive common denominator
and a dict from packed monomials to int numerators; the coefficient of a
monomial is numerator/denominator.

Packed monomial: one Python int.  The total degree sits in the top field,
with one 16-bit field per variable below it, variable 1 (`nu1`) most
significant.  For nvars=2, x^a y^b packs to ((a+b) << 32) | (a << 16) | b.
So multiplying two monomials is one integer add, and integer order is
graded-lexicographic order (total degree first, then lexicographic on the
exponent tuple), the order used wherever one matters: serialization,
golden-file comparison and CLI output.  Total degree is capped at
MAX_DEGREE = 65535, so no exponent field can carry into the next; an
operation that would pass the cap raises ValueError.

Zero numerators are never stored and the numerators are reduced against
the denominator (gcd(den, *numerators) == 1, den == 1 for the zero
polynomial).  The form is canonical, so equality of polynomials is
equality of (nvars, denominator, numerator dict), and an identity check is
just "subtract and test for the empty map".  `terms` presents a polynomial
as a read-only {exponent tuple: Fraction} mapping, in the order in which
arithmetic first produced the terms.  `eval` is exact at a rational point:
it sums the numerators of the terms over one common denominator, drops a
term at its first zero factor, and makes one Fraction at the end.  Float
values come only from the evaluator `compile_float` returns, which `eval`
calls at any other point.  `variable` and `monomial` build their single
term directly, without the constructor's pass over a mapping, and
`sum_of_products` sums many products x * y into one numerator dict with the
value and the term order of the sequential sum.
"""

from __future__ import annotations

import re
from collections.abc import Mapping as _MappingABC
from fractions import Fraction
from math import gcd, inf, lcm
from numbers import Integral, Rational
from operator import index as _index
from typing import Iterator, Mapping, Sequence


_BITS = 16
_MASK = (1 << _BITS) - 1
MAX_DEGREE = _MASK


def require_integer(what: str, value) -> int:
    """`value` as a Python int; a bool, or a non-Integral such as 2.9, raises ValueError."""
    if type(value) is int:
        return value
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return _index(value)


def _count(nvars) -> int:
    """`nvars` as a variable count: an integer >= 0, by `require_integer`."""
    nvars = require_integer("nvars", nvars)
    if nvars < 0:
        raise ValueError(f"nvars must be >= 0, got {nvars}")
    return nvars


def _checked_key(nvars: int, exps) -> int:
    """The packed key of `exps`, which must be nvars nonnegative integers of
    total degree at most MAX_DEGREE; distinct tuples get distinct keys."""
    exps = tuple(require_integer("exponent", e) for e in exps)
    if len(exps) != nvars:
        raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    key = sum(exps)
    if key > MAX_DEGREE:
        raise ValueError(f"total degree of {exps} exceeds {MAX_DEGREE}")
    for e in exps:
        key = (key << _BITS) | e
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        exps[i] = key & _MASK
        key >>= _BITS
    return tuple(exps)


class _Terms(_MappingABC):
    """Read-only {exponent tuple: Fraction} view of a MultiPoly."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        nvars = self._poly.nvars
        return (_unpack(key, nvars) for key in self._poly._num)

    def __getitem__(self, exps) -> Fraction:
        p = self._poly
        try:
            return Fraction(p._num[_checked_key(p.nvars, exps)], p._den)
        except (KeyError, TypeError, ValueError):
            raise KeyError(exps) from None

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class MultiPoly:
    """Immutable sparse polynomial in `nvars` variables over Fraction."""

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Rational] | None = None):
        nvars = _count(nvars)
        clean = {key: c for exps, coef in (terms or {}).items()
                 for key, c in [(_checked_key(nvars, exps), Fraction(coef))] if c}
        den = lcm(*(c.denominator for c in clean.values()))
        _set_nvars(self, nvars)
        _set_num(self, {k: c.numerator * (den // c.denominator) for k, c in clean.items()})
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _wrap, not the raising __setattr__
        return _wrap, (self.nvars, self._num, self._den)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        return _Terms(self)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return _wrap(_count(nvars), {}, 1)

    @classmethod
    def const(cls, nvars: int, value) -> "MultiPoly":
        c = Fraction(value)
        return _wrap(_count(nvars), {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        nvars = _count(nvars)
        index = require_integer("variable index", index)
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for nvars={nvars}")
        # degree 1 in the top field, exponent 1 in the field of `index`
        key = (1 << _BITS * nvars) | (1 << _BITS * (nvars - 1 - index))
        return _wrap(nvars, {key: 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coef=1) -> "MultiPoly":
        c = Fraction(coef)
        nvars = _count(nvars)
        key = _checked_key(nvars, exps)
        return _wrap(nvars, {key: c.numerator} if c else {}, c.denominator)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def total_degree(self):
        """Max total degree of a term, or None for the zero polynomial."""
        if not self._num:
            return None
        return max(self._num) >> (_BITS * self.nvars)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def _combine(self, q: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign*q; terms of self first, then the new ones of q.
        With a zero operand the other one, or its negative, is the result:
        it is already reduced and its keys are in the order of this loop."""
        if not q._num:
            return self
        if not self._num:
            return q if sign > 0 else -q
        da, db = self._den, q._den
        if da == db:
            out = dict(self._num)
            mb = sign
        else:
            g = gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            da *= ma
            out = {k: c * ma for k, c in self._num.items()}
        get = out.get
        for k, c in q._num.items():
            out[k] = get(k, 0) + c * mb
        return _make(self.nvars, {k: c for k, c in out.items() if c}, da)

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._combine(q, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.nvars, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._combine(q, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, n: int, d: int) -> "MultiPoly":
        """self * n/d for ints n and d > 0."""
        if n == d:
            return self
        if not n:
            return _wrap(self.nvars, {}, 1)
        return _make(self.nvars, {k: v * n for k, v in self._num.items()}, self._den * d)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return MultiPoly.sum_of_products(self.nvars, [(self, q)])

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(nvars: int, pairs) -> "MultiPoly":
        """sum x * y over the (x, y) in `pairs`, equal to the sequential
        `acc = acc + x * y` from zero in value and in `terms` order; one
        pair is the product `__mul__` returns.

        Every product is multiplied straight into one numerator dict over
        the lcm of the pair denominators, a pair with a zero factor is
        skipped, and one gcd pass reduces the sum at the end. A product's
        keys are met in the double loop over the terms of x, then of y, and
        a new key joins at its first appearance; after each addend the keys
        it brought to zero are dropped, so a key that cancels and comes back
        later is appended again, as `_combine` appends it."""
        pairs = [(x, y) for x, y in pairs if x._num and y._num]
        if not pairs:
            return _wrap(nvars, {}, 1)
        den = lcm(*[x._den * y._den for x, y in pairs])
        shift = _BITS * nvars
        out: dict[int, int] = {}
        get, values = out.get, out.values()
        for x, y in pairs:
            if x.nvars != nvars or y.nvars != nvars:
                raise ValueError(f"variable-count mismatch: {x.nvars} and {y.nvars}"
                                 f" vs {nvars}")
            a, b = x._num, y._num
            degree = (max(a) + max(b)) >> shift
            if degree > MAX_DEGREE:
                raise ValueError(f"product of total degree {degree} exceeds {MAX_DEGREE}")
            lift = den // (x._den * y._den)
            b_items = list(b.items())
            for k1, c1 in a.items():
                c1 *= lift
                for k2, c2 in b_items:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            if 0 in values:
                # only keys this addend touched can be zero
                for k in [k for k, c in out.items() if not c]:
                    del out[k]
        return _make(nvars, out, den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            c = 1 / Fraction(other)
            return self._scale(c.numerator, c.denominator)
        return NotImplemented

    def __pow__(self, n: int):
        k = require_integer("power", n)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    # -- calculus and evaluation ---------------------------------------

    def diff(self, var: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable `var`."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range for nvars={self.nvars}")
        shift = _BITS * (self.nvars - 1 - var)
        # lowers the exponent field of `var` and the degree field by one
        step = (1 << shift) + (1 << (_BITS * self.nvars))
        out = {}
        for k, c in self._num.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - step] = c * e
        return _make(self.nvars, out, self._den)

    def euler(self) -> "MultiPoly":
        """Euler's operator sum_k x_k d/dx_k: every term times its total
        degree, read from the top field of its packed monomial."""
        top = _BITS * self.nvars
        return _make(self.nvars, {k: c * (k >> top) for k, c in self._num.items()
                                  if k >> top}, self._den)

    def eval(self, values: Sequence):
        """Evaluate at `values`: by `compile_float()` unless all are ints and
        Fractions, when the result is an exact Fraction. Such a point is
        written over one common denominator L, values[i] = P_i / L. A term
        of degree d is then an integer over den * L^d, which L^(top - d)
        lifts to den * L^top, top the largest degree: the lifted numerators
        are summed as integers, a term stopping at its first zero factor,
        and one Fraction is made at the end.
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        if not all(isinstance(v, (int, Fraction)) for v in values):
            return self.compile_float()(values)
        if not self._num:
            return Fraction(0)
        nvars = self.nvars
        L = lcm(*(v.denominator for v in values))
        P = [v.numerator * (L // v.denominator) for v in reversed(values)]
        top = max(self._num) >> (_BITS * nvars)
        # L^(top - degree) lifts a term of lower degree to den * L^top
        lift = [L ** e for e in range(top, -1, -1)] if L != 1 else None
        total = 0
        for key, t in self._num.items():
            for p in P:  # last variable first: it sits in the lowest field
                e = key & _MASK
                key >>= _BITS
                if e:
                    t *= p ** e
                    if not t:
                        break
            else:
                total += t if lift is None else t * lift[key]
        return Fraction(total, self._den * L ** top)

    def compile_float(self):
        """Return a fast float evaluator f(values) usable with numpy arrays.

        A term is its float coefficient times its nonzero factors
        values[i] ** e, multiplied left to right; a unit coefficient is left
        out, as 1.0 * x is x bit for bit. The terms are added to 0.0 in
        `sorted_terms` order, so a -0.0 sum comes out as +0.0. A coefficient
        is its numerator / den, rounded once, as float() of its Fraction is;
        one beyond the float range is +-inf, as a float product past it is."""
        nvars, den = self.nvars, self._den
        compiled = []
        for key, num in sorted(self._num.items(), reverse=True):
            factors = [(i, e) for i, e in enumerate(_unpack(key, nvars)) if e]
            try:
                c = None if num == den and factors else num / den
            except OverflowError:
                c = inf if num > 0 else -inf
            compiled.append((c, factors))

        def evaluate(values):
            acc = 0.0
            for c, factors in compiled:
                term = c  # None: the first factor starts the product
                for i, e in factors:
                    v = values[i] if e == 1 else values[i] ** e
                    term = v if term is None else term * v
                acc = acc + term
            return acc

        return evaluate

    # -- serialization --------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(exponents, coefficient) pairs in descending grlex order."""
        nvars, den = self.nvars, self._den
        return [(_unpack(key, nvars), Fraction(self._num[key], den))
                for key in sorted(self._num, reverse=True)]

    def to_text(self, varnames: Sequence[str] | None = None) -> str:
        """Canonical text form: `coef * v1^e1*v2^e2` terms joined by ` + `."""
        if varnames is None:
            varnames = [f"v{i + 1}" for i in range(self.nvars)]
        if len(varnames) != self.nvars:
            raise ValueError("varnames length mismatch")
        if not self._num:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = []
            for name, e in zip(varnames, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            if factors:
                parts.append(f"{coef} * " + "*".join(factors))
            else:
                parts.append(str(coef))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_text()!r})"

    @classmethod
    def parse(cls, text: str, nvars: int | None = None,
              varnames: Sequence[str] | None = None) -> "MultiPoly":
        """Parse the to_text() format.

        Spacing is free, and a negative term may be written `- t` or `+ -t`.
        Any other run of signs, a sign right after '*' and an empty factor
        are rejected with ValueError rather than guessed at.
        """
        if nvars is not None:
            nvars = _count(nvars)
        name_to_idx = None
        if varnames is not None:
            name_to_idx = {n: i for i, n in enumerate(varnames)}
        # chunk, sign, chunk, sign, ..., chunk
        pieces = re.split(r"\s*([+-])\s*", text.strip())
        raw_terms = []  # (negative, text of the term)
        signs = ""
        for i in range(0, len(pieces), 2):
            raw = pieces[i]
            if raw.endswith("*") and i + 1 < len(pieces):
                raise ValueError(f"sign after '*' in term {raw + pieces[i + 1] + pieces[i + 2]!r}"
                                 f" of {text!r}")
            if raw:
                if signs not in ("", "+", "-", "+-"):
                    raise ValueError(f"doubled sign {signs!r} before term {raw!r} in {text!r}")
                raw_terms.append((signs.endswith("-"), raw))
                signs = ""
            if i + 1 < len(pieces):
                signs += pieces[i + 1]
        if signs:
            raise ValueError(f"{text!r} ends in a sign")
        parsed = []  # (coef, {idx_or_name: exp})
        max_index = 0
        for negative, raw in raw_terms:
            coef = Fraction(-1 if negative else 1)
            chunks = [c.strip() for c in raw.split("*")]
            if not all(chunks):
                raise ValueError(f"empty factor in term {raw!r} of {text!r}")
            powers: dict[object, int] = {}
            for f in (f for c in chunks for f in c.split()):
                m = re.fullmatch(r"(\d+)(?:/(\d+))?", f)
                if m:
                    den = int(m.group(2) or 1)
                    if not den:
                        raise ValueError(f"zero denominator in {f!r} of {text!r}")
                    coef *= Fraction(int(m.group(1)), den)
                    continue
                m = re.fullmatch(r"([A-Za-z_]+\d*)(?:\^(\d+))?", f)
                if not m:
                    raise ValueError(f"cannot parse factor {f!r} in {text!r}")
                name, exp = m.group(1), int(m.group(2) or 1)
                if name_to_idx is not None:
                    if name not in name_to_idx:
                        raise ValueError(f"unknown variable {name!r}")
                    key: object = name_to_idx[name]
                else:
                    m2 = re.fullmatch(r"[A-Za-z_]+(\d+)", name)
                    if not m2:
                        raise ValueError(f"variable {name!r} has no index; pass varnames")
                    key = int(m2.group(1)) - 1
                    max_index = max(max_index, key + 1)
                powers[key] = powers.get(key, 0) + exp
            parsed.append((coef, powers))
        if nvars is None:
            nvars = len(varnames) if varnames is not None else max_index
        terms: dict[tuple[int, ...], Fraction] = {}
        for coef, powers in parsed:
            exps = [0] * nvars
            for key, e in powers.items():
                if not 0 <= key < nvars:
                    raise ValueError(f"variable index {key + 1} out of range for nvars={nvars}")
                exps[key] = e
            e = tuple(exps)
            terms[e] = terms.get(e, Fraction(0)) + coef
        return cls(nvars, terms)


_set_nvars = MultiPoly.nvars.__set__
_set_num = MultiPoly._num.__set__
_set_den = MultiPoly._den.__set__


def _wrap(nvars: int, num: dict[int, int], den: int) -> MultiPoly:
    """MultiPoly from zero-free numerators already reduced against den."""
    p = object.__new__(MultiPoly)
    _set_nvars(p, nvars)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _make(nvars: int, num: dict[int, int], den: int) -> MultiPoly:
    """MultiPoly from zero-free numerators over den > 0, reducing them."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return _wrap(nvars, num, den)
