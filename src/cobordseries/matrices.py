"""Exact rational square matrices, used as non-commutative series coefficients.

A matrix is stored fraction-free: a flat row-major tuple of integer
numerators over one positive common denominator.  Every result is reduced
by a single ``gcd(den, *num)``, so the form is canonical (``den > 0`` and
``gcd(den, *num) == 1``), equal matrices have equal storage and ``==`` is
a tuple comparison.  The ``Fraction`` view (``rows``, ``m[i, j]``,
``repr``) is built only at the boundary.  The arithmetic runs through per-size
kernels: one unrolled expression each, compiled once from index literals; a sum
of products (``_dot``) adds unreduced numerators, one fused c*s + (a·b)*t kernel
call per pair, then scales them by a ratio and reduces once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from ._checks import _int_in


@cache
def _kernels(n: int):
    """(a·b row by column, a*db + b*da, a*s, a//s, c*s + (a·b)*t) on flat n x n
    numerator tuples.  The generated source holds only integer index literals and
    the fixed names a, b, c, da, db, s and t; no caller data ever reaches ``eval``."""
    flat = range(n * n)
    dots = [" + ".join(f"a[{i * n + k}]*b[{k * n + j}]" for k in range(n))
            for i in range(n) for j in range(n)]
    fma = ", ".join(f"c[{i}]*s + ({dot})*t" for i, dot in enumerate(dots))
    return (eval(f"lambda a, b: ({', '.join(dots)},)"),
            eval(f"lambda a, b, da, db: ({', '.join(f'a[{i}]*db + b[{i}]*da' for i in flat)},)"),
            eval(f"lambda a, s: ({', '.join(f'a[{i}]*s' for i in flat)},)"),
            eval(f"lambda a, s: ({', '.join(f'a[{i}]//s' for i in flat)},)"),
            eval(f"lambda c, a, b, s, t: ({fma},)"))


def _entry(x) -> Fraction:
    """Exact entry from an int (not bool), a Fraction or a rational string."""
    if type(x) is int or isinstance(x, (Fraction, str)):
        return Fraction(x)  # a string that is not a rational raises ValueError here
    raise ValueError(f"matrix entry must be an int, a Fraction or a rational string, "
                     f"not {x!r}")


def _check_index(n, ij):
    """ij as (i, j), if it is a pair of ints (not bools) in 0..n-1."""
    i, j = ij
    return _int_in("matrix index i", i, 0, n - 1), _int_in("matrix index j", j, 0, n - 1)


class RationalMatrix:
    """Immutable n x n matrix over the rationals.

    All arithmetic is exact.  Multiplication by a scalar (int/Fraction)
    scales entrywise; multiplication by another matrix is the usual row
    by column product, so the non-commutativity of matrix products is
    visible to everything built on top.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, rows):
        rows = tuple(rows)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError(f"matrix rows must be lists or tuples, not {rows!r}")
        rows = tuple(tuple(_entry(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        # lcm of reduced denominators: the scaled numerators share no factor with it
        den = lcm(*(x.denominator for row in rows for x in row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", tuple(x.numerator * (den // x.denominator)
                                              for row in rows for x in row))
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, n, num, den):
        """Trusted constructor: integer numerators over den > 0, reduced here."""
        g = gcd(den, *num)
        if g != 1:
            num = _kernels(n)[3](num, g)
            den //= g
        out = object.__new__(cls)
        _set_n(out, n)
        _set_num(out, num)
        _set_den(out, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        _int_in("matrix size", n, 1)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "RationalMatrix":
        """Matrix with a single nonzero entry at (i, j)."""
        _check_index(_int_in("matrix size", n, 1), (i, j))
        return cls(tuple(tuple(value if (r, c) == (i, j) else 0 for c in range(n))
                         for r in range(n)))

    @property
    def rows(self):
        """The entries as a tuple of rows of Fractions."""
        n, num, den = self.n, self.num, self.den
        return tuple(tuple(Fraction(x, den) for x in num[i * n:(i + 1) * n])
                     for i in range(n))

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, ij):
        i, j = _check_index(self.n, ij)
        return Fraction(self.num[i * self.n + j], self.den)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.rows)

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        self._check_shape(other)
        return RationalMatrix._make(self.n, _kernels(self.n)[1](
            self.num, other.num, self.den, other.den), self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        self._check_shape(other)
        return RationalMatrix._make(self.n, _kernels(self.n)[1](
            self.num, other.num, -self.den, other.den), self.den * other.den)

    def __neg__(self):
        return RationalMatrix._make(self.n, _kernels(self.n)[2](self.num, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            self._check_shape(other)
            return RationalMatrix._make(self.n, _kernels(self.n)[0](self.num, other.num),
                                        self.den * other.den)
        if type(other) is int or isinstance(other, Fraction):
            return RationalMatrix._make(self.n, _kernels(self.n)[2](self.num, other.numerator),
                                        self.den * other.denominator)
        if type(other) is bool:
            raise ValueError("cannot scale a matrix by a bool")
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        k = _int_in("k", k)
        out = RationalMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @classmethod
    def _dot(cls, pairs, start=None, ratio=1):
        """ratio·(start + Σ a·b) over the non-empty ``pairs``: products summed as
        numerators over a common denominator, scaled, reduced once by ``_make``."""
        _, _, scale, _, fma = _kernels(n := pairs[0][0].n)
        num, den = ((0,) * (n * n), 1) if start is None else (start.num, start.den)
        if len(num) != n * n:
            raise ValueError(f"matrix size mismatch: {start.n} vs {n}")
        for a, b in pairs:
            if a.n != n or b.n != n:
                raise ValueError(f"matrix size mismatch: {n} vs {b.n if a.n == n else a.n}")
            d = a.den * b.den
            g = gcd(den, d)
            num, den = fma(num, a.num, b.num, d // g, den // g), den // g * d
        return cls._make(n, num if ratio == 1 else scale(num, ratio.numerator),
                         den * ratio.denominator)

    def _check_shape(self, other):
        if self.n != other.n:
            raise ValueError(f"matrix size mismatch: {self.n} vs {other.n}")

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises on singular input.

        >>> RationalMatrix([[1, 1], [0, 1]]).inverse()
        RationalMatrix([[1, -1], [0, 1]])
        >>> m = RationalMatrix([["1/2", 3], [1, "5/7"]])
        >>> m * m.inverse() == RationalMatrix.identity(2)
        True
        """
        n = self.n
        m = [list(row) for row in self.rows]
        b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for k in range(i, n):
                if m[k][i] != 0:
                    break
            else:
                raise ValueError("matrix is singular")
            if k != i:
                m[i], m[k] = m[k], m[i]
                b[i], b[k] = b[k], b[i]
            inv = Fraction(1, 1) / m[i][i]
            m[i] = [x * inv for x in m[i]]
            b[i] = [x * inv for x in b[i]]
            for j in range(n):
                if j == i or m[j][i] == 0:
                    continue
                d = m[j][i]
                m[j] = [x - d * y for x, y in zip(m[j], m[i])]
                b[j] = [x - d * y for x, y in zip(b[j], b[i])]
        return RationalMatrix(b)

    def max_abs(self) -> Fraction:
        """Largest absolute entry; the norm used by convergence tables."""
        return Fraction(max(abs(x) for x in self.num), self.den)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"RationalMatrix([{body}])"


_set_n, _set_num, _set_den = (RationalMatrix.n.__set__, RationalMatrix.num.__set__,
                              RationalMatrix.den.__set__)
