"""Truncated power series arithmetic.

A series is stored as coefficients ``c[0] + c[1] t + ... + c[order] t**order``;
higher orders are unknown, not zero, so binary operations truncate to the
shorter operand. Coefficients may be floats, Fractions, or anything with
field arithmetic; mixed use is the caller's responsibility.

This is the engine behind every boundary computation in the package: Taylor
data of structure profiles, deflated ODE coefficients near t = 0, and the
order-by-order balance of singular initial value problems.
"""

from __future__ import annotations

from fractions import Fraction


class PowerSeries:
    """Taylor polynomial with truncation-order bookkeeping.

    ``PowerSeries([a, b, c])`` represents a + b t + c t^2 + O(t^3);
    ``ps[k]`` is the t^k coefficient and ``ps(t)`` evaluates by Horner.

    A declared ``parity`` ("even" or "odd") makes the coefficients floats
    that must respect it: violations above a relative 1e-9 are rejected,
    smaller ones are zeroed.  Arithmetic results carry no parity.
    """

    __slots__ = ("c", "parity")

    def __init__(self, coeffs, order=None, parity="none"):
        if parity not in ("even", "odd", "none"):
            raise ValueError("parity must be even, odd or none")
        if isinstance(coeffs, PowerSeries):
            coeffs = coeffs.c
        c = list(coeffs)
        if not c:
            raise ValueError("empty coefficient list")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(c) > order + 1:
                c = c[: order + 1]
            else:
                c = c + [0 * c[0]] * (order + 1 - len(c))
        if parity != "none":
            c = [float(x) for x in c]
            scale = max(abs(x) for x in c) or 1.0
            bad = 1 if parity == "even" else 0
            for k in range(bad, len(c), 2):
                if abs(c[k]) > 1e-9 * scale:
                    raise ValueError(
                        "coefficient %d violates %s parity" % (k, parity))
                c[k] = 0.0
        self.c = c
        self.parity = parity

    @property
    def order(self):
        return len(self.c) - 1

    def __len__(self):
        return len(self.c)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.c[k]
        return self.c[k] if 0 <= k <= self.order else 0 * self.c[0]

    def __iter__(self):
        return iter(self.c)

    def __repr__(self):
        return "PowerSeries(%r)" % (self.c,)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.c == other.c

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return PowerSeries([-a for a in self.c])

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries([self.c[k] + other.c[k] for k in range(n + 1)])
        c = list(self.c)
        c[0] = c[0] + other
        return PowerSeries(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = []
            for k in range(n + 1):
                s = self.c[0] * other.c[k]
                for i in range(1, k + 1):
                    s = s + self.c[i] * other.c[k - i]
                out.append(s)
            return PowerSeries(out)
        return PowerSeries([a * other for a in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries([a / other for a in self.c])
        if other.c[0] == 0:
            # strip a common factor of t from both operands
            if self.c[0] == 0 and len(self.c) > 1 and len(other.c) > 1:
                return PowerSeries(self.c[1:]) / PowerSeries(other.c[1:])
            raise ZeroDivisionError("division by a series vanishing at 0")
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            s = self.c[k]
            for i in range(k):
                s = s - out[i] * other.c[k - i]
            out.append(s / other.c[0])
        return PowerSeries(out)

    def __rtruediv__(self, other):
        num = [0 * self.c[0]] * len(self.c)
        num[0] = num[0] + other
        return PowerSeries(num) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers; use sqrt/exp for the rest")
        if n < 0:
            return 1 / (self ** (-n))
        out = PowerSeries([1 if not isinstance(self.c[0], Fraction)
                           else Fraction(1)], order=self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus ----------------------------------------------------------

    def deriv(self):
        if self.order == 0:
            return PowerSeries([0 * self.c[0]])
        return PowerSeries([k * self.c[k] for k in range(1, self.order + 1)])

    def integ(self):
        """Antiderivative vanishing at 0 (order grows by one)."""
        out = [0 * self.c[0]]
        for k, a in enumerate(self.c):
            out.append(a / (k + 1))
        return PowerSeries(out)

    def shift_down(self, m):
        """Divide by t^m, requiring the first m coefficients to vanish."""
        for k in range(m):
            if self.c[k] != 0:
                raise ValueError("coefficient of t^%d is nonzero" % k)
        return PowerSeries(self.c[m:])

    # -- analytic functions (composition with Taylor of the outer map) -----

    def exp(self):
        import math

        f0 = math.exp(float(self.c[0]))
        # exp(c0 + u) = exp(c0) * sum u^k / k!
        u = PowerSeries([0.0] + [float(a) for a in self.c[1:]])
        out = PowerSeries([1.0], order=self.order)
        term = PowerSeries([1.0], order=self.order)
        for k in range(1, self.order + 1):
            term = term * u / k
            out = out + term
        return f0 * out

    def sqrt(self):
        """Square root via the binomial series about the constant term."""
        import math

        a0 = self.c[0]
        if a0 <= 0:
            raise ValueError("sqrt needs a positive constant term")
        r0 = math.sqrt(float(a0))
        u = self / a0 - 1
        out = PowerSeries([1.0], order=self.order)
        term = PowerSeries([1.0], order=self.order)
        half = 0.5
        coef = 1.0
        for k in range(1, self.order + 1):
            coef = coef * (half - (k - 1)) / k
            term = term * u
            out = out + coef * term
        return r0 * out

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """Value at a number t, or the composition with a series t."""
        out = self.c[-1]
        if isinstance(t, PowerSeries):
            out = ps_const(out, t.order)
        for a in reversed(self.c[:-1]):
            out = out * t + a
        return out


def ps_var(order, one=1.0):
    """The series of the independent variable t itself."""
    z = 0 * one
    return PowerSeries([z, one], order=order)


def ps_const(value, order):
    return PowerSeries([value], order=order)
