"""Exact su(2)-valued exterior calculus over the coframe of R^4 x S^3.

The coframe basis is fixed, in this order, as

    e^0 = dt,  e^1..e^3 = eta_1^+, eta_2^+, eta_3^+,
               e^4..e^6 = eta_1^-, eta_2^-, eta_3^-,

and su(2) carries the basis T_1, T_2, T_3 with [T_i, T_j] = 2 eps_{ijk} T_k.
Everything here works unchanged for int, Fraction or float components;
exact input gives exact equality checks for the two curvature routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

BASIS_NAMES = ("dt", "e1+", "e2+", "e3+", "e1-", "e2-", "e3-")
CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


class Su2Vec:
    """Element of su(2) in the T_i basis, component triple."""

    __slots__ = ("x",)

    def __init__(self, *x):
        if len(x) == 1 and isinstance(x[0], (tuple, list, Su2Vec)):
            x = tuple(x[0])
        if len(x) != 3:
            raise ValueError("Su2Vec takes one triple or three components")
        self.x = x

    def __iter__(self):
        return iter(self.x)

    def __getitem__(self, i):
        return self.x[i]

    def __repr__(self):
        return "Su2Vec(%r, %r, %r)" % self.x

    def __eq__(self, other):
        # not tuple ==: its identity shortcut makes a NaN equal itself
        if not isinstance(other, Su2Vec):
            return NotImplemented
        a1, a2, a3 = self.x
        b1, b2, b3 = other.x
        return a1 == b1 and a2 == b2 and a3 == b3

    def __hash__(self):
        return hash(self.x)

    def __add__(self, other):
        a1, a2, a3 = self.x
        b1, b2, b3 = other.x
        return Su2Vec(a1 + b1, a2 + b2, a3 + b3)

    def __sub__(self, other):
        a1, a2, a3 = self.x
        b1, b2, b3 = other.x
        return Su2Vec(a1 - b1, a2 - b2, a3 - b3)

    def __neg__(self):
        a1, a2, a3 = self.x
        return Su2Vec(-a1, -a2, -a3)

    def __mul__(self, s):
        a1, a2, a3 = self.x
        return Su2Vec(a1 * s, a2 * s, a3 * s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Su2Vec(*(a / s for a in self.x))

    def is_zero(self):
        a1, a2, a3 = self.x
        return a1 == 0 and a2 == 0 and a3 == 0

    def norm_inf(self):
        return max(abs(float(a)) for a in self.x)

    @staticmethod
    def basis(i, one):
        """T_i for i in 1..3."""
        if i not in (1, 2, 3):
            raise ValueError("basis index must be 1, 2 or 3")
        z = 0 * one
        return Su2Vec(*(one if k == i else z for k in (1, 2, 3)))


def bracket(u, v):
    """[u, v] = 2 (u x v) under [T_i, T_j] = 2 eps_{ijk} T_k."""
    u1, u2, u3 = u.x
    v1, v2, v3 = v.x
    return Su2Vec(
        2 * (u2 * v3 - u3 * v2),
        2 * (u3 * v1 - u1 * v3),
        2 * (u1 * v2 - u2 * v1),
    )


@cache
def _sort_sign(indices):
    """Canonically sort a covector index tuple.

    Returns (sorted tuple, sign) or None when an index repeats (the wedge
    vanishes).
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


# degree p -> the strictly increasing p-tuples of coframe indices 0..6
_INDICES = {p: frozenset(combinations(range(7), p)) for p in range(8)}


class LieForm:
    """su(2)-valued exterior form with strictly increasing multi-indices.

    ``coeffs`` maps index tuples (length = degree) to Su2Vec; zero
    coefficients are dropped so equality is plain dict equality.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        valid = _INDICES.get(degree)
        if valid is None:
            raise ValueError("degree out of range")
        self.degree = degree
        coeffs = coeffs or {}
        if not valid.issuperset(coeffs):
            bad = next(idx for idx in coeffs if idx not in valid)
            raise ValueError("bad index %r for degree %d" % (bad, degree))
        self.coeffs = {idx: vec for idx, vec in coeffs.items()
                       if not vec.is_zero()}

    def __repr__(self):
        return "LieForm(degree=%d, terms=%d)" % (self.degree, len(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, LieForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for idx, vec in other.coeffs.items():
            out[idx] = out[idx] + vec if idx in out else vec
        return LieForm(self.degree, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, s):
        return LieForm(self.degree, {i: v * s for i, v in self.coeffs.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, *indices):
        """Coefficient of e^{i1} ^ ... ^ e^{ip}, any index order."""
        if len(indices) != self.degree or \
                not all(i in range(7) for i in indices):
            raise ValueError("need %d indices in 0..6, got %r"
                             % (self.degree, indices))
        srt = _sort_sign(indices)
        if srt is None:
            raise ValueError("repeated index")
        idx, sign = srt
        vec = self.coeffs.get(idx)
        if vec is None:
            return Su2Vec(0, 0, 0)
        return sign * vec


# Maurer-Cartan differentials of the coframe: d eta_1^+ =
# -2(eta_2^+ ^ eta_3^+ + eta_2^- ^ eta_3^-), d eta_1^- =
# -2(eta_2^+ ^ eta_3^- + eta_2^- ^ eta_3^+), and cyclic; dt is closed.
_MC = {
    0: (),
    1: (((2, 3), -2), ((5, 6), -2)),
    2: (((1, 3), 2), ((4, 6), 2)),
    3: (((1, 2), -2), ((4, 5), -2)),
    4: (((2, 6), -2), ((3, 5), 2)),
    5: (((3, 4), -2), ((1, 6), 2)),
    6: (((1, 5), -2), ((2, 4), 2)),
}


def exterior_derivative(form):
    """d on forms with constant su(2) coefficients (no d/dt term).

    Uses the Maurer-Cartan table above with the Leibniz sign rule.  Degree 3
    input is refused: the result would need degree-4 bookkeeping nothing in
    this package consumes.
    """
    if form.degree > 2:
        raise ValueError("exterior_derivative supports degree <= 2 only")
    out = {}
    for idx, vec in form.coeffs.items():
        for k, ik in enumerate(idx):
            leib = -1 if k % 2 else 1
            rest = idx[:k] + idx[k + 1:]
            for (a, b), w in _MC[ik]:
                srt = _sort_sign((a, b) + rest)
                if srt is None:
                    continue
                new_idx, sign = srt
                term = vec * (leib * sign * w)
                out[new_idx] = out[new_idx] + term if new_idx in out else term
    return LieForm(form.degree + 1, out)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Invariant connection at fixed t: a = sum a_i^+ eta_i^+ + a_i^- eta_i^-."""

    a_plus: tuple
    a_minus: tuple

    def __post_init__(self):
        if len(self.a_plus) != 3 or len(self.a_minus) != 3:
            raise ValueError("need three coefficients per sign")

    @staticmethod
    def from_diagonal(f_plus, f_minus):
        """a_i^+- = f_i^+- T_i."""
        return ConnectionCoeffs(
            tuple(Su2Vec.basis(i + 1, f_plus[i]) for i in range(3)),
            tuple(Su2Vec.basis(i + 1, f_minus[i]) for i in range(3)))

    def one_form(self):
        out = {}
        for i in range(3):
            if not self.a_plus[i].is_zero():
                out[(i + 1,)] = self.a_plus[i]
            if not self.a_minus[i].is_zero():
                out[(i + 4,)] = self.a_minus[i]
        return LieForm(1, out)


def _direct_parts(conn):
    """(da, (1/2)[a ^ a]): the parts of curvature_direct linear and
    quadratic in a."""
    a = conn.one_form()
    half = {(ia, ib): bracket(ca, cb) for ((ia,), ca), ((ib,), cb)
            in combinations(sorted(a.coeffs.items()), 2)}
    return exterior_derivative(a), LieForm(2, half)


def curvature_direct(conn):
    """Brute force curvature F = da + (1/2)[a ^ a] on the coframe slice.

    Convention: [a ^ a](X, Y) = [a(X), a(Y)] - [a(Y), a(X)], so for
    a = sum c_alpha e^alpha the half-bracket is
    sum_{alpha<beta} [c_alpha, c_beta] e^alpha ^ e^beta.
    """
    d, half = _direct_parts(conn)
    return d + half


def _lemma2_parts(conn):
    """The -2 a terms (linear in a) and the brackets (quadratic) of Lemma 2.

    Terms per cyclic (i, j, k):
      [a_i^+, a_i^-]                 on eta_i^+ ^ eta_i^-
      -2 a_i^+ + [a_j^+, a_k^+]      on eta_j^+ ^ eta_k^+
      -2 a_i^+ + [a_j^-, a_k^-]      on eta_j^- ^ eta_k^-
      -2 a_i^- + [a_j^-, a_k^+]      on eta_j^- ^ eta_k^+
      -2 a_i^- + [a_j^+, a_k^-]      on eta_j^+ ^ eta_k^-
    """
    ap, am = conn.a_plus, conn.a_minus
    lin, quad = {}, {}

    def put(out, ia, ib, vec):
        idx, sign = _sort_sign((ia, ib))
        out[idx] = vec if sign > 0 else -vec

    for i, j, k in CYCLIC:
        put(quad, i, i + 3, bracket(ap[i - 1], am[i - 1]))
        # -2 c_i + [u_j, v_k] on eta_m ^ eta_n
        for m, n, c, u, v in ((j, k, ap, ap, ap), (j + 3, k + 3, ap, am, am),
                              (j + 3, k, am, am, ap), (j, k + 3, am, ap, am)):
            put(lin, m, n, (-2) * c[i - 1])
            put(quad, m, n, bracket(u[j - 1], v[k - 1]))
    return LieForm(2, lin), LieForm(2, quad)


def curvature_lemma2(conn):
    """Closed-form curvature (Lemma 2): the sum of _lemma2_parts."""
    lin, quad = _lemma2_parts(conn)
    return lin + quad


def constraint_value(conn, structure, t):
    """sum_i [a_i^+, a_i^-] / (A_i(t) B_i(t)); vanishes for diagonal data."""
    if t <= 0:
        raise ValueError("constraint is defined for t > 0")
    brackets = [bracket(p, m) for p, m in zip(conn.a_plus, conn.a_minus)]
    total = Su2Vec(0, 0, 0)
    if not all(br.is_zero() for br in brackets):
        A, B, _, _ = structure.frame(t)
        for br, a, b in zip(brackets, A, B):
            if not br.is_zero():
                total = total + br / (a * b)
    return total


def random_rational_connection(rng):
    """Pseudo-random ConnectionCoeffs with small Fraction entries."""
    def frac():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))

    def vec():
        return Su2Vec(frac(), frac(), frac())

    return ConnectionCoeffs(tuple(vec() for _ in range(3)),
                            tuple(vec() for _ in range(3)))
