"""Exact rational and cyclotomic arithmetic.

Every algebraic value in this package is either a ``fractions.Fraction`` or a
:class:`Cyclotomic`.  A cyclotomic is stored in the power basis
``1, z, ..., z**(phi(n)-1)`` of ``Q(zeta_n)`` where ``z = exp(2*pi*i/n)`` and
``n`` is the *conductor*: the smallest cyclotomic field containing the value
(``n = 1`` for rationals, and never ``n = 2 mod 4`` since those fields
coincide with a smaller one).  Arithmetic results are reduced modulo the
n-th cyclotomic polynomial and then pushed down to the minimal conductor, so
equality of values is plain equality of the stored data, and the string form
is bit-stable across platforms and runs.

The push down goes one prime at a time, from level n = p*d to level d,
without linear algebra.  When p divides d, Phi_n(x) = Phi_d(x**p), so a
value lies in Q(zeta_d) exactly when every stored exponent is divisible by
p, and its level-d coordinates are c_(p*i).  When p does not divide d,
zeta_n**j = zeta_d**(j*s) * zeta_p**(j*t) with s = 1/p mod d and
t = 1/d mod p; sorting the terms by j*t mod p writes the value as
beta_0 + beta_1*zeta_p + ... + beta_(p-1)*zeta_p**(p-1) with each beta_k
in Q(zeta_d).  Since zeta_p, ..., zeta_p**(p-1) is a basis of Q(zeta_n)
over Q(zeta_d) with sum -1, the value lies in Q(zeta_d) exactly when
beta_1 = ... = beta_(p-1), and then equals beta_0 - beta_1.

The power basis is an integral basis of the ring of integers of Q(zeta_n),
so a value is an algebraic integer exactly when all stored coefficients are
integers; `algebraic_p_part` nevertheless re-validates integrality through
the characteristic polynomial, which is the authoritative test.

`field_fingerprint` and `algebraic_p_part` are pure functions of an
immutable, hashable value, so each is memoized for the life of the process
by a `functools.lru_cache` of at most `INVARIANT_MEMO_SIZE` arguments,
least recently used out first.  The memo is `typed`: a rational Cyclotomic
equals and hashes like the int or Fraction of the same value, and the two
never share an entry.  The results are frozen dataclasses, shared by every
caller; the cross-checks inside `algebraic_p_part` run once per distinct
argument.  A computation that must not trust the memo, such as the
re-verification of a failed comparison in `conjectures`, calls the
unmemoized functions, ``field_fingerprint.__wrapped__`` and
``algebraic_p_part.__wrapped__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import EngineDefect, InvalidArgument

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ----------------------------------------------------------------------
# Elementary number theory helpers.

def p_adic_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n nonzero, p >= 2)."""
    if n == 0:
        raise InvalidArgument("valuation of 0 is undefined")
    if p < 2:
        raise InvalidArgument(f"valuation at {p} is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n (n nonzero)."""
    return p ** p_adic_valuation(n, p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the first 13 primes as bases.

    Those bases decide every n below 3.3 * 10**24 (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017); above
    that the answer would only be probable, so such an n is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n >= 3317044064679887385961981:
        raise InvalidArgument(f"primality of {n} is not decided above 3.3e24")
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_of_power(n: int) -> int | None:
    """The prime p when n = p**e with e >= 1, else None."""
    primes = prime_factors(n)
    return primes[0] if len(primes) == 1 else None


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    # (x**n - 1) divided by the cyclotomic polynomials of all proper divisors.
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (raises if not exact)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise EngineDefect("inexact cyclotomic polynomial division")
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise EngineDefect("inexact cyclotomic polynomial division")
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each j < n, the expansion of x**j modulo the n-th cyclotomic
    polynomial as sparse ``(exponent, integer)`` pairs with exponent < phi(n).
    """
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rows: list[dict[int, int]] = [{j: 1} for j in range(deg)]
    for j in range(deg, n):
        shifted: dict[int, int] = {e + 1: c for e, c in rows[j - 1].items()}
        top = shifted.pop(deg, 0)
        if top:
            # x**deg == -(lower coefficients of the cyclotomic polynomial)
            for e in range(deg):
                c = phi_poly[e]
                if c:
                    shifted[e] = shifted.get(e, 0) - top * c
        rows.append({e: c for e, c in shifted.items() if c})
    return tuple(tuple(sorted(r.items())) for r in rows)


def _canonical_at_level(n: int, exps: dict[int, Fraction]) -> dict[int, Fraction]:
    """Reduce a sum of c*zeta_n**j terms into the power basis at level n."""
    rows = _reduction_rows(n)
    out: dict[int, Fraction] = {}
    for j, c in exps.items():
        if not c:
            continue
        for e, m in rows[j % n]:
            v = out.get(e, _ZERO) + c * m
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _galois_dict(n: int, coeffs: dict[int, Fraction], k: int) -> dict[int, Fraction]:
    """Image of a canonical level-n coefficient dict under zeta -> zeta**k."""
    return _canonical_at_level(n, {(j * k) % n: c for j, c in coeffs.items()})


def _downconvert(n: int, coeffs: dict[int, Fraction], d: int) -> dict[int, Fraction] | None:
    """Rewrite a canonical level-n value in the level-d basis (n = p*d with
    p prime), or None when it does not lie in Q(zeta_d)."""
    p = n // d
    if d % p == 0:
        # Phi_n(x) = Phi_d(x**p), so Q(zeta_d) is spanned by the z**(p*i).
        if any(j % p for j in coeffs):
            return None
        return {j // p: c for j, c in coeffs.items()}
    # zeta_n**j = zeta_d**(j*s) * zeta_p**(j*t): sort the terms into
    # beta_0, ..., beta_(p-1) by their power of zeta_p (see the module
    # docstring); the value lies in Q(zeta_d) iff beta_1 = ... = beta_(p-1).
    s, t = pow(p, -1, d), pow(d, -1, p)
    parts: list[dict[int, Fraction]] = [{} for _ in range(p)]
    for j, c in coeffs.items():
        parts[j * t % p][j * s % d] = c
    beta = _canonical_at_level(d, parts[1])
    if any(_canonical_at_level(d, part) != beta for part in parts[2:]):
        return None
    diff = parts[0]
    for e, c in beta.items():
        diff[e] = diff.get(e, _ZERO) - c
    return _canonical_at_level(d, diff)


def _reduce_conductor(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Push a canonical level-n value into its minimal cyclotomic field."""
    if not coeffs:
        return 1, {}
    while n > 1:
        for p in prime_factors(n):
            down = _downconvert(n, coeffs, n // p)
            if down is not None:
                n, coeffs = n // p, down
                break
        else:
            break
    return n, coeffs


class Cyclotomic:
    """An element of some Q(zeta_n), stored in canonical form.

    Instances are immutable and hashable; `==` is exact mathematical
    equality.  Mixed arithmetic with ints and Fractions is supported.
    """

    __slots__ = ("conductor", "_coeffs", "_hash")

    def __init__(self, conductor: int, coeffs: dict[int, Fraction], _canonical: bool = False):
        if not _canonical:
            coeffs = {j: Fraction(c) for j, c in coeffs.items()}
            coeffs = _canonical_at_level(conductor, coeffs)
            conductor, coeffs = _reduce_conductor(conductor, coeffs)
        self.conductor = conductor
        self._coeffs = coeffs
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        q = Fraction(q)
        return cls(1, {0: q} if q else {}, _canonical=True)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n**k."""
        if n < 1:
            raise InvalidArgument("conductor must be positive")
        return cls(n, {k % n: _ONE})

    @classmethod
    def _coerce(cls, x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")

    # -- predicates and accessors ----------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise InvalidArgument("value is irrational")
        return self._coeffs.get(0, _ZERO)

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            other = Cyclotomic._coerce(other)
        except TypeError:
            return NotImplemented
        if self.conductor == other.conductor:
            merged = dict(self._coeffs)
            for j, c in other._coeffs.items():
                v = merged.get(j, _ZERO) + c
                if v:
                    merged[j] = v
                else:
                    merged.pop(j, None)
            n, merged = _reduce_conductor(self.conductor, merged)
            return Cyclotomic(n, merged, _canonical=True)
        n = lcm(self.conductor, other.conductor)
        exps: dict[int, Fraction] = {}
        for val in (self, other):
            step = n // val.conductor
            for j, c in val._coeffs.items():
                e = j * step
                exps[e] = exps.get(e, _ZERO) + c
        return Cyclotomic(n, exps)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, {j: -c for j, c in self._coeffs.items()}, _canonical=True)

    def __sub__(self, other):
        try:
            other = Cyclotomic._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Cyclotomic.from_rational(0)
            return Cyclotomic(
                self.conductor, {j: c * q for j, c in self._coeffs.items()}, _canonical=True
            )
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == 1:
            return other * self.rational_value()
        if other.conductor == 1:
            return self * other.rational_value()
        n = lcm(self.conductor, other.conductor)
        s1, s2 = n // self.conductor, n // other.conductor
        exps: dict[int, Fraction] = {}
        for j1, c1 in self._coeffs.items():
            e1 = j1 * s1
            for j2, c2 in other._coeffs.items():
                e = (e1 + j2 * s2) % n
                v = exps.get(e, _ZERO) + c1 * c2
                if v:
                    exps[e] = v
                else:
                    exps.pop(e, None)
        return Cyclotomic(n, exps)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Cyclotomic.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- Galois -----------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Image under zeta_n -> zeta_n**k; k must be coprime to the conductor."""
        n = self.conductor
        if n == 1:
            return self
        k %= n
        if gcd(k, n) != 1:
            raise InvalidArgument(f"{k} is not coprime to the conductor {n}")
        if k == 1:
            return self
        # Galois images stay in the same (abelian, hence normal) subfield,
        # so the conductor is unchanged and no reduction pass is needed.
        return Cyclotomic(n, _galois_dict(n, self._coeffs, k), _canonical=True)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.rational_value() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self._coeffs == other._coeffs

    def __hash__(self):
        if self._hash is None:
            if self.conductor == 1:
                # rationals compare equal to ints/Fractions, so hash like them
                self._hash = hash(self._coeffs.get(0, _ZERO))
            else:
                self._hash = hash((self.conductor, tuple(sorted(self._coeffs.items()))))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def to_string(self) -> str:
        """Canonical serialisation: ``c_<n>(k1:q1,k2:q2,...)``, exponents sorted."""
        body = ",".join(f"{j}:{c}" for j, c in sorted(self._coeffs.items()))
        return f"c_{self.conductor}({body})"

    __repr__ = to_string


# ----------------------------------------------------------------------
# Algebraic integers as integer terms at one common level.

def integer_terms(alpha: Cyclotomic, e: int) -> tuple[tuple[int, int], ...]:
    """An algebraic integer alpha of conductor c | e as pairs (t, m) with
    alpha = sum m * zeta_e**t.  Since zeta_c**j = zeta_e**(j*e/c) this is
    exact, and the power basis is integral, so a stored coefficient that is
    not an integer is a defect of whatever produced alpha."""
    c = alpha.conductor
    if e % c:
        raise InvalidArgument(f"value of conductor {c} does not lie in Q(zeta_{e})")
    step = e // c
    terms = []
    for j, m in alpha._coeffs.items():
        if m.denominator != 1:
            raise EngineDefect(f"{alpha} is not an algebraic integer")
        terms.append((j * step, m.numerator))
    return tuple(terms)


def reduce_at_level(e: int, acc: list[int]) -> list[int]:
    """Power-basis coordinates at level e of sum acc[t] * zeta_e**t: the
    residue of the integer polynomial modulo the e-th cyclotomic polynomial."""
    rows = _reduction_rows(e)
    out = [0] * (len(cyclotomic_polynomial(e)) - 1)
    for t, m in enumerate(acc):
        if m:
            for k, r in rows[t]:
                out[k] += m * r
    return out


# ----------------------------------------------------------------------
# Field fingerprints and p-parts.

@dataclass(frozen=True)
class FieldFingerprint:
    """Identifies the field Q(alpha) inside Q(zeta_m) by the Galois
    subgroup fixing alpha.  Fingerprints at the same modulus are equal
    exactly when the generated fields are equal."""

    modulus: int
    stabilizer: tuple[int, ...]


@dataclass(frozen=True)
class PPart:
    """The value p**exponent; exponent may be a proper fraction for
    algebraic integers of degree > 1."""

    prime: int
    exponent: Fraction


def _require_cyclotomic(alpha) -> None:
    """Refuse an argument that is not a Cyclotomic, such as the int or
    Fraction of the same value, which the memo keeps apart."""
    if not isinstance(alpha, Cyclotomic):
        raise InvalidArgument(f"expected a Cyclotomic, got {type(alpha).__name__} {alpha!r}")


# Arguments held by each invariant memo (see the module docstring).
INVARIANT_MEMO_SIZE = 4096


@lru_cache(maxsize=INVARIANT_MEMO_SIZE, typed=True)
def field_fingerprint(alpha: Cyclotomic, m: int) -> FieldFingerprint:
    """Fingerprint of Q(alpha) at modulus m; requires alpha in Q(zeta_m).
    Memoized (see the module docstring)."""
    _require_cyclotomic(alpha)
    if m < 1:
        raise InvalidArgument("modulus must be positive")
    c = alpha.conductor
    if m % c:
        raise InvalidArgument(f"value of conductor {c} does not lie in Q(zeta_{m})")
    if c == 1:
        stab_c = None  # everything fixes a rational
    else:
        stab_c = {k for k in range(1, c) if gcd(k, c) == 1 and alpha.galois(k) == alpha}
    stab = []
    for k in range(1, m + 1):
        if gcd(k, m) != 1:
            continue
        if stab_c is None or (k % c) in stab_c:
            stab.append(k % m)
    return FieldFingerprint(m, tuple(sorted(stab)))


@lru_cache(maxsize=INVARIANT_MEMO_SIZE, typed=True)
def algebraic_p_part(alpha: Cyclotomic, p: int) -> PPart:
    """p-part of a nonzero algebraic integer at a prime p: the p-part of the
    absolute field norm, taken to the power 1/[Q(alpha):Q].  Memoized (see the
    module docstring)."""
    _require_cyclotomic(alpha)
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not a prime")
    if alpha.is_zero():
        raise InvalidArgument("the p-part of 0 is undefined")
    c = alpha.conductor
    conjugates: list[Cyclotomic] = []
    seen = set()
    for k in range(1, c + 1):
        if gcd(k, c) != 1:
            continue
        img = alpha.galois(k)
        if img not in seen:
            seen.add(img)
            conjugates.append(img)
    degree = len(conjugates)
    # Characteristic (= minimal) polynomial: prod (X - sigma(alpha)).
    poly: list[Cyclotomic] = [Cyclotomic.from_rational(1)]
    for img in conjugates:
        nxt = [Cyclotomic.from_rational(0)] * (len(poly) + 1)
        for i, coef in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + coef
            nxt[i] = nxt[i] - img * coef
        poly = nxt
    for coef in poly:
        if not coef.is_rational():
            raise EngineDefect("characteristic polynomial has irrational coefficient")
    if not all(coef.rational_value().denominator == 1 for coef in poly):
        raise InvalidArgument("value is not an algebraic integer")
    # The constant term is (-1)**degree times the field norm.
    norm = int(poly[0].rational_value())
    if norm == 0:
        raise EngineDefect("field norm of a nonzero algebraic integer is 0")
    return PPart(p, Fraction(p_adic_valuation(norm, p), degree))
