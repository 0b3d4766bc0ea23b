"""Exact cyclotomic arithmetic: canonical forms, Galois action, conductor
descent, field fingerprints, and p-parts of algebraic integers."""

import random
from fractions import Fraction
from itertools import takewhile
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickylab.errors import EngineDefect, InvalidArgument
from pickylab.exactnum import (
    Cyclotomic,
    _canonical_at_level,
    _downconvert,
    _galois_dict,
    _reduce_conductor,
    _reduction_rows,
    algebraic_p_part,
    cyclotomic_polynomial,
    field_fingerprint,
    integer_terms,
    is_prime,
    p_adic_valuation,
    prime_factors,
    reduce_at_level,
)


def rat(x):
    return Cyclotomic.from_rational(x)


class TestBasicNumberTheory:
    def test_valuation(self):
        assert p_adic_valuation(24, 2) == 3
        assert p_adic_valuation(24, 3) == 1
        assert p_adic_valuation(7, 2) == 0

    @pytest.mark.parametrize("p", [-2, -1, 0, 1])
    def test_valuation_needs_a_base_of_at_least_two(self, p):
        with pytest.raises(InvalidArgument):
            p_adic_valuation(24, p)

    def test_primes(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert prime_factors(360) == (2, 3, 5)

    def test_is_prime_agrees_with_trial_division(self):
        primes = []
        for n in range(2 * 10**5):
            # Trial division by the primes up to sqrt(n), found in order.
            prime = n >= 2 and all(n % q for q in takewhile(lambda q: q * q <= n, primes))
            if prime:
                primes.append(n)
            assert is_prime(n) == prime, n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes_are_decided(self):
        assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
        assert not is_prime(1000003 * (2**61 - 1))

    @pytest.mark.parametrize("n", [3317044064679887385961981, 2**89 - 1, 2**90])
    def test_no_probable_answer_above_the_deterministic_bound(self, n):
        with pytest.raises(InvalidArgument, match="not decided"):
            is_prime(n)

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        # Phi_12 = x^4 - x^2 + 1
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


class TestGaloisApply:
    def test_complex_conjugation_on_i(self):
        i = Cyclotomic.zeta(4)
        assert i.galois(3) == -i

    def test_rationals_are_fixed(self):
        assert rat(5).galois(7) == rat(5)

    def test_sqrt2_negated_by_sigma3(self):
        # Independent oracle: reduce x^3 + x^5 modulo x^4 + 1 by hand.
        # zeta_8 + zeta_8^-1 = zeta + zeta^7; zeta^7 = -zeta^3, so the
        # canonical form is zeta - zeta^3.  sigma_3 sends it to
        # zeta^3 + zeta^5 = zeta^3 - zeta, the negative.
        s2 = Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
        assert s2.coefficients() == {1: Fraction(1), 3: Fraction(-1)}
        assert s2.galois(3) == -s2

    def test_requires_coprime(self):
        with pytest.raises(InvalidArgument):
            Cyclotomic.zeta(8).galois(2)

    @given(st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_action_composes(self, k, l):
        alpha = Cyclotomic.zeta(8) + 2 * Cyclotomic.zeta(8, 3) - rat(Fraction(1, 2))
        if k % 2 == 0 or l % 2 == 0:
            return
        lhs = alpha.galois(k).galois(l)
        rhs = alpha.galois((k * l) % 8)
        assert lhs == rhs


class TestCanonicalForm:
    def test_conductor_is_minimal(self):
        # zeta_12^2 = zeta_6 lives in Q(zeta_3).
        z = Cyclotomic.zeta(12, 2)
        assert z.conductor == 3
        # A full sum of primitive roots collapses to an integer.
        s = rat(0)
        for k in range(1, 5):
            s = s + Cyclotomic.zeta(5, k)
        assert s == rat(-1)

    def test_zero_and_rationals(self):
        z = Cyclotomic.zeta(5) - Cyclotomic.zeta(5)
        assert z.is_zero() and z.conductor == 1
        assert z.to_string() == "c_1()"
        assert rat(Fraction(-3, 2)).to_string() == "c_1(0:-3/2)"

    def test_serialization_is_sorted_and_reduced(self):
        s2 = Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
        assert s2.to_string() == "c_8(1:1,3:-1)"

    @given(
        st.sampled_from([1, 3, 4, 5, 8, 12]),
        st.dictionaries(st.integers(0, 11), st.fractions(max_denominator=6), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_canonicalization_is_idempotent(self, n, coeffs):
        alpha = Cyclotomic(n, {k % n: c for k, c in coeffs.items()})
        again = Cyclotomic(alpha.conductor, alpha.coefficients())
        assert again == alpha
        assert again.conductor == alpha.conductor

    @given(
        st.sampled_from([3, 4, 8]),
        st.dictionaries(st.integers(0, 7), st.integers(-4, 4), max_size=3),
        st.dictionaries(st.integers(0, 7), st.integers(-4, 4), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_laws_on_samples(self, n, d1, d2):
        a = Cyclotomic(n, {k % n: Fraction(c) for k, c in d1.items()})
        b = Cyclotomic(n, {k % n: Fraction(c) for k, c in d2.items()})
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a


class TestIntegerTerms:
    @given(
        st.sampled_from([1, 3, 4, 5, 8, 12]),
        st.sampled_from([1, 2, 3, 5]),
        st.dictionaries(st.integers(0, 11), st.integers(-4, 4), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_lift_is_exact(self, n, factor, coeffs):
        alpha = Cyclotomic(n, {k % n: Fraction(c) for k, c in coeffs.items()})
        e = alpha.conductor * factor
        terms = dict(integer_terms(alpha, e))
        assert Cyclotomic(e, {t: Fraction(m) for t, m in terms.items()}) == alpha

    @given(
        st.integers(2, 30).flatmap(
            lambda e: st.tuples(
                st.just(e),
                st.lists(st.integers(-5, 5), min_size=e, max_size=e),
                st.sampled_from(prime_factors(e)),
                st.integers(-3, 3),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_reduction_matches_the_canonical_form(self, case):
        e, acc, q, k = case
        reduced = reduce_at_level(e, acc)
        expected = _canonical_at_level(e, {t: Fraction(m) for t, m in enumerate(acc)})
        assert {i: Fraction(m) for i, m in enumerate(reduced) if m} == expected
        # Adding k times the sum of the q-th roots of unity changes nothing.
        shifted = [m + k * (t % (e // q) == 0) for t, m in enumerate(acc)]
        assert reduce_at_level(e, shifted) == reduced

    def test_sum_of_the_cube_roots_of_unity_reduces_to_zero(self):
        assert reduce_at_level(3, [1, 1, 1]) == [0, 0]
        assert reduce_at_level(6, [1, 0, 1, 0, 1, 0]) == [0, 0]
        assert reduce_at_level(6, [1, 1, 1, 1, 1, 1]) == [0, 0]
        assert reduce_at_level(4, [1, 0, 1, 0]) == [0, 0]
        assert reduce_at_level(4, [1, 1, 0, 0]) == [1, 1]

    def test_non_integer_coefficient_is_a_defect(self):
        with pytest.raises(EngineDefect, match="not an algebraic integer"):
            integer_terms(Cyclotomic.zeta(3) * Fraction(1, 2), 6)

    def test_level_must_be_a_multiple_of_the_conductor(self):
        with pytest.raises(InvalidArgument):
            integer_terms(Cyclotomic.zeta(3), 4)


# Definition-level conductor descent: the oracle for the relative-basis rule
# of `_downconvert`.  Membership in Q(zeta_d) is decided twice, by fixity
# under Gal(Q(zeta_n)/Q(zeta_d)) and by solving for level-d coordinates with
# Gauss-Jordan elimination over Fractions, and the two must agree.

def galois_fixed(n, coeffs, d):
    """Whether the level-n value is fixed by every zeta_n -> zeta_n**k with
    k = 1 mod d and gcd(k, n) = 1, i.e. lies in Q(zeta_d)."""
    return all(
        _galois_dict(n, coeffs, k) == coeffs for k in range(1 + d, n, d) if gcd(k, n) == 1
    )


def solve_in_subfield(n, coeffs, d):
    """Coordinates of the level-n value in the level-d power basis, found by
    Gauss-Jordan elimination over the level-n images of that basis, or None.
    Row e of the augmented system holds the coefficients of z**e: column i
    for the basis element z**((n/d)*i), column ncols for the value."""
    rows = _reduction_rows(n)
    ncols = len(cyclotomic_polynomial(d)) - 1
    aug = [{} for _ in range(len(cyclotomic_polynomial(n)) - 1)]
    for i in range(ncols):
        for e, m in rows[n // d * i]:
            aug[e][i] = Fraction(m)
    for e, c in coeffs.items():
        aug[e][ncols] = c
    pivots = []
    for col in range(ncols):
        k = next((k for k, row in enumerate(aug) if col in row), None)
        if k is None:
            continue
        inv = 1 / aug[k][col]
        piv = {c: x * inv for c, x in aug.pop(k).items()}
        for row in aug + [r for _, r in pivots]:
            f = row.get(col)
            if f:
                for c, b in piv.items():
                    v = row.get(c, 0) - f * b
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        pivots.append((col, piv))
    if any(ncols in row for row in aug):
        return None
    return {col: row[ncols] for col, row in pivots if ncols in row}


def definition_downconvert(n, coeffs, d):
    down = solve_in_subfield(n, coeffs, d)
    assert galois_fixed(n, coeffs, d) == (down is not None)
    return down


def definition_reduce(n, coeffs):
    while coeffs and n > 1:
        for p in prime_factors(n):
            down = definition_downconvert(n, coeffs, n // p)
            if down is not None:
                n, coeffs = n // p, down
                break
        else:
            break
    return (n, coeffs) if coeffs else (1, {})


def divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


# Every level up to 130 (n = 2 mod 4 included: the Fourier lift builds
# Cyclotomic(6, ...) at an order-6 class) and every divisor of exp(S8) = 840.
DESCENT_LEVELS = sorted(set(range(1, 131)) | set(divisors(840)))


def descent_samples(n):
    """One value at level n lying in Q(zeta_m) for each m | n, so that every
    descent the level allows occurs."""
    rng = random.Random(n)
    values = []
    for m in divisors(n):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.randrange(m) * (n // m)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        values.append(_canonical_at_level(n, terms))
    return values


@pytest.mark.parametrize("n", DESCENT_LEVELS)
def test_descent_matches_definition(n):
    for coeffs in descent_samples(n):
        for p in prime_factors(n):
            assert _downconvert(n, dict(coeffs), n // p) == definition_downconvert(
                n, coeffs, n // p
            )
        conductor, reduced = _reduce_conductor(n, dict(coeffs))
        assert (conductor, reduced) == definition_reduce(n, coeffs)
        assert conductor % 4 != 2


class TestFieldFingerprint:
    def test_rational_has_full_stabilizer(self):
        assert field_fingerprint(rat(1), 8).stabilizer == (1, 3, 5, 7)

    def test_i_generates_all_of_q_zeta4(self):
        assert field_fingerprint(Cyclotomic.zeta(4), 4).stabilizer == (1,)

    def test_sqrt2_fixed_by_conjugation_only(self):
        s2 = Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7)
        assert field_fingerprint(s2, 8).stabilizer == (1, 7)

    def test_requires_containment(self):
        with pytest.raises(InvalidArgument):
            field_fingerprint(Cyclotomic.zeta(8), 4)

    def test_functoriality(self):
        # The stabilizer at modulus m is the preimage of the stabilizer
        # at the conductor under reduction mod the conductor.
        from math import gcd

        for alpha in [Cyclotomic.zeta(4), Cyclotomic.zeta(3) + rat(2), rat(7)]:
            c = alpha.conductor
            for m in [c, 2 * c, 4 * c, 12 * c // gcd(12, c) * gcd(12, c)]:
                fp = field_fingerprint(alpha, m)
                stab_c = {
                    k for k in range(1, max(c, 2)) if gcd(k, c) == 1 and alpha.galois(k) == alpha
                } or {1}
                expected = tuple(
                    sorted(
                        k % m
                        for k in range(1, m + 1)
                        if gcd(k, m) == 1 and (c == 1 or (k % c) in stab_c)
                    )
                )
                assert fp.stabilizer == expected


class TestAlgebraicPPart:
    def test_rational_integers(self):
        assert algebraic_p_part(rat(4), 2).exponent == 2
        assert algebraic_p_part(rat(3), 2).exponent == 0

    def test_one_plus_i(self):
        alpha = rat(1) + Cyclotomic.zeta(4)
        pp = algebraic_p_part(alpha, 2)
        assert pp.exponent == Fraction(1, 2)

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            algebraic_p_part(rat(0), 2)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidArgument):
            algebraic_p_part(rat(Fraction(1, 2)), 2)

    @pytest.mark.parametrize("p", [4, 6, 1, 0, -2])
    def test_non_prime_is_refused(self, p):
        with pytest.raises(InvalidArgument, match="is not a prime"):
            algebraic_p_part(Cyclotomic.from_rational(8), p)

    def test_norm_multiplicativity_rational(self):
        for a, b in [(4, 6), (3, 8), (10, 35)]:
            for p in (2, 3, 5):
                e = algebraic_p_part(rat(a * b), p).exponent
                assert e == algebraic_p_part(rat(a), p).exponent + algebraic_p_part(rat(b), p).exponent

    def test_norm_multiplicativity_gaussian(self):
        i = Cyclotomic.zeta(4)
        samples = [rat(1) + i, rat(2) - i, rat(3) + 2 * i]
        for a in samples:
            for b in samples:
                prod = a * b
                for p in (2, 5):
                    e = algebraic_p_part(prod, p).exponent
                    assert e == algebraic_p_part(a, p).exponent + algebraic_p_part(b, p).exponent


class TestInvariantMemos:
    @pytest.mark.parametrize("memo", [field_fingerprint, algebraic_p_part])
    def test_memo_is_bounded_and_typed(self, memo):
        params = memo.cache_parameters()
        assert params["maxsize"] is not None and params["typed"]

    def test_rational_cyclotomic_and_equal_int_do_not_share_an_entry(self):
        # They compare and hash equal, so an untyped memo would answer the
        # int from the Cyclotomic's entry; typed, the int is a new argument.
        value = Cyclotomic.from_rational(96)
        assert value == 96 and hash(value) == hash(96)
        for memo, args in ((algebraic_p_part, (2,)), (field_fingerprint, (4,))):
            memo(value, *args)
            before = memo.cache_info()
            assert memo(value, *args) == memo(value, *args)
            with pytest.raises(InvalidArgument):
                memo(96, *args)  # an int is no Cyclotomic: a miss, then refused
            after = memo.cache_info()
            assert (after.hits, after.misses) == (before.hits + 2, before.misses + 1)

    @pytest.mark.parametrize("value", [96, Fraction(1, 2), 2.5, "1", None])
    def test_non_cyclotomic_arguments_are_refused(self, value):
        for memo, args in ((field_fingerprint, (4,)), (algebraic_p_part, (2,))):
            for fn in (memo, memo.__wrapped__):
                with pytest.raises(InvalidArgument, match="expected a Cyclotomic"):
                    fn(value, *args)
