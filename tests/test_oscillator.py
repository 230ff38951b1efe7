import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from asepx import oscillator
from asepx.oscillator import (
    AMINUS,
    APLUS,
    DivergentTraceError,
    FockTruncation,
    K,
    LETTERS,
    UnbalancedWordError,
    _mode_vector,
    apply_word_to_level,
    multimode_sum_is_zero,
    normal_order,
    s_element,
    s_weight,
    trace_pem,
    trace_qh,
    word_from_str,
    word_imbalance,
    word_to_str,
)
from asepx.scalar import P, RANDOM_POINT_BOUND, Poly, RatFunc, residue

from conftest import (
    exact_action,
    exact_mode_vector,
    exact_sum_is_zero,
    fock_action,
    one_minus_t_pow,
    poly,
    rf,
)


def word_matrix(w, trunc):
    """Oracle: sparse truncated matrix {(row, col): coeff} of a word."""
    out = {}
    for d in range(trunc.dim):
        d2, coeff = fock_action(w, d, trunc.dim)
        if coeff:
            out[(d2, d)] = coeff
    return out


def trace_truncated(w, q0, t0, dim):
    """Oracle: sum_{d < dim - P} q0^d <d|w|d> with P = a+ count."""
    if isinstance(w, str):
        w = word_from_str(w)
    p_count = sum(1 for c in w if c == APLUS)
    total = Fraction(0)
    for d in range(max(dim - p_count, 0)):
        d2, coeff = exact_action(w, d, t0)
        if d2 == d and coeff:
            total += q0**d * coeff
    return total


class TestNormalOrder:
    def test_annihilate_create(self):
        nf = normal_order("-+")
        assert nf == {(0, 0, 0): poly(1), (0, 1, 0): poly(0, -1)}

    def test_create_annihilate_is_one_minus_k_on_fock(self):
        # a+ a- is already normal ordered as a monomial; as an operator
        # on the Fock space it equals 1 - k.
        nf = normal_order("+-")
        assert nf == {(1, 0, 1): poly(1)}
        trunc = FockTruncation(8)
        lhs = word_matrix(word_from_str("+-"), trunc)
        for d in range(7):
            expected = poly(1) - Poly((0,) * d + (1,))
            assert lhs.get((d, d), Poly()) == expected

    def test_two_step_rewrite(self):
        nf = normal_order("-k+")
        assert nf == {(0, 1, 0): poly(0, 1), (0, 2, 0): poly(0, 0, -1)}

    def test_single_rewrite_confluence(self):
        # applying one admissible local rewrite first never changes the
        # normal form
        rng = random.Random(3)
        rewrites = {
            (AMINUS, APLUS): [((), poly(1)), ((K,), poly(0, -1))],
            (K, APLUS): [((APLUS, K), poly(0, 1))],
            (AMINUS, K): [((K, AMINUS), poly(0, 1))],
        }
        for _ in range(200):
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(2, 7)))
            spots = [
                i for i in range(len(w) - 1) if (w[i], w[i + 1]) in rewrites
            ]
            if not spots:
                continue
            i = rng.choice(spots)
            direct = normal_order(w)
            combined: dict = {}
            for middle, coeff in rewrites[(w[i], w[i + 1])]:
                sub = normal_order(w[:i] + middle + w[i + 2 :])
                for key, c in sub.items():
                    cur = combined.get(key, Poly())
                    new = cur + c * coeff
                    if new.is_zero():
                        combined.pop(key, None)
                    else:
                        combined[key] = new
            assert combined == direct

    def test_matches_truncated_matrices(self):
        rng = random.Random(9)
        trunc = FockTruncation(12)
        for _ in range(60):
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(1, 6)))
            p_count = sum(1 for c in w if c == APLUS)
            window = trunc.safe_window(p_count)
            direct = word_matrix(w, trunc)
            nf = normal_order(w)
            summed: dict = {}
            for (p, e, m), coeff in nf.items():
                mono = (APLUS,) * p + (K,) * e + (AMINUS,) * m
                for (r, c), v in word_matrix(mono, trunc).items():
                    cur = summed.get((r, c), Poly())
                    new = cur + v * coeff
                    if new.is_zero():
                        summed.pop((r, c), None)
                    else:
                        summed[(r, c)] = new
            for d in range(window + 1):
                for d2 in range(window + 1):
                    assert direct.get((d2, d), Poly()) == summed.get(
                        (d2, d), Poly()
                    )

    def test_shared_imbalance(self):
        rng = random.Random(31)
        for _ in range(100):
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(1, 7)))
            nf = normal_order(w)
            delta = word_imbalance(w)
            assert all(p - m == delta for (p, _, m) in nf)

    def test_k_persistence_exhaustive(self):
        # every balanced word containing a k has e >= 1 in all its terms
        for length in range(1, 9):
            for w in product("+-k", repeat=length):
                if word_imbalance(w) != 0 or K not in w:
                    continue
                nf = normal_order(w)
                assert all(e >= 1 for (_, e, _) in nf), w


class TestTraceQh:
    def test_single_k_geometric(self):
        q = Fraction(2, 5)
        assert trace_qh((K,), q) == rf(poly(1), poly(1, -q))

    def test_example_word_closed_form(self):
        # (1 - q t^{a+b-1}) tr(q^h a- k^{b-1} a+ a- a+ k^a) equals
        # t^{b-1}(1-t)^2(1+q t^{a+b}) / ((1-q t^{a+b})(1-q t^{a+b+1}))
        q = Fraction(3, 7)
        for alpha, beta in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            word = (
                (AMINUS,)
                + (K,) * (beta - 1)
                + (APLUS, AMINUS, APLUS)
                + (K,) * alpha
            )
            pref = Poly((1,) + (0,) * (alpha + beta - 2) + (-q,))
            lhs = RatFunc(pref) * trace_qh(word, q)
            num = (
                one_minus_t_pow(1)
                * one_minus_t_pow(1)
                * Poly((1,) + (0,) * (alpha + beta - 1) + (q,))
            ).shift(beta - 1)
            den = Poly((1,) + (0,) * (alpha + beta - 1) + (-q,)) * Poly(
                (1,) + (0,) * (alpha + beta) + (-q,)
            )
            assert lhs == RatFunc(num, den)

    def test_hand_summed_series(self):
        # tr(a+ k a-) at q=1: sum_{d>=1} (1-t^d) t^{d-1} = 1/(1-t^2)
        got = trace_qh(word_from_str("+k-"), Fraction(1))
        assert got == rf(poly(1), one_minus_t_pow(2))

    def test_truncation_oracle_agreement(self):
        got = trace_qh(word_from_str("+k-"), Fraction(1)).eval(Fraction(1, 3))
        approx = trace_truncated(word_from_str("+k-"), Fraction(1), Fraction(1, 3), 80)
        assert abs(got - approx) < Fraction(1, 2**60)

    def test_unbalanced_raises(self):
        with pytest.raises(UnbalancedWordError):
            trace_qh((APLUS, K), Fraction(1))

    def test_divergent_at_unit_q(self):
        with pytest.raises(DivergentTraceError):
            trace_qh((), Fraction(1))
        with pytest.raises(DivergentTraceError):
            trace_qh((APLUS, AMINUS), Fraction(1))

    def test_off_unit_q_converges_without_k(self):
        # at q != 1 the k-free balanced word has a finite closed form
        q = Fraction(1, 3)
        got = trace_qh((APLUS, AMINUS), q)
        # sum_d q^d (1 - t^d) = 1/(1-q) - 1/(1-qt)
        expected = rf(poly(Fraction(1, 1 - q))) - rf(poly(1), poly(1, -q))
        assert got == expected


class TestOneReduction:
    """A trace is summed over its exponent map and reduced once."""

    @staticmethod
    def _count_ratfuncs(monkeypatch):
        built = []
        init = RatFunc.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        trace_pem.cache_clear()
        monkeypatch.setattr(RatFunc, "__init__", counting)
        return built

    def test_trace_qh_builds_one_ratfunc(self, monkeypatch):
        built = self._count_ratfuncs(monkeypatch)
        for word in ("k", "+-", "-k+", "+k-k", "-k+-+k", "--k++"):
            built.clear()
            assert trace_qh(word, Fraction(3, 7))
            assert len(built) == 1, word

    def test_s_element_builds_one_ratfunc(self, monkeypatch):
        built = self._count_ratfuncs(monkeypatch)
        i, j = (1, 0, 1, 0, 0), (1, 1, 0, 1, 1)
        nonzero = 0
        for cols in combinations([c for c in range(5) if j[c]], sum(i)):
            a = tuple(int(c in cols) for c in range(5))
            b = tuple(x - y for x, y in zip(j, a))
            built.clear()
            if s_element(Fraction(-2, 5), i, j, a, b):
                nonzero += 1
                assert len(built) == 1, a
        assert nonzero


class TestTraceTruncated:
    def test_tail_bound_fixture(self):
        val = trace_truncated((K,), Fraction(1), Fraction(1, 2), 60)
        assert abs(val - 2) < Fraction(1, 2**58)

    def test_random_words_against_closed_form(self):
        rng = random.Random(17)
        done = 0
        while done < 100:
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(1, 6)))
            if word_imbalance(w) != 0:
                continue
            q0 = Fraction(rng.randint(1, 5), 16)
            t0 = Fraction(rng.randint(1, 5), 16)
            try:
                exact = trace_qh(w, q0).eval(t0)
            except DivergentTraceError:
                continue
            approx = trace_truncated(w, q0, t0, 70)
            # crude geometric tail bound: |terms| <= 2^len(w) (1/2)^d
            tail = Fraction(2 ** len(w), 2 ** (70 - len(w)))
            assert abs(exact - approx) <= tail
            done += 1

    def test_unbalanced_word_is_zero(self):
        for dim in (5, 20, 50):
            assert trace_truncated((APLUS,), Fraction(1, 2), Fraction(1, 3), dim) == 0


class TestSWeight:
    def test_table(self):
        assert s_weight(0, 0, 0, 0) == ()
        assert s_weight(1, 1, 1, 0) == ()
        assert s_weight(0, 0, 1, 1) == (K,)
        assert s_weight(0, 1, 1, 0) == (AMINUS,)
        assert s_weight(1, 0, 0, 0) == (APLUS,)

    def test_census_five_of_sixteen(self):
        nonzero = [
            (i, a, j, b)
            for i, a, j, b in product((0, 1), repeat=4)
            if s_weight(i, a, j, b) is not None
        ]
        assert len(nonzero) == 5
        assert s_weight(1, 1, 1, 1) is None

    def test_strange_conservation(self):
        for i, a, j, b in product((0, 1), repeat=4):
            if s_weight(i, a, j, b) is not None:
                assert a + b == j

    def test_level_line_conservation(self):
        # the level shift of the oscillator factor plus a equals i
        shifts = {(): 0, (K,): 0, (APLUS,): 1, (AMINUS,): -1}
        for i, a, j, b in product((0, 1), repeat=4):
            w = s_weight(i, a, j, b)
            if w is not None:
                assert shifts[w] + a == i


class TestSElement:
    def test_example_general_shape(self):
        q = Fraction(2, 9)
        for alpha, beta in [(1, 1), (2, 2)]:
            a = (1,) + (0,) * (beta - 1) + (0, 1, 0) + (0,) * alpha
            b = (0,) + (1,) * (beta - 1) + (0, 0, 0) + (1,) * alpha
            i = (0,) + (0,) * (beta - 1) + (1, 0, 1) + (0,) * alpha
            j = (1,) + (1,) * (beta - 1) + (0, 1, 0) + (1,) * alpha
            num = (
                one_minus_t_pow(1)
                * one_minus_t_pow(1)
                * Poly((1,) + (0,) * (alpha + beta - 1) + (q,))
            ).shift(beta - 1)
            den = Poly((1,) + (0,) * (alpha + beta - 1) + (-q,)) * Poly(
                (1,) + (0,) * (alpha + beta) + (-q,)
            )
            assert s_element(q, i, j, a, b) == RatFunc(num, den)

    def test_mismatched_rows_vanish(self):
        q = Fraction(1, 2)
        val = s_element(q, (1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 0))
        assert val.is_zero()

    def test_empty_lower_row_is_delta(self):
        q = Fraction(3, 4)
        j = (1, 0, 1, 1)
        zero = (0, 0, 0, 0)
        assert s_element(q, zero, j, zero, j) == rf(poly(1))
        other = (1, 1, 0, 1)
        assert s_element(q, zero, j, zero, other).is_zero()


class TestSerialization:
    def test_word_string_roundtrip(self):
        w = word_from_str("+-kk+")
        assert word_to_str(w) == "+-kk+"

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            word_from_str("+a")

    def test_multimode_pipe_separator(self):
        from asepx.oscillator import multimode_word_to_str

        def multimode_word_from_str(s):
            return tuple(word_from_str(part) for part in s.split("|"))

        words = (word_from_str("+k"), (), word_from_str("-"))
        s = multimode_word_to_str(words)
        assert s == "+k||-"
        assert multimode_word_from_str(s) == words


class TestSafeWindow:
    def test_truncated_equals_exact_on_window(self):
        # matrix elements with all levels within dim - 1 - (a+ count)
        # are unaffected by the truncation
        rng = random.Random(13)
        dim = 9
        for _ in range(80):
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(1, 5)))
            p_count = sum(1 for c in w if c == APLUS)
            window = dim - 1 - p_count
            for d in range(window + 1):
                d_tr, c_tr = fock_action(w, d, dim)
                d_ex, c_ex = fock_action(w, d)
                if d_ex <= window:
                    assert (d_tr, c_tr) == (d_ex, c_ex)


class TestFockTruncation:
    def test_aplus_kills_top_state(self):
        trunc = FockTruncation(4)
        mat = word_matrix((APLUS,), trunc)
        assert (4, 3) not in mat and all(c != 3 for (_, c) in mat)

    def test_action_matches_definition(self):
        # k|d> = t^d|d>, a-|d> = (1-t^d)|d-1>, a+|d> = |d+1>
        for d in range(1, 6):
            d2, c = fock_action((K,), d)
            assert (d2, c) == (d, Poly((0,) * d + (1,)))
            d2, c = fock_action((AMINUS,), d)
            assert d2 == d - 1 and c == poly(1) - Poly((0,) * d + (1,))
            d2, c = fock_action((APLUS,), d)
            assert d2 == d + 1 and c == poly(1)

    def test_point_action_is_the_oracle_at_t0(self):
        rng = random.Random(17)
        t0 = Fraction(2, 7)
        for _ in range(80):
            w = tuple(rng.choice("+-k") for _ in range(rng.randint(0, 6)))
            for d in range(6):
                d2, c = fock_action(w, d)
                assert apply_word_to_level(w, d, residue(t0)) == (d2, residue(c.eval(t0)))

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            FockTruncation(1)


_words = st.lists(st.sampled_from(LETTERS), max_size=5).map(tuple)
_points = st.builds(
    Fraction,
    st.integers(-RANDOM_POINT_BOUND, RANDOM_POINT_BOUND).filter(bool),
    st.integers(1, RANDOM_POINT_BOUND),
)
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# words of imbalance beyond every drawn window (1..4), so that some
# terms have no matrix element on it
_wide_words = st.one_of(
    _words, st.sampled_from([(APLUS,) * 5, (AMINUS,) * 5, (K, AMINUS, AMINUS, AMINUS)])
)


def _term_lists(nmodes):
    """Up to 6 terms whose words come from at most two per mode, so that
    terms share mode words, repeat whole multi-mode words, and give the
    zero test terms to merge."""
    # unit coefficients make cancellations between terms likely
    coeffs = st.one_of(st.sampled_from([1, -1]).map(Fraction), _coeffs)
    choices = st.lists(st.lists(_wide_words, min_size=1, max_size=2),
                       min_size=nmodes, max_size=nmodes)
    return choices.flatmap(lambda per_mode: st.lists(
        st.tuples(coeffs, st.tuples(*map(st.sampled_from, per_mode))),
        min_size=1, max_size=6,
    ))


def _normal_expansion(coeff, words, t0):
    """coeff * words expanded into normal monomials per mode, exact at t0."""
    out = [(coeff, ())]
    for w in words:
        parts = [
            ((APLUS,) * p + (K,) * e + (AMINUS,) * m, c.eval(t0))
            for (p, e, m), c in normal_order(w).items()
        ]
        out = [(c * c2, ws + (w2,)) for c, ws in out for w2, c2 in parts]
    return out


class TestResidueZeroTest:
    """The residue path mod P against the exact Fraction oracle."""

    @settings(max_examples=100, deadline=None)
    @given(_words, st.integers(1, 6), _points)
    def test_mode_vector_is_the_residue_of_the_exact_one(self, w, window, t0):
        shift = word_imbalance(w)
        t = residue(t0)
        for d in range(window + 1):
            d2, c = exact_action(w, d, t0)
            assert apply_word_to_level(w, d, t) == (d2, residue(c))
        if abs(shift) <= window:
            exact = exact_mode_vector(w, shift, window, t0)
            assert _mode_vector(w, shift, window, t) == tuple(map(residue, exact))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(_term_lists),
        st.sampled_from(["random", "zero", "perturbed"]),
        st.integers(1, 4),
        _points,
    )
    # 1 ⊗ k - a+ ⊗ k is not zero, but its two terms cancel if their
    # mode-1 basis coordinates are summed rather than kept apart
    @example([(Fraction(1), ((), (K,))), (Fraction(-1), ((APLUS,), (K,)))],
             "random", 2, Fraction(1, 3))
    def test_zero_test_agrees_with_the_exact_oracle(self, terms, kind, window, t0):
        # "zero" subtracts the normal-ordered expansion of the terms, an
        # exact operator identity; "perturbed" then drops one monomial
        if kind != "random":
            expanded = [x for c, ws in terms for x in _normal_expansion(-c, ws, t0)]
            terms = terms + expanded[: len(expanded) - (kind == "perturbed")]
        exact = exact_sum_is_zero(terms, window, t0)
        if kind == "zero":
            assert exact
        mod_p = [(residue(c), ws) for c, ws in terms]
        assert multimode_sum_is_zero(mod_p, window, residue(t0)) == exact

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(_term_lists), st.integers(1, 4), _points)
    def test_each_mode_word_is_read_at_most_once(self, terms, window, t0):
        reads = []

        def counted(word, shift, window, t):
            reads.append(word)
            return _mode_vector(word, shift, window, t)

        modes_of = {}
        for _, words in terms:
            for mode, word in enumerate(words):
                modes_of.setdefault(word, set()).add(mode)
        mod_p = [(residue(c), ws) for c, ws in terms]
        with patch.object(oscillator, "_mode_vector", counted):
            multimode_sum_is_zero(mod_p, window, residue(t0))
        for word, count in Counter(reads).items():
            assert count <= len(modes_of[word])

    @pytest.mark.parametrize(
        "words",
        [((K, APLUS),), ((APLUS,), (AMINUS, K)), ((), (K,), (APLUS, AMINUS))],
    )
    def test_cancelling_terms_read_no_mode_vector(self, words):
        with patch.object(oscillator, "_mode_vector", None):
            assert multimode_sum_is_zero([(3, words), (P - 3, words)], 3, residue(Fraction(1, 3)))

    @pytest.mark.parametrize(
        "terms",
        [
            [(1, ((K,), (APLUS,))), (1, ((K,),))],
            [(1, ((K,),)), (1, ((K,), (APLUS,)))],
        ],
        ids=["fewer-words", "more-words"],
    )
    def test_terms_of_unequal_mode_count_are_rejected(self, terms):
        with pytest.raises(ValueError):
            multimode_sum_is_zero(terms, 3, residue(Fraction(1, 3)))
