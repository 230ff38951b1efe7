import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from operator import add, mul, or_, sub

import pytest

import asepx.ctm as ctm
from asepx.asep_core import (
    Multiplicity,
    SectorBasis,
    cyclic_orbit_reps,
    cyclic_shift,
    stationary_kernel,
)
from asepx.ctm import (
    XOperator,
    XTerm,
    build_T,
    build_X,
    check_recursion,
    mp_stationary,
    mp_trace,
)
from asepx.oscillator import (
    APLUS,
    K,
    DivergentTraceError,
    FockTruncation,
    mul_word,
    normal_order,
    trace_pem,
    trace_sum,
    word_imbalance,
)
from asepx.scalar import P_ONE, Poly, RatFunc, over_common_map, qt_product, random_point

from conftest import fock_action, one_minus_t_pow, poly, rf, sparse
from test_asep_core import EXTENDED_SECTORS


def W(pattern: str):
    """Mode words from a compact pattern like '+1 -2 k3'."""
    out = {}
    for part in pattern.split():
        letter, mode = part[0], int(part[1:])
        out[mode] = out.get(mode, ()) + (letter,)
    return tuple(sorted(out.items()))


class TestBuildT:
    def test_rank_three(self):
        tm = build_T(3)
        expected = {
            (0, 0): (0, W("")),
            (0, 1): (1, W("k1 k2")),
            (0, 2): (1, W("-1 k2")),
            (0, 3): (1, W("-2")),
            (1, 0): (0, W("+1")),
            (1, 2): (1, W("k2")),
            (1, 3): (1, W("+1 -2")),
            (2, 0): (0, W("+2")),
            (2, 3): (1, W("")),
        }
        zeros = {(1, 1), (2, 1), (2, 2)}
        for key, (zdeg, words) in expected.items():
            entry = tm.get(key)
            assert entry is not None
            assert (entry.zdeg, sparse(entry.words)) == (zdeg, words), key
        for key in zeros:
            assert tm.get(key) is None

    def test_rank_four(self):
        tm = build_T(4)
        expected = {
            (0, 0): (0, W("")),
            (0, 1): (1, W("k1 k2 k3")),
            (0, 2): (1, W("-1 k2 k3")),
            (0, 3): (1, W("-2 k3")),
            (0, 4): (1, W("-3")),
            (1, 0): (0, W("+1")),
            (1, 2): (1, W("k2 k3")),
            (1, 3): (1, W("+1 -2 k3")),
            (1, 4): (1, W("+1 -3")),
            (2, 0): (0, W("+2")),
            (2, 3): (1, W("k3")),
            (2, 4): (1, W("+2 -3")),
            (3, 0): (0, W("+3")),
            (3, 4): (1, W("")),
        }
        for key, (zdeg, words) in expected.items():
            entry = tm.get(key)
            assert entry is not None, key
            assert (entry.zdeg, sparse(entry.words)) == (zdeg, words), key
        for i in range(4):
            for j in range(1, i + 1):
                assert tm.get((i, j)) is None

    def test_rank_one(self):
        tm = build_T(1)
        assert (tm[(0, 0)].zdeg, tm[(0, 0)].words) == (0, ())
        assert (tm[(0, 1)].zdeg, tm[(0, 1)].words) == (1, ())


def _term_set(x):
    return {(t.zdeg, sparse(t.words)) for t in x.terms}


class TestBuildX:
    def test_rank_two(self):
        assert _term_set(build_X(2, 0)) == {(0, W("")), (1, W("+1"))}
        assert _term_set(build_X(2, 1)) == {(1, W("k1"))}
        assert _term_set(build_X(2, 2)) == {(1, W("-1")), (2, W(""))}

    def test_rank_three_term_lists(self):
        expected = {
            0: {(0, W("")), (1, W("+1 k3")), (1, W("+2 -3")), (1, W("+3")),
                (2, W("+2"))},
            1: {(1, W("k1 k2")), (2, W("k1 k2 +3"))},
            2: {(1, W("-1 k2")), (2, W("-1 k2 +3")), (2, W("k2 k3"))},
            3: {(1, W("-2")), (2, W("-2 +3")), (2, W("-3")),
                (2, W("+1 -2 k3")), (3, W(""))},
        }
        total = 0
        for alpha, terms in expected.items():
            x = build_X(3, alpha)
            assert _term_set(x) == terms, alpha
            total += len(x.terms)
        assert total == 15

    def test_base_ranks(self):
        assert _term_set(build_X(0, 0)) == {(0, ())}
        assert _term_set(build_X(1, 0)) == {(0, ())}
        assert _term_set(build_X(1, 1)) == {(1, ())}

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            build_X(2, 3)

    def test_triangular_column_support(self):
        # for alpha >= 1 only embedded operators with i < alpha survive
        for n in (2, 3, 4):
            tm = build_T(n)
            for alpha in range(1, n + 1):
                for i in range(alpha, n):
                    assert tm.get((i, alpha)) is None


def truncated_matrix(terms, nmodes, dim, t0=None):
    """Explicit truncated matrix {(row state, col state): coeff} of sum_k c_k words_k.

    A state lists the levels of modes 1..nmodes, each below `dim`.  The
    coefficients are Polys in t when t0 is None, else Fractions at t0.
    """
    out = {}
    for col in product(range(dim), repeat=nmodes):
        for coeff, words in terms:
            row = []
            for word, d in zip(words, col, strict=True):
                d2, c = fock_action(word, d, dim)
                coeff = coeff * (c if t0 is None else c.eval(t0))
                row.append(d2)
            if coeff:
                key = (tuple(row), col)
                out[key] = out[key] + coeff if key in out else coeff
    return {k: v for k, v in out.items() if v}


def exact_terms(x, z0, t0):
    """The operator's terms with exact coefficients at (z, t) = (z0, t0)."""
    return [(t.coeff.eval(t0) * z0**t.zdeg, t.words) for t in x.terms]


def recursion_by_composition(n, z0, t0, dim):
    """The rank recursion compared entrywise on the safe window, both sides
    built as explicit truncated matrices, the right one by composing the
    matrices of T_{i a} (acting first) and of the embedded X~_i."""
    nmodes = n * (n - 1) // 2
    window = FockTruncation(dim).safe_window(2)
    tmat = build_T(n)

    def on_window(mat):
        return {k: v for k, v in mat.items() if max(k[0] + k[1], default=0) <= window}

    for alpha in range(n + 1):
        terms = exact_terms(ctm.build_X(n, alpha), z0, t0)
        lhs = truncated_matrix(terms, nmodes, dim, t0)
        rhs = {}
        for i in range(n):
            tentry = tmat.get((i, alpha))
            if tentry is None:
                continue
            # T acts on the first n-1 modes, the embedded X~_i on the rest
            rest = ((),) * (nmodes - n + 1)
            tm = truncated_matrix(
                [(z0**tentry.zdeg, tentry.words + rest)], nmodes, dim, t0)
            shifted = [(c, ((),) * (n - 1) + words)
                       for c, words in exact_terms(ctm.build_X(n - 1, i), z0, t0)]
            by_col = {}
            for (row, mid), c2 in truncated_matrix(shifted, nmodes, dim, t0).items():
                by_col.setdefault(mid, []).append((row, c2))
            for (mid, col), c1 in tm.items():
                for row, c2 in by_col.get(mid, ()):
                    rhs[(row, col)] = rhs.get((row, col), 0) + c1 * c2
        if on_window(lhs) != on_window({k: v for k, v in rhs.items() if v}):
            return False
    return True


class TestXMatrix:
    def test_diagonal_action(self):
        x = build_X(2, 1)
        mat = truncated_matrix([(t.coeff, t.words) for t in x.terms], x.nmodes, 5)
        assert mat == {((d,), (d,)): Poly((0,) * d + (1,)) for d in range(5)}

    def test_identity_plus_subdiagonal(self):
        x = build_X(2, 0)
        mat = truncated_matrix([(t.coeff, t.words) for t in x.terms], x.nmodes, 5)
        expected = {((d,), (d,)): poly(1) for d in range(5)}
        expected.update({((d + 1,), (d,)): poly(1) for d in range(4)})
        assert mat == expected

    def test_recursion_at_random_points(self):
        for n, k in product((2, 3), range(3)):
            z0 = random_point(500 + 2 * k)
            t0 = random_point(501 + 2 * k)
            assert check_recursion(n, z0, t0, FockTruncation(6))
            assert recursion_by_composition(n, z0, t0, 6)

    def test_doubled_term_fails_both_recursion_checks(self, monkeypatch):
        z0, t0 = random_point(510), random_point(511)
        exact = ctm.build_X
        for alpha in range(4):
            for k in range(len(exact(3, alpha).terms)):
                def mutated(n, a, alpha=alpha, k=k):
                    x = exact(n, a)
                    if (n, a) != (3, alpha):
                        return x
                    terms = list(x.terms)
                    t = terms[k]
                    terms[k] = XTerm(t.zdeg, t.words, t.coeff.scale(2))
                    return XOperator(x.n, x.nmodes, tuple(terms))

                monkeypatch.setattr(ctm, "build_X", mutated)
                report = check_recursion(3, z0, t0, FockTruncation(6))
                assert not report, (alpha, k)
                # the failing case names alpha and a nonzero window element
                [witness] = report.witnesses
                assert witness.keys() == {"alpha", "element"}, (alpha, k)
                assert witness["alpha"] == alpha, (alpha, k)
                assert witness["element"]["value"] != 0, (alpha, k)
                assert not recursion_by_composition(3, z0, t0, 6), (alpha, k)


    def test_recursion_cannot_see_a_wrong_column_operator_but_rtt_does(self, monkeypatch):
        # both sides of the recursion come from the same build_T, so a wrong
        # T entry passes it; rtt tests T against R and fails
        import asepx.algebra_checks as checks
        from asepx.algebra_checks import run_check

        exact = ctm.build_T

        def mutated(n):
            entries = exact(n)
            if n == 3:
                term = entries[(0, 1)]
                entries[(0, 1)] = XTerm(term.zdeg, ((APLUS, APLUS),) + term.words[1:])
            return entries

        assert exact(3)[(0, 1)].words[0] == (K,)
        monkeypatch.setattr(ctm, "build_T", mutated)
        monkeypatch.setattr(checks, "build_T", mutated)
        build_X.cache_clear()
        try:
            assert check_recursion(3, Fraction(2, 3), Fraction(1, 5), FockTruncation(6)).passed
            assert not run_check("rtt", n=3, trials=2).passed
        finally:
            build_X.cache_clear()


class TestMpTrace:
    def test_hand_expansion_012(self):
        # tr(k) + tr(a+ k a-) = 1/(1-t) + 1/(1-t^2)
        expected = rf(poly(1), one_minus_t_pow(1)) + rf(
            poly(1), one_minus_t_pow(2)
        )
        assert _mp_value((0, 1, 2)) == expected

    def test_hand_expansion_021(self):
        # tr(k) + tr(a+ a- k) = 1/(1-t) + (1/(1-t) - 1/(1-t^2))
        base = rf(poly(1), one_minus_t_pow(1))
        expected = base + base + rf(poly(-1), one_minus_t_pow(2))
        assert _mp_value((0, 2, 1)) == expected

    def test_ratio_fixture(self):
        # tr(012) / tr(021) = (2 + t) / (1 + 2t), cross-multiplied
        a, b = _mp_value((0, 1, 2)), _mp_value((0, 2, 1))
        assert a.num * b.den * poly(1, 2) == b.num * a.den * poly(2, 1)

    def test_cyclicity(self):
        rng = random.Random(6)
        for counts in [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (1, 2, 1)]:
            m = Multiplicity(counts)
            symbols = []
            for value, count in enumerate(counts):
                symbols += [value] * count
            for _ in range(4):
                rng.shuffle(symbols)
                sigma = tuple(symbols)
                assert _mp_value(sigma) == _mp_value(cyclic_shift(sigma))

    def test_divergence_guard_on_non_basic_input(self):
        with pytest.raises(DivergentTraceError):
            mp_trace((0, 2))


def _mp_value(sigma):
    """mp_trace's (numerator, exponent map) as one reduced rational function."""
    num, exps = mp_trace(sigma)
    return RatFunc(num, qt_product(1, exps))


def _per_key_trace(sigma):
    """Oracle: the trace summed monomial by monomial as reduced rational functions."""
    total = RatFunc(Poly())
    for key, coeff in _joint_balanced_terms(sigma).items():
        num, den = coeff, P_ONE
        for p, e, _ in key:
            num = num * trace_pem(p, e, Fraction(1))
            den = den * reduce(mul, (one_minus_t_pow(e + k) for k in range(p + 1)))
        total = total + RatFunc(num, den)
    return total


def _clear_ctm_caches():
    for cached in vars(ctm).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


# ---------------------------------------------------------------------------
# the joint expansion of all modes at once: an oracle for L <= 5


@cache
def _mul_word(pem, word):
    """The monomial pem right-multiplied by word, normal-ordered.

    Returns (monomial, k, negative) items, one per coefficient
    (-1)**negative * t^k.  A layer term's mode words are single letters,
    and one rewrite rule takes a monomial to monomials with such signed
    monomial coefficients, so the expansion applies each by a shift and a
    sign; any other coefficient raises.
    """
    out = []
    for pem2, c in mul_word({pem: P_ONE}, word).items():
        k = c.degree
        if c.coeffs[k] not in (1, -1) or any(c.coeffs[:k]):
            raise AssertionError(f"coefficient {c} of {pem} * {word} is not a signed monomial")
        out.append((pem2, k, c.coeffs[k] < 0))
    return tuple(out)


def _signed_shift(p, k, negative):
    """p * (-1)**negative * t^k."""
    if k:
        p = p.shift(k)
    return -p if negative else p


@cache
def _reachable(n, alphas):
    """Per-mode imbalance vectors that one term per site of X_{alphas} can sum to."""
    if not alphas:
        return frozenset({(0,) * (n * (n - 1) // 2)})
    rest = _reachable(n, alphas[1:])
    heads = {tuple(map(word_imbalance, term.words)) for term in build_X(n, alphas[0]).terms}
    return frozenset(tuple(map(add, h, r)) for h in heads for r in rest)


def _joint_balanced_terms(sigma):
    """The layer product X_{s_1} ... X_{s_L} at z = 1 as {normal monomials: coeff},
    with one normal monomial (p, e, m) per mode in each key.

    Expanded site by site over all n(n-1)/2 modes at once, each mode
    normal-ordered by `_mul_word`; a (partial product, term) pair is
    dropped unless the remaining sites can cancel its imbalance vector
    (`_reachable`), so only balanced monomials survive.  The trace of
    this sum is the layer trace that `ctm` takes by the rank recursion.
    """
    n = max(sigma)
    nmodes = n * (n - 1) // 2
    ops = [[(term, tuple(map(word_imbalance, term.words))) for term in build_X(n, alpha).terms]
           for alpha in range(n + 1)]
    partial = {((0, 0, 0),) * nmodes: P_ONE}
    for site, alpha in enumerate(sigma):
        cancel = _reachable(n, sigma[site + 1:])
        nxt = {}
        for key, coeff in partial.items():
            owed = [m - p for p, _, m in key]
            for term, imbalance in ops[alpha]:
                if tuple(map(sub, owed, imbalance)) not in cancel:
                    continue
                expansions = [((), coeff * term.coeff)]
                for pem, word in zip(key, term.words):
                    parts = _mul_word(pem, word) if word else ((pem, 0, False),)
                    expansions = [(kacc + (pem2,), _signed_shift(cacc, k, negative))
                                  for kacc, cacc in expansions for pem2, k, negative in parts]
                for nkey, ncoeff in expansions:
                    nxt[nkey] = nxt[nkey] + ncoeff if nkey in nxt else ncoeff
        partial = {key: coeff for key, coeff in nxt.items() if coeff}
    return partial


def _trace_value(terms):
    """The trace at q = 1 of a sum {one (p, e, m) per mode: coeff} over all modes,
    as one reduced rational function.

    A monomial's trace is the product of its modes' `trace_pem` closed
    forms, so it depends only on the multiset of its (e, p) pairs: the
    coefficients are summed per multiset, each multiset's closed forms
    multiplied in once, and the multisets lifted to one map.
    """
    groups = {}
    for key, coeff in terms.items():
        assert all(p == m for p, _, m in key), "unbalanced word"
        ranges = tuple(sorted((e, p) for p, e, _ in key))
        groups[ranges] = groups.get(ranges, Poly()) + coeff
    nums, exps = over_common_map(1, {
        ranges: (reduce(mul, (trace_pem(p, e, 1) for e, p in ranges), coeff),
                 Counter(k for e, p in ranges for k in range(e, e + p + 1)))
        for ranges, coeff in groups.items()})
    return RatFunc(sum(nums.values(), Poly()), qt_product(1, exps))


@cache
def _normal_order(word):
    return tuple(normal_order(word).items())


def _unpruned_balanced_terms(sigma):
    """Oracle for `_joint_balanced_terms`: the whole layer product, one term per
    site in every way, each mode's whole word normal-ordered by `normal_order`,
    and the balanced keys kept.

    A mode word whose a+ and a- counts differ has no balanced monomial (the
    rewrite rules keep p - m; `test_shared_imbalance`), so the left half's
    term choices are joined only with the right half's choices whose letter
    counts cancel theirs.  Nothing is pruned by reachable sets.
    """
    n = max(sigma)

    def choices(alphas):
        by_imbalance = {}
        for terms in product(*(build_X(n, a).terms for a in alphas)):
            words = tuple(sum(ws, ()) for ws in zip(*(t.words for t in terms)))
            coeff = reduce(mul, (t.coeff for t in terms))
            by_imbalance.setdefault(tuple(map(word_imbalance, words)), []).append((words, coeff))
        return by_imbalance

    half = len(sigma) // 2
    right = choices(sigma[half:])
    out = {}
    for imbalance, lefts in choices(sigma[:half]).items():
        rights = right.get(tuple(-d for d in imbalance), [])
        for (lwords, lcoeff), (rwords, rcoeff) in product(lefts, rights):
            for parts in product(*(_normal_order(a + b) for a, b in zip(lwords, rwords))):
                if all(p == m for (p, _, m), _ in parts):
                    key = tuple(pem for pem, _ in parts)
                    coeff = reduce(mul, (c for _, c in parts), lcoeff * rcoeff)
                    out[key] = out.get(key, Poly()) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


class TestPrunedExpansion:
    """The joint expansion (the oracle) against the unpruned one, and the rank
    recursion of `ctm.mp_trace` against both."""

    @pytest.mark.parametrize("counts", [(1, 1, 1, 1), (2, 1, 1), (2, 1, 1, 1)])
    def test_matches_unpruned_expansion(self, counts):
        for sigma in SectorBasis(Multiplicity(counts)).configs:
            joint = _joint_balanced_terms(sigma)
            assert joint == _unpruned_balanced_terms(sigma), sigma
            assert _mp_value(sigma) == _trace_value(joint), sigma

    def test_matches_unpruned_expansion_at_rank_four(self):
        basis = SectorBasis(Multiplicity((1, 1, 1, 1, 1)))
        for sigma in sorted(set(cyclic_orbit_reps(basis.configs).values())):
            joint = _joint_balanced_terms(sigma)
            assert joint == _unpruned_balanced_terms(sigma), sigma
            assert _mp_value(sigma) == _trace_value(joint), sigma

    @pytest.mark.parametrize("n", [3, 4])
    def test_reachable_sets_are_sums_over_term_choices(self, n):
        modes = range(n * (n - 1) // 2)
        per_term = [[tuple(map(word_imbalance, t.words)) for t in build_X(n, a).terms]
                    for a in range(n + 1)]
        for length in range(4):
            for alphas in product(range(n + 1), repeat=length):
                sums = {tuple(sum(v[k] for v in choice) for k in modes)
                        for choice in product(*(per_term[a] for a in alphas))}
                assert _reachable(n, alphas) == sums, alphas

    def test_normal_orders_each_monomial_and_word_once(self, monkeypatch):
        # the recursion normal-orders whole T-mode words, each balanced one once
        calls = []

        def counting(word):
            calls.append(word)
            return normal_order(word)

        _clear_ctm_caches()
        monkeypatch.setattr(ctm, "normal_order", counting)
        m = Multiplicity((2, 1, 1, 1))
        got = mp_stationary(m).canonical()
        monkeypatch.undo()
        assert calls and len(calls) == len(set(calls))
        assert not any(map(word_imbalance, calls))
        assert got == stationary_kernel(m)

    def test_every_part_is_a_signed_monomial(self, monkeypatch):
        products = []
        exact = mul_word

        def recording(terms, word):
            out = exact(terms, word)
            products.append((terms, word, out))
            return out

        _mul_word.cache_clear()
        monkeypatch.setattr(sys.modules[__name__], "mul_word", recording)
        basis = SectorBasis(Multiplicity((1, 1, 1, 1, 1)))
        for sigma in sorted(set(cyclic_orbit_reps(basis.configs).values())):
            _joint_balanced_terms(sigma)
        monkeypatch.undo()
        assert products
        for terms, word, out in products:
            assert all(c.leading() in (1, -1) and sum(map(bool, c.coeffs)) == 1
                       for c in out.values()), (terms, word)
            (pem,) = terms
            signed = {pem2: Poly.t_power(k, -1 if negative else 1)
                      for pem2, k, negative in _mul_word(pem, word)}
            assert signed == out

    def test_a_coefficient_that_is_no_signed_monomial_raises(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "mul_word",
                            lambda terms, word: {(0, 0, 1): poly(1, 1)})
        with pytest.raises(AssertionError, match="not a signed monomial"):
            _mul_word.__wrapped__((0, 0, 0), ("-",))


def _recursion_work(n, sigma, words, classes):
    """Brute force over every row tau: the balanced T-mode words and the
    (rank, smallest rotation) lower-rank keys that the rank-n trace of
    sigma needs, added to `words` and `classes`."""
    if n <= 2:
        return
    tmat = build_T(n)
    for tau in product(*([i for i in range(n) if (i, a) in tmat] for a in sigma)):
        ws = [sum((tmat[(i, a)].words[k] for i, a in zip(tau, sigma)), ()) for k in range(n - 1)]
        if any(map(word_imbalance, ws)):
            continue
        words.update(ws)
        key = (n - 1, min(tau[k:] + tau[:k] for k in range(len(tau))))
        if key not in classes:
            classes.add(key)
            _recursion_work(*key, words, classes)


def _sector_work(m):
    """Sector m's orbit representatives, its balanced T-mode words and its
    lower-rank keys, by `_recursion_work`."""
    reps = set(cyclic_orbit_reps(SectorBasis(m).configs).values())
    words, classes = set(), set()
    for rep in reps:
        _recursion_work(max(rep), rep, words, classes)
    return reps, words, classes


class TestRankRecursion:
    @pytest.mark.parametrize("counts", [(2, 1, 1, 1), (1, 1, 1, 1, 1)])
    def test_one_trace_per_word_and_per_lower_rotation_class(self, monkeypatch, counts):
        ordered, traced = [], []
        raw = ctm._rank_trace.__wrapped__

        def counting_order(word):
            ordered.append(word)
            return normal_order(word)

        @cache
        def counting_trace(n, sigma):
            traced.append((n, sigma))
            return raw(n, sigma)

        _clear_ctm_caches()
        monkeypatch.setattr(ctm, "normal_order", counting_order)
        monkeypatch.setattr(ctm, "_rank_trace", counting_trace)
        m = Multiplicity(counts)
        got = mp_stationary(m).canonical()
        monkeypatch.undo()
        reps, words, classes = _sector_work(m)
        # no word of nonzero imbalance is normal-ordered, and each balanced one once
        assert not any(map(word_imbalance, ordered))
        assert len(ordered) == len(set(ordered)) and set(ordered) == words
        # one trace per orbit, then one per lower-rank rotation class
        assert set(traced) == classes | {(max(rep), rep) for rep in reps}
        assert any(n == 2 for n, _ in classes)
        assert got == stationary_kernel(m)

    @pytest.mark.parametrize("sigma", [(0, 3), (0, 2, 3), (0, 2, 2, 3)])
    def test_divergent_trace_at_rank_three(self, sigma):
        with pytest.raises(DivergentTraceError):
            mp_trace(sigma)

    @pytest.mark.parametrize("target", ["_word_trace", "_rank_trace"])
    def test_a_divergent_part_propagates(self, monkeypatch, target):
        # one word, or one rank-2 rotation class, raises; mp_stationary must too
        m = Multiplicity((2, 1, 1, 1))
        _, words, classes = _sector_work(m)
        bad = (max(words),) if target == "_word_trace" else max(classes)
        real = getattr(ctm, target)

        def raising(*args):
            if args == bad:
                raise DivergentTraceError("injected")
            return real(*args)

        _clear_ctm_caches()
        monkeypatch.setattr(ctm, target, raising)
        with pytest.raises(DivergentTraceError, match="injected"):
            mp_stationary(m)

    def test_cold_caches_repeat_the_same_work(self):
        m = Multiplicity((1, 1, 1, 1, 1))
        work = []
        for clear in (True, False, True):
            if clear:
                _clear_ctm_caches()
            before = [f.cache_info().misses for f in (ctm._word_trace, ctm._rank_trace)]
            mp_stationary(m)
            work.append([f.cache_info().misses - b
                         for f, b in zip((ctm._word_trace, ctm._rank_trace), before)])
        assert work[0] == work[2] and all(work[0]) and work[1] == [0, 0]
        # every cache is an lru_cache, emptied by cache_clear
        assert not [name for name, value in vars(ctm).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))]


@pytest.mark.parametrize("counts", [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1)])
def test_matches_kernel_at_rank_four(counts):
    m = Multiplicity(counts)
    assert mp_stationary(m).canonical() == stationary_kernel(m)


@pytest.mark.extended
@pytest.mark.parametrize("counts", [*EXTENDED_SECTORS, (1, 1, 1, 1, 1, 1)], ids=str)
def test_matches_kernel_on_extended_sectors(counts):
    m = Multiplicity(counts)
    assert mp_stationary(m).canonical() == stationary_kernel(m)


class TestOrbitReduction:
    def test_one_trace_per_cyclic_orbit(self, monkeypatch):
        traced = []

        def counting(sigma):
            traced.append(sigma)
            return mp_trace(sigma)

        monkeypatch.setattr(ctm, "mp_trace", counting)
        got = mp_stationary(Multiplicity((2, 1, 1, 1))).canonical()
        monkeypatch.undo()
        assert len(traced) == 12 == len(set(traced))
        assert got == stationary_kernel(Multiplicity((2, 1, 1, 1)))

    def test_canonicalized_once(self, monkeypatch):
        import asepx.asep_core as core
        import asepx.mlq as mlq

        calls = []
        canonicalize = core.canonicalize_values

        def counting(basis, values):
            calls.append(basis)
            return canonicalize(basis, values)

        for module in (core, mlq, ctm):
            monkeypatch.setattr(module, "canonicalize_values", counting, raising=False)
        got = mp_stationary(Multiplicity((2, 1, 1))).canonical()
        assert len(calls) == 1
        assert got == _expand(4, {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)})

    def test_common_denominator_matches_per_key_sum(self):
        configs = [*SectorBasis(Multiplicity((1, 1, 1, 1))).configs,
                   *SectorBasis(Multiplicity((2, 1, 1))).configs,
                   (0, 1, 2), (0, 2, 1)]
        for sigma in configs:
            assert _mp_value(sigma) == _per_key_trace(sigma), sigma

    @pytest.mark.parametrize("counts", [(2, 1, 1, 1), (1, 1, 1, 1)])
    def test_no_gcd_divmod_or_ratfunc_on_the_path(self, monkeypatch, counts):
        import asepx.scalar as scalar

        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        trace_pem.cache_clear()  # so the closed forms are built on this path
        monkeypatch.setattr(scalar, "poly_gcd", counting("gcd", scalar.poly_gcd))
        monkeypatch.setattr(Poly, "divmod", counting("divmod", Poly.divmod))
        monkeypatch.setattr(RatFunc, "__init__", counting("ratfunc", RatFunc.__init__))
        m = Multiplicity(counts)
        vec = mp_stationary(m)
        monkeypatch.undo()
        assert calls == Counter()
        # the denominator is the orbit traces' maps lifted to one; the
        # recursion's maps cover every factor (1 - t^j) of every balanced
        # monomial of the joint expansion, and may hold more
        reps = set(cyclic_orbit_reps(vec.basis.configs).values())
        common = reduce(or_, (mp_trace(rep)[1] for rep in reps))
        assert vec.den == qt_product(1, common)
        need = Counter()
        for rep in reps:
            for key in _joint_balanced_terms(rep):
                need |= Counter(j for p, e, _ in key for j in range(e, e + p + 1))
        assert need and not need - common
        assert vec.canonical() == stationary_kernel(m)

    def test_one_closed_form_per_mode_of_each_multiset(self, monkeypatch):
        import asepx.oscillator as oscillator

        calls, sums = [], []
        closed_form = oscillator.trace_pem

        def counting(p, e, q):
            calls.append((p, e))
            return closed_form(p, e, q)

        def recording(terms, q):
            sums.append(terms)
            return trace_sum(terms, q)

        _clear_ctm_caches()
        monkeypatch.setattr(oscillator, "trace_pem", counting)
        monkeypatch.setattr(ctm, "trace_sum", recording)
        m = Multiplicity((2, 1, 1, 1))
        got = mp_stationary(m).canonical()
        monkeypatch.undo()
        # one trace_sum per balanced word and per rank-2 rotation class; in
        # each, a monomial's trace depends only on its (e, p)
        _, words, classes = _sector_work(m)
        assert len(sums) == len(words) + len(classes)
        assert len(calls) == sum(len({(e, p) for p, e, _ in terms}) for terms in sums)
        assert got == stationary_kernel(m)


def _expand(L, xi):
    out = {}
    for s, coeffs in xi.items():
        c = tuple(int(ch) for ch in s)
        for _ in range(L):
            out[c] = out.get(c, Poly()) + poly(*coeffs)
            c = cyclic_shift(c)
    return out


class TestMpStationary:
    def test_four_site_fixture(self):
        got = mp_stationary(Multiplicity((2, 1, 1))).canonical()
        assert got == _expand(
            4, {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)}
        )

    def test_three_species_fixture(self):
        got = mp_stationary(Multiplicity((1, 1, 1, 1))).canonical()
        expected = _expand(
            4,
            {
                "0123": (9, 7, 7, 1),
                "0213": (3, 11, 5, 5),
                "1023": (3, 9, 9, 3),
                "1203": (5, 5, 11, 3),
                "2013": (3, 9, 9, 3),
                "2103": (1, 7, 7, 9),
            },
        )
        assert got == expected

    @pytest.mark.parametrize("counts", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2, 1)])
    def test_matches_kernel(self, counts):
        m = Multiplicity(counts)
        assert mp_stationary(m).canonical() == stationary_kernel(m)

    def test_single_species_uniform(self):
        got = mp_stationary(Multiplicity((2, 2))).canonical()
        assert set(got.values()) == {poly(1)}

    def test_totally_asymmetric_specialization(self):
        got = mp_stationary(Multiplicity((1, 1, 1))).canonical()
        assert got[(0, 1, 2)].eval(Fraction(0)) == 2
        assert got[(0, 2, 1)].eval(Fraction(0)) == 1
