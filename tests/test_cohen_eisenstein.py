from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hurwitz_weighted_form_count
from plusforms import _cache, cohen_eisenstein, level_one_forms
from plusforms.cohen_eisenstein import (
    PlusConditionError,
    PlusForm,
    PlusSpaceDimensionError,
    ResidueConditionViolatedError,
    WeightMismatchError,
    _echelon,
    cohen_h,
    cohen_series,
    cohen_series_many,
    g_ab,
    plus_isomorphism,
    plus_space_basis,
    theta,
)
from plusforms.arith import sigma
from plusforms.class_numbers import hurwitz, hurwitz_sixfold
from plusforms.level_one_forms import (
    FormMeta,
    _eta_series,
    dim_s,
    eisenstein,
    mk_basis,
)
from plusforms.operators import v_op
from plusforms.qseries import RATIONAL, QSeries


class TestCohenValues:
    def test_constant_terms_are_zeta_values(self):
        assert cohen_h(2, 0) == Fraction(1, 120)    # zeta(-3)
        assert cohen_h(3, 0) == Fraction(-1, 252)   # zeta(-5)
        assert cohen_h(5, 0) == Fraction(-1, 132)   # zeta(-9)

    def test_h21(self):
        # D = 1 case: L(-1, chi_1) = zeta(-1) = -1/12 (pinned below by the
        # weight-4 Eisenstein identity; -1/5 is NOT the value)
        assert cohen_h(2, 1) == Fraction(-1, 12)

    def test_excluded_residues_vanish(self):
        assert cohen_h(3, 1) == 0
        for r in (2, 3, 5):
            for n in range(300):
                excluded = ((n if r % 2 == 0 else -n) % 4) in (2, 3)
                assert (cohen_h(r, n) == 0 or not excluded), (r, n)
                if excluded:
                    assert cohen_h(r, n) == 0, (r, n)

    def test_row_one_delegates_to_hurwitz(self):
        for n in range(500):
            assert cohen_h(1, n) == hurwitz(n)


class TestPlusSpaceBasis:
    @pytest.mark.parametrize("k", range(2, 21))
    def test_echelon_plus_basis_of_kohnen_dimension(self, k):
        p = 60
        basis = plus_space_basis(k, p)
        assert len(basis) == 1 + dim_s(2 * k)
        pivots = [n for n, _ in basis]
        assert pivots[0] == 0 and pivots == sorted(pivots)
        for n, form in basis:
            assert form.k == k and form.series.precision == p
            assert [form.series.coeffs[m] for m in pivots] == \
                [int(m == n) for m in pivots]

    @pytest.mark.parametrize("k", [6, 9, 12, 13, 16])
    def test_isomorphism_images_are_pivot_combinations(self, k):
        # a plus form is fixed by its coefficients at the pivots: every
        # image of plus_isomorphism is sum(image(n_i) f_i)
        p = 80
        basis = plus_space_basis(k, p)
        heavy, light = (k, k - 2) if k % 2 == 0 else (k - 3, k - 5)
        images = [plus_isomorphism(k, f, None, p) for f in mk_basis(heavy, p)]
        images += [plus_isomorphism(k, None, h, p) for h in mk_basis(light, p)]
        for image in images:
            combo = QSeries.zero(image.series.ring, p)
            for n, form in basis:
                combo = combo + form.series.scale(image.series.coeffs[n])
            assert combo.coeffs == image.series.coeffs

    @pytest.mark.parametrize("k,wrong", [(3, 1), (12, 0), (12, 3)])
    def test_wrong_dimension_raises(self, monkeypatch, k, wrong):
        monkeypatch.setattr(cohen_eisenstein, "dim_s", lambda weight: wrong)
        with pytest.raises(PlusSpaceDimensionError):
            plus_space_basis(k, 20)

    def test_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            plus_space_basis(1, 10)

    def test_even_basis_builds_each_level_one_series_once(self, monkeypatch):
        # M_12(4z) theta + M_10(4z) H_{5/2}: E_4 and E_6 serve both
        # summands, and theta is both a partner and the seed's first rung
        calls = []

        def spy(name, built):
            def wrapper(*args, **kwargs):
                calls.append((name, *args))
                return built(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(level_one_forms, "eisenstein",
                            spy("eisenstein", level_one_forms.eisenstein))
        monkeypatch.setattr(cohen_eisenstein, "theta",
                            spy("theta", cohen_eisenstein.theta))
        _cache.clear()
        plus_space_basis(12, 300)
        assert sorted(c[:2] for c in calls if c[0] == "eisenstein") == \
            [("eisenstein", 4), ("eisenstein", 6)]
        assert [c for c in calls if c[0] == "theta"] == [("theta", 300)]


class TestSeriesAgainstValueOracle:
    """cohen_series against the row of single values cohen_h(r, n).  The
    weights r = 2..16 cover dim S+ = 0, 1 and 2 (r = 12, 16), and the
    smallest precisions lie below the number of coefficients the series
    needs internally."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 400))
    @example(3, 1)
    @example(3, 2)
    @example(3, 3)
    @example(3, 4)
    @example(12, 1)
    @example(12, 2)
    @example(12, 3)
    @example(12, 4)
    def test_series_equals_value_row(self, r, precision):
        _cache.clear()
        series = cohen_series(r, precision).series
        assert list(series.coeffs) == [cohen_h(r, n) for n in range(precision)]


@lru_cache(maxsize=None)
def graded_ring_solve(k):
    """The graded-ring route to M+_{k+1/2}: the echelon pivots n_i and each
    basis form's coordinates in the rows theta^(eps + 4j) F_2^b, j = top - b,
    2k + 1 = 4 top + eps, which span M_{k+1/2}(Gamma_0(4)).  The plus
    conditions are read from the rows' first 4 (top + 1) coefficients.
    Integer back-substitution turns the rows into forms
    g_b = q^b + O(q^(top+1)); one echelon of the allowed g_b, read first at
    the forbidden coefficients, then at the allowed q^b, then at their
    coordinates, leaves the basis in the rows that pivot past the
    forbidden block."""
    top, eps = divmod(2 * k + 1, 4)
    size = top + 1
    length = 4 * size
    th = theta(length).series
    x = th ** 4
    f2 = QSeries.rational([sigma(1, n) if n % 2 else 0 for n in range(length)])
    leads = [th ** eps]
    for _ in range(top):
        leads.append(leads[-1] * x)
    rows = [leads[top - b] * f2 ** b for b in range(size)]
    head = [list(row.nums) + [int(b == c) for c in range(size)]
            for b, row in enumerate(rows)]
    for b in range(size - 2, -1, -1):
        for c in range(b + 1, size):
            f = head[b][c]
            if f:
                head[b] = [u - f * v for u, v in zip(head[b], head[c])]
    bad = (2, 3) if k % 2 == 0 else (1, 2)
    unknowns = [b for b in range(size) if b % 4 not in bad]
    columns = [n for n in range(size, length) if n % 4 in bad] + unknowns
    skip = len(columns) - len(unknowns)
    echelon, pivots = _echelon([[head[b][n] for n in columns]
                                + head[b][length:] for b in unknowns])
    basis = [(columns[col], tuple(Fraction(v, row[col]) for v in row[-size:]))
             for row, col in zip(echelon, pivots) if col >= skip]
    assert len(basis) == 1 + dim_s(2 * k)
    return [n for n, _ in basis], [coord for _, coord in basis]


def full_row_oracle(k, coord, precision):
    """A plus form from its coordinates `coord` in the graded rows:
    every row theta^(eps + 4j) F_2^b, j = top - b, built whole at
    `precision` and combined."""
    top, eps = divmod(2 * k + 1, 4)
    th = theta(precision).series
    f2 = QSeries.rational([sigma(1, n) if n % 2 else 0
                           for n in range(precision)])
    total = QSeries.zero(RATIONAL, precision)
    for b, c in enumerate(coord):
        total = total + (th ** (eps + 4 * (top - b)) * f2 ** b).scale(c)
    return total


class TestAgainstGradedRingSolve:
    """Every plus form is built from Kohnen's isomorphism images; the
    oracle solves the plus conditions on the graded rows instead and builds
    the rows whole.  Precisions from 1 lie below both solve lengths."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 400))
    @example(2, 1)
    @example(40, 1)
    @example(40, 83)
    @example(9, 400)
    def test_plus_space_basis_equals_full_rows(self, k, precision):
        _cache.clear()
        pivots, coords = graded_ring_solve(k)
        basis = plus_space_basis(k, precision)
        assert [n for n, _ in basis] == pivots
        for (_, form), coord in zip(basis, coords):
            assert form.series == full_row_oracle(k, coord, precision)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 400))
    @example(3, 1)
    @example(5, 27)
    @example(40, 2)
    def test_cohen_series_equals_full_rows(self, r, precision):
        _cache.clear()
        pivots, coords = graded_ring_solve(r)
        coord = [sum(cohen_h(r, n) * c for n, c in zip(pivots, column))
                 for column in zip(*coords)]
        assert cohen_series(r, precision).series == \
            full_row_oracle(r, coord, precision)

    @pytest.mark.parametrize("k", range(2, 61))
    def test_pivots_lie_below_the_sturm_order(self, k):
        # a nonzero plus form has order at most (2k + 1) / 4, so the first
        # (2k + 1) // 4 + 1 coefficients decide the basis at any precision
        pivots, _ = graded_ring_solve(k)
        assert max(pivots) <= (2 * k + 1) // 4
        assert [n for n, _ in plus_space_basis(k, 1)] == pivots

    def test_one_call_serves_several_weights(self):
        _cache.clear()
        forms = cohen_series_many((3, 5, 2), 120)
        assert [form.k for form in forms] == [3, 5, 2]
        for form in forms:
            _cache.clear()
            assert form == cohen_series(form.k, 120)

    def test_weights_may_come_from_a_generator(self):
        _cache.clear()
        forms = cohen_series_many((r for r in (3, 5)), 20)
        assert [form.k for form in forms] == [3, 5]


def solve_in_span(product, basis, check_to):
    """Exact Gaussian elimination: coefficients x with sum(x_i b_i) = product,
    verified on every coefficient below check_to.  Returns x or fails."""
    k = len(basis)
    rows = [[b.coeffs[n] for b in basis] + [product.coeffs[n]]
            for n in range(3 * k + 6)]
    rank = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        assert all(v == 0 for v in rows[i]), "inconsistent span system"
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = rows[i][k]
    combo = QSeries.rational([0] * check_to)
    for xi, b in zip(x, basis):
        combo = combo + b.truncate(check_to).scale(xi)
    assert combo.coeffs == product.coeffs[:check_to]
    return x


class TestEisensteinSpanPinning:
    """Independent oracle: products of the Cohen series with theta powers
    are classical forms of integral weight on level 4, whose spaces are
    spanned by dilated E_4 / E_6 and one eta-product cusp form.  Solving
    the combination from a few coefficients and checking ALL of them pins
    every H(r, N) without using the L-value formula itself."""

    P = 120

    def _dilations(self, weight):
        e = eisenstein(weight, self.P).series
        return [e, v_op(e, 2).truncate(self.P), v_op(e, 4).truncate(self.P)]

    def test_weight_7_2_times_theta(self):
        th = theta(self.P).series
        product = cohen_series(3, self.P).series * th
        solve_in_span(product, self._dilations(4), self.P)

    def test_weight_5_2_times_theta_cubed(self):
        th = theta(self.P).series
        product = cohen_series(2, self.P).series * th * th * th
        solve_in_span(product, self._dilations(4), self.P)

    def test_weight_11_2_times_theta(self):
        th = theta(self.P).series
        product = cohen_series(5, self.P).series * th
        eta2_12 = v_op(_eta_series(self.P // 2 + 1), 2).truncate(self.P - 1) ** 12
        cusp = QSeries.rational((0,) + eta2_12.coeffs)
        solve_in_span(product, self._dilations(6) + [cusp], self.P)


class TestSeriesShapes:
    def test_plus_condition_even_k(self):
        form = cohen_series(2, 200)
        for n in range(200):
            if n % 4 in (2, 3):
                assert form.series.coeffs[n] == 0

    def test_plus_condition_odd_k(self):
        for r in (3, 5):
            form = cohen_series(r, 200)
            assert all(c == 0 for n, c in enumerate(form.series.coeffs)
                       if n % 4 in (1, 2))

    def test_plusform_validates(self):
        with pytest.raises(PlusConditionError):
            PlusForm(QSeries.rational((1, 0, 1)), FormMeta(5, 4), 2)

    def test_theta(self):
        assert theta(5).series.coeffs == (1, 2, 0, 0, 2)
        assert theta(2).series.coeffs == (1, 2)
        assert theta(50).series.reduce_mod(3).coeffs[:5] == (1, 2, 0, 0, 2)


# (a, b) with a <= 12 and -b a non-residue mod a, b reduced mod a
VALID_PROGRESSIONS = [(a, b) for a in range(1, 13) for b in range(a)
                      if all((x * x + b) % a for x in range(a))]


class TestProgressionSeries:
    def test_g31_values_follow_hurwitz(self):
        form = g_ab(3, 1, 60)
        for n in range(60):
            expected = hurwitz(n) if n % 3 == 1 else 0
            assert form.series.coeffs[n] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(VALID_PROGRESSIONS), st.integers(1, 800))
    @example((9, 6), 800)
    def test_rows_match_weighted_form_count(self, progression, precision):
        a, b = progression
        coeffs = g_ab(a, b, precision).series.coeffs
        assert list(coeffs) == [
            hurwitz_weighted_form_count(n) if n % a == b % a else 0
            for n in range(precision)]

    @pytest.mark.parametrize("a,b,precision", [
        (9, 6, 9529), (9, 6, 4864), (4, 1, 1000), (3, 1, 2), (3, 1, 1)])
    def test_integer_row_equals_the_fraction_row(self, a, b, precision):
        # g_ab writes 6 H(n) over the denominator 6: the series is the one
        # the Fraction values H(n) = hurwitz_sixfold / 6 make
        coeffs = [0] * precision
        coeffs[b % a::a] = [Fraction(v, 6) for v in
                            hurwitz_sixfold(precision - 1, a, b)]
        assert g_ab(a, b, precision).series == QSeries.rational(coeffs)

    def test_residue_violation(self):
        with pytest.raises(ResidueConditionViolatedError):
            g_ab(3, 2, 10)

    def test_zero_at_one(self):
        assert g_ab(3, 1, 10).series.coeffs[1] == 0

    def test_level_bounds(self):
        assert g_ab(3, 1, 5).meta.level_bound == 36
        assert g_ab(9, 6, 5).meta.level_bound == 324
        assert g_ab(4, 1, 5).meta.level_bound == 16


class TestPlusIsomorphism:
    def test_even_k_image_has_plus_support(self):
        e4 = eisenstein(4, 80)
        image = plus_isomorphism(4, e4, None, 80)
        assert image.series.coeffs[0] == 1
        assert all(c == 0 for n, c in enumerate(image.series.coeffs)
                   if n % 4 in (2, 3))

    def test_odd_k_image_has_plus_support(self):
        f = mk_basis(6, 80)[0]
        h = mk_basis(4, 80)[0]
        image = plus_isomorphism(9, f, h, 80)
        assert all(c == 0 for n, c in enumerate(image.series.coeffs)
                   if n % 4 in (1, 2))

    def test_weight_mismatch(self):
        e4 = eisenstein(4, 10)
        with pytest.raises(WeightMismatchError):
            plus_isomorphism(6, e4, None, 10)

    def test_zero_inputs_give_zero(self):
        assert plus_isomorphism(4, None, None, 10).series.is_zero()

    @pytest.mark.parametrize("build,keys", [
        (lambda p: cohen_series(4, p), {("cohen", 4)}),
        (lambda p: cohen_series(7, p), {("cohen", 3), ("cohen", 7)}),
        (lambda p: plus_space_basis(3, p), {("cohen", 3)}),
        (lambda p: plus_isomorphism(9, mk_basis(6, p)[0], None, p),
         {("cohen", 3)}),
        (lambda p: plus_isomorphism(4, None, None, p), set()),
    ], ids=["cohen4", "cohen7", "basis3", "isomorphism9", "isomorphism0"])
    def test_cold_build_makes_only_the_partners_in_use(self, build, keys):
        # M_2 and M_w for w < 0 are zero, so at k = 4, 7 and 3 the second
        # summand is empty and its partner H_{5/2} or H_{11/2} is not built
        _cache.clear()
        build(61)
        assert set(_cache._store) == keys

    def test_images_of_basis_pairs_linearly_independent(self):
        # k = 12: M_12 has 2 monomials, M_10 has 1; all three images must
        # be independent, checked by exact elimination on 40 coefficients
        p = 40
        images = [plus_isomorphism(12, f, None, p).series
                  for f in mk_basis(12, p)]
        images.append(plus_isomorphism(12, None, mk_basis(10, p)[0], p).series)
        rows = [list(s.coeffs) for s in images]
        rank = 0
        for col in range(p):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = Fraction(rows[i][col], rows[rank][col])
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        assert rank == 3
