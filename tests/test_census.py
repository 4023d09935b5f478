import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms.census import (
    FIELD_CLASSES,
    BridgeViolationError,
    beta_census_crosscheck,
    census_rows,
    class_number_table,
    fundamental_negative_mask,
    fundamental_positive_mask,
    n2minus,
    nonvanishing_census,
    starstar_ok,
)
from plusforms.class_numbers import (
    class_number_of_field,
    form_class_number,
    is_fundamental,
)
from plusforms.constructions import NamedForm, phi
from plusforms.qseries import QSeries


class TestStarStar:
    @pytest.mark.parametrize("m,n,ok", [
        (1, 3, True), (9, 3, False), (3, 4, False), (2, 3, True),
        (1, 4, True), (8, 16, True), (12, 16, True), (3, 16, False),
        (1, 2, False), (3, 9, True), (27, 3, False)])
    def test_examples(self, m, n, ok):
        assert starstar_ok(m, n) == ok


class TestN2Minus:
    def test_tiny(self):
        assert n2minus(10, 1, 3) == 1  # only D = -8

    def test_matches_naive_enumeration(self):
        def naive(x, m, n):
            return sum(1 for j in range(1, x)
                       if is_fundamental(-j) and (-j) % n == m % n)

        for m, n in ((1, 3), (2, 3), (0, 1)):
            for x in (50, 500, 2000):
                assert n2minus(x, m, n) == naive(x, m, n), (m, n, x)

    def test_prefix_counts_up_to_ten_thousand(self):
        # every prefix x <= 10^4 must agree with the per-D definition
        limit = 10_000
        flags = [is_fundamental(-j) if j else False for j in range(limit)]
        for m, n in ((1, 3), (2, 3), (0, 1)):
            running = 0
            counts = []
            for j in range(limit):
                if flags[j] and (-j) % n == m % n:
                    running += 1
                counts.append(running)
            for x in (7, 99, 1000, 4096, 9999, limit):
                assert n2minus(x, m, n) == counts[x - 1], (m, n, x)

    def test_unconstrained_counts_all(self):
        x = 300
        assert n2minus(x, 0, 1) == sum(
            1 for j in range(1, x) if is_fundamental(-j))


class TestFundamentalMasks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000))
    def test_masks_match_is_fundamental(self, x):
        negative = fundamental_negative_mask(x)
        positive = fundamental_positive_mask(x)
        assert len(negative) == len(positive) == x
        assert not negative[0] and not positive[0]
        assert negative[1:].tolist() == [is_fundamental(-j)
                                         for j in range(1, x)]
        assert positive[1:].tolist() == [is_fundamental(d)
                                         for d in range(1, x)]


class TestBatchClassNumbers:
    def test_matches_per_discriminant_route(self):
        table = class_number_table(2000)
        for d in range(3, 2001):
            expected = form_class_number(-d) if d % 4 in (0, 3) else 0
            assert table[d - 1] == expected, d

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3000), st.sampled_from([(1, 0), (3, 1)]),
           st.sampled_from([1, 2]))
    def test_residue_class_matches_oracle(self, limit, cls, workers):
        modulus, residue = cls
        table = class_number_table(limit, workers, modulus, residue)
        # index (d - d0) // modulus, d0 the least positive member
        expected = [form_class_number(-d) if d % 4 in (0, 3) else 0
                    for d in range(1, limit + 1) if d % modulus == residue]
        assert table.tolist() == expected

    @pytest.mark.parametrize("modulus,residue",
                             [(5, 1), (9, 1), (3, 0), (4, 2), (0, 1)])
    def test_rejects_classes_the_mobius_step_leaves(self, modulus, residue):
        with pytest.raises(ValueError):
            class_number_table(100, modulus=modulus, residue=residue)

    def test_every_accepted_class_matches_oracle(self):
        # the widened class rule, swept: whatever class the table accepts,
        # its Mobius step must give the primitive class numbers
        limit = 2000
        accepted = set()
        for modulus in range(1, 49):
            for residue in range(modulus):
                try:
                    tables = [class_number_table(limit, workers, modulus,
                                                 residue)
                              for workers in (1, 2)]
                except ValueError:
                    continue
                accepted.add((modulus, residue))
                expected = [form_class_number(-d) if d % 4 in (0, 3) else 0
                            for d in range(1, limit + 1)
                            if d % modulus == residue]
                for table in tables:
                    assert table.tolist() == expected, (modulus, residue)
        assert set(FIELD_CLASSES) <= accepted

    def test_worker_determinism(self):
        a = class_number_table(1200, workers=1)
        b = class_number_table(1200, workers=2)
        assert a.tolist() == b.tolist()


class TestCensus:
    def test_small_report(self):
        report = nonvanishing_census(100)
        # fundamental D = 1 mod 3 below 100: 1, 13, 28, 37, 40, 61, 73, 76, 85, 88, 97
        assert report.nonvanishing_count <= 11
        assert 0 <= float(report.nonvanishing_density) <= 1
        assert report.n2minus_count == n2minus(100, 1, 3)

    def test_d13_is_counted(self):
        rows = census_rows(20)
        entry = {r[0]: r for r in rows}
        assert entry[13] == (13, -52, 2, 2)
        assert entry[1] == (1, -4, 1, 1)

    def test_monotone_in_x(self):
        small = nonvanishing_census(400)
        large = nonvanishing_census(800)
        assert large.nonvanishing_count >= small.nonvanishing_count
        assert large.n2minus_count >= small.n2minus_count

    def test_rows_match_oracle(self):
        for d, field, h, h3 in census_rows(300):
            assert field == -d or field == -4 * d or field == -(d // 4)
            assert h == class_number_of_field(-d)
            assert h3 == h % 3

    def test_field_classes_partition_the_population(self):
        for d, field, h, _ in census_rows(5000):
            homes = [(modulus, residue) for modulus, residue in FIELD_CLASSES
                     if -field % modulus == residue]
            assert len(homes) == 1, (d, field)
            assert h == class_number_of_field(-d), d

    def test_workers_agree(self):
        assert nonvanishing_census(3000, workers=1) == \
            nonvanishing_census(3000, workers=2)

    def test_nonvanishing_is_a_restriction_of_the_population(self):
        report = nonvanishing_census(2000)
        population = len(census_rows(2000))
        assert report.nonvanishing_count <= population

    def test_x_floor(self):
        with pytest.raises(ValueError):
            nonvanishing_census(11)


class TestBridge:
    def test_crosscheck_small(self):
        checked = beta_census_crosscheck(100)
        # qualifying fundamental D < 100: 28, 40, 76, 88 (4 = 4*1 is not
        # a fundamental discriminant, so the display exponent 4 is out)
        assert checked == 4

    def test_violation_detected(self):
        base = phi(9, 60)
        coeffs = list(base.series.coeffs)
        coeffs[28] = 0  # beta(28) is nonzero mod 3; zeroing it must trip
        broken = NamedForm(base.name, QSeries.rational(coeffs), base.meta,
                           base.trace)
        with pytest.raises(BridgeViolationError) as err:
            beta_census_crosscheck(60, broken)
        assert err.value.discriminant == 28

    def test_requires_enough_precision(self):
        with pytest.raises(ValueError):
            beta_census_crosscheck(100, phi(9, 50))
