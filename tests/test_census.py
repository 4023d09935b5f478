import csv
import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy

from plusforms import cli
from plusforms.census import (
    CSV_CHUNK_ROWS,
    FIELD_CLASSES,
    BridgeViolationError,
    beta_census_crosscheck,
    census_csv,
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


def _fundamental_entries(limit, modulus=1, residue=0):
    """{index: h(-d)} at every fundamental -d with d <= limit in the class,
    indexed as in the table, from the one-discriminant oracle."""
    return {(d - 1) // modulus: form_class_number(-d)
            for d in range(3, limit + 1)
            if (d - residue) % modulus == 0 and is_fundamental(-d)}


def _read(table, entries):
    return {index: int(table[index]) for index in entries}


class TestBatchClassNumbers:
    # the table is the count of all reduced forms, which is h(-d) at every
    # fundamental -d, the only entries the census reads; the count at the
    # other d is held against the Hurwitz oracle in test_class_numbers

    def test_matches_the_oracle_at_fundamental_discriminants(self):
        table = class_number_table(2000)
        entries = _fundamental_entries(2000)
        assert len(table) == 2000 and len(entries) == 611
        assert _read(table, entries) == entries

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 48), st.integers(-48, 48))
    def test_residue_class_matches_oracle(self, limit, modulus, residue):
        table = class_number_table(limit, modulus, residue)
        # index (d - d0) // modulus, d0 the least positive member
        assert len(table) == sum(1 for d in range(1, limit + 1)
                                 if (d - residue) % modulus == 0)
        entries = _fundamental_entries(limit, modulus, residue)
        assert _read(table, entries) == entries

    def test_rejects_modulus_zero(self):
        with pytest.raises(ValueError):
            class_number_table(100, modulus=0, residue=1)

    def test_every_class_matches_oracle(self):
        # every class mod s for s <= 48: the field classes, and classes
        # such as 1 mod 5, 1 mod 9, 0 mod 3 and 2 mod 4 that no Mobius
        # step over f^2 could take
        limit = 2000
        for modulus in range(1, 49):
            for residue in range(modulus):
                table = class_number_table(limit, modulus, residue)
                entries = _fundamental_entries(limit, modulus, residue)
                assert _read(table, entries) == entries, (modulus, residue)


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

    def test_nonvanishing_is_a_restriction_of_the_population(self):
        report = nonvanishing_census(2000)
        population = len(census_rows(2000))
        assert report.nonvanishing_count <= population

    def test_x_floor(self):
        with pytest.raises(ValueError):
            nonvanishing_census(11)

    def test_pinned_report_and_csv_at_a_million(self, capsys, tmp_path):
        # the oracle tests stop at a few thousand; at x = 10^6 the tables
        # reach d = 4x, and the JSON report and the CSV are pinned byte for
        # byte
        target = tmp_path / "rows.csv"
        assert cli.main(["census", "--x", "1000000",
                         "--csv", str(target)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "c759f9306dd09bd73a26f238126bc5623ab9f471aee4b2043ede3d977bf55c5b"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            "ef9080b9032918612a0cf135ed2f445291f64814f152589865b06c4b5e7f0c90"


def _csv_writer_text(rows):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["D", "field_discriminant", "h", "h_mod_3"])
    writer.writerows(rows)
    return out.getvalue()


class TestCensusCsv:
    # the CSV is formatted CSV_CHUNK_ROWS rows at a time; its text is what
    # csv.writer writes for census_rows, at every row count around a chunk
    X = 30000

    def test_rows_fill_more_than_two_chunks(self):
        assert len(census_rows(self.X)) > 2 * CSV_CHUNK_ROWS + 1

    @pytest.mark.parametrize("count", [0, 1, CSV_CHUNK_ROWS - 1,
                                       CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                       2 * CSV_CHUNK_ROWS + 1])
    def test_chunks_equal_csv_writer(self, count):
        rows = census_rows(self.X)[:count]
        ds, field, h, _ = numpy.array(rows, numpy.int64).reshape(-1, 4).T
        text = "".join(census_csv(ds, field, h))
        assert text == _csv_writer_text(rows)

    def test_cli_writes_the_csv_writer_bytes(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        assert cli.main(["census", "--x", str(self.X),
                         "--csv", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == \
            _csv_writer_text(census_rows(self.X)).encode()


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


def test_crosscheck_rejects_a_form_that_is_not_3_integral():
    from fractions import Fraction

    from plusforms.qseries import NonIntegralCoefficientError

    base = phi(9, 60)
    coeffs = list(base.series.coeffs)
    coeffs[28] = Fraction(1, 3)
    broken = NamedForm(base.name, QSeries.rational(coeffs), base.meta,
                       base.trace)
    with pytest.raises(NonIntegralCoefficientError):
        beta_census_crosscheck(60, broken)
