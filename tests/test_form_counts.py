"""The batched reduced-form count against the per-a count it replaced.

per_a_form_counts is the earlier engine, one np.add.at per first
coefficient a; it is the oracle here and is used nowhere in src/.  The
batched form_counts builds the runs of a block of a at once and adds them
in batches whose length follows the table's, so the sizes below reach
several blocks and batches, and one case splits the runs of one a.
"""

import tracemalloc
from math import gcd, isqrt

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plusforms.census import FIELD_CLASSES
from plusforms.class_numbers import form_counts


def per_a_form_counts(limit, modulus=1, residue=0):
    """form_counts one a at a time: for each a, the forms (a, +-beta, c)
    in the class lie on one run of indices per beta, from the index lo of
    4a c0 - beta^2 in steps of 4a / gcd(4a, modulus), and one np.add.at
    adds all the runs of a."""
    first = (residue - 1) % modulus + 1
    size = max(0, (limit - first) // modulus + 1)
    counts = numpy.zeros(size, numpy.int32)
    top = isqrt(max(limit, 0) // 3)
    shifted = first + numpy.arange(top + 1) ** 2  # first + beta^2
    residues = shifted % modulus
    for a in range(1, top + 1):
        g = gcd(4 * a, modulus)
        step, period = 4 * a // g, modulus // g  # strides of index and c
        inverse = pow(step, -1, period)
        beta = numpy.flatnonzero(residues[:a + 1] % g == 0)
        c0 = a + (residues[beta] // g * inverse - a) % period
        lo = (4 * a * c0 - shifted[beta]) // modulus
        inside = lo < size
        beta, c0, lo = beta[inside], c0[inside], lo[inside]
        lengths = (size - 1 - lo) // step + 1
        starts = numpy.cumsum(lengths) - lengths
        twice = (0 < beta) & (beta < a)
        weights = numpy.repeat(twice.astype(numpy.int32) + numpy.int32(1),
                               lengths)
        weights[starts[twice & (c0 == a)]] -= 1
        numpy.add.at(counts, numpy.repeat(lo - step * starts, lengths)
                     + step * numpy.arange(len(weights)), weights)
    return counts


def census_tables(x):
    """(limit, modulus, residue) of the census tables at x, one per class
    of FIELD_CLASSES: -field reaches 4x, x and x / 4 in them."""
    limits = {(48, 4): 4 * x, (48, 40): x, (12, 7): x // 4}
    return [(limits[c], *c) for c in FIELD_CLASSES]


def assert_same_counts(limit, modulus, residue):
    got = form_counts(limit, modulus, residue)
    assert got.dtype == numpy.int32
    assert numpy.array_equal(got, per_a_form_counts(limit, modulus, residue))


@pytest.mark.parametrize("table", census_tables(200000))
def test_census_tables_match_the_per_a_count(table):
    assert_same_counts(*table)


@pytest.mark.parametrize("limit", [1, 2, 100, 4864, 9529, 10 ** 4])
def test_the_hurwitz_rows_of_verify_match_the_per_a_count(limit):
    # g_ab(9, 6, P) reads the class 6 mod 9 up to P - 1
    assert_same_counts(limit, 9, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(-2, 3 * 10 ** 4), st.integers(1, 96), st.integers(-96, 96))
def test_any_class_matches_the_per_a_count(limit, modulus, residue):
    assert_same_counts(limit, modulus, residue)


# the largest modulus whose square fits in int64, where c0 * inverse
# comes closest to 2^63; one entry per table at d = residue
INT64_MODULUS = 3037000499


@pytest.mark.parametrize("d,count", [
    (99999, 336), (100003, 39), (123459, 104), (300003, 88)])
def test_the_largest_int64_modulus_matches_the_per_a_count(d, count):
    assert INT64_MODULUS ** 2 < 1 << 63 <= (INT64_MODULUS + 1) ** 2
    got = form_counts(d, INT64_MODULUS, d)
    assert got.tolist() == [count]
    assert numpy.array_equal(got, per_a_form_counts(d, INT64_MODULUS, d))


def test_one_modulus_past_int64_is_refused():
    with pytest.raises(ValueError, match="int64"):
        form_counts(99999, INT64_MODULUS + 1, 99999)


class _AddSpy:
    """numpy.add with the length of every np.add.at index recorded."""

    def __init__(self, add):
        self.add, self.lengths = add, []

    def at(self, counts, index, values):
        self.lengths.append(len(index))
        self.add.at(counts, index, values)

    def __call__(self, *args, **kwargs):
        return self.add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.add, name)


def entries_of(a, limit, modulus, residue):
    """The triples (a, beta, c), 0 <= beta <= a <= c, with 4ac - beta^2 in
    (0, limit] and in the class: one np.add.at entry each."""
    return sum(1 for beta in range(a + 1)
               for c in range(a, (limit + beta * beta) // (4 * a) + 1)
               if (4 * a * c - beta * beta - residue) % modulus == 0)


def test_the_runs_of_one_a_split_across_batches(monkeypatch):
    # in the class 0 mod 256, a = 64 has five runs (beta = 0, 16, .., 64) of
    # step 1, each nearly the whole table: more entries than a batch holds
    limit, modulus, residue = 256 * 2000, 256, 0
    size = len(per_a_form_counts(limit, modulus, residue))
    batch = max(size, isqrt(limit // 3) + 1)  # the documented bound
    assert entries_of(64, limit, modulus, residue) > batch
    spy = _AddSpy(numpy.add)
    monkeypatch.setattr(numpy, "add", spy)
    got = form_counts(limit, modulus, residue)
    monkeypatch.undo()
    assert max(spy.lengths) <= batch
    assert numpy.array_equal(got, per_a_form_counts(limit, modulus, residue))


# the most form_counts may allocate at once, in units of the table's bytes:
# on these tables the per-a count peaked at 8.2 to 8.4, the batched one at
# 11.1 to 11.6
PEAK_TABLES = 14


@pytest.mark.parametrize("table", census_tables(200000))
def test_memory_stays_a_small_multiple_of_the_table(table):
    tracemalloc.start()
    try:
        counts = form_counts(*table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_TABLES * counts.nbytes
