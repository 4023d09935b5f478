from plusforms import _cache
from plusforms.cohen_eisenstein import cohen_series
from plusforms.qseries import QSeries


def constant(value):
    calls = []

    def build(precision):
        calls.append(precision)
        return QSeries.rational([value] * precision)

    return build, calls


class TestBoundedStore:
    def setup_method(self):
        _cache.clear()

    def teardown_method(self):
        _cache.clear()

    def test_cap_leaves_room_for_a_session(self):
        # a session fills 7 keys: phi 9 and 11 or 13, psi 12/24, cohen
        # 2/3/5 (R_t is not cached); the bound keeps room for 12
        assert _cache.MAX_ENTRIES >= 4 * 12

    def test_store_never_exceeds_the_cap(self):
        for i in range(3 * _cache.MAX_ENTRIES):
            _cache.series_at(("fill", i), 2, constant(i)[0])
            assert len(_cache._store) == min(i + 1, _cache.MAX_ENTRIES)
        assert set(_cache._store) == {
            ("fill", i) for i in range(2 * _cache.MAX_ENTRIES,
                                       3 * _cache.MAX_ENTRIES)}

    def test_least_recently_used_key_goes_first(self):
        builders = [constant(i) for i in range(_cache.MAX_ENTRIES + 1)]
        for i in range(_cache.MAX_ENTRIES):
            _cache.series_at(("fill", i), 3, builders[i][0])
        # a hit on key 0 makes key 1 the oldest
        _cache.series_at(("fill", 0), 2, builders[0][0])
        assert builders[0][1] == [3]
        _cache.series_at(("fill", "new"), 3, builders[-1][0])
        assert ("fill", 0) in _cache._store
        assert ("fill", 1) not in _cache._store
        _cache.series_at(("fill", 1), 3, builders[1][0])
        assert builders[1][1] == [3, 3]

    def test_evicted_key_rebuilds_to_the_same_series(self):
        first = cohen_series(5, 60).series
        for i in range(_cache.MAX_ENTRIES):
            _cache.series_at(("fill", i), 1, constant(i)[0])
        assert ("cohen", 5) not in _cache._store
        again = cohen_series(5, 60).series
        assert ("cohen", 5) in _cache._store
        assert again == first
        assert again is not first
