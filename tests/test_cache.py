"""Unit tests for the set-associative cache and tag filter."""

import pytest

from repro.cache.cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    SetAssocCache,
    TagFilter,
    set_index,
    state_name,
)


def make_cache(size=4096, assoc=4, line=64):
    return SetAssocCache("t", size, assoc, line)


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache("t", 100, 4, 64)
        with pytest.raises(ValueError):
            TagFilter("t", 100, 4, 64)

    def test_n_sets(self):
        assert make_cache().n_sets == 16


class TestSetIndex:
    def test_within_range(self):
        for addr in range(0, 1 << 20, 4096 + 64):
            assert 0 <= set_index(addr, 64, 16) < 16

    def test_same_line_same_set(self):
        assert set_index(0x1000, 64, 16) == set_index(0x103f, 64, 16)

    def test_page_strided_allocation_spreads(self):
        """Every-other-page allocation (mirroring) must still use all sets."""
        used = {set_index(page * 8192 + line * 64, 64, 16)
                for page in range(64) for line in range(64)}
        assert len(used) == 16

    @pytest.mark.parametrize("size,line", [
        (4096, 64),           # 16 sets: plain modulo
        (32 * 1024, 64),      # 512-line L2, 128 sets: page-hashed groups
        (128 * 1024, 64),     # default L2, 512 sets
        (48 * 4 * 128, 48),   # non-power-of-two line: no inline shift
    ], ids=["plain", "grouped", "grouped-l2", "odd-line"])
    @pytest.mark.parametrize("kind", [SetAssocCache, TagFilter])
    def test_inlined_set_of_matches_set_index(self, kind, size, line):
        """``_set_of`` inlines ``set_index`` with ``index_params``; the
        fast path inlines the same formula, so both must pick the set
        ``set_index`` names, across pages and far-apart addresses."""
        cache = kind("t", size, 4, line)
        sets = cache.raw_sets()
        for page in (0, 1, 2, 3, 7, 64, 4097, (1 << 20) + 5):
            for offset in range(0, 4096, 3 * line):
                addr = (page * 4096 + offset) // line * line
                chosen = sets[set_index(addr, line, cache.n_sets)]
                assert cache._set_of(addr) is chosen, hex(addr)


class TestLookupInsert:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(0x40) is None
        c.insert(0x40, SHARED)
        line = c.lookup(0x40)
        assert line is not None and line.state == SHARED
        assert c.hits == 1 and c.misses == 1

    def test_peek_does_not_count(self):
        c = make_cache()
        c.insert(0x40, SHARED)
        c.peek(0x40)
        assert c.hits == 0 and c.misses == 0

    def test_lru_eviction_order(self):
        c = SetAssocCache("t", 2 * 64, 2, 64)   # 1 set, 2 ways
        c.insert(0x000, SHARED)
        c.insert(0x040, SHARED)
        c.lookup(0x000)                        # refresh the older line
        victim = c.insert(0x080, SHARED)
        assert victim is not None and victim.addr == 0x040

    def test_insert_overwrites_in_place(self):
        c = make_cache()
        c.insert(0x40, SHARED)
        victim = c.insert(0x40, MODIFIED, value=9)
        assert victim is None
        assert c.peek(0x40).state == MODIFIED
        assert c.peek(0x40).value == 9

    def test_associativity_bound(self):
        c = make_cache(assoc=4)
        for i in range(1000):
            c.insert(i * 64, SHARED)
        # No set may ever exceed its associativity.
        assert all(len(s) <= 4 for s in c._sets)
        assert sum(1 for _ in c.resident_lines()) <= c.n_sets * 4


class TestStatesAndDirty:
    def test_state_names(self):
        assert state_name(INVALID) == "I"
        assert state_name(MODIFIED) == "M"

    def test_dirty_lines(self):
        c = make_cache()
        c.insert(0x40, MODIFIED, value=1)
        c.insert(0x80, SHARED)
        c.insert(0xc0, EXCLUSIVE)
        dirty = list(c.dirty_lines())
        assert [d.addr for d in dirty] == [0x40]
        assert dirty[0].dirty

    def test_invalidate_returns_line(self):
        c = make_cache()
        c.insert(0x40, MODIFIED, value=7)
        line = c.invalidate(0x40)
        assert line.value == 7
        assert c.peek(0x40) is None
        assert c.invalidate(0x40) is None

    def test_clear(self):
        c = make_cache()
        c.insert(0x40, MODIFIED)
        c.clear()
        assert c.resident_count() == 0

    def test_miss_rate(self):
        c = make_cache()
        c.lookup(0x40)
        c.insert(0x40, SHARED)
        c.lookup(0x40)
        assert c.miss_rate == pytest.approx(0.5)
        assert make_cache().miss_rate == 0.0


class TestTagFilter:
    def test_touch_miss_then_hit(self):
        f = TagFilter("t", 1024, 4, 64)
        assert not f.touch(0x40)
        assert f.touch(0x40)
        assert f.hits == 1 and f.misses == 1

    def test_capacity_eviction(self):
        f = TagFilter("t", 2 * 64, 2, 64)
        f.touch(0x000)
        f.touch(0x040)
        f.touch(0x080)                # evicts LRU 0x000
        assert not f.touch(0x000)

    def test_invalidate_and_clear(self):
        f = TagFilter("t", 1024, 4, 64)
        f.touch(0x40)
        f.invalidate(0x40)
        assert not f.touch(0x40)
        f.clear()
        assert not f.touch(0x40)
