"""Unit tests for counter-system configurations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.counter.config import Config
from repro.errors import SemanticsError


def config(kappa, g):
    """A config from equally many per-round ``kappa`` and ``g`` rows."""
    cells = tuple(cell for k_row, g_row in zip(kappa, g)
                  for cell in (*k_row, *g_row))
    return Config.from_flat(cells, len(kappa[0]), len(g[0]), len(kappa))


def bump(c, round_no, src_index, dst_index, dst_round, updates):
    """Move one automaton from ``src`` in ``round_no`` to ``dst`` in
    ``dst_round`` and add ``updates`` (by variable index) to
    ``round_no``'s variables, through :meth:`Config.apply_move`."""
    block = c.width_kappa + c.width_g
    g_base = round_no * block + c.width_kappa
    return c.apply_move(
        max(round_no, dst_round) + 1,
        round_no * block + src_index,
        dst_round * block + dst_index,
        [(g_base + var_index, incr) for var_index, incr in updates],
    )


class TestAccessors:
    def test_counter_and_variable(self):
        c = config([[1, 2]], [[3]])
        assert c.counter(0, 0) == 1
        assert c.counter(0, 1) == 2
        assert c.variable(0, 0) == 3

    def test_unseen_round_reads_zero(self):
        c = config([[1]], [[0]])
        assert c.counter(5, 0) == 0
        assert c.variable(5, 0) == 0

    def test_rounds(self):
        c = config([[1], [0]], [[0], [0]])
        assert c.rounds == 2


class TestEnsureRounds:
    def test_extends_with_zeros(self):
        c = config([[1, 2]], [[5]])
        extended = c.ensure_rounds(3)
        assert extended.rounds == 3
        assert extended.kappa[2] == (0, 0)
        assert extended.g[1] == (0,)
        assert extended.counter(0, 1) == 2

    def test_noop_when_enough(self):
        c = config([[1]], [[0]])
        assert c.ensure_rounds(1) is c


class TestBump:
    def test_same_round_move(self):
        c = config([[2, 0]], [[0]])
        moved = bump(c, 0, 0, 1, 0, ((0, 1),))
        assert moved.kappa[0] == (1, 1)
        assert moved.g[0] == (1,)

    def test_cross_round_move(self):
        c = config([[1, 0]], [[0]])
        moved = bump(c, 0, 0, 1, 1, ())
        assert moved.kappa[0] == (0, 0)
        assert moved.kappa[1] == (0, 1)

    def test_empty_source_rejected(self):
        c = config([[0, 1]], [[0]])
        with pytest.raises(SemanticsError):
            bump(c, 0, 0, 1, 0, ())

    def test_original_unchanged(self):
        c = config([[1, 0]], [[0]])
        bump(c, 0, 0, 1, 0, ((0, 3),))
        assert c.kappa[0] == (1, 0)
        assert c.g[0] == (0,)

    def test_hashable_and_equal(self):
        a = config([[1, 0]], [[0]])
        b = config([[1, 0]], [[0]])
        assert a == b and hash(a) == hash(b)
        assert a != bump(a, 0, 0, 1, 0, ())


@given(
    counts=st.lists(st.integers(0, 5), min_size=2, max_size=5),
    src=st.integers(0, 4),
    dst=st.integers(0, 4),
)
def test_bump_conserves_population(counts, src, dst):
    src %= len(counts)
    dst %= len(counts)
    c = config([counts], [[0]])
    if counts[src] == 0:
        with pytest.raises(SemanticsError):
            bump(c, 0, src, dst, 0, ())
        return
    moved = bump(c, 0, src, dst, 0, ())
    assert sum(moved.kappa[0]) == sum(counts)
