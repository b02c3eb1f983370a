"""report._sweep, the one loop that checks a law over index tuples."""

import itertools

import pytest

from algcheck.report import AxiomReport, Violation, _sweep

N = 4


def _at_sum_two(idx):
    return sum(idx) == 2


def _at_zero(idx):
    return not any(idx)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sweep_reports_every_disagreeing_tuple_in_index_order(arity):
    # the second side disagrees with the first where the indices sum to 2,
    # the third at the all-zero tuple: in row 0 they disagree at last
    # indices 2 and 0, each side at one of them
    def sides(*row):
        return ([0] * N, [int(_at_sum_two(row + (z,))) for z in range(N)],
                [int(_at_zero(row + (z,))) for z in range(N)])

    called = []

    def exact(values, *idx):
        called.append(idx)
        return idx, (sum(idx),), (len(idx),)

    rep = _sweep("law", N, arity, sides, exact)
    expected = [idx for idx in itertools.product(range(N), repeat=arity)
                if _at_sum_two(idx) or _at_zero(idx)]
    assert called == expected
    assert rep == AxiomReport("law", [Violation(idx, (sum(idx),), (arity,)) for idx in expected])
    assert [v.indices for v in rep.violations][:2] == [(0,) * arity, (0,) * (arity - 1) + (2,)]


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sweep_compares_nothing_for_a_single_side(arity):
    rows = []

    def sides(*row):
        rows.append(row)
        return (list(range(N)),)

    def exact(values, *idx):
        raise AssertionError(f"exact called at {idx}")

    assert _sweep("law", N, arity, sides, exact) == AxiomReport("law")
    assert rows == list(itertools.product(range(N), repeat=arity - 1))


def test_sweep_compares_the_sides_element_by_element():
    # a range never equals a list, so each row is scanned, and every element agrees
    def sides(a):
        return range(a, a + N), list(range(a, a + N))

    rep = _sweep("law", N, 2, sides, lambda values, a, b: pytest.fail("no violation to expand"))
    assert rep == AxiomReport("law") and rep.ok


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sweep_hands_exact_the_sides_entries_at_the_violation(arity):
    # each side's entry encodes its side, row and last index, so a value
    # from another side, row or index would show
    def entry(side, idx):
        return side * 1000 + sum(i * 10 ** k for k, i in enumerate(idx)) if side else 0

    def sides(*row):
        return tuple([entry(s, row + (z,)) for z in range(N)] for s in range(3))

    got = []

    def exact(values, *idx):
        got.append((idx, values))
        return idx, values[:1], values[1:]

    rep = _sweep("law", N, arity, sides, exact)
    cube = list(itertools.product(range(N), repeat=arity))
    assert got == [(idx, tuple(entry(s, idx) for s in range(3))) for idx in cube]
    assert [v.rhs for v in rep.violations] == [values[1:] for _, values in got]


def test_reports_are_built_in_one_step():
    assert not hasattr(AxiomReport, "record")
