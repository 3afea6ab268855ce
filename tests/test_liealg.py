from fractions import Fraction

import pytest

from curalg import report
from curalg.liealg import CartanData, CartanError, adjacent_pairs, cartan, from_label


def test_rank_one():
    cd = cartan("A", 1)
    assert cd.a == ((2,),)
    assert cd.b_entry(1, 1) == 1


def test_sl3():
    cd = cartan("A", 2)
    assert cd.a == ((2, -1), (-1, 2))
    assert all(2 * cd.b_entry(i, j) == cd.a_entry(i, j) for i in (1, 2) for j in (1, 2))


def test_d4_matches_textbook_table():
    # Constructed from the Dynkin adjacency; the expected matrix is the
    # standard D4 table with the fork at node 2 (= r - 2).
    cd = cartan("D", 4)
    expected = (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    assert cd.a == expected
    assert cd.a == tuple(tuple(row) for row in zip(*cd.a))  # symmetry


def test_adjacent_pairs():
    assert adjacent_pairs(cartan("A", 1)) == []
    assert sorted(adjacent_pairs(cartan("A", 2))) == [(1, 2), (2, 1)]
    d4 = adjacent_pairs(cartan("D", 4))
    assert len(d4) == 6  # three edges, both orientations
    assert all(2 in pair for pair in d4)


def test_e_series():
    for r in (6, 7, 8):
        cd = cartan("E", r)
        assert sum(row.count(-1) for row in cd.a) == 2 * (r - 1)
        assert cd.a == tuple(tuple(row) for row in zip(*cd.a))


@pytest.mark.parametrize("series,rank", [("A", 0), ("D", 3), ("E", 5), ("B", 2)])
def test_inadmissible(series, rank):
    with pytest.raises(CartanError):
        cartan(series, rank)


def test_from_label():
    assert from_label("A3").rank == 3
    assert from_label("D4").series == "D"
    with pytest.raises(CartanError):
        from_label("Q7")


def test_cartan_data_hashes_its_matrix_once(monkeypatch):
    cd = cartan("D", 4)
    want = hash((cd.series, cd.rank, cd.a, cd.b))   # the field tuple's hash
    assert hash(cd) == want

    def rehashed(self):
        raise AssertionError("Fraction rehashed")

    monkeypatch.setattr(Fraction, "__hash__", rehashed)
    assert hash(cd) == want and {cd: 1}[cd] == 1


def test_adjacent_pairs_record_fails_without_a_tree(monkeypatch):
    def pairs_record():
        rep = report.run(report.RunConfig(algebra="A3", suites=("liealg",)))
        return next(c for c in rep["suites"][0]["checks"] if c["id"] == "adjacent_pairs")

    rec = pairs_record()
    assert (rec["value"], rec["pass"]) == (4, True)
    a = [list(row) for row in cartan("A", 3).a]
    a[0][1] = a[1][0] = 0   # remove the edge 1 - 2
    cut = CartanData("A", 3, tuple(map(tuple, a)),
                     tuple(tuple(Fraction(x, 2) for x in row) for row in a))
    monkeypatch.setattr(report.RunConfig, "cartan", lambda self: cut)
    rec = pairs_record()
    assert (rec["value"], rec["pass"]) == (2, False)
