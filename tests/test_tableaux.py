"""Diagrams, basis tableaux, the index-tuple factorization, and normalization."""

from itertools import permutations, product
from math import factorial

import pytest

from reynet.groups import enumerate_design, enumerate_symmetric, identity, invert, permute_indices
from reynet.tableaux import (
    BasisTableau,
    ExtendedTableau,
    YoungDiagram,
    all_basis_tableaux,
    base_indices,
    enum_basis_tableaux,
    enum_young_diagrams,
    indices_to_tableau,
    normalizing_permutation,
    tableau_to_indices,
)

# Number of set partitions of {1..m}: 1, 2, 5, 15, 52, 203 for m = 1..6.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def brute_force_partitions(m):
    """Independent enumeration: all ways to drop m labeled items into blocks."""
    if m == 1:
        return [[[1]]]
    out = []
    for smaller in brute_force_partitions(m - 1):
        for k in range(len(smaller)):
            out.append([b + [m] if i == k else list(b) for i, b in enumerate(smaller)])
        out.append([list(b) for b in smaller] + [[m]])
    return out


def test_young_diagrams_partition_m():
    for m in range(1, 7):
        diagrams = enum_young_diagrams(m)
        for d in diagrams:
            assert sum(d.rows) == m
            assert all(a >= b for a, b in zip(d.rows, d.rows[1:]))
        rowlists = [d.rows for d in diagrams]
        assert rowlists == sorted(rowlists, reverse=True)
        assert len(set(rowlists)) == len(rowlists)
    assert [d.rows for d in enum_young_diagrams(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_census_counts_are_bell_numbers():
    for m, bell in BELL.items():
        assert len(all_basis_tableaux(m)) == bell


def test_census_matches_brute_force_set_partitions():
    for m in range(1, 7):
        ours = {frozenset(map(frozenset, t.rows)) for t in all_basis_tableaux(m)}
        brute = {frozenset(map(frozenset, p)) for p in brute_force_partitions(m)}
        assert ours == brute
        assert len(ours) == len(all_basis_tableaux(m))


def test_census_count_per_diagram():
    # Multinomial over row lengths, divided by repeats of equal-length rows.
    for m in range(1, 7):
        for diagram in enum_young_diagrams(m):
            expected = factorial(m)
            for length in diagram.rows:
                expected //= factorial(length)
            mult = {}
            for length in diagram.rows:
                mult[length] = mult.get(length, 0) + 1
            for count in mult.values():
                expected //= factorial(count)
            matching = [t for t in all_basis_tableaux(m) if t.diagram == diagram]
            assert len(matching) == expected


def test_tableau_rows_are_canonical():
    for m in range(1, 6):
        for tab in all_basis_tableaux(m):
            for row in tab.rows:
                assert list(row) == sorted(row)
            lengths = [len(r) for r in tab.rows]
            assert lengths == sorted(lengths, reverse=True)
            for a, b in zip(tab.rows, tab.rows[1:]):
                if len(a) == len(b):
                    assert a[0] < b[0]


def test_tableau_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        BasisTableau(3, ((2, 1), (3,)))  # row not increasing
    with pytest.raises(ValueError):
        BasisTableau(3, ((3,), (1, 2)))  # lengths increasing
    with pytest.raises(ValueError):
        BasisTableau(3, ((1, 2), (2, 3)))  # duplicate entry
    with pytest.raises(ValueError):
        BasisTableau(3, ((1, 2),))  # does not cover 1..3


def test_factorization_of_literal_tuples():
    ext = indices_to_tableau((2, 1, 1), n=3)
    assert ext.labels == (1, 2)
    assert ext.shape.rows == ((2, 3), (1,))
    ext = indices_to_tableau((5, 5, 5), n=5)
    assert ext.labels == (5,)
    assert ext.shape.rows == ((1, 2, 3),)


def test_tuple_tableau_round_trip_exhaustive():
    for n in range(1, 6):
        for m in range(1, 4):
            for u in product(range(1, n + 1), repeat=m):
                ext = indices_to_tableau(u, n)
                assert tableau_to_indices(ext) == u
                assert ext.shape in all_basis_tableaux(m)
                assert len(ext.labels) == ext.shape.depth
                assert len(set(ext.labels)) == len(ext.labels)


def test_shape_is_stable_under_relabeling():
    # Acting on the entries permutes the labels and leaves the shape alone.
    for n in (3, 4):
        for u in product(range(1, n + 1), repeat=3):
            ext = indices_to_tableau(u, n)
            for g in enumerate_symmetric(n):
                moved = indices_to_tableau(permute_indices(g, u), n)
                assert moved.shape == ext.shape
                assert moved.labels == permute_indices(g, ext.labels)


def test_base_indices_use_leading_labels():
    for m in range(1, 5):
        for tab in all_basis_tableaux(m):
            u = base_indices(tab)
            assert sorted(set(u)) == list(range(1, tab.depth + 1))
            n = max(tab.m, tab.depth)
            assert indices_to_tableau(u, n).shape == tab


def test_normalizing_the_leading_labels_is_the_identity():
    for n in range(2, 7):
        for depth in range(1, min(3, n) + 1):
            assert normalizing_permutation(tuple(range(1, depth + 1)), n) == identity(n)


def test_normalizer_sends_labels_home_and_lives_in_the_design():
    for n in range(2, 7):
        for depth in range(1, min(3, n) + 1):
            members = set(enumerate_design(n, depth).elements)
            for labels in permutations(range(1, n + 1), depth):
                g = normalizing_permutation(labels, n)
                assert g in members
                for d, v in enumerate(labels, start=1):
                    assert g(v) == d


def test_normalizer_is_unique_in_the_design():
    for n in range(2, 6):
        for depth in range(1, min(3, n) + 1):
            design = enumerate_design(n, depth)
            for labels in permutations(range(1, n + 1), depth):
                hits = [
                    g
                    for g in design.elements
                    if all(g(v) == d for d, v in enumerate(labels, start=1))
                ]
                assert len(hits) == 1


def test_normalizer_matches_design_inverse_images():
    # g sends its own inverse images g^-1(d) back to d, so normalizing the
    # label tuple (g^-1(1), ..., g^-1(D)) must recover g itself.
    for n in range(2, 6):
        for depth in range(1, min(3, n) + 1):
            for g in enumerate_design(n, depth).elements:
                labels = tuple(invert(g)(d) for d in range(1, depth + 1))
                assert normalizing_permutation(labels, n) == g


def test_extended_tableau_validates_labels():
    tab = all_basis_tableaux(2)[0]
    with pytest.raises(ValueError):
        ExtendedTableau(3, (1, 2), tab)  # wrong label count for the shape
    deep = [t for t in all_basis_tableaux(2) if t.depth == 2][0]
    with pytest.raises(ValueError):
        ExtendedTableau(3, (2, 2), deep)  # repeated label
    with pytest.raises(ValueError):
        ExtendedTableau(3, (0, 1), deep)  # label out of range
