"""Exhaustive small-size checks of the partition and graph machinery.

The oracles here (Bell triangle, Catalan recurrence, quadruple crossing
scan, brute-force maximality) are deliberately written from the definitions,
independently of the library's own shortcuts.
"""

import itertools

import pytest

from rmtlaw import (
    BoundError,
    DomainError,
    ParseError,
    Partition,
    closed_block_view,
    count_nc_by_block_sizes,
    enumerate_compositions,
    enumerate_consistent_graphs,
    enumerate_partitions,
    is_noncrossing,
    kreweras_complement,
    max_component_graphs,
    narayana,
    nc_partitions,
)


def bell_numbers(upto: int) -> list[int]:
    """Bell numbers B_1..B_upto via the Bell (Peirce) triangle."""
    out = []
    row = [1]
    for _ in range(upto):
        out.append(row[-1] if out else 1)
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return out


def catalan_numbers(upto: int) -> list[int]:
    """Catalan numbers C_1..C_upto via C_{n+1} = sum C_i C_{n-i}."""
    c = [1]  # C_0
    for n in range(upto):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c[1:]


def crossing_by_quadruple_scan(p: Partition) -> bool:
    labels = p.block_map()
    k = p.k
    for a, b, c, d in itertools.combinations(range(1, k + 1), 4):
        if labels[a] == labels[c] and labels[b] == labels[d] and labels[a] != labels[b]:
            return True
    return False


def interlaced_union(p: Partition, q: Partition) -> Partition:
    """p on odd positions 2e-1 and q on even positions 2e of a 2k circle."""
    blocks = [tuple(2 * e - 1 for e in b) for b in p.blocks]
    blocks += [tuple(2 * e for e in b) for b in q.blocks]
    return Partition(2 * p.k, tuple(blocks))


def refines(fine: Partition, coarse: Partition) -> bool:
    coarse_sets = [set(b) for b in coarse.blocks]
    return all(any(set(b) <= cs for cs in coarse_sets) for b in fine.blocks)


def test_partition_canonical_form():
    p = Partition(5, ((3,), (5,), (4, 2, 1)))
    assert p.blocks == ((1, 2, 4), (3,), (5,))
    assert str(p) == "1,2,4|3|5"
    assert Partition.parse("1,2,4|3|5") == p
    assert p.n_blocks == 3
    assert p.block_sizes() == (3, 1, 1)
    assert p.block_map()[4] == 0


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition(3, ((1, 2),))  # misses 3
    with pytest.raises(DomainError):
        Partition(3, ((1, 2), (2, 3)))  # repeats 2
    with pytest.raises(DomainError):
        Partition(2, ((1, 2, 3),))  # overshoots k
    with pytest.raises(DomainError):
        Partition(0, ())


@pytest.mark.parametrize("text", ["", "1,2|2,3", "1|x", "0,1", "2|3"])
def test_partition_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        Partition.parse(text)


def test_partition_counts_match_bell_triangle():
    bells = bell_numbers(8)
    for k in range(1, 9):
        assert len(enumerate_partitions(k)) == bells[k - 1]


def test_partition_enumeration_is_duplicate_free():
    for k in range(1, 7):
        parts = enumerate_partitions(k)
        assert len(set(parts)) == len(parts)


def test_partition_enumeration_bounds():
    with pytest.raises(BoundError):
        enumerate_partitions(0)
    with pytest.raises(BoundError):
        enumerate_partitions(13)


def test_noncrossing_matches_quadruple_scan():
    for k in range(1, 7):
        for p in enumerate_partitions(k):
            assert is_noncrossing(p) == (not crossing_by_quadruple_scan(p))


def test_nc_counts_match_catalan_recurrence():
    catalans = catalan_numbers(8)
    for k in range(1, 9):
        assert len(nc_partitions(k)) == catalans[k - 1]


def test_enumerated_partitions_are_canonical():
    # the enumerators skip validation, so each partition must already be in
    # the form the validating constructor would give it
    for k in range(1, 11):
        for p in nc_partitions(k):
            assert Partition(k, p.blocks) == p
    for k in range(1, 9):
        for p in enumerate_partitions(k):
            assert Partition(k, p.blocks) == p


def test_nc_enumeration_equals_filtered_lattice():
    for k in range(1, 8):
        direct = set(nc_partitions(k))
        filtered = {p for p in enumerate_partitions(k) if is_noncrossing(p)}
        assert direct == filtered


def test_kreweras_worked_example():
    p = Partition.parse("1,2,4|3|5")
    assert str(kreweras_complement(p)) == "1|2,3|4,5"


def test_kreweras_block_count():
    # #K(p) = k - #p + 1
    for k in range(1, 8):
        for p in nc_partitions(k):
            assert kreweras_complement(p).n_blocks == k - p.n_blocks + 1


def test_kreweras_square_is_downward_rotation():
    for k in range(1, 7):
        for p in nc_partitions(k):
            rotated = Partition(
                k, tuple(tuple(k if e == 1 else e - 1 for e in b) for b in p.blocks)
            )
            assert kreweras_complement(kreweras_complement(p)) == rotated


def test_kreweras_rejects_crossing():
    with pytest.raises(DomainError):
        kreweras_complement(Partition.parse("1,3|2,4"))


def test_kreweras_is_coarsest_union_noncrossing():
    """K(p) keeps the interlaced union non-crossing and every other partition
    that does so refines it."""
    for k in range(1, 6):
        all_parts = enumerate_partitions(k)
        for p in nc_partitions(k):
            comp = kreweras_complement(p)
            assert is_noncrossing(interlaced_union(p, comp))
            for q in all_parts:
                if is_noncrossing(interlaced_union(p, q)):
                    assert refines(q, comp)


def test_closed_block_worked_example():
    view = closed_block_view(Partition(8, ((1, 2, 3, 5, 6), (4, 7, 8))))
    assert view.closed_blocks == ((1, 2, 3, 4, 5, 6, 7), (1, 4, 5, 7, 8))
    assert view.multiplicity == (1, 2, 2, 1, 1, 2, 1, 2)


def test_closed_block_slot_budget():
    # multiplicity flags predecessor sharing; each closed block holds 2|B| slots
    for k in range(1, 7):
        for p in enumerate_partitions(k):
            view = closed_block_view(p)
            labels = p.block_map()
            for l in range(1, k + 1):
                pred = k if l == 1 else l - 1
                expected = 2 if labels[pred] == labels[l] else 1
                assert view.multiplicity[l - 1] == expected
            for block, closed in zip(p.blocks, view.closed_blocks):
                members = set(block)
                slots = sum(
                    (l in members) + ((k if l == 1 else l - 1) in members) for l in closed
                )
                assert slots == 2 * len(block)


def test_single_element_graph():
    graphs = enumerate_consistent_graphs(Partition(1, ((1,),)))
    assert len(graphs) == 1
    g = graphs[0]
    assert g.edges == ((1, 1),)
    assert g.degree(1) == 2  # self-loop counts twice
    assert g.r == 1


def test_two_element_graphs():
    # one block {1,2}: either two self-loops or a doubled edge
    graphs = enumerate_consistent_graphs(Partition(2, ((1, 2),)))
    assert sorted(g.edges for g in graphs) == [((1, 1), (2, 2)), ((1, 2), (1, 2))]
    best = max_component_graphs(Partition(2, ((1, 2),)))
    assert len(best) == 1 and best[0].edges == ((1, 1), (2, 2))
    # two singletons: the doubled edge (1,2), one from each closed block
    graphs = enumerate_consistent_graphs(Partition(2, ((1,), (2,))))
    assert len(graphs) == 1
    assert graphs[0].edges == ((1, 2), (1, 2))
    assert graphs[0].block_assignment == (1, 2)
    assert graphs[0].r == 1


def test_graph_structural_invariants():
    """k edges, all degrees two, per-block degrees equal to multiplicities on
    the closed block, and every component is a cycle."""
    for k in range(1, 6):
        for p in enumerate_partitions(k):
            view = closed_block_view(p)
            for g in enumerate_consistent_graphs(p):
                assert len(g.edges) == k
                for v in range(1, k + 1):
                    assert g.degree(v) == 2
                for s, closed in enumerate(view.closed_blocks, start=1):
                    degs = g.block_degrees(s)
                    assert set(degs) == set(closed)
                    for l in closed:
                        assert degs[l] == view.multiplicity[l - 1]
                for comp in g.component_partition().blocks:
                    members = set(comp)
                    edges_inside = sum(1 for a, b in g.edges if a in members and b in members)
                    assert edges_inside == len(comp)


def test_graph_enumeration_is_duplicate_free():
    for k in range(1, 6):
        for p in enumerate_partitions(k):
            graphs = enumerate_consistent_graphs(p)
            assert len(set(graphs)) == len(graphs)


def test_crossing_pair_partition_has_no_maximal_graph():
    p = Partition.parse("1,3|2,4")
    assert all(g.r <= 2 for g in enumerate_consistent_graphs(p))
    assert max_component_graphs(p) == []


def test_maximal_graph_exists_iff_noncrossing():
    for k in range(1, 6):
        for p in enumerate_partitions(k):
            best = max_component_graphs(p)
            if is_noncrossing(p):
                assert len(best) == 1
                assert kreweras_complement(best[0].component_partition()) == p
            else:
                assert best == []


def test_graph_enumeration_cap():
    with pytest.raises(BoundError):
        enumerate_consistent_graphs(Partition(9, (tuple(range(1, 10)),)))


def test_nc_type_counts_match_enumeration():
    for k in range(1, 9):
        by_profile: dict[tuple[int, ...], int] = {}
        for p in nc_partitions(k):
            profile = tuple(sorted(p.block_sizes()))
            by_profile[profile] = by_profile.get(profile, 0) + 1
        for profile, expected in by_profile.items():
            counts = {size: profile.count(size) for size in set(profile)}
            assert count_nc_by_block_sizes(k, counts) == expected


def test_nc_type_count_example():
    # one 1-block and two 2-blocks of {1..5}: 5!/(3! 1! 2!) = 10
    assert count_nc_by_block_sizes(5, {1: 1, 2: 2}) == 10


def test_nc_type_count_validation():
    with pytest.raises(DomainError):
        count_nc_by_block_sizes(5, {2: 2})  # covers only 4 elements
    with pytest.raises(DomainError):
        count_nc_by_block_sizes(4, {0: 1, 4: 1})


def test_narayana_row_and_sum():
    assert [narayana(4, i) for i in range(4)] == [1, 6, 6, 1]
    catalans = catalan_numbers(9)
    for k in range(1, 10):
        assert sum(narayana(k, i) for i in range(k)) == catalans[k - 1]


def test_narayana_counts_blocks():
    for k in range(1, 8):
        for i in range(k):
            observed = sum(1 for p in nc_partitions(k) if p.n_blocks == i + 1)
            assert narayana(k, i) == observed


def test_narayana_validation():
    with pytest.raises(DomainError):
        narayana(4, -1)
    with pytest.raises(DomainError):
        narayana(4, 4)


def test_composition_hand_cases():
    assert [c.counts for c in enumerate_compositions(2, 1)] == [(2,)]
    assert [c.counts for c in enumerate_compositions(2, 2)] == [(0, 1)]
    assert [c.counts for c in enumerate_compositions(1, 1)] == [(1,)]
    for k in range(1, 7):
        # s = k pins the single full-size block
        assert [c.counts for c in enumerate_compositions(k, k)] == [(0,) * (k - 1) + (1,)]


def test_composition_completeness_and_order():
    for k in range(1, 7):
        for s in range(1, k + 1):
            got = [c.counts for c in enumerate_compositions(k, s)]
            brute = [
                counts
                for counts in itertools.product(range(k + 1), repeat=s)
                if sum(counts) == k - s + 1
                and sum(l * c for l, c in enumerate(counts, start=1)) == k
            ]
            assert got == sorted(brute)
            assert got == sorted(got)


def test_composition_validation():
    with pytest.raises(DomainError):
        enumerate_compositions(3, 4)
    from rmtlaw import Composition

    with pytest.raises(DomainError):
        Composition(4, 2, (1, 1))  # weighted sum is 3, not 4


def test_composition_profiles_cover_narayana():
    # compositions at (k, s) are the block-size profiles of NC partitions
    # with k - s + 1 blocks, so the type counts add up to a Narayana number
    for k in range(1, 9):
        for s in range(1, k + 1):
            total = 0
            for comp in enumerate_compositions(k, s):
                counts = {l: c for l, c in enumerate(comp.counts, start=1) if c}
                total += count_nc_by_block_sizes(k, counts)
            assert total == narayana(k, k - s)
