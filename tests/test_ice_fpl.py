from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedboards.asm import enumerate_chained_asm
from chainedboards.boards import circular
from chainedboards.errors import InputDomainError, UnsupportedDomainError, ValidationError
from chainedboards.ice import (
    FPLConfiguration,
    GridGraph,
    IceConfiguration,
    _grid,
    fpl_problems,
    from_fpl,
    from_ice,
    ice_problems,
    to_fpl,
    to_ice,
    vertex_parity,
)
from tests import reference
from tests.reference import enumerate_fpl, enumerate_ice
from tests.worked_examples import WORKED_46


def test_grid_graph_counts():
    for n, k in [(2, 2), (3, 4), (1, 2)]:
        grid = _grid(n, k)
        assert len(grid.interior) == n * n * k
        edges = GridGraph(n, k).edges()
        assert sum(1 for e in edges if e[0] in ("bl", "bt")) == 2 * n * k
        assert sum(1 for e in edges if e[0] == "c") == n * k
        assert len(edges) == k * (2 * n * n + n)
        for v, around in grid.interior.items():
            assert len(set(around)) == 4
            for p in around:
                assert v in grid.ends[p]


def test_grid_graph_chaining_wraps():
    grid = _grid(2, 4)
    assert grid.ends[grid.index[("c", 4, 1)]] == ((4, 1, 2), (1, 2, 1))
    assert grid.ends[grid.index[("c", 2, 2)]] == ((2, 2, 2), (3, 2, 2))


def test_grid_graph_needs_even_k():
    with pytest.raises(UnsupportedDomainError):
        GridGraph(2, 3)


@pytest.mark.parametrize(
    "n, k, error, message",
    [
        (0, 2, InputDomainError, "grid graph side n must be an int >= 1, got 0"),
        (-3, 2, InputDomainError, "grid graph side n must be an int >= 1, got -3"),
        (2.0, 2, InputDomainError, "grid graph side n must be an int >= 1, got 2.0"),
        (True, 2, InputDomainError, "grid graph side n must be an int >= 1, got True"),
        ("2", 2, InputDomainError, "grid graph side n must be an int >= 1, got 2"),
        (2, 3, UnsupportedDomainError, "the chained grid graph needs an even int k >= 2, got 3"),
        (2, 0, UnsupportedDomainError, "the chained grid graph needs an even int k >= 2, got 0"),
        (2, -2, UnsupportedDomainError, "the chained grid graph needs an even int k >= 2, got -2"),
        (2, 2.0, UnsupportedDomainError, "the chained grid graph needs an even int k >= 2, got 2.0"),
        (2, True, UnsupportedDomainError, "the chained grid graph needs an even int k >= 2, got True"),
    ],
)
def test_grid_graph_takes_exact_int_sizes_and_names_a_bad_one(n, k, error, message):
    # the per-(n, k) tables must never be shared between 2 and 2.0, or 1 and True
    with pytest.raises(error) as info:
        GridGraph(n, k)
    assert str(info.value) == message


def test_edges_are_parity_bipartite():
    # even k: vertex (l, i, j) has parity l + i + j, and the chaining edge
    # (l, i, n) - (l + 1, n, i) changes l by one (or by k - 1, odd) and keeps i + n
    for n, k in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 6)]:
        for u, v in _grid(n, k).ends:
            assert vertex_parity(u) != vertex_parity(v)
        odd_even = _grid(n, k).odd_even
        assert [(vertex_parity(u), vertex_parity(v)) for u, v in odd_even] == [(1, 0)] * len(odd_even)


@pytest.mark.parametrize("n, k", [(1, 2), (2, 4), (3, 2)])
def test_grid_tables_agree_with_the_graph_methods(n, k):
    # the table against the reference geometry, and every graph method against the table
    g, grid = GridGraph(n, k), _grid(n, k)
    inner = reference.grid_interior(n, k)
    assert list(grid.interior) == inner
    assert set(grid.edges) == {e for v in inner for e in reference.grid_incident(n, k, v)}
    assert grid.edges == g.edges() and list(grid.index) == list(grid.edges)
    assert [grid.index[e] for e in g.edges()] == list(range(len(g.edges())))
    assert list(grid.ends) == [reference.grid_endpoints(n, k, e) for e in grid.edges]
    assert [set(pair) for pair in grid.odd_even] == [set(pair) for pair in grid.ends]
    for v, around in grid.interior.items():
        assert tuple(grid.edges[p] for p in around) == reference.grid_incident(n, k, v)
    rules = [(reference.dwbc_head(e), reference.fpl_holds(e)) for e in grid.edges]
    assert [(p, *rule) for p, rule in enumerate(rules) if rule != (None, None)] == list(grid.boundary)
    ends = {w for e in grid.edges for w in reference.grid_endpoints(n, k, e)}
    assert g.vertices()[: len(inner)] == tuple(inner)
    assert len(g.vertices()) == len(ends) and set(g.vertices()) == ends


_LONG = int("9" * 4000)


@pytest.mark.parametrize(
    "key",
    [
        ("h", 9, 9, 9),  # out of range
        ("h", 1),
        ("x", 1, 1),  # an unknown kind
        ["h", 1, [1], 1],  # a list, unhashable once made a tuple
        (1, 1, 0),  # a boundary vertex
        ("h", 1, 1, _LONG),
        (1, 1, _LONG),
        ("h", 10**5000, 1, 1),  # past the interpreter's digit limit for str
        (("h", 10**5000, 1, 1),),  # the same, one level deeper
    ],
)
def test_fpl_rejects_what_is_not_an_edge_of_the_graph(key):
    with pytest.raises(InputDomainError) as info:
        FPLConfiguration(GridGraph(4, 6), (key,))
    assert str(info.value).startswith("unknown edge ")
    assert len(str(info.value).encode()) < 200


def test_fpl_rejects_an_edge_past_the_digit_limit():
    with pytest.raises(InputDomainError, match=r"^unknown edge \('h', 1000"):
        FPLConfiguration(GridGraph(2, 2), (("h", 10**5000, 1, 1),))


@pytest.mark.parametrize("edge", [5, None, 1.5])
def test_fpl_rejects_an_edge_that_is_not_a_sequence(edge):
    with pytest.raises(InputDomainError, match=f"^unknown edge {edge}$"):
        FPLConfiguration(GridGraph(2, 2), (edge,))


def test_boundary_orientation_rules():
    ice = to_ice(WORKED_46)
    g = ice.graph
    head = dict(zip(g.edges(), ice.heads))
    for l in range(1, g.k + 1):
        for i in range(1, g.n + 1):
            # odd boards: left boundary points in, top boundary points out
            if l % 2 == 1:
                assert head[("bl", l, i)] == (l, i, 1)
                assert head[("bt", l, i)] == (l, 0, i)
            else:
                assert head[("bl", l, i)] == (l, i, 0)
                assert head[("bt", l, i)] == (l, 1, i)


def test_worked_example_ice_round_trip():
    ice = to_ice(WORKED_46)
    assert not ice_problems(ice)
    assert from_ice(ice) == WORKED_46
    fpl = to_fpl(ice)
    assert not fpl_problems(fpl)
    assert from_fpl(fpl) == ice


def test_round_trips_exhaustive():
    for n, k in [(1, 2), (2, 2), (1, 4), (2, 4), (3, 2), (2, 6)]:
        for a in enumerate_chained_asm(circular(n, k)):
            ice = to_ice(a)
            assert not ice_problems(ice), ice_problems(ice)
            assert from_ice(ice) == a
            fpl = to_fpl(ice)
            assert not fpl_problems(fpl), fpl_problems(fpl)
            assert from_fpl(fpl) == ice


def test_flipping_one_interior_edge_invalidates():
    ice = to_ice(WORKED_46)
    idx = next(i for i, e in enumerate(ice.graph.edges()) if e[0] == "h")
    u, v = _grid(ice.graph.n, ice.graph.k).ends[idx]
    flipped = list(ice.heads)
    flipped[idx] = v if flipped[idx] == u else u
    assert ice_problems(IceConfiguration(ice.graph, tuple(flipped)))


@pytest.mark.parametrize("heads", [(), ((1, 1, 0),) * 9])
def test_ice_needs_one_head_per_edge(heads):
    # circular(1, 2) has 6 edges
    with pytest.raises(InputDomainError, match="^need one head per edge$"):
        IceConfiguration(GridGraph(1, 2), heads)


def test_wrong_boundary_orientation_invalidates():
    ice = to_ice(WORKED_46)
    idx = next(i for i, e in enumerate(ice.graph.edges()) if e[0] == "bl")
    u, v = _grid(ice.graph.n, ice.graph.k).ends[idx]
    flipped = list(ice.heads)
    flipped[idx] = v if flipped[idx] == u else u
    bad = IceConfiguration(ice.graph, tuple(flipped))
    assert any("boundary" in p for p in ice_problems(bad))
    with pytest.raises(ValidationError):
        from_ice(bad)
    with pytest.raises(ValidationError, match="^not a chained ice configuration$") as info:
        to_fpl(bad)
    assert info.value.problems == ice_problems(bad)


def test_fpl_boundary_pattern():
    fpl = to_fpl(to_ice(WORKED_46))
    chosen = set(fpl.chosen)
    for l in range(1, fpl.graph.k + 1):
        for i in range(1, fpl.graph.n + 1):
            assert (("bl", l, i) in chosen) == (i % 2 == 1)
            assert (("bt", l, i) in chosen) == (i % 2 == 0)


def test_fpl_missing_edge_rejected():
    fpl = to_fpl(to_ice(WORKED_46))
    trimmed = FPLConfiguration(fpl.graph, tuple(e for e in fpl.chosen if e[0] != "c"))
    assert fpl_problems(trimmed)
    with pytest.raises(ValidationError):
        from_fpl(trimmed)


def test_ice_and_fpl_counts_small():
    # the reference circular k=2, n=2 count is 10
    assert sum(1 for _ in enumerate_ice(2, 2)) == 10
    assert sum(1 for _ in enumerate_fpl(2, 2)) == 10
    for n, k in [(1, 2), (2, 2), (2, 4)]:
        n_asm = sum(1 for _ in enumerate_chained_asm(circular(n, k)))
        assert sum(1 for _ in enumerate_ice(n, k)) == n_asm
        assert sum(1 for _ in enumerate_fpl(n, k)) == n_asm


def test_independent_ice_enumeration_matches_images():
    # (1, 4), (2, 4): board 1's vertical edges read matrix k's rows
    for n, k in [(1, 2), (2, 2), (1, 4), (2, 4), (3, 2)]:
        images = {to_ice(a).heads for a in enumerate_chained_asm(circular(n, k))}
        independent = {c.heads for c in enumerate_ice(n, k)}
        assert images == independent


def test_independent_fpl_enumeration_matches_images():
    for n, k in [(1, 2), (2, 2), (1, 4), (2, 4), (3, 2)]:
        images = {to_fpl(to_ice(a)).chosen for a in enumerate_chained_asm(circular(n, k))}
        independent = {f.chosen for f in enumerate_fpl(n, k)}
        assert images == independent


def test_to_ice_domain():
    with pytest.raises(UnsupportedDomainError):
        to_ice(next(iter(enumerate_chained_asm(circular(2, 3)))))


@functools.cache
def _images(n: int, k: int) -> tuple:
    return tuple(to_ice(a) for a in enumerate_chained_asm(circular(n, k)))


_CELLS = [(1, 2), (2, 2), (2, 4), (3, 2)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ice_problems_match_the_edge_by_edge_definition(data):
    ice = data.draw(st.sampled_from(_images(*data.draw(st.sampled_from(_CELLS)))))
    ends = _grid(ice.graph.n, ice.graph.k).ends
    flips = data.draw(st.sets(st.integers(0, len(ends) - 1)))
    heads = list(ice.heads)
    for p in flips:
        u, v = ends[p]
        heads[p] = v if heads[p] == u else u
    bad = IceConfiguration(ice.graph, tuple(heads))
    assert ice_problems(bad) == reference.ice_problems(bad)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fpl_problems_match_the_edge_by_edge_definition(data):
    fpl = to_fpl(data.draw(st.sampled_from(_images(*data.draw(st.sampled_from(_CELLS))))))
    drop = data.draw(st.sets(st.sampled_from(fpl.chosen)))
    add = data.draw(st.sets(st.sampled_from([e for e in fpl.graph.edges() if e not in fpl.chosen])))
    changed = FPLConfiguration(fpl.graph, tuple(e for e in fpl.chosen if e not in drop) + tuple(add))
    assert fpl_problems(changed) == reference.fpl_problems(changed)
    assert not reference.fpl_problems(fpl)
