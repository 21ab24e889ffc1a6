from hypothesis import given, strategies as st

from evolalg import graph as G
from evolalg.exactla import Mat

from conftest import (
    CASCADE8_ROWS,
    COMPLETE2_ROWS,
    LATTICE5_ROWS,
    PRIME_NP_ROWS,
    SINK2_ROWS,
    SINK2B_ROWS,
    alg,
    induced_subgraph,
    pairwise_downward_directed,
)


def digraphs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ).map(lambda edges: G.DiGraph.from_edges(n, edges))
    )


def based_at_closed_path(g, v):
    """Oracle: v starts a path of positive length returning to v."""
    return any(v in G.reach(g, (w,)) for w in g.adj[v])


class TestConstruction:
    def test_complete_pair(self):
        g = G.from_matrix(Mat.from_rows(COMPLETE2_ROWS))
        assert g.edges() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_loop_plus_edge(self):
        g = G.from_matrix(Mat.from_rows(PRIME_NP_ROWS))
        assert g.edges() == [(0, 0), (1, 0)]

    def test_zero_matrix_edgeless(self):
        g = G.from_matrix(Mat.from_rows([[0] * 3] * 3))
        assert g.edges() == []

    def test_sinks_match_zero_columns(self):
        for rows in (COMPLETE2_ROWS, LATTICE5_ROWS, CASCADE8_ROWS, SINK2_ROWS):
            a = alg(rows)
            g = a.graph()
            zero_cols = {
                i for i in range(a.n) if all(a.M.at(j, i) == 0 for j in range(a.n))
            }
            assert G.sinks(g) == zero_cols


class TestSinks:
    def test_examples(self):
        assert G.sinks(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS))) == frozenset()
        assert G.sinks(G.from_matrix(Mat.from_rows(SINK2_ROWS))) == {1}
        assert G.sinks(G.DiGraph.from_edges(3, ())) == {0, 1, 2}
        assert G.is_sinkless(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS)))


class TestReach:
    def test_lattice_center_reaches_everything(self):
        g = alg(LATTICE5_ROWS).graph()
        assert G.reach(g, (2,)) == {0, 1, 2, 3, 4}

    def test_empty_seed(self):
        g = alg(LATTICE5_ROWS).graph()
        assert G.reach(g, ()) == frozenset()

    def test_loop_only_vertex(self):
        g = G.DiGraph.from_edges(2, [(0, 0)])
        assert G.reach(g, (0,)) == {0}

    @given(digraphs(), st.data())
    def test_kuratowski_closure(self, g, data):
        s = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
        t = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
        c_s = G.reach(g, s)
        assert s <= c_s
        assert G.reach(g, c_s) == c_s
        assert G.reach(g, s | t) == c_s | G.reach(g, t)


class TestHereditary:
    def test_lattice_examples(self):
        g = alg(LATTICE5_ROWS).graph()
        assert G.is_hereditary(g, {3, 4})
        assert not G.is_hereditary(g, {2})
        assert G.is_hereditary(g, set())
        assert G.is_hereditary(g, set(range(5)))


class TestDownwardDirected:
    def test_examples(self):
        assert G.is_downward_directed(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS)))
        assert not G.is_downward_directed(alg(LATTICE5_ROWS).quotient_by_basic({3, 4}).graph())
        assert G.is_downward_directed(G.DiGraph.from_edges(1, [(0, 0)]))
        assert G.is_downward_directed(G.DiGraph(0, ()))

    @given(digraphs())
    def test_matches_pairwise_definition(self, g):
        assert G.is_downward_directed(g) == pairwise_downward_directed(g)

    @given(digraphs())
    def test_ancestors_are_reverse_reach(self, g):
        for v, anc in enumerate(G.ancestors(g)):
            assert anc == {u for u in range(g.n) if v in G.reach(g, (u,))}


class TestComponents:
    def test_examples(self):
        assert G.components(G.from_matrix(Mat.from_rows(SINK2_ROWS))) == [[0], [1]]
        assert G.components(G.from_matrix(Mat.from_rows(SINK2B_ROWS))) == [[0, 1]]
        assert G.components(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS))) == [[0, 1]]

    @given(digraphs())
    def test_invariant_under_reversal(self, g):
        assert G.components(g) == G.components(g.reverse())

    @given(digraphs())
    def test_partition(self, g):
        blocks = G.components(g)
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(g.n))


class TestSinkStrata:
    def test_cascade(self):
        st8 = G.sink_strata(alg(CASCADE8_ROWS).graph())
        assert [sorted(s) for s in st8.strata] == [[6, 7], [3], [5], [4]]
        assert sorted(st8.residue) == [0, 1, 2]

    def test_sinkless(self):
        st2 = G.sink_strata(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS)))
        assert st2.strata == ()
        assert st2.residue == {0, 1}

    def test_edgeless(self):
        st3 = G.sink_strata(G.DiGraph.from_edges(3, ()))
        assert st3.strata == (frozenset({0, 1, 2}),)
        assert st3.residue == frozenset()

    @given(digraphs())
    def test_structure(self, g):
        res = G.sink_strata(g)
        seen = set()
        for layer in res.strata:
            assert not (layer & seen)
            seen |= layer
        assert seen | res.residue == set(range(g.n))
        assert G.is_sinkless(induced_subgraph(g, seen))

    def test_cascade_stratified_are_the_non_cycle_based_vertices(self):
        # on this graph the two readings coincide: a vertex is stratified
        # exactly when it does not start a closed path
        g = alg(CASCADE8_ROWS).graph()
        res = G.sink_strata(g)
        stratified = set().union(*res.strata)
        for v in range(g.n):
            assert (v in stratified) == (not based_at_closed_path(g, v))

    @given(digraphs())
    def test_stratified_iff_no_reachable_cycle(self, g):
        # in general a vertex survives sink elimination iff it can reach some
        # vertex that starts a closed path (possibly itself)
        res = G.sink_strata(g)
        stratified = set().union(*res.strata) if res.strata else set()
        for v in range(g.n):
            reaches_cycle = any(
                based_at_closed_path(g, w) for w in G.reach(g, (v,))
            )
            assert (v in stratified) == (not reaches_cycle)


class TestIsolatedLoops:
    def test_examples(self):
        assert G.is_isolated_loops(G.from_matrix(Mat.identity(2)))
        assert not G.is_isolated_loops(G.from_matrix(Mat.from_rows(PRIME_NP_ROWS)))
        assert not G.is_isolated_loops(G.from_matrix(Mat.from_rows(COMPLETE2_ROWS)))


class TestDot:
    def test_single_loop(self):
        out = G.to_dot(G.DiGraph.from_edges(1, [(0, 0)]), ["a"])
        assert '"a" -> "a";' in out

    def test_labels_are_escaped(self):
        out = G.to_dot(G.DiGraph.from_edges(3, [(0, 1)]), ['a"b', "c", "d\\"])
        assert '  "a\\"b" -> "c";' in out.splitlines()
        assert '  "d\\\\";' in out.splitlines()

    def test_empty_graph(self):
        out = G.to_dot(G.DiGraph.from_edges(0, ()), [])
        assert out == "digraph E {\n}\n"

    def test_complete_pair_counts(self):
        a = alg(COMPLETE2_ROWS)
        out = G.to_dot(a.graph(), a.labels)
        assert out.count("->") == 4
        lines = out.splitlines()
        assert lines.count('  "e1";') == 1 and lines.count('  "e2";') == 1

    def test_cascade_counts(self):
        a = alg(CASCADE8_ROWS)
        out = G.to_dot(a.graph(), a.labels)
        assert out.count("->") == 12
