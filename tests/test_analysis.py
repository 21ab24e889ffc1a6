import itertools

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from evolalg import algebra, analysis, graph as G
from evolalg.algebra import support
from evolalg.errors import EngineLimitError
from evolalg.exactla import Mat, Rat, Subspace, kernel_basis, vec, vec_is_zero

from conftest import (
    CASCADE8_ROWS,
    COMPLETE2_ROWS,
    DEG4_ROWS,
    LATTICE5_ROWS,
    LINE4_ROWS,
    FIVE_ROWS,
    LOOPS2_ROWS,
    PRIME_NP_ROWS,
    SEMI2_ROWS,
    SEMI4_ROWS,
    SINK2_ROWS,
    alg,
    pairwise_downward_directed,
)
from reference import brute_hereditary, degeneracy_witnesses

rationals = st.builds(Rat, st.integers(-3, 3), st.integers(1, 2))
nonzero_rationals = rationals.filter(bool)


def algebras(max_dim=4, min_dim=1):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(alg)
    )


@st.composite
def sparse_algebras(draw, max_dim=7):
    """At least half of the entries are zero, so the hereditary lattice is rich."""
    n = draw(st.integers(1, max_dim))
    cells = [(j, i) for j in range(n) for i in range(n)]
    nonzero = draw(st.lists(st.sampled_from(cells), max_size=n * n // 2, unique=True))
    rows = [[0] * n for _ in range(n)]
    for j, i in nonzero:
        rows[j][i] = draw(nonzero_rationals)
    return alg(rows)


@st.composite
def singular_products(draw):
    """Rows of M = B C with B n x r, C r x n, r < n and entries in -2..2."""
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n - 1))

    def matrix(rows, cols):
        row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    b, c = matrix(n, r), matrix(r, n)
    return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)] for i in range(n)]


class TestZeroAnnihilator:
    def test_examples(self, semi4, complete2):
        assert analysis.is_zero_annihilator(semi4)
        assert analysis.is_zero_annihilator(complete2)
        assert not analysis.is_zero_annihilator(alg(SINK2_ROWS))

    @given(algebras())
    def test_matches_annihilator_dimension(self, a):
        assert analysis.is_zero_annihilator(a) == (a.annihilator().dim == 0)


class TestDegeneracy:
    def test_deg4(self, deg4):
        v = analysis.degeneracy(deg4)
        assert v.state == "yes"
        assert v.witness == vec([0, 0, 0, 1])
        assert vec([0, 0, 0, 1]) in degeneracy_witnesses(deg4)

    def test_complete2(self, complete2):
        v = analysis.degeneracy(complete2)
        assert v.state == "yes" and v.witness == vec([1, 1])

    def test_isolated_loops_nondegenerate(self):
        assert analysis.degeneracy(alg(LOOPS2_ROWS)).state == "no"

    def test_semi4_degenerate(self, semi4):
        assert analysis.degeneracy(semi4).state == "yes"

    def test_support_bound(self, complete2, monkeypatch):
        monkeypatch.setattr(analysis, "DEFAULT_SUPPORT_BOUND", 1)
        with pytest.raises(EngineLimitError, match=r"^support bound exceeded: n=2 > 1$"):
            analysis.degeneracy(complete2)

    def test_groebner_engine_agrees_on_examples(self):
        for rows in (
            COMPLETE2_ROWS,
            DEG4_ROWS,
            LINE4_ROWS,
            FIVE_ROWS,
            LATTICE5_ROWS,
            LOOPS2_ROWS,
            PRIME_NP_ROWS,
            SEMI4_ROWS,
            SEMI2_ROWS,
            SINK2_ROWS,
        ):
            a = alg(rows)
            assert (
                analysis.degeneracy(a, engine="groebner").state
                == analysis.degeneracy(a).state
            )

    @given(algebras(max_dim=3))
    @settings(max_examples=25, deadline=None)
    def test_no_verdict_confirmed_by_grid_search(self, a):
        # independent route: when the engine reports nondegenerate, no vector
        # on a small integer grid may be an absolute zero divisor
        if analysis.degeneracy(a).state != "no":
            return
        import itertools as it

        for coords in it.product((-2, -1, 0, 1, 2), repeat=a.n):
            if any(coords):
                assert not analysis.is_absolute_zero_divisor(a, vec(coords))

    def test_unknown_engine(self, complete2):
        with pytest.raises(ValueError):
            analysis.degeneracy(complete2, engine="magic")

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_witnesses_reverify(self, a):
        v = analysis.degeneracy(a)
        if v.state == "yes":
            assert support(v.witness)
            assert analysis.is_absolute_zero_divisor(a, v.witness)

    @given(algebras())
    @settings(max_examples=30, deadline=None)
    def test_engines_agree(self, a):
        assert (
            analysis.degeneracy(a, engine="groebner").state
            == analysis.degeneracy(a, engine="linear").state
        )

    @given(singular_products().filter(lambda rows: all(row[i] for i, row in enumerate(rows))))
    @settings(max_examples=60, deadline=None)
    def test_ordered_search_matches_reference_on_singular_loops(self, rows):
        # M = B C has rank below n and a loop at every vertex, so the first
        # witness comes from the ordered search, not a loop-free vertex or
        # the perfect case
        a = alg(rows)
        assert analysis._first_azd_witness(a) == (degeneracy_witnesses(a) or [None])[0]

    def test_tridiagonal_nullity_one_prunes_the_scan(self, monkeypatch):
        # 2 on the diagonal, 1 beside it, column 7 = column 6 + column 8:
        # every support kernel is trivial, and the search prunes early
        n = 14
        rows = [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)]
                for i in range(n)]
        for row in rows:
            row[7] = row[6] + row[8]
        systems = []
        original = analysis._support_system
        monkeypatch.setattr(
            analysis, "_support_system", lambda *args: systems.append(args) or original(*args)
        )
        a = alg(rows)
        assert not a.is_perfect()
        assert analysis.degeneracy(a).state == "no"
        assert len(systems) <= 200

    def test_disjoint_pairs_find_the_first_pair(self, monkeypatch):
        # 8 blocks [[1, 1], [1, 1]]: ker M has dimension 8 and the first
        # witness is e1 - e2
        n = 16
        rows = [[1 if i // 2 == j // 2 else 0 for j in range(n)] for i in range(n)]
        kernels = []
        for owner in (analysis, algebra):
            original = owner.kernel_basis
            monkeypatch.setattr(
                owner, "kernel_basis", lambda m, _f=original: kernels.append(m) or _f(m)
            )
        v = analysis.degeneracy(alg(rows))
        assert v.state == "yes"
        assert v.certificate == "support-kernel support=[0, 1]"
        assert v.witness == vec([1, -1] + [0] * (n - 2))
        assert len(kernels) <= 5


class TestNondegeneratePerfectCheck:
    """A perfect algebra is nondegenerate iff every vertex has a loop."""

    def test_all_loops(self):
        a = alg([[1, 1], [0, 1]])
        assert a.is_perfect()
        assert analysis.degeneracy(a).is_no

    def test_loop_free_vertex(self):
        # perfect: det = -1; vertex 0 has no loop
        a = alg([[0, 1], [1, 1]])
        assert a.is_perfect()
        assert analysis.degeneracy(a).is_yes

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_matches_degeneracy_engine(self, a):
        if not a.is_perfect():
            return
        loops = all(a.M.at(i, i) != 0 for i in range(a.n))
        assert loops == analysis.degeneracy(a).is_no


class TestSemiprime:
    def test_complete2(self, complete2):
        v = analysis.semiprime(complete2)
        assert v.state == "no"
        assert v.witness == Subspace.span([[1, 1]], 2)

    def test_line4_unique_witness(self, line4):
        v = analysis.semiprime(line4)
        assert v.state == "no"
        assert v.witness == Subspace.span([[1, -1, 0, 0]], 4)

    def test_five_contains_zero_square_line(self, five):
        # the span of e1+e2 is an ideal with zero square; its top-left block
        # is the two-dimensional complete-graph algebra with the same witness
        v = analysis.semiprime(five)
        assert v.state == "no"
        assert v.witness == Subspace.span([[1, 1, 0, 0, 0]], 5)
        w = vec([1, 1, 0, 0, 0])
        ideal = five.ideal_generated_by(w)
        assert ideal == v.witness
        for a_ in ideal.basis_vectors():
            for b_ in ideal.basis_vectors():
                assert vec_is_zero(five.multiply(a_, b_))

    def test_semi4_yes(self, semi4):
        assert analysis.semiprime(semi4).state == "yes"

    def test_prime_np_yes(self):
        assert analysis.semiprime(alg(PRIME_NP_ROWS)).state == "yes"

    def test_zero_algebra_no(self):
        v = analysis.semiprime(alg([[0]]))
        assert v.state == "no" and v.witness == Subspace.full(1)

    def test_support_bound(self, complete2, monkeypatch):
        monkeypatch.setattr(analysis, "DEFAULT_SUPPORT_BOUND", 1)
        with pytest.raises(EngineLimitError, match=r"^support bound exceeded: n=2 > 1$"):
            analysis.semiprime(complete2)

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_no_witnesses_reverify(self, a):
        v = analysis.semiprime(a)
        if v.state == "no":
            ideal = v.witness
            assert ideal.dim > 0
            for x in ideal.basis_vectors():
                for y in ideal.basis_vectors():
                    assert vec_is_zero(a.multiply(x, y))
                for i in range(a.n):
                    assert ideal.member(a.multiply(x, a.basis_element(i)))

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_perfect_implies_semiprime(self, a):
        if a.is_perfect():
            assert analysis.semiprime(a).state == "yes"

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_semiprime_yes_implies_zero_annihilator(self, a):
        if analysis.semiprime(a).state == "yes":
            assert analysis.is_zero_annihilator(a)

    def test_sum_of_squares_support_is_undetermined_but_verdict_definite(self):
        # the support {0,1} admits zero-square solutions only over the closure
        # (x0^2 + x1^2 = 0), yet the verdict is a definite rational witness
        a = alg([[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, -1], [1, 1, 1, -1]])
        v = analysis.semiprime(a)
        assert v.state == "no"
        assert v.witness == Subspace.span([[0, 0, 1, 1]], 4)

    def test_witness_is_generated_by_the_first_isotropic_square(self):
        # no basis square vanishes; vertex 0 reaches {0, 2, 3}, whose squares
        # are +-(e3 + e4) with (e3 + e4)^2 = 0, so the witness is generated
        # by e1^2 = e3 + e4 on support [2, 3] (span(e1 - e2, e3 + e4) is
        # another zero-square ideal, on the support [0, 1])
        a = alg([[0, 0, 0, 0], [0, 0, 0, 0], [1, -1, 1, -1], [1, -1, 1, -1]])
        v = analysis.semiprime(a)
        assert v.state == "no"
        assert v.certificate == "principal-zero-square-ideal support=[2, 3]"
        assert v.witness == Subspace.span([[0, 0, 1, 1]], 4)
        p = analysis.prime(a)
        assert p.state == "no" and p.certificate == "not-semiprime"


class TestPrime:
    def test_prime_not_perfect(self):
        v = analysis.prime(alg(PRIME_NP_ROWS))
        assert v.state == "yes"

    def test_complete2_not_prime(self, complete2):
        assert analysis.prime(complete2).state == "no"

    def test_semi4_prime(self, semi4):
        assert G.is_downward_directed(semi4.graph())
        assert analysis.prime(semi4).state == "yes"

    def test_not_downward_directed_rejects(self):
        assert analysis.prime(alg(LOOPS2_ROWS)).state == "no"
        assert analysis.prime(alg(LOOPS2_ROWS)).certificate == "graph-not-downward-directed"

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_consistency(self, a):
        v = analysis.prime(a)
        dd = G.is_downward_directed(a.graph())
        if v.state == "yes":
            assert dd
            assert analysis.semiprime(a).state != "no"
        if not dd:
            assert v.state == "no"


class TestPrimeIdeals:
    def test_lattice5(self, lattice5):
        res = analysis.prime_ideals(lattice5)
        assert [sorted(b.vertices) for b in res.primes] == [
            [0, 3, 4],
            [1, 3, 4],
            [0, 1, 3, 4],
        ]
        assert res.primes[0].space == Subspace.axes(5, [0, 3, 4])
        assert res.rejected == ((frozenset({0, 1}), "quotient-not-semiprime"),)

    def test_single_loop(self):
        res = analysis.prime_ideals(alg([[1]]))
        assert [sorted(b.vertices) for b in res.primes] == [[]]

    def test_zero_algebra_has_none(self):
        res = analysis.prime_ideals(alg([[0]]))
        assert res.primes == ()

    @given(algebras())
    @settings(max_examples=25, deadline=None)
    def test_quotients_really_prime(self, a):
        res = analysis.prime_ideals(a)
        for b in res.primes:
            q = a.quotient_by_basic(b.vertices)
            assert G.is_downward_directed(q.graph())
            assert analysis.semiprime(q).state == "yes"

    @given(sparse_algebras())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_definition(self, a):
        # every proper hereditary set, classified from its quotient algebra;
        # those whose quotient graph is downward directed are all of the form
        # V - anc(v), so they are exactly the candidates prime_ideals tries
        g = a.graph()
        vertices = frozenset(range(a.n))
        candidates = {
            vertices - {u for u in range(a.n) if v in G.reach(g, (u,))} for v in range(a.n)
        }
        primes, rejected = [], []
        for h in brute_hereditary(g)[:-1]:  # the last, V, is not proper
            q = a.quotient_by_basic(h)
            if not pairwise_downward_directed(q.graph()):
                continue
            assert h in candidates
            if analysis.semiprime(q).is_yes:
                primes.append(a.basic_ideal(h))
            else:
                rejected.append((h, "quotient-not-semiprime"))
        assert analysis.prime_ideals(a) == analysis.PrimeIdealsResult(
            tuple(primes), tuple(rejected)
        )

    def test_isolated_loops_take_few_reach_sets(self, monkeypatch):
        # 10 ancestor sets and 3 per candidate (40); a graph per hereditary
        # set would cost thousands of reach sets
        calls = []
        reach = G.reach

        def counting(g, seed):
            calls.append(1)
            return reach(g, seed)

        monkeypatch.setattr(G, "reach", counting)
        res = analysis.prime_ideals(alg([[int(i == j) for j in range(10)] for i in range(10)]))
        assert [b.vertices for b in res.primes] == [
            frozenset(range(10)) - {v} for v in reversed(range(10))
        ]
        assert res.rejected == ()
        assert len(calls) <= 40

    def test_isolated_loops_past_the_support_bound(self):
        # 2^21 hereditary sets, but only 21 candidates, each with a
        # one-dimensional quotient
        n = 21
        res = analysis.prime_ideals(alg([[int(i == j) for j in range(n)] for i in range(n)]))
        assert [b.vertices for b in res.primes] == [
            frozenset(range(n)) - {v} for v in reversed(range(n))
        ]
        assert res.rejected == ()


class TestAbsorption:
    def test_cascade(self, cascade8):
        radical, asi = analysis.absorption(cascade8)
        assert radical == Subspace.axes(8, [3, 4, 5, 6, 7])
        assert asi == 4

    def test_sinkless(self, complete2):
        radical, asi = analysis.absorption(complete2)
        assert radical == Subspace.zero(2) and asi == 1

    def test_has_absorption(self, lattice5):
        assert analysis.has_absorption(lattice5, {3, 4})
        with pytest.raises(ValueError):
            analysis.has_absorption(lattice5, {2})

    def test_has_absorption_detects_new_sinks(self):
        # removing the loop vertex leaves the feeder vertex as a sink
        a = alg([[1, 1], [0, 0]])
        assert analysis.has_absorption(a, ())
        b = alg(SINK2_ROWS)
        assert not analysis.has_absorption(b, ())

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_radical_is_non_cycle_reaching_vertices(self, a):
        g = a.graph()
        radical, _ = analysis.absorption(a)
        cycle_based = {
            v for v in range(a.n) if any(v in G.reach(g, (w,)) for w in g.adj[v])
        }
        expected = [
            v for v in range(a.n) if not (G.reach(g, (v,)) & cycle_based)
        ]
        assert radical == Subspace.axes(a.n, expected)


class TestVonNeumann:
    def test_scaled_loop(self):
        a = alg([[2]])
        y = analysis.vn_element(a, a.basis_element(0))
        assert y == vec([Rat(1, 4)])

    def test_two_loops_algebra(self):
        assert analysis.vn_algebra(alg(LOOPS2_ROWS))
        assert not analysis.vn_algebra(alg(PRIME_NP_ROWS))
        assert not analysis.vn_algebra(alg(COMPLETE2_ROWS))

    def test_non_loop_basis_vector_has_no_inverse(self):
        a = alg(PRIME_NP_ROWS)
        assert analysis.vn_element(a, a.basis_element(1)) is None

    @given(st.lists(st.builds(Rat, st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=4),
           st.data())
    def test_regular_algebras_invert_full_support_elements(self, weights, data):
        n = len(weights)
        rows = [[weights[i] if i == j else 0 for i in range(n)] for j in range(n)]
        a = alg(rows)
        assert analysis.vn_algebra(a)
        for i in range(n):
            assert a.basis_square(i)[i] != 0
        x = vec(
            [
                data.draw(st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(1, 2)]))
                for _ in range(n)
            ]
        )
        y = analysis.vn_element(a, x)
        assert y is not None
        assert a.multiply(a.multiply(x, y), x) == x


class TestCentroid:
    def test_complete2(self, complete2):
        assert analysis.centroid(complete2).dim == 1

    @given(sparse_algebras(max_dim=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_definition(self, a, data):
        """The sympy nullspace of T(e_i e_j) = e_i T(e_j) in all n^2 unknowns,
        t_kj at k * n + j.  Exactly the columns in ``dead`` of M are zero, so
        the annihilator is zero when ``dead`` is empty."""
        n = a.n
        dead = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
        rows = [[0 if i in dead else a.M.at(k, i) for i in range(n)] for k in range(n)]
        for i in range(n):
            if i not in dead and not any(r[i] for r in rows):
                rows[data.draw(st.integers(0, n - 1))][i] = 1
        a = alg(rows)
        m = [[sympy.Rational(a.M.at(k, i)) for i in range(n)] for k in range(n)]
        rows = []
        for i, j, k in itertools.product(range(n), repeat=3):
            row = [sympy.Integer(0)] * (n * n)
            if i == j:  # T(e_i^2), coordinate k
                for q in range(n):
                    row[k * n + q] += m[q][i]
            row[i * n + j] -= m[k][i]  # e_i T(e_j) = t_ij e_i^2
            rows.append(row)
        theirs = [
            tuple(Rat(int(c.p), int(c.q)) for c in v)
            for v in sympy.Matrix(rows).nullspace()
        ]
        expected = Subspace.span(theirs, n * n).basis_vectors()
        assert [t.entries for t in analysis.centroid(a).basis_mats] == expected

    def test_zero_annihilator_solves_no_system(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            analysis, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m)
        )
        cycle6 = [[1 if k == (i + 1) % 6 else 0 for i in range(6)] for k in range(6)]
        assert analysis.centroid(alg(cycle6)).dim == 1
        assert analysis.centroid(alg(COMPLETE2_ROWS)).dim == 1
        assert calls == []
        assert analysis.centroid(alg(SINK2_ROWS)).dim == 2
        assert len(calls) == 1

    def test_two_loops(self):
        cb = analysis.centroid(alg(LOOPS2_ROWS))
        assert cb.dim == 2
        assert set(cb.basis_mats) == {
            Mat.from_rows([[1, 0], [0, 0]]),
            Mat.from_rows([[0, 0], [0, 1]]),
        }

    def test_sink_algebra_diagonal_solutions(self):
        cb = analysis.centroid(alg(SINK2_ROWS))
        assert cb.dim == 2
        for t in cb.basis_mats:
            assert t.at(0, 1) == 0 and t.at(1, 0) == 0

    def test_zero_algebra_everything_central(self):
        assert analysis.centroid(alg([[0, 0], [0, 0]])).dim == 4

    @given(algebras())
    @settings(max_examples=40, deadline=None)
    def test_axioms_and_component_count(self, a):
        cb = analysis.centroid(a)
        assert cb.dim >= 1
        ident = Mat.identity(a.n)
        span = Subspace.span([t.entries for t in cb.basis_mats], a.n * a.n)
        assert span.member(ident.entries)
        for t in cb.basis_mats:
            for i in range(a.n):
                for j in range(a.n):
                    if i != j:
                        assert vec_is_zero(
                            a.multiply(t.col(i), a.basis_element(j))
                        )
                assert t.matvec(a.basis_square(i)) == a.multiply(
                    t.col(i), a.basis_element(i)
                )
        if analysis.is_zero_annihilator(a):
            comps = G.components(a.graph())
            assert cb.dim == len(comps)
            blocks = {v: k for k, block in enumerate(comps) for v in block}
            for t in cb.basis_mats:
                for i in range(a.n):
                    for j in range(a.n):
                        if i != j:
                            assert t.at(i, j) == 0
                for i in range(a.n):
                    for j in range(a.n):
                        if blocks[i] == blocks[j]:
                            assert t.at(i, i) == t.at(j, j)


class TestDecompose:
    def test_two_loops(self):
        parts = analysis.decompose(alg(LOOPS2_ROWS))
        assert [p.labels for p in parts] == [("e1",), ("e2",)]

    def test_complete2_single_summand(self, complete2):
        parts = analysis.decompose(complete2)
        assert parts == [complete2]

    def test_semi4_connected(self, semi4):
        assert len(analysis.decompose(semi4)) == 1

    def test_requires_zero_annihilator(self):
        with pytest.raises(ValueError):
            analysis.decompose(alg(SINK2_ROWS))

    @given(algebras())
    @settings(max_examples=30, deadline=None)
    def test_summands_partition_and_have_trivial_centroid(self, a):
        if not analysis.is_zero_annihilator(a):
            return
        parts = analysis.decompose(a)
        assert sum(p.n for p in parts) == a.n
        for p in parts:
            assert analysis.centroid(p).dim == 1
