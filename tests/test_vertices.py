import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import gfgm.vertices as vertices_module
from gfgm import (
    BernoulliPmf,
    EnumerationCapError,
    NotInPolytopeError,
    comonotone_pmf,
    decompose,
    enumerate_vertices,
    independence_pmf,
    validate_membership,
)
from gfgm.reference import EXAMPLE_FINAL_VERTICES


def _solve_square(cols, rhs):
    """Exact solution of the square system with the given columns, None if singular."""
    r = len(rhs)
    m = [[F(col[i]) for col in cols] + [F(rhs[i])] for i in range(r)]
    for k in range(r):
        piv = next((i for i in range(k, r) if m[i][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, r):
            if m[i][k]:
                factor = m[i][k] / m[k][k]
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    sol = [F(0)] * r
    for i in range(r - 1, -1, -1):
        s = m[i][r] - sum(m[i][j] * sol[j] for j in range(i + 1, r))
        sol[i] = s / m[i][i]
    return sol


def oracle_vertices(p):
    """Brute force: solve every (d+1)-column basis in Fractions, keep the nonnegative
    solutions, deduplicate and sort."""
    d = len(p)
    cols = [tuple((mask >> j) & 1 for j in range(d)) + (1,) for mask in range(1 << d)]
    rhs = list(p) + [1]
    found = set()
    for basis in itertools.combinations(range(1 << d), d + 1):
        sol = _solve_square([cols[c] for c in basis], rhs)
        if sol is not None and all(x >= 0 for x in sol):
            values = [F(0)] * (1 << d)
            for mask, x in zip(basis, sol):
                values[mask] = x
            found.add(tuple(values))
    return sorted(found)


def _random_p(rng, d, max_den=12):
    out = []
    for _ in range(d):
        den = rng.randint(2, max_den)
        out.append(F(rng.randint(1, den - 1), den))
    return out


def _constraints(d):
    masks = np.arange(1 << d)
    return np.vstack([(masks >> j) & 1 for j in range(d)] + [np.ones(1 << d)])


_RNG = random.Random(20261018)
SMALL_P = [_random_p(_RNG, d) for d in (2, 2, 2, 3, 3, 3, 3, 3)] + [
    [F(1, 97), F(50, 97), F(3, 1000)]]
D4_P = [
    [F(1, 2)] * 4,
    [F(1, 2), F(1, 3), F(2, 3), F(1, 2)],
    [F(2, 5), F(7, 8), F(1, 2), F(4, 5)],
]


class TestEnumerate:
    def test_d3_heterogeneous_matches_reference(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        assert len(vertices) == 12
        expected = {tuple(F(v) for v in row) for row in EXAMPLE_FINAL_VERTICES.values()}
        assert {v.values for v in vertices} == expected

    def test_d2_frechet_pair(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 2)])
        assert {v.values for v in vertices} == {
            (F(1, 2), F(0), F(0), F(1, 2)),
            (F(0), F(1, 2), F(1, 2), F(0)),
        }

    def test_all_vertices_are_members(self):
        p = [F(1, 2), F(1, 2), F(1, 2)]
        vertices = enumerate_vertices(p)
        assert vertices
        for v in vertices:
            assert validate_membership(v, p)
            assert len([x for x in v.values if x != 0]) <= 4

    def test_minimality_no_vertex_decomposes_over_the_others(self):
        p = [F(1, 2), F(1, 2), F(1, 2)]
        vertices = enumerate_vertices(p)
        for i, v in enumerate(vertices):
            others = vertices[:i] + vertices[i + 1 :]
            with pytest.raises(NotInPolytopeError):
                decompose(v, others)

    @pytest.mark.parametrize("p", [[F(1, 2)] * 3, [F(1, 3), F(1, 2), F(1, 4)]])
    def test_minimality_no_vertex_lies_in_the_hull_of_the_others(self, p):
        # decompose only peels, so it refuses v as soon as no other vertex fits inside
        # supp v; the HiGHS oracle decides the hull membership itself
        vertices = enumerate_vertices(p)
        rows = np.array([[float(x) for x in v.values] for v in vertices])
        for i, v in enumerate(rows):
            others = np.delete(rows, i, axis=0)
            lp = linprog(np.zeros(len(others)), A_eq=others.T, b_eq=v, bounds=(0, None),
                         method="highs")
            assert lp.status == 2, (i, lp.message)

    def test_output_sorted_and_duplicate_free(self):
        vertices = enumerate_vertices([F(1, 3), F(1, 2), F(1, 4)])
        values = [v.values for v in vertices]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_cap_refused(self):
        with pytest.raises(EnumerationCapError):
            enumerate_vertices([F(1, 2)] * 6)

    def test_d4_margins_exact(self):
        p = [F(1, 2), F(1, 3), F(1, 4), F(3, 4)]
        vertices = enumerate_vertices(p)
        assert len(vertices) > 4
        for v in vertices:
            assert validate_membership(v, p)


class TestAgainstOracle:
    @pytest.mark.parametrize("p", SMALL_P, ids=lambda p: ",".join(map(str, p)))
    def test_small_d_identical(self, p):
        assert [v.values for v in enumerate_vertices(p)] == oracle_vertices(p)

    @pytest.mark.parametrize("p,count", zip(D4_P, (48, 146, None)), ids=["half", "mixed", "random"])
    def test_d4_identical(self, p, count):
        vertices = [v.values for v in enumerate_vertices(p)]
        assert vertices == oracle_vertices(p)
        assert count is None or len(vertices) == count

    def test_large_prime_denominators_take_the_wide_integer_path(self):
        p = [F(999983, 1000000007), F(1, 998244353), F(5, 999999937)]
        # L (d+1) max|adj| passes 2^62 already at max|adj| = 1
        assert math.lcm(*(q.denominator for q in p)) * (len(p) + 1) >= 1 << 62
        vertices = enumerate_vertices(p)
        assert [v.values for v in vertices] == oracle_vertices(p)
        assert all(validate_membership(v, p) for v in vertices)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
                    min_size=1, max_size=3))
    def test_property_matches_oracle(self, p):
        assert [v.values for v in enumerate_vertices(p)] == oracle_vertices(p)


class TestCompleteness:
    """Every linear objective is minimized at a returned vertex (HiGHS LP optimum)."""

    @pytest.mark.parametrize("p", [D4_P[1], [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 5)]],
                             ids=["d4", "d5"])
    def test_vertex_minimum_equals_lp_optimum(self, p):
        d = len(p)
        vertices = np.array([[float(x) for x in v.values] for v in enumerate_vertices(p)])
        a_eq, b_eq = _constraints(d), np.array([float(q) for q in p] + [1.0])
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=1 << d)
            lp = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            assert lp.status == 0
            assert (vertices @ c).min() == pytest.approx(lp.fun, abs=1e-9)


class TestDecompose:
    def test_vertex_decomposes_to_indicator(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        weights = decompose(vertices[4], vertices)
        assert weights[4] == 1
        assert sum(weights) == 1 and all(w >= 0 for w in weights)

    def test_independence_d2(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 2)])
        f = independence_pmf([F(1, 2), F(1, 2)])
        weights = decompose(f, vertices)
        assert weights == (F(1, 2), F(1, 2))

    def test_uniform_mixture_round_trip(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        n = len(vertices)
        mixed = [sum(v.values[i] for v in vertices) / n for i in range(8)]
        f = BernoulliPmf(3, tuple(mixed))
        weights = decompose(f, vertices)
        assert sum(weights) == 1
        recombined = [
            sum(w * v.values[i] for w, v in zip(weights, vertices)) for i in range(8)
        ]
        assert tuple(recombined) == f.values

    def test_infeasible_target_rejected(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 2)])
        outside = independence_pmf([F(1, 3), F(1, 2)])
        with pytest.raises(NotInPolytopeError):
            decompose(outside, vertices)

    @staticmethod
    def _assert_round_trip(f, vertices):
        weights = decompose(f, vertices)
        assert len(weights) == len(vertices)
        assert all(w >= 0 for w in weights) and sum(weights) == 1
        recombined = tuple(sum((w * v.values[i] for w, v in zip(weights, vertices) if w), F(0))
                           for i in range(len(f.values)))
        assert recombined == f.values
        # one peel per listed vertex used, and each peel empties at least one mask of f
        assert sum(1 for w in weights if w) <= sum(1 for x in f.values if x)

    @staticmethod
    def _mixture(vertices, rng):
        """A seeded convex combination of 2 to 6 distinct vertices with rational weights."""
        picks = rng.sample(vertices, rng.randint(2, min(6, len(vertices))))
        raw = [rng.randint(1, 9) for _ in picks]
        weights = [F(r, sum(raw)) for r in raw]
        d = picks[0].d
        return BernoulliPmf(d, tuple(sum((w * v.values[i] for w, v in zip(weights, picks)), F(0))
                                     for i in range(1 << d)))

    @pytest.mark.parametrize("p", [[F(1, 2), F(1, 3), F(2, 3)], [F(1, 4), F(3, 5), F(1, 2)],
                                   D4_P[1], D4_P[2]], ids=["d3", "d3b", "d4", "d4b"])
    def test_round_trips_recombine_exactly(self, p):
        vertices = enumerate_vertices(p)
        rng = random.Random(len(vertices))
        targets = [independence_pmf(p), comonotone_pmf(p)]
        targets += [self._mixture(vertices, rng) for _ in range(10)]
        for f in targets:
            self._assert_round_trip(f, vertices)

    def test_d5_round_trips(self):
        # 15,224 vertices; the peel scans them by support bits, once per peel
        p = [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 5)]
        vertices = enumerate_vertices(p)
        for f in (independence_pmf(p), self._mixture(vertices, random.Random(5))):
            self._assert_round_trip(f, vertices)

    def test_target_of_another_dimension_or_no_vertices_refused(self):
        vertices = enumerate_vertices([F(1, 2), F(1, 2)])
        with pytest.raises(ValueError, match="empty vertex list"):
            decompose(vertices[0], [])
        with pytest.raises(ValueError, match="dimension mismatch"):
            decompose(independence_pmf([F(1, 2)] * 3), vertices)


class TestBasisTable:
    """The bases depend only on d: one int8 table per process and d, certified when built."""

    def test_second_call_at_the_same_d_builds_nothing(self, monkeypatch):
        calls, chunks = [], vertices_module._basis_chunks

        def counting(columns, size):
            calls.append((columns, size))
            return chunks(columns, size)

        monkeypatch.setattr(vertices_module, "_basis_chunks", counting)
        enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        calls.clear()
        assert [v.values for v in enumerate_vertices([F(1, 4), F(3, 5), F(1, 2)])] == \
            oracle_vertices([F(1, 4), F(3, 5), F(1, 2)])
        assert calls == []

    def test_products_stay_int64_up_to_the_tables_adjugate_bound(self, monkeypatch):
        # max|adj| is 3 at d=4: an lcm of 6e16 gives |y| <= 6e16 * 5 * 3 < 2^62, so no
        # Python-integer products (a bound of 127 would switch to them)
        p = [F(1, 2), F(1, 3), F(7, 10**16 + 1), F(1, 2)]
        dtypes, solve = [], vertices_module._feasible_solutions

        def recording(*args):
            rows, y, q = solve(*args)
            dtypes.append(y.dtype)
            return rows, y, q

        monkeypatch.setattr(vertices_module, "_feasible_solutions", recording)
        assert [v.values for v in enumerate_vertices(p)] == oracle_vertices(p)
        assert set(dtypes) == {np.dtype(np.int64)}

    def test_d5_table_fits_in_25_mb(self):
        # about 43 bytes a basis; built once per process (the d5 completeness test shares it,
        # so this runs before the test below clears the cache)
        cols, q, adj, _ = vertices_module._basis_table(5)
        assert len(q) == 556_192
        assert cols.nbytes + q.nbytes + adj.nbytes <= 25_000_000

    def test_perturbed_inverse_fails_the_integer_certificate(self, monkeypatch):
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda b: inv(b) + 0.75)
        vertices_module._basis_table.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="B @ adj == det I"):
                enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        finally:
            vertices_module._basis_table.cache_clear()

    def test_perturbed_lu_determinant_is_refused(self, monkeypatch):
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda b: det(b) + 0.3)
        vertices_module._basis_table.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="LU determinant"):
                enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
        finally:
            vertices_module._basis_table.cache_clear()

    def test_cap_refused_before_any_table_is_built(self, monkeypatch):
        def refuse(d):
            raise AssertionError(f"basis table built at d={d}")

        monkeypatch.setattr(vertices_module, "_basis_table", refuse)
        with pytest.raises(EnumerationCapError):
            enumerate_vertices([F(1, 2)] * (vertices_module.MAX_DIM + 1))

    @pytest.mark.parametrize("d,count", [(1, 1), (2, 4), (3, 58), (4, 3008)])
    def test_table_is_int8_with_certified_adjugates(self, d, count):
        cols, q, adj, max_adj = vertices_module._basis_table(d)
        assert {x.dtype for x in (cols, q, adj)} == {np.dtype(np.int8)}
        assert len(cols) == len(q) == len(adj) == count
        assert max_adj == np.abs(adj).max()
        masks = cols.astype(np.int64)
        b = np.stack([np.ones_like(masks)] + [(masks >> j) & 1 for j in range(d)], axis=1)
        eye = np.eye(d + 1, dtype=np.int64)
        assert np.array_equal(b @ adj.astype(np.int64), q.astype(np.int64)[:, None, None] * eye)
