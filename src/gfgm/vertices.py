"""Exact vertices of Bernoulli Fréchet classes at small dimension, and decompositions.

The class is the polytope {f >= 0, A f = (1, p)} over the 2^d masks, where A
has a row of ones and one 0/1 row per mask bit.  Its d+1 equality rows are
independent, so every vertex is the nonnegative solution of B x = (1, p) for
some basis B: d+1 columns of A with det B != 0.

The bases depend only on d, so they are found once per process and d and
kept as int8 arrays (``_basis_table``): 3,008 nonsingular bases and about
0.1 MB at d = 4, 556,192 and about 24 MB at d = 5.  The search runs over all
C(2^d, d+1) column sets in fixed-size chunks of numpy arrays.  Floats propose
and integers certify.  A basis is dropped where its LU determinant rounds to
0, the one decision a float makes: |det B| <= 5 at d <= 5, a value more than
1e-6 from an integer raises ArithmeticError, and the tests pin the number of
kept bases at every d.  The adjugate is the float inverse scaled by the
rounded det and rounded, and B @ adj == det I must hold in integers or the
build raises ArithmeticError, so B^-1 = adj / det exactly.  With L the lcm of
the denominators of p, x = adj @ (L, L p) / (det L), so a call only
multiplies, tests signs on integers and reduces each solution to an exact
Fraction.  Products switch to Python integers when L (d+1) max|adj|, a bound
on any entry of adj @ (L, L p), could pass 2^62.

The search space is C(2^d, d+1): 906,192 bases at d = 5 but 621,216,192,
686 times as many, at d = 6.  So d = 5 (``MAX_DIM``) is a hard cap, and
higher-dimensional work goes through the analytic extremal points of the
sum class instead.

``decompose`` solves no LP: it peels vertices off the target's smallest face.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bernoulli import BernoulliPmf, margin_vector

MAX_DIM = 5
_CHUNK = 1 << 13  # bases per batch: a few MB of working arrays at d = 5
_INT64_SAFE = 1 << 62
_INT8_MAX = 127


class EnumerationCapError(ValueError):
    """Vertex enumeration refused: combinatorial blowup beyond the cap."""


class NotInPolytopeError(ValueError):
    """No listed vertex fits: f is outside the class, or the list lacks a vertex of its face."""


def _basis_chunks(columns: int, size: int):
    """All size-subsets of range(columns) in lexicographic order, as int arrays of _CHUNK rows."""
    combos = itertools.combinations(range(columns), size)
    while (chunk := np.fromiter(itertools.islice(combos, _CHUNK), np.dtype((np.intp, size)))).size:
        yield chunk


@functools.cache
def _basis_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every nonsingular basis of the d-dimensional class as (cols, q, adj), in search
    order, and max|adj|.

    ``cols`` holds the d+1 column (mask) indices, ``q`` = |det B| and ``adj``
    the adjugate times sign(det B), so x = adj @ (L, L p) / (q L).  All three
    are int8, checked when the table is built (masks reach 31, |adj| and
    |det| 5 at d = 5).
    """
    masks = np.arange(1 << d)
    a = np.vstack([np.ones_like(masks)] + [(masks >> j) & 1 for j in range(d)]).astype(np.int64)
    eye = np.eye(d + 1, dtype=np.int64)
    parts = []
    for cols in _basis_chunks(1 << d, d + 1):
        b = np.moveaxis(a[:, cols], 1, 0)
        lu = np.linalg.det(b)
        det = np.rint(lu).astype(np.int64)
        if np.abs(lu - det).max() > 1e-6:
            raise ArithmeticError("LU determinant more than 1e-6 from an integer")
        rows = np.flatnonzero(det)
        b, det = b[rows], det[rows]
        adj = np.rint(det[:, None, None] * np.linalg.inv(b)).astype(np.int64)
        if not np.array_equal(b @ adj, det[:, None, None] * eye):
            raise ArithmeticError("float inverse failed the integer check B @ adj == det I")
        if max(np.abs(adj).max(initial=0), np.abs(det).max(initial=0), (1 << d) - 1) > _INT8_MAX:
            raise ArithmeticError(f"basis table entries at d={d} do not fit in int8")
        parts.append([x.astype(np.int8) for x in (cols[rows], np.abs(det),
                                                   adj * np.sign(det)[:, None, None])])
    cols, q, adj = (np.concatenate(column) for column in zip(*parts))
    return cols, q, adj, int(np.abs(adj).max(initial=0))


def _feasible_solutions(adj: np.ndarray, q: np.ndarray, rhs: list[int], max_adj: int):
    """Indices of the nonnegative basic solutions, with x = y / (q L) in lowest terms.

    Returns (rows, y, q): q > 0 and y >= 0 are integers with gcd(q, y) = 1, in
    int64 or, when products could overflow (``max_adj`` bounds |adj|), as
    Python integers.
    """
    wide = max(rhs) * len(rhs) * max_adj >= _INT64_SAFE
    dtype = object if wide else np.int64
    y = adj.astype(dtype) @ np.array(rhs, dtype=dtype)
    rows = np.flatnonzero((y >= 0).all(axis=1))
    y, q = y[rows], q[rows].astype(dtype)
    g = np.gcd(np.gcd.reduce(y, axis=1), q)
    return rows, y // g[:, None], q // g


def enumerate_vertices(p) -> list[BernoulliPmf]:
    """Complete, duplicate-free vertex set, sorted lexicographically.

    ``p`` is the margin vector (a sequence of exact rationals in (0,1)) of
    dimension at most ``MAX_DIM``; above it the call is refused.  Every
    returned pmf satisfies the margin constraints exactly and has support of
    size at most d+1.
    """
    pv = margin_vector(p)
    d = len(pv)
    if d > MAX_DIM:
        raise EnumerationCapError(
            f"combinatorial blowup: vertex enumeration at d={d} needs "
            f"C({1 << d},{d + 1}) basis candidates; cap is d={MAX_DIM}"
        )
    lcm = math.lcm(*(q.denominator for q in pv))
    rhs = [lcm] + [q.numerator * (lcm // q.denominator) for q in pv]
    table_cols, table_q, table_adj, max_adj = _basis_table(d)
    found: set[tuple[int, tuple[int, ...]]] = set()  # (q, y at every mask): x = y / (q L)
    for start in range(0, table_q.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        rows, y, q = _feasible_solutions(table_adj[chunk], table_q[chunk], rhs, max_adj)
        dense = np.zeros((rows.size, 1 << d), dtype=y.dtype)
        np.put_along_axis(dense, table_cols[chunk][rows].astype(np.intp), y, axis=1)
        found.update(zip(q.tolist(), map(tuple, dense.tolist())))
    # On the common denominator Q L, integer order is the order of the vertices.
    common = math.lcm(*(q for q, _ in found))
    keys = sorted(tuple(x * (common // q) for x in y) for q, y in found)
    fractions = {x: Fraction(x, common * lcm) for x in set().union(*keys)}
    return [BernoulliPmf(d, tuple(fractions[x] for x in key)) for key in keys]


def _support(values) -> int:
    """The masks where values is nonzero, as the bits of one int."""
    return sum(1 << i for i, x in enumerate(values) if x)


def decompose(f: BernoulliPmf, vertices: Sequence[BernoulliPmf]) -> tuple[Fraction, ...]:
    """One exact convex decomposition of f over the given vertices, by peeling.

    With g = f less the part peeled so far, each peel takes the first listed
    vertex v with supp v within supp g, at weight lam = min over supp v of
    g_i / v_i, which empties at least one more mask of g.  ``vertices`` must
    hold the vertices of f's smallest face, as ``enumerate_vertices(p)`` does:
    a list that lacks one may refuse a member of its hull.  Raises
    NotInPolytopeError when no listed vertex fits.
    """
    if not vertices:
        raise ValueError("empty vertex list")
    if any(v.d != f.d for v in vertices):
        raise ValueError("vertex dimension mismatch")
    supports = [_support(v.values) for v in vertices]
    weights = [Fraction(0)] * len(vertices)
    g = f.values
    while support := _support(g):
        k = next((k for k, s in enumerate(supports) if not s & ~support), None)
        if k is None:
            raise NotInPolytopeError("not in polytope: f is outside the class, "
                                     "or the list lacks a vertex of f's smallest face")
        v = vertices[k].values
        weights[k] = lam = min(x / y for x, y in zip(g, v) if y)
        g = [x - lam * y for x, y in zip(g, v)]
    return tuple(weights)
