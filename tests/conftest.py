"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from uctop import levi, projections, rootdata
from uctop.matrices import IntMatrix


def _refuse(*args):
    raise AssertionError("the homology ran a lattice-basis projection or a Laplace minor stream")


@pytest.fixture
def cartan_solves(monkeypatch):
    """Make the lattice-basis projections and the Laplace minor stream raise,
    and record the matrix of every `IntMatrix.solve`.

    Returns a function of a datum d: the pair (the matrices solved that are
    smaller than n x n, A[C, C]^T for each nonempty proper C that is
    connected in the Dynkin diagram), each a sorted list of entry tuples,
    so that one solve per connected Cartan block makes the two equal. The
    count side of a datum that is not adjoint solves n x n matrices of its
    own, which the first list leaves out.
    """
    for name in ("_killing_projection", "_projector", "exterior_powers"):
        monkeypatch.setattr(projections, name, _refuse)
    solved = []
    real = IntMatrix.solve

    def spy(m, rhs):
        solved.append(m)
        return real(m, rhs)

    monkeypatch.setattr(IntMatrix, "solve", spy)

    def blocks(d):
        n = d.rank
        a = rootdata.cartan_matrix(d.cartan_type).to_lists()
        want = [
            IntMatrix.from_rows([[a[j - 1][i - 1] for j in s] for i in s]).entries
            for s in levi.all_levi_subsets(n, proper=True)
            if s and _connected(a, s)
        ]
        return sorted(m.entries for m in solved if m.rows < n), sorted(want)

    return blocks


def _connected(a, s) -> bool:
    """Whether the nodes s span a connected subgraph of the Dynkin diagram
    with Cartan rows a (1-based labels)."""
    reached, frontier = {s[0]}, [s[0]]
    while frontier:
        i = frontier.pop()
        for j in s:
            if j not in reached and a[i - 1][j - 1]:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(s)
