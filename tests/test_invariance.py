"""Metamorphic invariance of the whole pipeline, command line to answer.

Two relations that change a root datum's presentation but not the datum:
reordering the factors of a product type, which relabels the simple roots
and so the Levi sets and the witness, and a unimodular change of the
`lattice=` basis, which changes nothing that a command prints. Each example
runs `count`, `pi0`, `cgbetti` and `jgbetti` on both presentations.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from uctop.cli import main
from uctop.rootdata import CartanType, cartan_matrix

# the simple types of rank at most 5; C and D start past their coincidences
# with B and A
_FACTORS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
            ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5), ("D", 4), ("D", 5),
            ("F", 4), ("G", 2)]


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _spec(factors, lattice) -> str:
    iso = lattice if isinstance(lattice, str) else "lattice=" + json.dumps(lattice)
    return "x".join(f"{letter}{rank}" for letter, rank in factors) + ":" + iso


def _lattice_basis(vectors: list[list[int]], n: int) -> list[list[int]]:
    """An echelon basis of the full-rank lattice that the integer `vectors`
    span, by Euclidean row reduction column by column."""
    rows, basis = [list(v) for v in vectors], []
    for c in range(n):
        while len(live := [r for r in rows if r[c]]) > 1:
            pivot = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not pivot:
                    q = r[c] // pivot[c]
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
        basis.append(live[0])
        rows = [r for r in rows if r is not live[0] and any(r)]
    return basis


@st.composite
def _data(draw, min_factors: int):
    """(factors, lattice) of total rank at most 5: the lattice is "adjoint",
    "sc", or the rows of a basis of Q plus up to two weights (fundamental
    weight coordinates in -2..2), an intermediate lattice in general."""
    factors, budget = [], 5
    while len(factors) < min_factors or (len(factors) < 3 and budget and draw(st.booleans())):
        # each factor still to come takes rank 1 at least
        fitting = [f for f in _FACTORS if f[1] <= budget - max(0, min_factors - len(factors) - 1)]
        factors.append(draw(st.sampled_from(fitting)))
        budget -= factors[-1][1]
    n = 5 - budget
    lattice = draw(st.sampled_from(["adjoint", "sc", "glued"]))
    if lattice == "glued":
        roots = cartan_matrix(CartanType(tuple(factors))).to_lists()
        weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=2))
        lattice = _lattice_basis(roots + weights, n)
    return factors, lattice


def _rows(factors, lattice) -> list[list[int]]:
    """The basis rows of `lattice`, in fundamental-weight coordinates."""
    if isinstance(lattice, list):
        return lattice
    n = sum(rank for _, rank in factors)
    if lattice == "sc":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return cartan_matrix(CartanType(tuple(factors))).to_lists()


def _pi0_table(spec: str) -> dict[tuple[int, ...], list[int]]:
    code, out, _ = _run("pi0", spec, "--format=json")
    assert code == 0, spec
    return {tuple(row["levi"]): row["factors"] for row in json.loads(out)["pi0"]}


def _witness(err: str) -> tuple[int, ...]:
    labels = re.fullmatch(r"refused: .* at S = \{([\d,]+)\} is nontrivial .*\n", err).group(1)
    return tuple(int(i) for i in labels.split(","))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_data(min_factors=2), st.data())
def test_reordering_product_factors_relabels_every_answer(case, data):
    factors, lattice = case
    order = data.draw(st.permutations(range(len(factors))))
    starts = [sum(rank for _, rank in factors[:j]) for j in range(len(factors))]
    # old label of each new label, in the new order
    old = [starts[j] + t + 1 for j in order for t in range(factors[j][1])]
    new = {o: i for i, o in enumerate(old, 1)}
    moved = [factors[j] for j in order]
    rows = lattice if isinstance(lattice, str) else [[r[o - 1] for o in old] for r in lattice]
    spec, other = _spec(factors, lattice), _spec(moved, rows)

    assert _run("count", spec) == _run("count", other)
    table, moved_table = _pi0_table(spec), _pi0_table(other)
    assert len(table) == len(moved_table) == 2 ** len(old)
    for s, pi0 in table.items():
        assert moved_table[tuple(sorted(new[i] for i in s))] == pi0, (spec, other, s)
    for command in ("cgbetti", "jgbetti"):
        code, out, err = _run(command, spec)
        moved_code, moved_out, moved_err = _run(command, other)
        assert (moved_code, moved_out) == (code, out), (command, spec, other)
        if code == 2:
            witness, moved_witness = _witness(err), _witness(moved_err)
            assert len(moved_witness) == len(witness)
            assert table[tuple(sorted(old[i - 1] for i in moved_witness))], (spec, other)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_data(min_factors=1), st.data())
def test_unimodular_change_of_lattice_basis_changes_no_answer(case, data):
    factors, lattice = case
    rows = [list(r) for r in _rows(factors, lattice)]
    n = len(rows)
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-1, 1]))
        for i, j, sign in data.draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), min_size=1,
                                             max_size=4)):
            rows[i] = [x + sign * y for x, y in zip(rows[i], rows[j])]
    spec, other = _spec(factors, lattice), _spec(factors, rows)

    for command in ("count", "pi0", "cgbetti", "jgbetti"):
        assert _run(command, other) == _run(command, spec), (command, spec, other)
