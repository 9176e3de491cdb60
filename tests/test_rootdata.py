"""Root data: Cartan tables, Levi centers, invariant form, projections."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from uctop import levi, matrices, projections, rootdata
from uctop.cli import parse_spec
from uctop.counting import e_polynomial, point_count_poly, poincare_from_purity
from uctop.errors import UctopError
from uctop.levi import (
    all_levi_subsets,
    center_of_levi,
    invariant_form,
    levi_root_matrix,
    proper_pi0_witness,
)
from uctop.matrices import IntMatrix
from uctop.projections import killing_projection
from uctop.rational import RatMatrix, rank
from uctop.rootdata import CartanType, build_datum, cartan_matrix, center_order, weyl_order

from uctop.oracles import leibniz_det, reflection_group_order

from reference_oracles import cramer_projection, determinantal_divisor_data


ROOT = Path(__file__).resolve().parents[1]


def ct(*factors) -> CartanType:
    return CartanType(tuple(factors))


ADJOINT_SWEEP = [
    ct(("A", n)) for n in range(1, 9)
] + [
    ct(("B", n)) for n in range(2, 9)
] + [
    ct(("C", n)) for n in range(3, 9)
] + [
    ct(("D", n)) for n in range(4, 9)
] + [
    ct(("E", 6)), ct(("E", 7)), ct(("E", 8)), ct(("F", 4)), ct(("G", 2)),
    ct(("A", 1), ("A", 1)), ct(("A", 1), ("A", 2)), ct(("B", 2), ("G", 2)),
]


# ---------------------------------------------------------------------------
# Cartan matrices against transcribed Bourbaki tables


BOURBAKI_TABLE = {
    ct(("A", 1)): [[2]],
    ct(("A", 2)): [[2, -1], [-1, 2]],
    ct(("A", 3)): [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    ct(("B", 2)): [[2, -2], [-1, 2]],
    ct(("B", 3)): [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    ct(("C", 3)): [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    ct(("C", 4)): [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    ct(("D", 4)): [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    ct(("G", 2)): [[2, -1], [-3, 2]],
    ct(("F", 4)): [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    ct(("E", 6)): [
        [2, 0, -1, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-1, 0, 2, -1, 0, 0],
        [0, -1, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ],
    ct(("A", 1), ("A", 2)): [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
}

# order of the fundamental group = determinant of the Cartan matrix
FUNDAMENTAL_GROUP_ORDER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": {6: 3, 7: 2, 8: 1}.get,
    "F": lambda n: 1,
    "G": lambda n: 1,
}


def test_cartan_matrices_match_bourbaki_tables():
    for t, rows in BOURBAKI_TABLE.items():
        assert cartan_matrix(t).to_lists() == rows, str(t)


def test_cartan_determinants():
    for t in ADJOINT_SWEEP:
        want = 1
        for letter, rk in t.factors:
            want *= FUNDAMENTAL_GROUP_ORDER[letter](rk)
        got = leibniz_det(cartan_matrix(t).to_lists()) if t.rank <= 6 else None
        if got is not None:
            assert got == want, str(t)
        assert center_order(build_datum(t, "sc")) == want, str(t)


def test_invalid_ranks_rejected():
    for letter, rk in [("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("A", 0)]:
        with pytest.raises(ValueError):
            ct((letter, rk))
    with pytest.raises(ValueError):
        CartanType(())
    with pytest.raises(ValueError):
        ct(("H", 2))


# ---------------------------------------------------------------------------
# root data construction


def test_build_datum_named_isogenies():
    a1 = ct(("A", 1))
    assert build_datum(a1, "adjoint").char_lattice.to_lists() == [[2]]
    assert build_datum(a1, "sc").char_lattice.to_lists() == [[1]]
    with pytest.raises(ValueError):
        build_datum(a1, "simply-connected")


def test_build_datum_intermediate_lattice():
    a3 = ct(("A", 3))
    # index-2 intermediate: characters with c1 + c3 even (contains all roots)
    good = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 0]])
    d = build_datum(a3, good)
    assert center_order(d) == 2
    # rejects a sublattice missing the second simple root
    bad = IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(ValueError) as exc:
        build_datum(a3, bad)
    assert str(exc.value) == (
        "lattice does not contain the root lattice: some simple root is "
        "not an integer combination of the basis rows"
    )
    with pytest.raises(ValueError) as exc:
        build_datum(a3, IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 1]]))  # singular
    assert str(exc.value) == "lattice basis matrix is singular"
    with pytest.raises(ValueError):
        build_datum(a3, IntMatrix.identity(2))  # wrong shape


# bases of rank <= 5 between the root and the weight lattice
INTERMEDIATE_BASES = [
    (ct(("A", 3)), [[1, 0, 1], [0, 1, 0], [2, 0, 0]]),
    (ct(("D", 4)), [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]),
    # A5, index 2 in the weight lattice: c1 + c3 + c5 even
    (
        ct(("A", 5)),
        [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 1]],
    ),
]


def _scrambled(rows: list[list[int]], rng: random.Random) -> IntMatrix:
    """The same lattice in another basis: row operations r_i += +-r_j, then a shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(2 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
        if i != j:
            sign = rng.choice((1, -1))
            rows[i] = [x + sign * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows)


def test_levi_root_matrix_values_in_every_basis():
    # levi_root_matrix(d, S) writes the roots of S in the basis L, so
    # multiplying back by L must give the Cartan rows of S exactly
    rng = random.Random(20240617)
    bases = [(t, cartan_matrix(t).to_lists()) for t in ADJOINT_SWEEP if t.rank <= 5]
    bases += [(t, IntMatrix.identity(t.rank).to_lists()) for t, _ in list(bases)]
    bases += INTERMEDIATE_BASES
    data = [build_datum(t, IntMatrix.from_rows(rows)) for t, rows in bases]
    data += [build_datum(t, _scrambled(rows, rng)) for t, rows in bases]
    for d in data:
        a = cartan_matrix(d.cartan_type)
        for s in all_levi_subsets(d.rank):
            want = IntMatrix.from_rows([a.row(i - 1) for i in s], cols=d.rank)
            assert levi_root_matrix(d, s).mul(d.char_lattice) == want, (d, s)


def test_so8_lattice_datum():
    so8 = IntMatrix.from_rows(
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]
    )
    d = build_datum(ct(("D", 4)), so8)
    assert center_order(d) == 2
    assert proper_pi0_witness(d) == (3, 4)


# ---------------------------------------------------------------------------
# Levi centers


def test_center_of_levi_frozen_examples():
    a1sc = build_datum(ct(("A", 1)), "sc")
    c = center_of_levi(a1sc, (1,))
    assert c.pi0.factors == (2,) and c.dim == 0

    a3sc = build_datum(ct(("A", 3)), "sc")
    c = center_of_levi(a3sc, (1, 3))
    assert c.pi0.factors == (2,)
    assert c.dim == 1
    assert c.cochar_basis.to_lists() == [[1], [2], [1]]


def test_adjoint_pi0_trivial_all_types_through_rank_8():
    for t in ADJOINT_SWEEP:
        d = build_datum(t, "adjoint")
        for s in all_levi_subsets(t.rank):
            assert center_of_levi(d, s).pi0.is_trivial(), (str(t), s)


def test_center_dims_and_snf_oracle_on_levi_matrices():
    data = [
        build_datum(ct(("A", 3)), "sc"),
        build_datum(ct(("B", 3)), "sc"),
        build_datum(ct(("C", 3)), "adjoint"),
        build_datum(ct(("D", 4)), "sc"),
        build_datum(ct(("G", 2)), "sc"),
        build_datum(ct(("A", 1), ("A", 2)), "sc"),
    ]
    for d in data:
        n = d.rank
        for s in all_levi_subsets(n):
            c = center_of_levi(d, s)
            assert c.dim == n - len(s)
            m = levi_root_matrix(d, s)
            want_factors, want_rank = determinantal_divisor_data(m.to_lists(), cols=n)
            assert c.pi0.factors == want_factors, (d.cartan_type, s)
            assert want_rank == len(s)
            assert m.mul(c.cochar_basis).is_zero()


def test_center_order_examples():
    for p in (2, 3, 5, 7):
        assert center_order(build_datum(ct(("A", p - 1)), "sc")) == p
    assert center_order(build_datum(ct(("D", 4)), "sc")) == 4
    for t in (ct(("A", 4)), ct(("F", 4)), ct(("B", 3), ("G", 2))):
        assert center_order(build_datum(t, "adjoint")) == 1


def test_levi_set_validation():
    d = build_datum(ct(("A", 2)), "sc")
    with pytest.raises(ValueError):
        center_of_levi(d, (0,))
    with pytest.raises(ValueError):
        center_of_levi(d, (3,))


# ---------------------------------------------------------------------------
# invariant form


def test_invariant_form_fixtures():
    cases = {
        ct(("A", 2)): [[2, -1], [-1, 2]],
        ct(("G", 2)): [[6, -3], [-3, 2]],
        ct(("B", 3)): [[2, -1, 0], [-1, 2, -2], [0, -2, 4]],
        ct(("C", 3)): [[4, -2, 0], [-2, 4, -2], [0, -2, 2]],
        ct(("F", 4)): [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -2, 4, -2], [0, 0, -2, 4]],
    }
    for t, rows in cases.items():
        assert invariant_form(build_datum(t, "adjoint")).to_lists() == rows


def test_invariant_form_guards(monkeypatch):
    d = build_datum(ct(("A", 2)), "adjoint")
    monkeypatch.setattr(levi, "_block_symmetrizer", lambda a, off, rk: [1, 2])
    with pytest.raises(UctopError, match="^Gram matrix must be symmetric$"):
        invariant_form(d)
    monkeypatch.setattr(levi, "_block_symmetrizer", lambda a, off, rk: [1, 1])
    monkeypatch.setattr(levi, "cartan_matrix", lambda t: IntMatrix.from_rows([[2, -3], [-3, 2]]))
    with pytest.raises(UctopError, match="^Gram matrix must be positive definite$"):
        invariant_form(d)


def test_invariant_form_symmetric_positive_definite():
    for t in ADJOINT_SWEEP:
        g = invariant_form(build_datum(t, "adjoint"))
        assert g == g.transpose()
        rows = g.to_lists()
        for k in range(1, t.rank + 1):
            minor = [r[:k] for r in rows[:k]]
            assert leibniz_det(minor) > 0, str(t)


# ---------------------------------------------------------------------------
# Killing-orthogonal projections


def _dual_gram_oracle(d):
    n = d.rank
    lat = d.char_lattice.to_lists()
    det = leibniz_det(lat)
    inv = [
        [
            Fraction(
                (-1) ** (i + j)
                * leibniz_det(
                    [
                        [lat[r][c] for c in range(n) if c != i]
                        for r in range(n)
                        if r != j
                    ]
                ),
                det,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]  # inv[i][j] = (L^-1)[i][j] via adjugate
    g = invariant_form(d).to_lists()
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(
                inv[k][i] * g[k][l] * inv[l][j] for k in range(n) for l in range(n)
            )
    return out


def test_projection_identity_and_empty_cases():
    d = build_datum(ct(("A", 2)), "adjoint")
    assert killing_projection(d, (1,), (1,)) == RatMatrix.identity(1)
    assert killing_projection(d, (), ()) == RatMatrix.identity(2)
    p = killing_projection(d, (), (1, 2))
    assert (p.rows, p.cols) == (0, 2)
    with pytest.raises(ValueError):
        killing_projection(d, (1,), ())


def test_projection_a2_adjoint_hand_value():
    d = build_datum(ct(("A", 2)), "adjoint")
    p = killing_projection(d, (), (1,))
    assert p.to_lists() == [[Fraction(1, 2), Fraction(1)]]


def test_projection_matches_cramer_oracle():
    data = [
        build_datum(ct(("A", 2)), "adjoint"),
        build_datum(ct(("A", 3)), "sc"),
        build_datum(ct(("B", 3)), "sc"),
        build_datum(ct(("G", 2)), "adjoint"),
        build_datum(ct(("A", 1), ("A", 2)), "sc"),
        build_datum(
            ct(("A", 3)), IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 0]])
        ),
    ]
    for d in data:
        n = d.rank
        gram = _dual_gram_oracle(d)
        for s in all_levi_subsets(n, proper=True):
            for sp in all_levi_subsets(n, proper=True):
                if not set(s) <= set(sp):
                    continue
                b = center_of_levi(d, s).cochar_basis
                bp = center_of_levi(d, sp).cochar_basis
                basis_cols = [list(b.column(j)) for j in range(b.cols)]
                target_cols = [list(bp.column(j)) for j in range(bp.cols)]
                want = cramer_projection(basis_cols, target_cols, gram)
                got = killing_projection(d, s, sp).to_lists()
                assert got == want, (d.cartan_type, s, sp)


def test_projection_functoriality_all_chains_rank_le_4():
    data = [
        build_datum(ct(("A", 4)), "adjoint"),
        build_datum(ct(("A", 4)), "sc"),
        build_datum(ct(("B", 4)), "sc"),
        build_datum(ct(("C", 4)), "sc"),
        build_datum(ct(("D", 4)), "sc"),
        build_datum(ct(("F", 4)), "adjoint"),
        build_datum(ct(("G", 2)), "adjoint"),
        build_datum(ct(("A", 1), ("A", 2)), "sc"),
    ]
    for d in data:
        proper = all_levi_subsets(d.rank, proper=True)
        for s1 in proper:
            for s2 in proper:
                if not set(s1) <= set(s2):
                    continue
                step = killing_projection(d, s1, s2)
                for s3 in proper:
                    if not set(s2) <= set(s3):
                        continue
                    lhs = killing_projection(d, s2, s3).mul(step)
                    assert lhs == killing_projection(d, s1, s3), (d.cartan_type, s1, s2, s3)


def test_projection_surjectivity():
    for d in (
        build_datum(ct(("B", 3)), "sc"),
        build_datum(ct(("D", 4)), "adjoint"),
    ):
        n = d.rank
        for s in all_levi_subsets(n, proper=True):
            for sp in all_levi_subsets(n, proper=True):
                if set(s) <= set(sp):
                    assert rank(killing_projection(d, s, sp)) == n - len(sp)


# ---------------------------------------------------------------------------
# Weyl group orders


def test_weyl_order_against_reflection_enumeration():
    types = [
        ct(("A", 1)), ct(("A", 2)), ct(("A", 3)), ct(("A", 4)),
        ct(("B", 2)), ct(("B", 3)), ct(("B", 4)),
        ct(("C", 3)), ct(("C", 4)),
        ct(("D", 4)), ct(("F", 4)), ct(("G", 2)),
        ct(("A", 1), ("A", 1)), ct(("A", 1), ("A", 2)), ct(("B", 2), ("A", 2)),
    ]
    for t in types:
        assert weyl_order(t) == reflection_group_order(cartan_matrix(t).to_lists()), str(t)


def test_weyl_order_table_values():
    assert weyl_order(ct(("A", 1))) == 2
    assert weyl_order(ct(("A", 2))) == 6
    assert weyl_order(ct(("A", 1), ("A", 1))) == 4
    assert weyl_order(ct(("E", 6))) == 51840
    assert weyl_order(ct(("E", 7))) == 2903040
    assert weyl_order(ct(("E", 8))) == 696729600
    assert weyl_order(ct(("F", 4))) == 1152
    assert weyl_order(ct(("G", 2))) == 12
    assert weyl_order(ct(("D", 5))) == 2**4 * 120


def test_invariants_do_not_depend_on_lattice_basis():
    # three bases of the weight lattice of A2 and a sheared root-lattice basis
    a2 = ct(("A", 2))
    weight_bases = [[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [3, 1]]]
    reference = build_datum(a2, "sc")
    for rows in weight_bases:
        d = build_datum(a2, IntMatrix.from_rows(rows))
        assert d.is_simply_connected() and not d.is_adjoint()
        assert center_order(d) == center_order(reference) == 3
        for s in all_levi_subsets(2):
            assert (
                center_of_levi(d, s).pi0 == center_of_levi(reference, s).pi0
            ), (rows, s)
    sheared_root = build_datum(a2, IntMatrix.from_rows([[2, -1], [1, 1]]))
    assert sheared_root.is_adjoint() and not sheared_root.is_simply_connected()
    assert center_order(sheared_root) == 1


def test_center_data_caching_is_value_stable():
    d1 = build_datum(ct(("A", 3)), "sc")
    d2 = build_datum(ct(("A", 3)), "sc")
    assert center_of_levi(d1, (1, 3)) == center_of_levi(d2, frozenset((3, 1)))
    assert killing_projection(d1, (), (1,)) == killing_projection(d2, (), (1,))


COUNT_POLYNOMIALS = (point_count_poly, e_polynomial, poincare_from_purity)


def test_cached_results_are_freed_with_their_datum():
    d = build_datum(ct(("A", 3)), IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 0]]))
    center = weakref.ref(center_of_levi(d, (1,)))
    projector = weakref.ref(projections._projector(d, (1,))[0])
    polys = [weakref.ref(f(d)) for f in COUNT_POLYNOMIALS]
    assert center() is not None and projector() is not None  # held by d
    assert all(p() is not None for p in polys)
    del d
    gc.collect()
    assert center() is None and projector() is None
    assert all(p() is None for p in polys)


def _count_eliminations(monkeypatch) -> list[int]:
    """Patch matrices._bareiss, behind every determinant and solve, to
    record the size of each elimination it runs."""
    runs: list[int] = []
    bareiss = matrices._bareiss
    monkeypatch.setattr(matrices, "_bareiss", lambda a, n: runs.append(n) or bareiss(a, n))
    return runs


def test_center_of_levi_is_cached_on_its_datum(monkeypatch):
    d = build_datum(ct(("B", 3)), "sc")
    assert center_of_levi(d, (1, 3)) is center_of_levi(d, frozenset((3, 1)))
    twin = build_datum(ct(("B", 3)), "sc")
    assert twin == d and center_of_levi(twin, (1, 3)) is not center_of_levi(d, (1, 3))
    # |Z| is a small int, which the interpreter shares anyway: count the
    # eliminations instead of comparing identities
    runs = _count_eliminations(monkeypatch)
    assert center_order(d) == center_order(d) == 2 and len(runs) == 1
    assert center_order(twin) == 2 and len(runs) == 2
    for f in COUNT_POLYNOMIALS:
        assert f(d) is f(d), f.__name__
        assert f(twin) == f(d) and f(twin) is not f(d), f.__name__


def test_each_levi_set_is_normalized_once(monkeypatch, capsys):
    # the public entries normalize a Levi set; the private forms behind them
    # (the cached center, the projector, the diagram's arrows) take it as is
    from uctop.cli import main

    seen = []
    original = levi._normalize_levi

    def counting(d, levi):
        seen.append(levi)
        return original(d, levi)

    monkeypatch.setattr(levi, "_normalize_levi", counting)
    center_of_levi(build_datum(ct(("B", 3)), "sc"), (3, 1))
    assert seen == [(3, 1)]
    seen.clear()
    # pi0 reads the component group of every Levi set
    assert main(["pi0", "D6:adjoint"]) == 0 and capsys.readouterr().out
    assert len(seen) == len(set(seen)) == 2**6


@pytest.mark.parametrize(
    "spec, most",
    [
        ("A1:sc", 1),
        ("B3:adjoint", 0),
        ("E6:sc", 1),
        ("A3xA3:sc", 1),
        ("D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]", 2),
        ("A3:lattice=[[1,0,1],[0,1,0],[2,0,0]]", 2),
    ],
)
def test_count_side_runs_one_elimination_per_datum(monkeypatch, spec, most):
    # R needs no solve on a named isogeny, and one elimination gives both
    # R^(-T) for the classes of X/Q and det R for |Z|; on the adjoint basis
    # R = I, so neither needs one
    runs = _count_eliminations(monkeypatch)
    d = parse_spec(spec).datum()
    for _ in range(2):
        center_order(d)
        proper_pi0_witness(d)
        for f in COUNT_POLYNOMIALS:
            f(d)
    # a datum allowed one elimination runs one, so the patch is seen working
    assert min(most, 1) <= len(runs) <= most, runs


def test_threads_sharing_a_datum_get_one_cached_object():
    d = build_datum(ct(("E", 6)), "sc")
    subsets = all_levi_subsets(6)
    seen = [[] for _ in range(8)]
    start = threading.Barrier(len(seen))

    def work(out):
        start.wait(timeout=60)
        out.extend(center_of_levi(d, s) for s in subsets)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for column in zip(*seen):
        assert all(c is column[0] for c in column)


# ---------------------------------------------------------------------------
# Smith outputs pinned: one SHA-256 per datum of the compact JSON list
# [[S, factors, kernel rows], ...] over every Levi set S in all_levi_subsets
# order, recorded from an earlier implementation of `snf`. The corpus is every
# simple type of rank <= 6 in both isogenies and the rank <= 5 `ok` bases of
# bench/data/lattices.json.

_LEVI_PINS = json.loads((ROOT / "tests" / "data" / "levi_pins.json").read_text())


def _pin_corpus() -> list[str]:
    types = (
        [f"A{n}" for n in range(1, 7)]
        + [f"B{n}" for n in range(2, 7)]
        + [f"C{n}" for n in range(3, 7)]
        + [f"D{n}" for n in range(4, 7)]
        + ["E6", "F4", "G2"]
    )
    specs = [f"{t}:{iso}" for t in types for iso in ("adjoint", "sc")]
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    for e in catalogue["entries"]:
        if e["status"] == "ok" and len(e["rows"]) <= 5:
            rows = json.dumps(e["rows"], separators=(",", ":"))
            specs.append(f"{e['ref'].split(':')[0]}:lattice={rows}")
    return specs


def test_levi_smith_outputs_are_pinned():
    assert list(_LEVI_PINS) == _pin_corpus()
    for spec, want in _LEVI_PINS.items():
        d = parse_spec(spec).datum()
        table = [
            [list(s), list(c.pi0.factors), c.cochar_basis.to_lists()]
            for s in all_levi_subsets(d.rank)
            for c in [center_of_levi(d, s)]
        ]
        got = hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()
        assert got == want, spec


def test_roots_in_basis_is_the_solve_on_every_pinned_datum():
    # R = A . L^(-1); the named isogenies take no solve, every basis must
    # give what the solve of L^T X = A^T gives
    for spec in _LEVI_PINS:
        d = parse_spec(spec).datum()
        a_t = cartan_matrix(d.cartan_type).transpose()
        x, den, _ = d.char_lattice.transpose().solve(a_t)
        assert den == 1 and rootdata._roots_in_basis(d) == x.transpose(), spec
