"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks the corresponding criterion red.
All comparisons are exact (integer / rational arithmetic), so there are no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from uctop.assembly import universal_centralizer_homology
from uctop.cli import main
from uctop.counting import e_polynomial, poincare_from_purity, point_count_poly
from uctop.errors import NontrivialPi0
from uctop.homology import BettiTable, build_cech_complex, build_center_diagram
from uctop.levi import all_levi_subsets, proper_pi0_witness, snf
from uctop.matrices import IntMatrix
from uctop.projections import compound, killing_projection
from uctop.rational import RatMatrix
from uctop.rootdata import center_order

from reference_oracles import determinantal_divisor_data

ADJOINT_LIST = [
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "A1xA1", "A1xA2",
]

# sc and adjoint forms of everything in the adjoint list, rank-5 entries,
# plus explicit lattice data
TEST_MATRIX_SPECS = (
    [f"{name}:adjoint" for name in ADJOINT_LIST]
    + [f"{name}:sc" for name in ADJOINT_LIST]
    + [
        "A5:adjoint",
        "A5:sc",
        "B5:sc",
        "D5:adjoint",
        "A3:lattice=[[1,0,1],[0,1,0],[2,0,0]]",
        "D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]",
    ]
)


def _jgbetti_json(spec: str, capsys) -> dict:
    code = main(["jgbetti", spec, "--format=json"])
    out = capsys.readouterr().out
    assert code == 0, spec
    return json.loads(out)


def _cgbetti_json(spec: str, capsys) -> dict:
    code = main(["cgbetti", spec, "--format=json"])
    out = capsys.readouterr().out
    assert code == 0, spec
    return json.loads(out)


def _parse(spec: str):
    from uctop.cli import parse_spec

    return parse_spec(spec).datum()


def test_criterion_1_adjoint_homology_trivial(capsys):
    start = time.monotonic()
    for name in ADJOINT_LIST:
        payload = _jgbetti_json(f"{name}:adjoint", capsys)
        assert payload["betti"] == [1], name
        assert payload["purity_match"] is True, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 must finish in < 10 s, took {elapsed:.1f}"
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 1 PASS - adjoint homology trivial for "
            f"{len(ADJOINT_LIST)} types in {elapsed:.2f}s"
        )


def test_criterion_2_boundary_sphere(capsys):
    for name in ADJOINT_LIST:
        payload = _cgbetti_json(f"{name}:adjoint", capsys)
        n = _parse(f"{name}:adjoint").rank
        assert payload["betti"] == list(BettiTable.sphere(2 * n - 1).betti), name
    start = time.monotonic()
    payload = _cgbetti_json("E6:adjoint", capsys)
    elapsed = time.monotonic() - start
    assert payload["betti"] == list(BettiTable.sphere(11).betti)
    assert elapsed < 60.0, f"E6 must finish in < 60 s, took {elapsed:.1f}"
    # the certificate at rank 8 (check on E8 runs the Cech build and its
    # cleared ranks there)
    start = time.monotonic()
    payload = _cgbetti_json("E8:adjoint", capsys)
    e8_elapsed = time.monotonic() - start
    assert payload["betti"] == list(BettiTable.sphere(15).betti)
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 2 PASS - boundary betti = S^(2n-1) everywhere, "
            f"E6 in {elapsed:.2f}s, E8 in {e8_elapsed:.2f}s"
        )


def test_criterion_3_sl_p_corollary(capsys):
    for p in (2, 3, 5):
        payload = _jgbetti_json(f"A{p - 1}:sc", capsys)
        n = p - 1
        want = [0] * (2 * n + 1)
        want[0] = 1
        want[2 * n] = p - 1
        assert payload["betti"] == want, p
    with capsys.disabled():
        print("\nACCEPTANCE 3 PASS - SL_p corollary for p in {2, 3, 5}")


def test_criterion_4_point_count_identities():
    for name in ADJOINT_LIST:
        d = _parse(f"{name}:adjoint")
        poly = point_count_poly(d)
        assert poly.coeffs == (0,) * (2 * d.rank) + (1,), name
    for spec in TEST_MATRIX_SPECS:
        d = _parse(spec)
        assert point_count_poly(d).evaluate(1) == center_order(d), spec
    print(
        f"\nACCEPTANCE 4 PASS - adjoint counts are q^(2n); q = 1 gives |Z(G)| "
        f"on all {len(TEST_MATRIX_SPECS)} matrix entries"
    )


def test_criterion_5_purity_cross_check():
    succeeded = 0
    gate_open = sum(
        1 for spec in TEST_MATRIX_SPECS if proper_pi0_witness(_parse(spec)) is None
    )
    for spec in TEST_MATRIX_SPECS:
        d = _parse(spec)
        try:
            report = universal_centralizer_homology(d)
        except NontrivialPi0:
            continue
        succeeded += 1
        assert tuple(poincare_from_purity(d).coeffs) == report.betti.betti, spec
        assert report.purity_match is True, spec
    assert succeeded == gate_open  # every entry passing the pi0 gate assembles
    assert succeeded >= len(ADJOINT_LIST)  # which includes all adjoint entries
    print(
        f"\nACCEPTANCE 5 PASS - purity prediction equals assembled betti on "
        f"{succeeded} successful assemblies"
    )


def test_criterion_6_refusal_contract(capsys):
    code = main(["jgbetti", "A3:sc"])
    captured = capsys.readouterr()
    assert code == 2
    assert "{1,3}" in captured.err
    code = main(
        ["jgbetti", "D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "{3,4}" in captured.err
    with capsys.disabled():
        print(
            "\nACCEPTANCE 6 PASS - refusals exit 2 naming witnesses "
            "{1,3} (SL4) and {3,4} (SO8)"
        )


def test_criterion_7_property_suites():
    # d.d = 0 on all rows for every rank <= 5 datum in the matrix
    checked_rows = 0
    for spec in TEST_MATRIX_SPECS:
        d = _parse(spec)
        if d.rank > 5:
            continue
        complex_ = build_cech_complex(build_center_diagram(d))
        for row in complex_.rows:
            for p in range(2, complex_.n):
                lo, hi = row.diffs[p - 1], row.diffs[p]
                if lo.rows and hi.cols:
                    assert lo.mul(hi).is_zero(), (spec, row.w, p)
            checked_rows += 1

    # killing projection functoriality over all chains S <= S' <= S'', rank <= 4
    chains = 0
    for spec in TEST_MATRIX_SPECS:
        d = _parse(spec)
        if d.rank > 4:
            continue
        proper = all_levi_subsets(d.rank, proper=True)
        for s1 in proper:
            for s2 in proper:
                if not set(s1) <= set(s2):
                    continue
                step = killing_projection(d, s1, s2)
                for s3 in proper:
                    if not set(s2) <= set(s3):
                        continue
                    assert killing_projection(d, s2, s3).mul(step) == killing_projection(
                        d, s1, s3
                    ), (spec, s1, s2, s3)
                    chains += 1

    # SNF vs brute-force torsion oracle over entries in [-3, 3], size <= 3x3:
    # exhaustive on the subdomains below, seeded-random beyond (the full 7^9
    # exhaustion lives in the slow-marked sweep in test_matrices.py)
    snf_cases = 0

    def check_snf(rows, cols):
        nonlocal snf_cases
        m = IntMatrix.from_rows(rows, cols=cols)
        factors, kernel = snf(m)
        want_factors, want_rank = determinantal_divisor_data(rows, cols=cols)
        assert factors.factors == want_factors, rows
        assert m.cols - kernel.cols == want_rank, rows
        snf_cases += 1

    for nr, nc in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        for ents in itertools.product(range(-3, 4), repeat=nr * nc):
            check_snf([list(ents[i * nc : (i + 1) * nc]) for i in range(nr)], nc)
    for ents in itertools.product(range(-1, 2), repeat=9):
        check_snf([list(ents[:3]), list(ents[3:6]), list(ents[6:])], 3)
    rng = random.Random(20260810)
    for _ in range(5000):
        nr, nc = rng.choice(((2, 3), (3, 2), (3, 3)))
        check_snf([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)], nc)

    # compound functoriality on 200 randomized small rational matrices
    rng = random.Random(987654321)
    pairs = 0
    for _ in range(200):
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = RatMatrix.from_rows(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a)]
                for _ in range(b)
            ],
            cols=a,
        )
        g = RatMatrix.from_rows(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(b)]
                for _ in range(c)
            ],
            cols=b,
        )
        gf = g.mul(f)
        for k in range(0, min(a, b, c) + 2):
            assert compound(gf, k) == compound(g, k).mul(compound(f, k))
        pairs += 1

    print(
        f"\nACCEPTANCE 7 PASS - d.d = 0 on {checked_rows} rows, {chains} "
        f"projection chains, {snf_cases} SNF/oracle cases, {pairs} compound pairs"
    )


def test_criterion_8_euler_consistency():
    checked = 0
    for spec in TEST_MATRIX_SPECS:
        d = _parse(spec)
        try:
            report = universal_centralizer_homology(d)
        except NontrivialPi0:
            continue
        z = center_order(d)
        assert report.betti.euler() == z, spec
        assert e_polynomial(d).evaluate(1) == z, spec
        checked += 1
    print(
        f"\nACCEPTANCE 8 PASS - euler = E(1,1) = |Z(G)| on {checked} "
        f"successful assemblies"
    )
