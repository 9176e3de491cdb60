"""Per-layer timings and counters for one root datum, in a fresh process.

    python3 bench/ladder.py SPEC [--homology] [--check] [--request N]

Calls each layer's public functions bottom-up, so every call finds the layers
beneath it warm and its span is that layer's own time. Counters are read off
the returned values. Prints one JSON object: spans and counters. E8 is not in
any workload; ``python3 bench/ladder.py E8:adjoint --homology`` gives its
breakdown.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from spans import Recorder, use_checkout_source


def bits(m) -> int:
    return max((abs(e).bit_length() for e in m.entries), default=0)


def frac_bits(m) -> int:
    return max((max(e.numerator.bit_length(), e.denominator.bit_length()) for e in m.entries),
               default=0)


def ladder(spec: str, homology: bool, check: bool, request: int) -> dict:
    rec = Recorder(request)
    c: dict = {}
    with rec.span("ladder"):
        with rec.span("cli.import"):
            use_checkout_source()
            from uctop import (RatMatrix, all_levi_subsets, boundary_homology, build_cech_complex,
                               build_center_diagram, center_of_levi, compound, killing_projection,
                               levi_root_matrix, point_count_poly, poincare_from_purity,
                               proper_pi0_witness, rank, universal_centralizer_homology)
            from uctop.cli import main, parse_spec
        with rec.span("cli.parse_spec"):
            d = parse_spec(spec).datum()
        n = d.rank
        subsets = all_levi_subsets(n)
        with rec.span("rootdata.levi_root_matrix"):
            for s in subsets:
                levi_root_matrix(d, s)
        with rec.span("rootdata.center_of_levi"):
            centers = [center_of_levi(d, s) for s in subsets]
        c["rootdata.snf_calls"] = len(subsets)
        c["rootdata.kernel_bits_max"] = max(bits(x.cochar_basis) for x in centers)
        with rec.span("counting.point_count"):
            point_count_poly(d)
        with rec.span("counting.purity"):
            poincare_from_purity(d)
        if homology and proper_pi0_witness(d) is None:
            proper = set(all_levi_subsets(n, proper=True))
            covering = [(s, tuple(sorted(s + (a,)))) for s in proper
                        for a in range(1, n + 1) if a not in s and len(s) + 1 < n]
            with rec.span("rootdata.killing_projection"):
                arrows = [killing_projection(d, s, sp) for s, sp in covering]
            c["rootdata.projection_bits_max"] = max(map(frac_bits, arrows), default=0)
            with rec.span("homology.center_diagram"):
                diagram = build_center_diagram(d)
            c["homology.arrows"] = len(diagram.arrows)
            c["homology.covering_arrows"] = len(covering)
            with rec.span("matrices.compound"):
                for m in arrows:
                    for w in range(n + 1):
                        compound(m, w)
            with rec.span("homology.cech_build"):
                cx = build_cech_complex(diagram)
            diffs = [m for row in cx.rows for m in row.diffs.values()]
            with rec.span("matrices.dd_product"):
                for row in cx.rows:
                    for p in range(2, n):
                        hi, lo = row.diffs[p], row.diffs[p - 1]
                        if hi.rows and hi.cols and lo.rows:
                            RatMatrix.mul(lo, hi)
            with rec.span("matrices.rank"):
                for m in diffs:
                    rank(m)
            c["matrices.rank_calls"] = len(diffs)
            c["matrices.diff_entries"] = sum(len(m.entries) for m in diffs)
            c["matrices.diff_nonzeros"] = sum(1 for m in diffs for e in m.entries if e)
            with rec.span("homology.boundary_homology"):
                boundary_homology(d)
            with rec.span("assembly.handle"):
                universal_centralizer_homology(d)
        if check:
            with rec.span("cli.check_battery"), contextlib.redirect_stdout(io.StringIO()):
                main(["check", spec])
    return {"spans": rec.spans, "counters": c}


if __name__ == "__main__":
    args = sys.argv[1:]
    req = int(args[args.index("--request") + 1]) if "--request" in args else 0
    json.dump(ladder(args[0], "--homology" in args, "--check" in args, req), sys.stdout)
