"""Answer checks for the benchmark, written without the library under test.

Every expected value here comes from this file's own integer code or from the
golden outputs in ``data/golden.json``: Cartan matrices are rebuilt from the
Dynkin diagrams, determinants use fraction-free (Bareiss) elimination, and
Levi component groups come from gcds of minors (determinantal divisors).
Nothing here imports ``uctop``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re

_CARTAN_DET = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
               "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


def parse_type(spec: str) -> list[tuple[str, int]]:
    """Factors of the Cartan type in a spec such as ``A2xB3:adjoint``."""
    head = spec.split(":", 1)[0]
    return [(m[0].upper(), int(m[1:])) for m in re.split("[xX]", head)]


def rank_of(spec: str) -> int:
    return sum(r for _, r in parse_type(spec))


def lattice_rows(spec: str) -> list[list[int]] | None:
    """Basis rows of a ``lattice=`` spec, ``None`` for ``sc``/``adjoint``."""
    tail = spec.split(":", 1)[1]
    return json.loads(tail[len("lattice="):]) if tail.startswith("lattice=") else None


def cartan(factors: list[tuple[str, int]]) -> list[list[int]]:
    """Block-diagonal Cartan matrix, Bourbaki labels, A[i][j] = <alpha_i, alpha_j^vee>."""
    n = sum(r for _, r in factors)
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    off = 0
    for letter, r in factors:
        if letter == "E":
            edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, r - 1)]
        elif letter == "D":
            edges = [(i, i + 1) for i in range(r - 2)] + [(r - 3, r - 1)]
        else:
            edges = [(i, i + 1) for i in range(r - 1)]
        for i, j in edges:
            a[off + i][off + j] = a[off + j][off + i] = -1
        double = {"B": (r - 2, r - 1), "C": (r - 1, r - 2), "F": (1, 2)}.get(letter)
        if double:
            a[off + double[0]][off + double[1]] = -2
        if letter == "G":
            a[off + 1][off] = -3
        off += r
    return a


def det(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv], sign = a[piv], a[c], -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * (a[n - 1][n - 1] if n else 1)


def center_order(spec: str) -> int:
    """|Z| = |det Cartan| / |det lattice|, with the CLI's basis for sc and adjoint."""
    factors = parse_type(spec)
    cartan_det = math.prod(_CARTAN_DET[letter](r) for letter, r in factors)
    tail = spec.split(":", 1)[1]
    if tail == "sc":
        return cartan_det
    if tail == "adjoint":
        return 1
    return cartan_det // abs(det(lattice_rows(spec)))


def poly_text(coeffs: list[int], var: str = "q") -> str:
    """The CLI's rendering of a polynomial in descending powers."""
    var = f"({var})" if len(var) > 1 else var
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            body = str(abs(c)) if k == 0 else ("" if abs(c) == 1 else str(abs(c))) + (var if k == 1 else f"{var}^{k}")
            parts.append(("-" if c < 0 else "") + body if not parts else ("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _gcd_minors(m: list[list[int]], k: int) -> int:
    """gcd of the k x k minors (the k-th determinantal divisor)."""
    g = 0
    for ridx in itertools.combinations(range(len(m)), k):
        for cidx in itertools.combinations(range(len(m[0])), k):
            g = math.gcd(g, det([[m[i][j] for j in cidx] for i in ridx]))
            if g == 1:
                return 1
    return g


def smith_factors(m: list[list[int]]) -> list[int]:
    """Nontrivial invariant factors of Z^cols / rowspan(m), full row rank assumed."""
    divisors = [1] + [_gcd_minors(m, k) for k in range(1, len(m) + 1)]
    return [q for k in range(1, len(m) + 1) if (q := divisors[k] // divisors[k - 1]) >= 2]


def levi_matrix(spec: str, levi: list[int]) -> list[list[int]]:
    """Simple roots of ``levi`` in the character-lattice basis of a sc/adjoint spec."""
    a = cartan(parse_type(spec))
    if spec.endswith(":sc"):
        return [a[i - 1] for i in levi]
    n = len(a)
    return [[int(j == i - 1) for j in range(n)] for i in levi]


def check_center(spec: str, levi: list[int], factors: list[int], kernel: list[list[int]]) -> str:
    """Empty string when (factors, kernel columns) is the Levi center of ``levi``."""
    m = levi_matrix(spec, levi)
    n = rank_of(spec)
    expected = smith_factors(m) if m else []
    if factors != expected:
        return f"factors {factors} != {expected}"
    ncols = n - len(levi)
    if len(kernel) != n or any(len(r) != ncols for r in kernel):
        return "kernel basis has the wrong shape"
    if any(sum(row[i] * kernel[i][j] for i in range(n)) for row in m for j in range(ncols)):
        return "kernel basis does not annihilate the Levi roots"
    if ncols and _gcd_minors(kernel, ncols) != 1:
        return "kernel basis does not span a saturated sublattice"
    return ""


def check_cli(req: dict, rc: int, out: str, golden: dict) -> str:
    """Empty string when one CLI answer is right; otherwise what is wrong."""
    gold = golden.get(req["golden"])
    if gold is None:
        return f"no golden output for {req['golden']!r}"
    if rc != gold["rc"]:
        return f"exit code {rc}, expected {gold['rc']}"
    if hashlib.sha256(out.encode()).hexdigest() != gold["sha256"]:
        return "output bytes differ from the golden output of the reference spec"
    if rc == 2:
        return ""
    cmd, spec = req["argv"][0], req["argv"][1]
    n, z = rank_of(spec), center_order(spec)
    lines = out.splitlines()
    if cmd == "count":
        top = f"q^{2 * n}"
        if not (lines[0] == top or lines[0].startswith(top + " ")) or (z == 1 and lines[0] != top):
            return "count is not monic of degree 2n (or not q^2n for a trivial center)"
        if _eval_at_one(lines[0]) != z:
            return f"count(1) != |Z| = {z}"
    elif cmd == "jgbetti":
        betti = [1] + [0] * (2 * n - 1) + [z - 1] if z > 1 else [1]
        if lines[0] != f"betti: {betti}" or "purity match: true" not in lines:
            return "jgbetti is not (1, 0, ..., 0, |Z|-1) with a purity match"
    elif cmd == "cgbetti":
        if lines[0] != f"betti: {[1] + [0] * (2 * n - 2) + [1]}":
            return "cgbetti is not the sphere S^(2n-1)"
    elif cmd == "pi0":
        if len(lines) != 2 ** n or not lines[-1].endswith(f"(order {z})"):
            return "pi0 table has the wrong size or the wrong center order"
    elif cmd == "check":
        if not re.fullmatch(r"\d+ checks: \d+ passed, 0 failed, \d+ skipped", lines[-1]):
            return "check battery reports a failure"
    return ""


def _eval_at_one(text: str) -> int:
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        coef = term.split("q")[0]
        total += int(coef) if coef not in ("", "-") else (-1 if coef else 1)
    return total


def check_census(q: dict, res: dict, golden_counts: dict) -> str:
    """Empty string when one library answer of the census stream is right."""
    spec, kind, n = q["spec"], q["call"], rank_of(q["spec"])
    z = center_order(spec)
    count = golden_counts[spec]
    if len(count) != 2 * n + 1 or count[-1] != 1 or sum(count) != z:
        return "golden count is not monic of degree 2n with count(1) = |Z|"
    if z == 1 and count != [0] * (2 * n) + [1]:
        return "golden adjoint count is not q^(2n)"
    if kind in ("point_count_poly", "e_polynomial"):
        var = "q" if kind == "point_count_poly" else "uv"
        if res["coeffs"] != count or res["text"] != poly_text(count, var):
            return f"{kind} differs from the expected polynomial"
    elif kind == "poincare_from_purity":
        expected = [0] * (4 * n + 1)
        for k, c in enumerate(count):
            expected[4 * n - 2 * k] += c
        while expected and not expected[-1]:
            expected.pop()
        if res["coeffs"] != expected:
            return "purity Poincare polynomial is not the reindexed count"
    elif kind == "center_order":
        if res["value"] != z:
            return f"center order {res['value']} != {z}"
    elif kind == "center_of_levi":
        return check_center(spec, q["levi"], res["factors"], res["kernel"])
    return ""
