"""Seeded request lists for the benchmark workloads.

Each workload is a list of slots. A slot names alternatives ordered by their
cost at the commit that defined the benchmark, cheapest first, and how many
to pick. The seed picks them (see ``stratified``) and, where a slot allows
two commands, the command; then it shuffles the list. So every seed sends
different inputs while the work per pass stays nearly the same across seeds.
The program only ever sees the generated requests.
"""

from __future__ import annotations

import random

import oracle

HOMOLOGY = ("jgbetti", "cgbetti")

# Cheapest first, by the time of one request at the defining commit.
RANK6 = ["B6:adjoint", "A6:sc", "E6:adjoint", "C6:adjoint", "A6:adjoint", "D6:adjoint"]
RANK6_CHECK = ["D6:adjoint", "B6:adjoint", "E6:adjoint", "C6:adjoint"]
RANK5 = ["A5:adjoint", "C5:adjoint", "B5:adjoint", "D5:adjoint"]
PRODUCTS = ["A1xA4:adjoint", "G2xB3:adjoint", "A2xA3:adjoint", "A2xB3:adjoint", "B2xB3:adjoint"]
SMALL = ["A3:adjoint", "A2:sc", "B3:adjoint", "C3:adjoint", "G2:adjoint", "F4:adjoint",
         "A4:sc", "D4:adjoint", "B4:adjoint"]
REFUSED = ["A3:sc", "C5:sc", "D5:sc", "C3:sc", "A5:sc", "B4:sc", "D4:sc", "C4:sc", "B5:sc"]
REFUSED6 = ["B6:sc", "E6:sc", "C6:sc"]
REFUSED7 = ["A7:sc", "D7:sc", "E7:sc", "C7:sc", "B7:sc"]

# (name, alternatives, commands, picks). No admissible rank-7 type: one
# homology request there takes 2.5-4.4 s depending on the type, so a single
# pick would move a pass by a third between seeds and leave each request
# only a few passes per run. Rank 7 is reached by refused specs.
BOUNDARY = [
    ("rank 6", RANK6, HOMOLOGY, 3),
    ("rank 5", RANK5, HOMOLOGY, 2),
    ("product of rank 5", PRODUCTS, HOMOLOGY, 1),
    ("rank 2-4", SMALL, HOMOLOGY, 1),
    ("refused", REFUSED + REFUSED6 + REFUSED7, HOMOLOGY, 3),
]

CHECK = [
    ("rank 6", RANK6_CHECK, ("check",), 2),
    ("rank 5", RANK5, ("check",), 1),
    ("product of rank 5", PRODUCTS, ("check",), 1),
    ("rank 2-4", SMALL, ("check",), 1),
    ("refused rank 7", REFUSED7[:2], ("check",), 1),  # the two that cost the same
    ("refused rank 6", REFUSED6, ("check",), 1),
    ("refused", REFUSED, ("check",), 1),
]


def stratified(rng: random.Random, pool: list, picks: int) -> list:
    """``picks`` items of ``pool`` (cheapest first), the i-th from the i-th of
    ``picks`` equal strata. One random position is used in every stratum,
    mirrored in every other one, so a cheap pick in one stratum meets a
    costly pick in the next and the total cost barely depends on the seed."""
    u = rng.random()
    out = []
    for i in range(picks):
        lo, hi = len(pool) * i // picks, len(pool) * (i + 1) // picks
        j = int(u * (hi - lo))
        out.append(pool[lo + (j if i % 2 == 0 else hi - lo - 1 - j)])
    return out


# Reference lattices of the `lattice` workload: sc, adjoint and intermediate
# (spanned by the roots and one weight: SO(2n), half-spin or mod-k quotients of
# SL), the intermediate ones written in reduced row Hermite form.
LAT_REFUSED = [
    "D4:lattice=[[1,0,0,0],[0,1,0,0],[0,0,1,1],[0,0,0,2]]",
    "D4:lattice=[[1,0,1,0],[0,1,0,0],[0,0,2,0],[0,0,0,1]]",
    "D5:lattice=[[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,1],[0,0,0,0,2]]",
    "D6:lattice=[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0],[0,0,0,1,0,0],[0,0,0,0,1,1],[0,0,0,0,0,2]]",
    "D6:lattice=[[1,0,0,0,1,0],[0,1,0,0,0,0],[0,0,1,0,1,0],[0,0,0,1,0,0],[0,0,0,0,2,0],[0,0,0,0,0,1]]",
    "A5:lattice=[[1,0,0,0,1],[0,1,0,0,0],[0,0,1,0,1],[0,0,0,1,0],[0,0,0,0,2]]",
    "A5:lattice=[[1,0,0,0,1],[0,1,0,0,2],[0,0,1,0,0],[0,0,0,1,1],[0,0,0,0,3]]",
    "A7:lattice=[[1,0,0,0,0,0,1],[0,1,0,0,0,0,0],[0,0,1,0,0,0,1],[0,0,0,1,0,0,0],[0,0,0,0,1,0,1],[0,0,0,0,0,1,0],[0,0,0,0,0,0,2]]",
    "D7:lattice=[[1,0,0,0,0,0,0],[0,1,0,0,0,0,0],[0,0,1,0,0,0,0],[0,0,0,1,0,0,0],[0,0,0,0,1,0,0],[0,0,0,0,0,1,1],[0,0,0,0,0,0,2]]",
]
LAT_RANK9 = ["A9:sc"] + [
    "A9:lattice=[[1,0,0,0,0,0,0,0,1],[0,1,0,0,0,0,0,0,0],[0,0,1,0,0,0,0,0,1],[0,0,0,1,0,0,0,0,0],[0,0,0,0,1,0,0,0,1],[0,0,0,0,0,1,0,0,0],[0,0,0,0,0,0,1,0,1],[0,0,0,0,0,0,0,1,0],[0,0,0,0,0,0,0,0,2]]",
    "A9:lattice=[[1,0,0,0,0,0,0,0,1],[0,1,0,0,0,0,0,0,2],[0,0,1,0,0,0,0,0,3],[0,0,0,1,0,0,0,0,4],[0,0,0,0,1,0,0,0,0],[0,0,0,0,0,1,0,0,1],[0,0,0,0,0,0,1,0,2],[0,0,0,0,0,0,0,1,3],[0,0,0,0,0,0,0,0,5]]",
    "D9:lattice=[[1,0,0,0,0,0,0,0,0],[0,1,0,0,0,0,0,0,0],[0,0,1,0,0,0,0,0,0],[0,0,0,1,0,0,0,0,0],[0,0,0,0,1,0,0,0,0],[0,0,0,0,0,1,0,0,0],[0,0,0,0,0,0,1,0,0],[0,0,0,0,0,0,0,1,1],[0,0,0,0,0,0,0,0,2]]",
]
LAT_RANK8 = ["A8:sc", "D8:adjoint", "B8:adjoint", "E8:sc", "C8:sc"] + [
    "A8:lattice=[[1,0,0,0,0,0,0,1],[0,1,0,0,0,0,0,2],[0,0,1,0,0,0,0,0],[0,0,0,1,0,0,0,1],[0,0,0,0,1,0,0,2],[0,0,0,0,0,1,0,0],[0,0,0,0,0,0,1,1],[0,0,0,0,0,0,0,3]]",
    "D8:lattice=[[1,0,0,0,0,0,0,0],[0,1,0,0,0,0,0,0],[0,0,1,0,0,0,0,0],[0,0,0,1,0,0,0,0],[0,0,0,0,1,0,0,0],[0,0,0,0,0,1,0,0],[0,0,0,0,0,0,1,1],[0,0,0,0,0,0,0,2]]",
    "D8:lattice=[[1,0,0,0,0,0,1,0],[0,1,0,0,0,0,0,0],[0,0,1,0,0,0,1,0],[0,0,0,1,0,0,0,0],[0,0,0,0,1,0,1,0],[0,0,0,0,0,1,0,0],[0,0,0,0,0,0,2,0],[0,0,0,0,0,0,0,1]]",
]

# (name, reference lattices, commands, scramble band, picks). A slot's pool
# is every catalogue basis of its lattices and band that finished at the
# defining commit, ordered by that time, and the picks are ``stratified``.
LATTICE = [
    ("homology rank 5, mild basis", RANK5, HOMOLOGY, "mild", 1),
    ("homology rank 6, heavy basis", RANK6, HOMOLOGY, "heavy", 2),
    ("homology rank 5, heavy basis", RANK5, HOMOLOGY, "heavy", 2),
    ("homology refused, intermediate", LAT_REFUSED, HOMOLOGY, "heavy", 2),
    ("count rank 9, mild basis", LAT_RANK9, ("count",), "mild", 1),
    ("count or pi0 rank 9, heavy basis", LAT_RANK9, ("count", "pi0"), "heavy", 2),
    ("count or pi0 rank 8, heavy basis", LAT_RANK8, ("count", "pi0"), "heavy", 2),
]

BANDS = {"mild": (2, 4, 8), "heavy": (16, 32, 48)}

# (alternatives cheapest first, picks): standard-form root data of rank 6-11,
# each queried 14 times. Cold costs at the defining commit run from 0.01 s
# (rank 6) to 1.1 s (rank 11); within a class they differ by under 25%.
CENSUS_CLASSES = [
    (["B6:sc", "A6:sc", "D6:sc", "C6:sc", "E6:sc"], 2),
    (["D6:adjoint", "C6:adjoint", "E6:adjoint", "B6:adjoint", "A6:adjoint"], 2),
    (["B7:sc", "D7:sc", "A7:sc", "E7:sc", "C7:sc"], 2),
    (["C7:adjoint", "B7:adjoint", "D7:adjoint", "E7:adjoint", "A7:adjoint"], 2),
    (["D8:sc", "B8:sc", "C8:sc", "A8:sc", "E8:sc"], 2),
    (["D8:adjoint", "C8:adjoint", "A8:adjoint", "B8:adjoint", "E8:adjoint"], 2),
    (["C9:sc", "B9:sc", "A9:sc", "D9:sc"], 2),
    (["C9:adjoint", "B9:adjoint", "D9:adjoint", "A9:adjoint"], 2),
    (["B10:sc", "D10:sc", "A10:sc", "C10:sc"], 2),
    (["A11:sc", "C11:sc"], 1),
    (["D4xD4:sc", "E7xA1:sc", "E6xA2:sc", "D5xA3:sc", "A4xA4:sc", "B4xC4:sc"], 2),
    (["D4xD4:adjoint", "E6xA2:adjoint", "B4xC4:adjoint", "A4xA4:adjoint", "D5xA3:adjoint",
      "E7xA1:adjoint"], 2),
]
# 10 counting queries and 4 center lookups per datum: the median query is then
# a warm count on a rank-7 datum on every seed, not a mix of the two kinds.
CENSUS_CALLS = (["point_count_poly"] * 4 + ["e_polynomial"] * 3 + ["poincare_from_purity"] * 3
                + ["center_order"] + ["center_of_levi"] * 3)


def census_alternatives() -> list[str]:
    """Every datum the census can pick (the golden counts cover these)."""
    return [spec for alts, _ in CENSUS_CLASSES for spec in alts]


def scramble(rows: list[list[int]], k: int, rng: random.Random) -> list[list[int]]:
    """Another basis of the same lattice: k random row operations r_i += +-r_j, then a shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(k):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def reference_rows(ref: str) -> list[list[int]]:
    n = oracle.rank_of(ref)
    if ref.endswith(":sc"):
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if ref.endswith(":adjoint"):
        return oracle.cartan(oracle.parse_type(ref))
    return oracle.lattice_rows(ref)


def _flags(spec: str) -> list[str]:
    return ["--max-rank=9"] if oracle.rank_of(spec) > 8 else []


def cli_request(cmd: str, spec: str, ref: str) -> dict:
    """A CLI request; its answer must match the golden output of ``ref``."""
    flags = _flags(spec)
    return {"argv": [cmd, spec, *flags], "golden": " ".join([cmd, ref, *flags])}


def build(workload: str, seed: int, catalogue: dict) -> list[dict]:
    """The seeded request list (one pass) of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    reqs: list[dict] = []
    if workload in ("boundary", "check"):
        for _, alts, cmds, picks in BOUNDARY if workload == "boundary" else CHECK:
            for spec in stratified(rng, alts, picks):
                reqs.append(cli_request(rng.choice(cmds), spec, spec))
    elif workload == "lattice":
        for _, refs, cmds, band, picks in LATTICE:
            family = "count" if cmds[0] in ("count", "pi0") else "cgbetti"
            pool = sorted((e for e in catalogue["entries"] if e["ref"] in refs
                           and e["band"] == band and e["family"] == family
                           and e["status"] == "ok"), key=lambda e: e["seconds"])
            for entry in stratified(rng, pool, picks):
                ref = entry["ref"]
                spec = f"{ref.split(':')[0]}:lattice={json_rows(entry['rows'])}"
                reqs.append(cli_request(rng.choice(cmds), spec, ref))
    elif workload == "census":
        for alts, picks in CENSUS_CLASSES:
            for spec in stratified(rng, alts, picks):
                n = oracle.rank_of(spec)
                for call in CENSUS_CALLS:
                    q = {"spec": spec, "call": call}
                    if call == "center_of_levi":
                        q["levi"] = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
                    reqs.append(q)
    elif workload == "pinned":
        for e in catalogue["pinned"]:
            reqs.append({"argv": e["argv"], "golden": e["golden"]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def json_rows(rows: list[list[int]]) -> str:
    """Lattice rows as the compact JSON the CLI prints in canonical specs."""
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
