"""Regenerate ``data/golden.json`` and ``data/lattices.json``.

Run once, at the commit the benchmark was defined on, from the repository
root: ``python3 bench/make_data.py``. Later commits are checked against these
files, so rerunning it on a changed program would bless that program's output.

* ``golden.json``: the exit code and the SHA-256 of stdout of every reference
  request any workload can send (short outputs are kept as text too), and the
  point-count coefficients of every census datum.
* ``lattices.json``: the scrambled bases of the ``lattice`` workload. For every
  reference lattice and scramble band, a fixed generator draws candidate
  bases; each is run once here, alone, with a 10 s limit and kept with its
  outcome and time. Entries that did not finish are marked ``over_limit`` and
  are not drawn by the workload. ``PINNED_ROWS``, an A9 basis on which
  ``snf`` blows up, is the request of ``--workload pinned``.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads as W  # noqa: E402

LIMIT_S = 10.0
CANDIDATES_PER_K = 2
PINNED_ROWS = [[1, 4, 1, -1, -1, -1, 1, -1, 2], [0, 4, 1, -1, -1, -1, 1, -1, 2],
               [0, 1, 1, 0, 0, 0, 0, 0, 0], [0, 1, 2, 1, -2, -1, 1, -4, 0],
               [1, -3, -2, 0, 2, 0, 0, 3, -2], [0, 0, 1, 1, 0, 1, 0, 0, 0],
               [1, 0, 0, 0, 0, -1, 1, 0, -1], [-1, 5, 2, -1, -1, -1, 0, 0, 3],
               [-1, 3, 1, -1, -1, -1, 0, -1, 2]]


def run_cli(argv: list[str], limit: float | None = None) -> tuple[int | None, str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-m", "uctop", *argv], capture_output=True,
                           env=env, timeout=limit, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - t
    return p.returncode, p.stdout.decode(), time.perf_counter() - t


def golden_requests() -> set[str]:
    keys = set()
    for slots in (W.BOUNDARY, W.CHECK):
        for _, alts, cmds, _ in slots:
            keys |= {W.cli_request(c, s, s)["golden"] for s in alts for c in cmds}
    for _, refs, cmds, _, _ in W.LATTICE:
        keys |= {W.cli_request(c, r, r)["golden"] for r in refs for c in cmds}
    return keys


def main() -> None:
    pool = concurrent.futures.ThreadPoolExecutor(2)
    keys = sorted(golden_requests() | {"count A9:sc --max-rank=9"})
    golden: dict = {}
    for key, (rc, out, _) in zip(keys, pool.map(lambda k: run_cli(k.split(" ")), keys)):
        golden[key] = {"rc": rc, "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if len(out) <= 400:
            golden[key]["out"] = out
    counts = {}
    for spec in W.census_alternatives():
        rc, out, _ = run_cli(["count", spec, "--format=json", "--max-rank=12"])
        counts[spec] = json.loads(out)["coeffs"]
    golden["census_counts"] = counts
    with open(os.path.join(HERE, "data", "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")

    jobs = []
    for _, refs, cmds, band, _ in W.LATTICE:
        family = "count" if cmds[0] in ("count", "pi0") else "cgbetti"
        for ref in refs:
            rng = random.Random(f"catalogue:{ref}:{band}:{family}")
            for k in W.BANDS[band]:
                for _ in range(CANDIDATES_PER_K):
                    rows = W.scramble(W.reference_rows(ref), k, rng)
                    jobs.append({"ref": ref, "band": band, "family": family, "k": k, "rows": rows})
    jobs = list({json.dumps(j, sort_keys=True): j for j in jobs}.values())

    def classify(job: dict) -> dict:
        spec = f"{job['ref'].split(':')[0]}:lattice={W.json_rows(job['rows'])}"
        req = W.cli_request(job["family"], spec, job["ref"])
        rc, out, secs = run_cli(req["argv"], LIMIT_S)
        if rc is None:
            status = "over_limit"
        else:
            err = oracle.check_cli(req, rc, out, golden)
            status = "ok" if not err else "wrong: " + err
        return dict(job, status=status, seconds=round(secs, 2))

    entries = [classify(j) for j in jobs]  # one at a time: the times order the strata
    pinned_spec = f"A9:lattice={W.json_rows(PINNED_ROWS)}"
    catalogue = {
        "recipe": "scramble(reference basis, k, rng): k row operations r_i += +-r_j, then a "
                  "row shuffle; rng = random.Random('catalogue:<ref>:<band>:<family>'), "
                  f"{CANDIDATES_PER_K} candidates per k; classified once with a {LIMIT_S:g} s limit",
        "bands": W.BANDS,
        "pinned": [{"argv": ["count", pinned_spec, "--max-rank=9"],
                    "golden": "count A9:sc --max-rank=9"}],
        "entries": entries,
    }
    with open(os.path.join(HERE, "data", "lattices.json"), "w") as f:
        json.dump(catalogue, f, separators=(",", ":"))
        f.write("\n")
    for status in sorted({e["status"] for e in entries}):
        print(status, sum(e["status"] == status for e in entries))


if __name__ == "__main__":
    main()
