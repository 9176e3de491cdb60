"""Child process of the benchmark: the census stream, or one traced CLI request.

    python3 bench/worker.py census [--trace] [--tracemalloc] < queries.json
    python3 bench/worker.py cli <uctop arguments...>

Prints one JSON object on stdout. Timers stop before results are converted
for output, so only the library call is timed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import tracemalloc

from spans import Recorder, use_checkout_source


def _result(call: str, value) -> dict:
    if call == "center_order":
        return {"value": value}
    if call == "center_of_levi":
        return {"factors": list(value.pi0.factors), "kernel": value.cochar_basis.to_lists()}
    return {"coeffs": list(value.coeffs), "text": str(value)}


def census(queries: list[dict], traced: bool, memory: bool) -> dict:
    rec = Recorder(0)
    if memory:
        tracemalloc.start()
    with rec.span("census.setup"):
        use_checkout_source()
        import uctop
        from uctop.cli import parse_spec
        data = {q["spec"]: parse_spec(q["spec"]).datum() for q in queries}
    out = []
    with rec.span("census.stream"):
        for i, q in enumerate(queries):
            fn, args = getattr(uctop, q["call"]), [data[q["spec"]], *([q["levi"]] if "levi" in q else [])]
            cpu = time.process_time()
            if traced:
                rec.request = i
                with rec.span(f"census.{q['call']}") as s:
                    value = fn(*args)
                took = (s["end_ns"] - s["start_ns"]) / 1e9
            else:
                t = time.perf_counter()
                value = fn(*args)
                took = time.perf_counter() - t
            cpu = time.process_time() - cpu
            out.append({"s": took, "cpu": cpu, "res": _result(q["call"], value)})
    payload = {"results": out, "spans": rec.spans if traced else []}
    if memory:
        gc.collect()
        payload["retained_bytes"] = tracemalloc.get_traced_memory()[0]
    return payload


def cli(argv: list[str]) -> dict:
    rec = Recorder(0)
    with rec.span("cli.import"):
        use_checkout_source()
        from uctop.cli import main
    buf = io.StringIO()
    with rec.span("cli.main"), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return {"rc": rc, "out": buf.getvalue(), "spans": rec.spans}


if __name__ == "__main__":
    if sys.argv[1] == "census":
        result = census(json.load(sys.stdin), "--trace" in sys.argv, "--tracemalloc" in sys.argv)
    else:
        result = cli(sys.argv[2:])
    json.dump(result, sys.stdout)
