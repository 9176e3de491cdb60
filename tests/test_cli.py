"""CLI grammar, exit-code partition, golden outputs, JSON stability."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctop.cli import GroupSpec, main, parse_spec
from uctop.errors import FunctorialityViolation, GroupSpecError
from uctop.matrices import IntMatrix
from uctop.rootdata import CartanType, build_datum

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec grammar


def test_parse_spec_basic():
    spec = parse_spec("A1:adjoint")
    assert spec.cartan_type == CartanType((("A", 1),))
    assert spec.isogeny == "adjoint"
    assert spec.canonical == "A1:adjoint"


def test_parse_spec_case_and_whitespace_insensitive():
    spec = parse_spec("  a1 X a2 : SC ")
    assert spec.cartan_type == CartanType((("A", 1), ("A", 2)))
    assert spec.isogeny == "sc"
    assert spec.canonical == "A1xA2:sc"


def test_parse_spec_lattice():
    raw = "D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]"
    spec = parse_spec(raw)
    assert isinstance(spec.isogeny, IntMatrix)
    assert spec.canonical == raw


def test_parse_spec_round_trip():
    for raw in (
        "A1:adjoint",
        "a1xA2:sc",
        "B2xG2:adjoint",
        "A3:lattice=[[1,0,1],[0,1,0],[2,0,0]]",
    ):
        spec = parse_spec(raw)
        again = parse_spec(spec.canonical)
        assert again.canonical == spec.canonical
        assert again.datum() == spec.datum()


def test_parse_spec_errors_carry_positions():
    with pytest.raises(GroupSpecError):
        parse_spec("")
    with pytest.raises(GroupSpecError) as err:
        parse_spec("A1adjoint")
    assert "':'" in str(err.value)
    with pytest.raises(GroupSpecError) as err:
        parse_spec("B1:adjoint")
    assert "rank" in str(err.value) and "position 0" in str(err.value)
    with pytest.raises(GroupSpecError) as err:
        parse_spec("A1xA2:frobenius")
    assert "isogeny" in str(err.value)
    with pytest.raises(GroupSpecError):
        parse_spec("A1x:sc")
    with pytest.raises(GroupSpecError):
        parse_spec("A:sc")
    with pytest.raises(GroupSpecError):
        parse_spec("A2:lattice=[[2,0],[0,2]")  # bad JSON
    with pytest.raises(GroupSpecError):
        parse_spec("A2:lattice=[[2,0],[0,2],[1,1]]")  # wrong shape
    with pytest.raises(GroupSpecError):
        parse_spec("A2:lattice=[[2,0],[0,2]]")  # drops the roots


def test_oversized_lattice_json_is_a_spec_error(capsys):
    payload_at = len("A1:lattice=")
    for raw in (
        "A1:lattice=[[" + "7" * 5000 + "]]",  # past the interpreter's digit limit
        "A1:lattice=" + "[" * 100_000,  # nested past the recursion limit
    ):
        with pytest.raises(GroupSpecError) as err:
            parse_spec(raw)
        assert err.value.position == payload_at
        code, out, err_text = run_cli(capsys, "count", raw)
        assert (code, out) == (1, "")
        assert err_text.startswith(f"error: position {payload_at}: lattice matrix is not valid JSON")


_SPEC_TOKENS = [
    "A", "b", "D", "E", "g", "x", "X", "0", "1", "2", "8", "99999999", "\u00b2", ":",
    "sc", "adjoint", "Lattice=", "[", "]", ",", "-", " ",
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(_SPEC_TOKENS), max_size=30).map("".join),
    )
)
def test_parse_spec_fuzz_gives_spec_or_positioned_error(raw):
    try:
        spec = parse_spec(raw)
    except GroupSpecError as exc:
        assert exc.position is not None
    else:
        assert isinstance(spec, GroupSpec)


# ---------------------------------------------------------------------------
# commands and exit codes


def test_count_golden_output(capsys):
    code, out, err = run_cli(capsys, "count", "A1:sc")
    assert code == 0
    assert out.strip() == "q^2 + q"


def test_info_output(capsys):
    code, out, _ = run_cli(capsys, "info", "A1xA2:sc")
    assert code == 0
    assert "rank: 3" in out
    assert "center order: 6" in out
    assert "weyl order: 12" in out


def test_jgbetti_json_adjoint(capsys):
    code, out, _ = run_cli(capsys, "jgbetti", "A2:adjoint", "--format=json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1]
    assert payload["purity_match"] is True
    assert payload["cells_attached"] == 1
    assert payload["spec"] == "A2:adjoint"


def test_jgbetti_refusal_exit_2(capsys):
    code, out, err = run_cli(capsys, "jgbetti", "A3:sc")
    assert code == 2
    assert "{1,3}" in err
    assert out == ""


def test_lattice_refusal_exit_2(capsys):
    raw = "D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]"
    code, _, err = run_cli(capsys, "jgbetti", raw)
    assert code == 2
    assert "{3,4}" in err


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["count", "B1:adjoint"],
        ["count", "A1"],
        ["count", "A1:nope"],
        ["jgbetti", "A2:adjoint", "--format=yaml"],
        ["frobnicate", "A1:sc"],
        ["pi0", "A2:sc", "--levi", "0,1"],
        ["pi0", "A2:sc", "--levi=1_0"],  # int() would read 10
        ["pi0", "A2:sc", "--levi=+1"],  # int() would read 1
        ["count", "E6xE8:sc"],  # rank 14 over the default --max-rank
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err, argv
    for text in ("1_0", "+1", "1,,2", "-1", "1" * 5000):
        code, out, err = run_cli(capsys, "pi0", "A2:sc", f"--levi={text}")
        assert (code, out) == (1, ""), text
        assert f"--levi expects a comma list of integers, got {text!r}" in err, text
    # whitespace around the items is still stripped
    assert run_cli(capsys, "pi0", "A2:sc", "--levi= 2 , 1 ") == run_cli(capsys, "pi0", "A2:sc", "--levi=1,2")


def test_exit_code_partition_over_corpus(capsys):
    corpus = {
        0: [
            ["count", "A1:sc"],
            ["epoly", "G2:adjoint"],
            ["poincare", "A4:sc"],
            ["cgbetti", "B2:adjoint"],
            ["jgbetti", "A4:sc"],
            ["pi0", "D4:sc", "--all"],
            ["info", "E8:sc"],
            ["check", "A2:sc"],
        ],
        1: [
            ["count", "B1:adjoint"],
            ["count", "x:sc"],
            ["cgbetti", "A2:"],
            ["pi0", "A2:sc", "--levi", "5"],
            ["cgbetti", "E8:adjoint"],  # gated behind --slow
        ],
        2: [
            ["jgbetti", "A3:sc"],
            ["cgbetti", "D4:sc"],
            ["jgbetti", "B2:sc"],
        ],
    }
    for want, cases in corpus.items():
        for argv in cases:
            code = main(argv)
            capsys.readouterr()
            assert code == want, argv


def test_pi0_all_and_single(capsys):
    code, out, _ = run_cli(capsys, "pi0", "A3:sc", "--all")
    assert code == 0
    assert "S = {1,3}: Z/2 (order 2)" in out
    assert "S = {1,2,3}: Z/4 (order 4)" in out
    code, out, _ = run_cli(capsys, "pi0", "A3:sc", "--levi", "1,3")
    assert code == 0
    assert out.count("S = ") == 1
    code, out, _ = run_cli(capsys, "pi0", "A3:sc", "--levi", "")
    assert "S = {}: trivial" in out


def test_pi0_json_structure(capsys):
    code, out, _ = run_cli(capsys, "pi0", "A1:sc", "--format=json")
    payload = json.loads(out)
    assert payload["pi0"] == [
        {"levi": [], "factors": [], "order": 1},
        {"levi": [1], "factors": [2], "order": 2},
    ]


def test_json_output_is_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "jgbetti", "A4:sc", "--format=json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, out1, _ = run_cli(capsys, "check", "A2:adjoint", "--format=json")
    code, out2, _ = run_cli(capsys, "check", "A2:adjoint", "--format=json")
    assert out1 == out2


def test_poincare_labeled(capsys):
    code, out, _ = run_cli(capsys, "poincare", "A3:sc")
    assert code == 0
    assert out.splitlines()[0] == "2t^6 + t^4 + 1"
    assert "purity-predicted" in out


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", "A2:sc")
    assert code == 0
    assert "0 failed" in out
    code, out, _ = run_cli(capsys, "check", "A3:sc")
    assert code == 0  # refusal-gated items are skipped, not failed
    assert "skipped" in out
    assert "refusal contract" in out


def test_check_failure_exits_1(capsys, monkeypatch):
    import uctop.cli as cli

    monkeypatch.setattr(
        cli, "_run_checks", lambda d: [("rigged to fail", "fail", "injected")]
    )
    code, out, _ = run_cli(capsys, "check", "A1:sc")
    assert code == 1
    assert "FAIL rigged to fail" in out


@pytest.mark.parametrize(
    "guard, item",
    [
        ("_check_chains", "projection functoriality over chains"),
        ("_check_square_zero", "cech differentials square to zero"),
        ("_betti_from_complex", "boundary homology is the odd sphere"),
    ],
)
def test_broken_guard_is_reported_not_raised(capsys, monkeypatch, guard, item):
    import uctop.cli as cli
    from uctop import homology

    if guard == "_betti_from_complex":
        # a boundary that is not S^5 trips the assembly guard
        def broken(*args, **kwargs):
            return homology.BettiTable((1, 0, 1))

        monkeypatch.setattr(cli, guard, broken)
        error = "boundary homology is not the expected odd sphere; assembly premises are violated"
        detail, skips, reason = "betti [1, 0, 1]", 5, "needs the assembly"
    else:
        def broken(*args):
            raise FunctorialityViolation(f"rigged {guard}")

        error = detail = f"rigged {guard}"
        skips = 10 if guard == "_check_chains" else 9
        reason = "needs the Cech complex"
    monkeypatch.setattr(homology, guard, broken)
    assert run_cli(capsys, "jgbetti", "A3:adjoint") == (1, "", f"error: {error}\n")
    code, out, _ = run_cli(capsys, "check", "A3:adjoint")
    lines = out.splitlines()
    assert code == 1
    assert [x for x in lines if x.startswith("FAIL")] == [f"FAIL {item} ({detail})"]
    skipped = [x for x in lines if x.startswith("SKIP")]
    assert len(skipped) == skips
    assert all(x.endswith(f" ({reason})") for x in skipped)
    assert skipped[-1].startswith("SKIP refusal contract: no witness")


def test_lattice_datum_is_built_once_per_call(capsys, monkeypatch):
    import uctop.cli as cli

    built = []

    def counted(*args):
        built.append(args)
        return build_datum(*args)

    monkeypatch.setattr(cli, "build_datum", counted)
    code, out, _ = run_cli(capsys, "count", "A3:lattice=[[1,0,1],[0,1,0],[2,0,0]]")
    assert code == 0 and out
    assert len(built) == 1


def test_max_rank_override(capsys):
    code, _, err = run_cli(capsys, "info", "A4xA5:sc")
    assert code == 1 and "max-rank" in err
    code, out, _ = run_cli(capsys, "info", "A4xA5:sc", "--max-rank", "9")
    assert code == 0 and "rank: 9" in out


def test_rank_gate_comes_before_any_n_by_n_work(capsys, monkeypatch):
    import uctop.cli as cli
    from uctop import rootdata

    def refuse(*args):
        raise AssertionError("built an n x n matrix before the rank gate")

    for module in (cli, rootdata):
        monkeypatch.setattr(module, "build_datum", refuse)
        monkeypatch.setattr(module, "cartan_matrix", refuse)
    assert run_cli(capsys, "count", "A100000:sc") == (
        1, "", "error: total rank 100000 exceeds --max-rank=8\n"
    )
    code, _, err = run_cli(capsys, "cgbetti", "E8:adjoint")
    assert code == 1 and "--slow" in err


@pytest.mark.parametrize("spec", ["A4:adjoint", "A5:adjoint"])
def test_check_compares_each_chain_once(capsys, monkeypatch, spec):
    import itertools

    import uctop.cli as cli
    from uctop import homology
    from uctop.rootdata import all_levi_subsets

    seen = []
    original = homology._check_chains

    def recording(diagram, chains):
        chains = list(chains)
        seen.extend(chains)
        original(diagram, chains)

    monkeypatch.setattr(homology, "_check_chains", recording)
    monkeypatch.setattr(cli, "_check_chains", recording)
    code, out, _ = run_cli(capsys, "check", spec)
    assert code == 0 and "PASS projection functoriality over chains" in out
    n = parse_spec(spec).cartan_type.rank
    proper = all_levi_subsets(n, proper=True)
    if n <= 4:  # every nested chain of proper subsets
        want = [c for c in itertools.product(proper, repeat=3) if set(c[0]) <= set(c[1]) <= set(c[2])]
    else:  # both middle sets of every covering triangle
        want = [
            (s, tuple(sorted(s + (a,))), tuple(sorted(s + (a, b))))
            for s in proper
            if len(s) + 2 < n
            for a, b in itertools.permutations(sorted(set(range(1, n + 1)) - set(s)), 2)
        ]
    assert sorted(seen) == sorted(want)


@pytest.mark.parametrize("spec", ["A4:sc", "A5:adjoint"])
def test_check_projects_each_nested_pair_once(capsys, monkeypatch, spec):
    import uctop.cli as cli
    from uctop import homology
    from uctop.rootdata import killing_projection

    calls = []

    def counting(d, s, sp):
        calls.append((tuple(s), tuple(sp)))
        return killing_projection(d, s, sp)

    monkeypatch.setattr(homology, "killing_projection", counting)
    monkeypatch.setattr(cli, "killing_projection", counting)
    code, out, _ = run_cli(capsys, "check", spec)
    assert code == 0 and "0 failed" in out
    assert calls and len(calls) == len(set(calls))


def test_count_on_the_pinned_basis_matches_the_weight_lattice(capsys):
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    (pinned,) = catalogue["pinned"]
    assert pinned["golden"] == "count A9:sc --max-rank=9"
    assert run_cli(capsys, *pinned["argv"]) == run_cli(capsys, "count", "A9:sc", "--max-rank=9")


def test_slow_gate_message(capsys):
    code, _, err = run_cli(capsys, "cgbetti", "E8:adjoint")
    assert code == 1
    assert "--slow" in err
    # count is cheap and not gated
    code, out, _ = run_cli(capsys, "count", "E8:adjoint")
    assert code == 0
    assert out.strip() == "q^16"


def test_check_passes_on_whole_acceptance_matrix(capsys):
    names = [
        "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4",
        "A1xA1", "A1xA2",
    ]
    specs = (
        [f"{t}:adjoint" for t in names]
        + [f"{t}:sc" for t in names]
        + [
            "A3:lattice=[[1,0,1],[0,1,0],[2,0,0]]",
            "D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]",
        ]
    )
    for spec in specs:
        code, out, _ = run_cli(capsys, "check", spec)
        assert code == 0, spec
        assert "0 failed" in out, spec


def test_check_output_matches_benchmark_golden_bytes(capsys):
    # the benchmark's golden file holds the exit code and stdout hash of
    # each reference `check`; rank <= 5 keeps this short (27 specs), and a
    # benchmark pass checks the larger ranks
    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    argvs = [key.split() for key in golden if key.startswith("check ")]
    specs = [
        argv[1]
        for argv in argvs
        if len(argv) == 2 and parse_spec(argv[1]).datum().rank <= 5
    ]
    assert len(specs) >= 27
    for spec in specs:
        code, out, _ = run_cli(capsys, "check", spec)
        want = golden[f"check {spec}"]
        assert code == want["rc"], spec
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"], spec


# stdout, stderr and exit code of every command, in table and JSON form, on
# a few specs (a refused one and a lattice= one among them), plus --help;
# recorded from the CLI and compared byte for byte
_PINS = json.loads((ROOT / "tests" / "data" / "cli_pins.json").read_text())


@pytest.mark.parametrize("key", list(_PINS))
def test_cli_output_is_pinned(capsys, monkeypatch, key):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    try:
        code = main(key.split())
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    captured = capsys.readouterr()
    want = _PINS[key]
    assert (code, captured.out, captured.err) == (want["rc"], want["out"], want["err"])


def test_oracles_stay_independent_of_the_library():
    tree = ast.parse((ROOT / "src" / "uctop" / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles must not import from the package"
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, name
    # the package loads the oracles only when `check` runs
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, uctop, uctop.cli; print('uctop.oracles' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# run in a bare interpreter (-S: no site hooks) with PYTHONPATH=src; prints
# main's output, then "#", whether json is loaded after main, and the
# modules that importing the CLI added
_IMPORT_PROBE = (
    "import sys; pre = set(sys.modules); from uctop.cli import main; "
    "new = set(sys.modules) - pre; rc = main(sys.argv[1:]); "
    "print('#', 'json' in sys.modules, *sorted(new)); sys.exit(rc)"
)


def _import_probe(*argv):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    out, _, tail = proc.stdout.rpartition("# ")
    json_loaded, *new = tail.split()
    return proc.returncode, out, json_loaded == "True", set(new)


def test_cli_import_stays_light():
    # start-up cost: the CLI must not pull in dataclasses (with inspect, ast
    # and dis behind it), typing, or json before a command needs JSON
    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    code, out, json_loaded, new = _import_probe("jgbetti", "D4:adjoint")
    assert code == 0
    assert out == golden["jgbetti D4:adjoint"]["out"]
    assert not json_loaded
    assert "uctop.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "typing", "json"}
    # commands that read or write JSON still load it and print the same bytes
    code, out, json_loaded, _ = _import_probe("jgbetti", "D4:adjoint", "--format=json")
    assert code == 0 and json_loaded
    assert out == (
        '{\n  "command": "jgbetti",\n  "spec": "D4:adjoint",\n  "betti": [\n    1\n  ],\n'
        '  "cells_attached": 1,\n  "boundary_rank": 1,\n  "intersection_number": "192",\n'
        '  "purity_match": true\n}\n'
    )
    key = next(k for k in golden if k.startswith("count D8:lattice="))
    code, out, json_loaded, _ = _import_probe(*key.split())
    assert code == golden[key]["rc"] == 0 and json_loaded
    assert out == golden[key]["out"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "uctop", "count", "A1:sc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q^2 + q"
