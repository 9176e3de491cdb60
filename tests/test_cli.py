"""CLI grammar, exit-code partition, golden outputs, JSON stability."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctop import cli, levi, rootdata, usage
from uctop.cli import GroupSpec, main, parse_spec
from uctop.errors import FunctorialityViolation, GroupSpecError
from uctop.matrices import IntMatrix
from uctop.rootdata import CartanType, build_datum

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_out(key: str) -> str:
    """The stdout that bench/data/golden.json records for the command line
    `key`, or else tests/data/cli_pins.json."""
    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    return (golden[key] if key in golden else _PINS[key])["out"]


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
        assert again.canonical == spec.canonical and again == spec
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
        ["info", "A9:sc", "--max-rank=1_0"],  # int() would read 10
        ["info", "A9:sc", "--max-rank=+9"],  # int() would read 9
        ["info", "A9:sc", "--max-rank=-1"],
        # digits of another script (here Arabic-Indic), which int() reads too
        ["info", "A\u0663:sc"],
        ["info", "A9:sc", "--max-rank=\u0669"],
        ["pi0", "A2:sc", "--levi=\u0661"],
        # option prefixes are not read as the options they begin
        ["jgbetti", "A2:adjoint", "--sl"],
        ["pi0", "A2:sc", "--lev=1"],
        ["info", "A2:sc", "--form=json"],
        ["info", "A2:sc", "--max=9"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err, argv
    for text in ("1_0", "+1", "1,,2", "-1", "1" * 5000, "\u0661"):
        code, out, err = run_cli(capsys, "pi0", "A2:sc", f"--levi={text}")
        assert (code, out) == (1, ""), text
        assert f"--levi expects a comma list of integers, got {text!r}" in err, text
    # whitespace around the items is still stripped
    assert run_cli(capsys, "pi0", "A2:sc", "--levi= 2 , 1 ") == run_cli(capsys, "pi0", "A2:sc", "--levi=1,2")
    # --max-rank takes decimal digits by the same rule, with argparse's message
    for text in ("1_0", "+9", "-1", "1" * 5000, "\u0669"):
        code, out, err = run_cli(capsys, "info", "A9:sc", f"--max-rank={text}")
        assert (code, out) == (1, ""), text
        assert f"argument --max-rank: invalid int value: {text!r}" in err, text
    padded = run_cli(capsys, "info", "A9:sc", "--max-rank= 9 ")  # int() strips it too
    assert padded == run_cli(capsys, "info", "A9:sc", "--max-rank=9") and padded[0] == 0


_RANK_TEXTS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["", " 9 ", "09", "+3", "-3", "1_0", "\u0663", "=9", "x"]),
)
_LEVI_TEXTS = st.one_of(
    st.lists(st.integers(0, 9), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", " ", " 2 , 1 ", "1,,2", "+1", "\u0663", "a"]),
)
_WELL_FORMED_OPTIONS = st.one_of(
    st.sampled_from(["--format=table", "--format=json"]),
    st.integers(0, 12).map(lambda k: f"--max-rank={k}"),
    st.lists(st.integers(1, 9), max_size=3).map(lambda xs: "--levi=" + ",".join(map(str, xs))),
)
_NEAR_MISSES = st.one_of(
    st.sampled_from(["--format=JSON", "--format=", "--format", "json", "--max-rank", "9",
                     "--levi", "--", "-h", "--help", "-x", "A1:sc", "--form=json"]),
    _RANK_TEXTS.map(lambda t: "--max-rank=" + t),
    _LEVI_TEXTS.map(lambda t: "--levi=" + t),
)


@st.composite
def _command_lines(draw):
    """(argv, whether the grammar makes it well formed): a command, a spec and
    options, or a near miss of that grammar."""
    command = draw(st.sampled_from([*cli.COMMANDS, "pi0", "pi0"]))  # pi0 has the most options
    spec = draw(st.sampled_from(["A2:sc", "d4:adjoint", "", "A1 :sc", "x=y", "A1:sc --"]))
    if draw(st.booleans()):
        options = draw(st.lists(_WELL_FORMED_OPTIONS, max_size=3))
        names = [o.partition("=")[0] for o in options]
        # --levi, pi0's alone, is left to argparse
        well_formed = len(set(names)) == len(names) and "--levi" not in names
        return [command, spec, *options], well_formed
    items = draw(st.lists(_WELL_FORMED_OPTIONS, max_size=2))
    items.insert(draw(st.integers(0, len(items))), draw(_NEAR_MISSES))
    spec = draw(st.sampled_from([spec, "-h", "--", "-1", "--levi=1"]))
    argv = [command, spec, *items]
    change = draw(st.sampled_from(["none", "none", "swap", "cut"]))
    if change == "swap":  # an option before the spec
        argv[1:3] = argv[2], argv[1]
    elif change == "cut":
        argv = argv[: draw(st.integers(0, len(argv)))]
    return argv, None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_command_lines())
def test_fast_path_agrees_with_argparse(case):
    # a command line the fast path accepts parses to the same five values
    # under argparse; it declines the rest, which argparse then handles
    argv, well_formed = case
    fast = cli._well_formed(argv)
    if well_formed is not None:
        assert (fast is not None) == well_formed, argv
    parser = usage._build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # -h prints the help
            parsed = parser.parse_args(argv)
    except (usage._UsageError, SystemExit):
        parsed = None
    if fast is not None:
        assert parsed is not None, argv
        names = ("command", "spec", "format", "max_rank", "levi")
        assert vars(fast) == {k: getattr(parsed, k, None) for k in names}, argv


def test_exit_code_partition_over_corpus(capsys):
    corpus = {
        0: [
            ["count", "A1:sc"],
            ["epoly", "G2:adjoint"],
            ["poincare", "A4:sc"],
            ["cgbetti", "B2:adjoint"],
            ["jgbetti", "A4:sc"],
            ["pi0", "D4:sc"],
            ["info", "E8:sc"],
            ["cgbetti", "E8:adjoint"],  # rank 8 is within the default --max-rank
            ["check", "A2:sc"],
        ],
        1: [
            ["count", "B1:adjoint"],
            ["count", "x:sc"],
            ["cgbetti", "A2:"],
            ["pi0", "A2:sc", "--levi", "5"],
            ["pi0", "D4:sc", "--all"],  # a retired option
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
    code, out, _ = run_cli(capsys, "pi0", "A3:sc")
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
    from uctop import battery

    monkeypatch.setattr(
        battery, "run_checks", lambda d: [("rigged to fail", "fail", "injected")]
    )
    code, out, _ = run_cli(capsys, "check", "A1:sc")
    assert code == 1
    assert "FAIL rigged to fail" in out


@pytest.mark.parametrize(
    "guard, item",
    [
        ("_check_functoriality", "projection functoriality over chains"),
        ("_check_square_zero", "cech differentials square to zero"),
        ("_betti_from_complex", "boundary homology is the odd sphere"),
        ("_block_symmetrizer", "invariant form is symmetric"),
        ("snf", "levi center dimension equals n - |S| for all S"),
        ("disconnected_block", "invariant form is symmetric"),
        ("_cleared_ranks", "boundary homology is the odd sphere"),
        ("_coweight_columns", "projection functoriality over chains"),
        ("invariant_form", "projection functoriality over chains"),
        ("intersection_number", "intersection certificate is a positive integer"),
        ("center_order", "intersection certificate is a positive integer"),
    ],
)
def test_broken_guard_is_reported_not_raised(capsys, monkeypatch, guard, item):
    from uctop import assembly, boundary, homology

    spec = "A3:adjoint"
    # guards that jgbetti never reaches, and `check` fails their item: the Cech
    # build's, since jgbetti answers from the certified closed form, and the
    # Levi Smith form's, since every request reads its gate and pi0 from X/Q
    unreached = guard in {"_check_functoriality", "_check_square_zero", "_betti_from_complex",
                          "_cleared_ranks", "snf"}
    failures = []
    if guard == "_block_symmetrizer":
        # D = diag(1, 2) makes D.A asymmetric on A2, which invariant_form's
        # guard refuses; the check items that project need the form
        monkeypatch.setattr(levi, guard, lambda a, off, rk: [1, 2])
        spec, error, failed = "A2:adjoint", "Gram matrix must be symmetric", f"FAIL {item}"
        reasons = ["needs the invariant form"] * 2 + ["needs the Cech complex"] * 10
    elif guard == "_betti_from_complex":
        # a boundary that is not S^5 trips the assembly guard
        def broken(*args, **kwargs):
            return homology.BettiTable((1, 0, 1))

        monkeypatch.setattr(homology, guard, broken)
        error = "boundary homology is not the expected odd sphere; assembly premises are violated"
        failed = f"FAIL {item} (betti [1, 0, 1])"
        reasons = ["needs the assembly"] * 5
    elif guard == "snf":
        # a kernel one column short trips center_of_levi's guard, and the
        # check items that read the Levi centers skip, while pi0 and jgbetti,
        # which run no Smith form, still answer
        real_snf = levi.snf

        def short(m):
            factors, kernel = real_snf(m)
            rows = [r[:-1] for r in kernel.to_lists()]
            return factors, IntMatrix.from_rows(rows, cols=kernel.cols - 1)

        monkeypatch.setattr(levi, guard, short)
        spec, error = "A2:adjoint", "simple roots must be linearly independent"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the Levi centers"] * 9 + ["needs the Cech complex"] * 10
        assert run_cli(capsys, "pi0", spec) == (0, golden_out(f"pi0 {spec}"), "")
    elif guard == "disconnected_block":
        # the symmetrizer of a Dynkin block with no edges cannot be built
        real_symmetrizer = levi._block_symmetrizer

        def edgeless(a, off, rk):
            diagonal = [[x if i == j else 0 for j, x in enumerate(r)] for i, r in enumerate(a)]
            return real_symmetrizer(diagonal, off, rk)

        monkeypatch.setattr(levi, "_block_symmetrizer", edgeless)
        spec, error = "A2:adjoint", "Dynkin diagram of a simple factor must be connected"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the invariant form"] * 3 + ["needs the Cech complex"] * 10
    elif guard == "_cleared_ranks":
        # ranks past the chain dimensions trip the Betti bookkeeping's guard
        monkeypatch.setattr(homology, guard, lambda row: {p: sum(row.dims) + 1 for p in row.diffs})
        error = "negative homology dimension: rank bookkeeping bug"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the boundary betti table"] * 2 + ["needs the assembly"] * 5
    elif guard == "_coweight_columns":
        # one rigged entry of the projection of omega_1^vee onto S' = {1,2}
        # breaks the closed-form covering triangle () -> {1} -> {1,2}, and
        # the naturality of the covering arrow (2,) -> (1, 2), which the
        # surjection item certifies
        real_columns = boundary._coweight_columns

        def rigged(d, sp):
            den, columns = real_columns(d, sp)
            if sp == (1, 2):
                columns = {**columns, 1: {k: v + 1 for k, v in columns[1].items()}}
            return den, columns

        monkeypatch.setattr(homology, guard, rigged)
        monkeypatch.setattr(boundary, guard, rigged)
        error = "naturality fails on the covering arrow (2,) -> (1, 2)"
        failed = (
            f"FAIL {item} (projection composite through (1,) disagrees with the direct arrow "
            "() -> (1, 2))"
        )
        failures = [f"FAIL projections surject onto their targets ({error})"]
        reasons = ["needs the Cech complex"] * 10
    elif guard == "invariant_form":
        # a symmetric positive definite form that does not make the coroots
        # orthogonal to the other fundamental coweights fails the certificate
        monkeypatch.setattr(boundary, guard, lambda d: IntMatrix.identity(d.rank))
        error = "Gram matrix times the inverse Cartan matrix must be diagonal"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the Cech complex"] * 10
    elif guard == "intersection_number":
        # a certificate of 0 trips the assembly's positivity guard past a
        # boundary that is the odd sphere, so the certificate item fails
        monkeypatch.setattr(assembly, guard, lambda d: 0)
        error = "intersection certificate must be positive"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the assembly"] * 4
    elif guard == "center_order":
        # an assembly |Z| of 5, which does not divide |W| = 24, trips the
        # divisibility guard of intersection_number
        monkeypatch.setattr(assembly, guard, lambda d: 5)
        error = "center order 5 does not divide the Weyl group order 24"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the assembly"] * 4
    else:
        def broken(*args):
            raise FunctorialityViolation(f"rigged {guard}")

        monkeypatch.setattr(homology, guard, broken)
        error = f"rigged {guard}"
        failed = f"FAIL {item} ({error})"
        reasons = ["needs the Cech complex"] * (10 if guard == "_check_functoriality" else 9)
    if unreached:
        assert run_cli(capsys, "jgbetti", spec) == (0, golden_out(f"jgbetti {spec}"), "")
    else:
        assert run_cli(capsys, "jgbetti", spec) == (1, "", f"error: {error}\n")
    code, out, _ = run_cli(capsys, "check", spec)
    lines = out.splitlines()
    assert code == 1
    assert [x for x in lines if x.startswith("FAIL")] == [failed, *failures]
    skipped = [x for x in lines if x.startswith("SKIP")]
    assert len(skipped) == len(reasons)
    assert all(x.endswith(f" ({reason})") for x, reason in zip(skipped, reasons))
    assert skipped[-1].startswith("SKIP refusal contract: no witness")


def test_homology_requests_run_no_smith_form(capsys, monkeypatch):
    # a request reads its gate from X/Q alone, so a Smith form that raises
    # changes none of its bytes; a refusal reads the factors it prints from
    # X/Q too, and runs none
    real_snf, runs = levi.snf, []

    def raising(m):
        raise AssertionError("snf ran")

    monkeypatch.setattr(levi, "snf", raising)
    for spec in ("E6:adjoint", "A6:sc", "G2xB3:adjoint"):
        for command in ("cgbetti", "jgbetti"):
            key = f"{command} {spec}"
            assert run_cli(capsys, command, spec) == (0, golden_out(key), ""), key
    monkeypatch.setattr(levi, "snf", lambda m: runs.append(m) or real_snf(m))
    refusal = ("refused: component group of the Levi center at S = {1,3} is nontrivial "
               "(Z/2); this case is refused\n")
    assert run_cli(capsys, "cgbetti", "A3:sc") == (2, "", refusal)
    assert runs == []


def test_pi0_runs_no_smith_form(capsys, monkeypatch):
    # pi0 reads every component group from X/Q, so a Smith form that raises
    # changes none of its bytes, and the pinned A9 basis, on which the Levi
    # Smith forms blow up, prints the bytes of A9:sc
    def raising(m):
        raise AssertionError("snf ran")

    monkeypatch.setattr(levi, "snf", raising)
    for key in ("pi0 A3:sc", "pi0 A3:sc --levi=1,3", "pi0 A2:lattice=[[1,1],[-1,2]] --format=json"):
        want = _PINS[key]
        assert run_cli(capsys, *key.split()) == (want["rc"], want["out"], want["err"]), key
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    (pinned,) = catalogue["pinned"]
    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    want = golden["pi0 A9:sc --max-rank=9"]
    code, out, err = run_cli(capsys, "pi0", pinned["argv"][1], "--max-rank=9")
    assert (code, err) == (want["rc"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


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
    def refuse(*args):
        raise AssertionError("built an n x n matrix before the rank gate")

    for module in (cli, rootdata):
        monkeypatch.setattr(module, "build_datum", refuse)
    monkeypatch.setattr(rootdata, "cartan_matrix", refuse)
    assert run_cli(capsys, "count", "A100000:sc") == (
        1, "", "error: total rank 100000 exceeds --max-rank=8\n"
    )
    # the homology commands have no gate of their own
    assert run_cli(capsys, "cgbetti", "A9:adjoint") == (
        1, "", "error: total rank 9 exceeds --max-rank=8\n"
    )


@pytest.mark.parametrize("spec", ["A4:adjoint", "A5:adjoint"])
def test_check_compares_each_chain_once(capsys, monkeypatch, spec):
    from uctop import homology
    from uctop.levi import all_levi_subsets

    seen = []
    original = homology._composes

    def recording(v2, v3, s3, a):
        seen.append((tuple(sorted(v2[1])), s3, a))  # V_T has one column per a in T
        return original(v2, v3, s3, a)

    monkeypatch.setattr(homology, "_composes", recording)
    code, out, _ = run_cli(capsys, "check", spec)
    assert code == 0 and "PASS projection functoriality over chains" in out
    # one identity per covering pair (T, T + {c}) and column a in T, each
    # checked once although the battery and the Cech build's diagram both
    # need the check
    n = parse_spec(spec).cartan_type.rank
    want = [
        (t, tuple(sorted(t + (c,))), a)
        for t in all_levi_subsets(n, proper=True)
        if t and len(t) + 1 < n
        for c in range(1, n + 1)
        if c not in t
        for a in t
    ]
    assert sorted(seen) == sorted(want)


@pytest.mark.parametrize("spec", ["A4:sc", "A5:adjoint"])
def test_check_solves_each_cartan_submatrix_once(capsys, cartan_solves, spec):
    # the diagram and the battery read the same coweight columns: no
    # lattice-basis projection, no Laplace minors, one solve per connected
    # nonempty proper C of the Dynkin diagram
    code, out, _ = run_cli(capsys, "check", spec)
    assert code == 0 and "0 failed" in out
    solved, blocks = cartan_solves(parse_spec(spec).datum())
    assert solved == blocks


def test_homology_commands_run_no_cech_build(capsys, monkeypatch):
    # cgbetti and jgbetti answer from the naturality certificate: the Cech
    # build, the diagram and its functoriality check are never called, and the
    # answers are the golden ones
    from uctop import homology

    def refuse(*args):
        raise AssertionError("a homology command ran the Cech build")

    for name in ("build_cech_complex", "build_center_diagram", "_check_functoriality"):
        monkeypatch.setattr(homology, name, refuse)
    for spec in ("A2:sc", "B3:adjoint", "A2xB3:adjoint", "D5:adjoint", "G2xB3:adjoint", "E6:adjoint"):
        for command in ("cgbetti", "jgbetti"):
            assert run_cli(capsys, command, spec) == (0, golden_out(f"{command} {spec}"), ""), (
                command, spec
            )


def test_perturbed_certificate_column_is_an_error_and_a_failed_check(capsys, monkeypatch):
    # the certificate's copy of one entry of V_{2,3} on D4 is off by one,
    # while the diagram and the Cech build read the true columns: both
    # homology commands print the certificate's error and exit 1, and under
    # `check` the surjection item, which is the certificate, fails, and so
    # does the comparison of the Cech table with the certified one
    from uctop import boundary, homology  # homology binds the true columns first

    assert homology._coweight_columns is boundary._coweight_columns
    real = boundary._coweight_columns

    def rigged(d, sp):
        den, columns = real(d, sp)
        if sp == (2, 3):
            columns = {**columns, 3: {**columns[3], 4: columns[3].get(4, 0) + 1}}
        return den, columns

    monkeypatch.setattr(boundary, "_coweight_columns", rigged)
    error = "naturality fails on the covering arrow (2,) -> (2, 3)"
    for command in ("cgbetti", "jgbetti"):
        assert run_cli(capsys, command, "D4:adjoint") == (1, "", f"error: {error}\n"), command
    code, out, err = run_cli(capsys, "check", "D4:adjoint")
    assert (code, err) == (1, "")
    assert [x for x in out.splitlines() if not x.startswith("PASS")] == [
        f"FAIL projections surject onto their targets ({error})",
        f"FAIL boundary homology is the odd sphere ({error})",
        "26 checks: 24 passed, 2 failed, 0 skipped",
    ]


def test_count_on_the_pinned_basis_matches_the_weight_lattice(capsys):
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    (pinned,) = catalogue["pinned"]
    assert pinned["golden"] == "count A9:sc --max-rank=9"
    assert run_cli(capsys, *pinned["argv"]) == run_cli(capsys, "count", "A9:sc", "--max-rank=9")


def test_info_on_the_pinned_basis_runs_no_smith_form(capsys, monkeypatch):
    # the S = Pi Smith form blows up on this basis; |Z| is |det R| instead
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    (pinned,) = catalogue["pinned"]
    spec = pinned["argv"][1]

    def refuse(*args):
        raise AssertionError("info or count ran a Smith normal form")

    monkeypatch.setattr(levi, "snf", refuse)
    code, out, err = run_cli(capsys, "info", spec, "--max-rank=9")
    assert (code, err) == (0, "")
    assert "center order: 10\n" in out
    reference = run_cli(capsys, "info", "A9:sc", "--max-rank=9")
    assert out.splitlines()[1:] == reference[1].splitlines()[1:]
    assert run_cli(capsys, "count", spec, "--max-rank=9")[0] == 0


def test_retired_options_are_usage_errors(capsys):
    # --slow once gated the rank-8 homology commands, and pi0's --all restated
    # its default; both are now unrecognized, whatever the rank
    for argv in (["cgbetti", "E8:adjoint", "--slow"], ["pi0", "D4:sc", "--all"]):
        option = argv[-1]
        assert run_cli(capsys, *argv) == (1, "", f"error: unrecognized arguments: {option}\n")
    code, out, _ = run_cli(capsys, "count", "E8:adjoint")
    assert code == 0
    assert out.strip() == "q^16"


def test_check_passes_on_e8(capsys):
    # the one run of the battery at rank 8: the golden check hashes stop at
    # rank 5 and the benchmark at rank 7
    code, out, _ = run_cli(capsys, "check", "E8:adjoint")
    assert code == 0
    lines = out.splitlines()
    assert not [x for x in lines if x.startswith("FAIL")]
    # the one skip is the reflection enumeration, past rank 4
    assert lines[-1] == "27 checks: 26 passed, 0 failed, 1 skipped"


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


def test_check_on_refused_data_builds_no_rational_matrix(capsys, monkeypatch):
    # refused data never reach the Cech complex, and the diagram items read
    # covering columns in integers, so `check` prints its golden bytes
    # without constructing a single RatMatrix
    from uctop.rational import RatMatrix

    def refuse(*args):
        raise AssertionError("check built a RatMatrix on refused data")

    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    monkeypatch.setattr(RatMatrix, "__init__", refuse)
    for spec in ("A3:sc", "D5:sc"):
        code, out, err = run_cli(capsys, "check", spec)
        want = golden[f"check {spec}"]
        assert (code, err) == (want["rc"], ""), spec
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"], spec
        assert "(refused at S = " in out, spec


def test_check_on_refused_data_builds_no_covering_arrow(capsys, monkeypatch):
    # only the Cech build reads the diagram's arrows, and refused data never
    # reach it: the form certificate, the functoriality check and the
    # naturality certificate run on the covering columns, and `check` prints
    # its golden bytes without building one arrow
    from uctop import homology

    def refuse(*args):
        raise AssertionError("check built the covering arrows on refused data")

    golden = json.loads((ROOT / "bench" / "data" / "golden.json").read_text())
    monkeypatch.setattr(homology, "_covering_arrows", refuse)
    code, out, err = run_cli(capsys, "check", "D5:sc")
    want = golden["check D5:sc"]
    assert (code, err) == (want["rc"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    assert "PASS projection functoriality over chains" in out
    assert "PASS projections surject onto their targets" in out


# stdout, stderr and exit code of every command, in table and JSON form, on
# a few specs (a refused one and a lattice= one among them), plus --help, the
# usage shapes that build the full command table or a single subcommand, and
# options the CLI does not read (retired ones, and an option's prefix);
# recorded from the CLI and compared byte for byte. A list under "err" holds
# each form that argparse prints: its invalid-choice message quotes the
# choices with repr() on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0, and
# prints them with str() on 3.13.13.
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
    errs = want["err"] if isinstance(want["err"], list) else [want["err"]]
    assert (code, captured.out) == (want["rc"], want["out"])
    assert captured.err in errs


def test_oracles_stay_independent_of_the_library():
    # the test-only oracles read the package's oracles and nothing else of it
    for path, allowed in (
        (ROOT / "src" / "uctop" / "oracles.py", ()),
        (ROOT / "tests" / "reference_oracles.py", ("uctop.oracles",)),
    ):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "oracles must not import from the package"
                names = [node.module]
            else:
                continue
            for name in names:
                assert name in allowed or name.split(".")[0] in sys.stdlib_module_names, name
    # the package loads the battery and its oracles only when `check` runs
    probe = (
        "import io, sys, contextlib, uctop, uctop.cli\n"
        "def loaded(): return [m in sys.modules for m in ('uctop.battery', 'uctop.oracles')]\n"
        "seen = [loaded()]\n"
        "for argv in (['jgbetti', 'A2:adjoint'], ['check', 'A1:adjoint']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert uctop.cli.main(argv) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[False, False], [False, False], [True, True]]"


# run in a bare interpreter (-S: no site hooks) with PYTHONPATH=src; prints
# main's output, then "#", whether json is loaded after main, and the
# modules that importing the CLI and running main added
_IMPORT_PROBE = (
    "import sys\n"
    "pre = set(sys.modules)\n"
    "from uctop.cli import main\n"
    "try:\n"
    "    rc = main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help exits from inside argparse\n"
    "    rc = exc.code\n"
    "new = set(sys.modules) - pre\n"
    "print('#', 'json' in sys.modules, *sorted(new))\n"
    "sys.exit(rc)\n"
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
    # the count side loads no homology, assembly or battery, and `info` not
    # even the count polynomials, the Levi centers with their Smith form, or
    # the argparse fallback
    unread = {
        "uctop.boundary", "uctop.homology", "uctop.assembly", "uctop.battery", "uctop.oracles"
    }
    base = {
        "uctop", "uctop.cli", "uctop._value", "uctop.errors", "uctop.matrices", "uctop.rootdata"
    }
    code, out, _, new = _import_probe("info", "A1:adjoint")
    assert code == 0
    assert out == "group: A1:adjoint\nrank: 1\ncenter order: 1\nweyl order: 2\n"
    assert not new & (unread | {"uctop.counting"})
    assert {m for m in new if m.split(".")[0] == "uctop"} == base
    code, out, _, new = _import_probe("count", "A3:sc")
    assert code == 0 and out == "q^6 + q^4 + 2q^3\n"
    assert "uctop.counting" in new and not new & unread
    # the homology commands answer from the certified closed form: they load
    # uctop.boundary and the Levi centers its witness gate compares, and
    # neither the Cech build nor the sparse rational matrices it ranks
    cech = {"uctop.homology", "uctop.rational", "uctop.projections", "uctop.battery"}
    for argv, loaded in (
        (("cgbetti", "A1:adjoint"), {"uctop.boundary"}),
        (("cgbetti", "D5:adjoint"), {"uctop.boundary"}),
        (("jgbetti", "A1:adjoint"), {"uctop.boundary", "uctop.assembly", "uctop.counting"}),
        (("jgbetti", "E6:adjoint"), {"uctop.boundary", "uctop.assembly", "uctop.counting"}),
    ):
        code, _, _, new = _import_probe(*argv)
        assert code == 0 and {m for m in new if m.split(".")[0] == "uctop"} == {
            *base, "uctop.levi", *loaded
        }, (argv, new)
        assert not new & cech, argv
    # nor does any count-side command load the sparse rational matrices, or
    # `fractions`
    for argv in (
        ("info", "A1:adjoint"),
        ("count", "A3:sc"),
        ("epoly", "B3:adjoint"),
        ("poincare", "A2:sc"),
        ("pi0", "A3:sc"),
    ):
        code, _, _, new = _import_probe(*argv)
        assert code == 0 and not new & {"uctop.rational", "fractions"}, argv
    # a well-formed command line runs no argparse (nor gettext and locale
    # behind it, nor the module that builds the parser), and no command loads
    # `fractions` (nor decimal behind it)
    unused = {"argparse", "gettext", "locale", "uctop.usage", "fractions", "decimal"}
    for argv in (
        ("info", "A1:adjoint"),
        ("count", "A3:sc", "--format=json"),
        ("epoly", "B3:adjoint"),
        ("poincare", "A2:sc"),
        ("pi0", "A3:sc", "--max-rank=3"),
        ("cgbetti", "D4:adjoint"),
        ("jgbetti", "D4:adjoint", "--format=json", "--max-rank=9"),
        ("check", "A3:adjoint"),
    ):
        code, _, _, new = _import_probe(*argv)
        assert code == 0 and not new & unused, (argv, new & unused)
    # help, a usage error and the other forms still go through argparse
    for argv in (
        ("--help",),
        ("cgbetti", "A2:sc", "--max-rank", "3"),
        ("info", "A2:sc", "-x"),
        ("pi0", "A3:sc", "--levi=1,3"),
    ):
        code, _, _, new = _import_probe(*argv)
        assert code in (0, 1) and {"argparse", "uctop.usage"} <= new, argv
    # a refused spec is refused before the homology, its sparse matrices or
    # the assembly load
    homology = {"uctop.boundary", "uctop.homology", "uctop.rational", "uctop.assembly"}
    for argv in (("cgbetti", "A3:sc"), ("jgbetti", "C6:sc")):
        code, out, _, new = _import_probe(*argv)
        assert (code, out) == (2, "") and not new & homology, argv


def test_package_names_load_on_first_use():
    # `from uctop import ...` still gives every public name; the Levi
    # centers with their Smith form, the certified boundary homology, the
    # Cech build, the assembly, the count polynomials, the sparse rational
    # matrices and the lattice-basis projections load when one is first read
    probe = (
        "import sys, uctop\n"
        "lazy = ('uctop.counting', 'uctop.boundary', 'uctop.homology', 'uctop.assembly',\n"
        "        'uctop.rational', 'uctop.projections', 'uctop.levi')\n"
        "before = [m in sys.modules for m in lazy]\n"
        "moved = ('snf', 'InvariantFactors', 'CenterData', 'center_of_levi', 'levi_root_matrix',\n"
        "         'all_levi_subsets', 'invariant_form', 'proper_pi0_witness')\n"
        "assert set(moved) <= set(dir(uctop))\n"
        "import uctop.levi, uctop.matrices, uctop.rootdata\n"
        "for name in moved:\n"
        "    assert getattr(uctop, name) is getattr(uctop.levi, name), name\n"
        "    # defined once: no copy or re-export where the name used to live\n"
        "    assert not hasattr(uctop.rootdata, name) and not hasattr(uctop.matrices, name), name\n"
        "assert not hasattr(uctop.rootdata, '__getattr__')\n"
        "assert not hasattr(uctop.matrices, '__getattr__')\n"
        "from uctop import boundary_homology, universal_centralizer_homology\n"
        "import uctop.counting, uctop.homology, uctop.assembly\n"
        "assert boundary_homology is uctop.homology.boundary_homology\n"
        "assert boundary_homology is uctop.boundary.boundary_homology\n"
        "assert uctop.BettiTable is uctop.homology.BettiTable\n"
        "for name, module in uctop._LAZY_MODULE.items():\n"
        "    assert getattr(uctop, name) is getattr(sys.modules['uctop.' + module], name)\n"
        "    assert name in dir(uctop)\n"
        "try:\n"
        "    uctop.no_such_name\n"
        "except AttributeError:\n"
        "    print(before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False, False, False, False]"


def test_census_stream_imports_nothing():
    # the census workload builds its data and resolves each call name
    # before it starts a timer; after that, no library call of its stream
    # may import a module, whose compilation would land inside a timed call
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "import workloads, uctop\n"
        "from uctop.cli import parse_spec\n"
        "queries = workloads.build('census', 1, {})\n"
        "data = {q['spec']: parse_spec(q['spec']).datum() for q in queries}\n"
        "calls = {name: getattr(uctop, name) for name in workloads.CENSUS_CALLS}\n"
        "before = set(sys.modules)\n"
        "for q in queries:\n"
        "    calls[q['call']](data[q['spec']], *([q['levi']] if 'levi' in q else []))\n"
        "print(len(queries), sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    count, new = proc.stdout.split(maxsplit=1)
    assert int(count) > 0 and new.strip() == "[]"


def _child_env(unbuffered=True):
    """The environment of a `python -m uctop` child: PYTHONPATH=src, and
    PYTHONUNBUFFERED set to 1 or dropped (stdout fully buffered on a pipe or
    a file)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


# the ids without a suffix run unbuffered: the BrokenPipeError surfaces in
# main's print; fully buffered, it surfaces at entry's flush
@pytest.mark.parametrize(
    "argv, keep, unbuffered",
    [
        (["pi0", "A12:sc", "--max-rank=12"], 10, True),
        (["info", "A1:adjoint"], 0, True),
        (["pi0", "A12:sc", "--max-rank=12"], 10, False),
        (["info", "A1:adjoint"], 0, False),
    ],
    ids=["pi0-A12", "info-A1", "pi0-A12-buffered", "info-A1-buffered"],
)
def test_closed_pipe_ends_quietly(argv, keep, unbuffered):
    # a reader that stops early, as `| head -c 10` does: pi0 on A12 prints
    # far more than a pipe holds, and `info` writes only after the reader has
    # gone. No traceback, an empty stderr, and the status 141 of a writer
    # killed by SIGPIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "uctop", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    assert len(proc.stdout.read(keep)) == keep
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_closed_stdout_is_an_error():
    # fd 1 closed before the interpreter starts leaves sys.stdout None: the
    # command computes nothing and says why, with the usage-error status
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m uctop info A1:adjoint >&-', sys.executable],
        capture_output=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_stdout_is_an_error(unbuffered):
    # a write that fails for any reason but a closed pipe (ENOSPC here) ends
    # as a one-line error with the usage-error status, not a traceback
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "uctop", "info", "A1:adjoint"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=_child_env(unbuffered),
        )
    assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 28] No space left on device\n")


def test_refusal_with_stderr_closed_keeps_exit_2():
    # the refusal's message is lost with stderr, its status is not
    for argv, code in ((["cgbetti", "A3:sc"], 2), (["count", "A1:sc", "--max-rank=0"], 1)):
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m uctop "$@" 2>&-', sys.executable, *argv],
            capture_output=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stdout) == (code, b""), argv


@pytest.mark.parametrize(
    "argv",
    [["pi0", "A12:sc", "--max-rank=12"], ["count", "A1:sc", "--max-rank=0"], ["cgbetti", "A3:sc"]],
    ids=["exit0", "exit1", "exit2"],
)
def test_buffered_streams_lose_no_byte(capsys, tmp_path, argv):
    # entry ends the process with os._exit, which flushes nothing: a fully
    # buffered stdout sent to a file (pi0 on A12 writes about 160 kB) must
    # still carry every byte main prints, beside its stderr and status
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("wb") as stdout, err.open("wb") as stderr:
        proc = subprocess.run(
            [sys.executable, "-m", "uctop", *argv],
            stdout=stdout,
            stderr=stderr,
            env=_child_env(unbuffered=False),
        )
    code, want_out, want_err = run_cli(capsys, *argv)
    assert (proc.returncode, out.read_bytes(), err.read_bytes()) == (
        code,
        want_out.encode(),
        want_err.encode(),
    )


@pytest.mark.parametrize("argv", [["count", "A1:sc"], ["cgbetti", "A3:sc"]], ids=["exit0", "exit2"])
def test_console_script_runs_exit_handlers(tmp_path, argv):
    # the form of pip's generated `uctop` script, under an exit handler such
    # as coverage.py registers: the handler runs, and the script answers as
    # `python -m uctop` does
    marker = tmp_path / "marker"
    script = (
        "import atexit, sys\n"
        f"atexit.register(lambda: open({str(marker)!r}, 'w').write('ran'))\n"
        f"sys.argv = ['uctop', *{argv!r}]\n"
        "from uctop.cli import entry\n"
        "sys.exit(entry())\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    want = subprocess.run(
        [sys.executable, "-m", "uctop", *argv], capture_output=True, env=_child_env()
    )
    assert marker.read_text() == "ran"
    assert (run.returncode, run.stdout, run.stderr) == (want.returncode, want.stdout, want.stderr)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "uctop", "count", "A1:sc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q^2 + q"
