import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import arithmat
from arithmat import cli
from arithmat.cli import run_command
from arithmat.search import bundled_table_path

_REPO = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDisc:
    def test_table_anchor(self, capsys):
        code, out, _ = run(capsys, "disc", "--form", "1,1,0,-2,-1")
        assert (code, out.strip()) == (0, "-275")

    def test_json_matches_plain(self, capsys):
        _, plain, _ = run(capsys, "disc", "--form", "4,-2,-3,1,1")
        code, out, _ = run(capsys, "--json", "disc", "--form", "4,-2,-3,1,1")
        assert code == 0
        assert json.loads(out)["disc"] == int(plain.strip()) == 2052


class TestMatrix:
    def test_identity_coordinates(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--pair", "1:1,1,0,-2,-1", "--coords", "1,0,0,0"
        )
        assert code == 0
        assert out.splitlines() == [
            "[1, 0, 0, 0]",
            "[0, 1, 0, 0]",
            "[0, 0, 1, 0]",
            "[0, 0, 0, 1]",
        ]

    def test_symbolic_scaled_example(self, capsys):
        code, out, _ = run(capsys, "matrix", "--pair", "2:4,-2,-3,1,1", "--symbolic")
        assert code == 0
        assert out.splitlines()[2] == "[y, x, u + 3*y - z, -y - z]"


class TestElementOps:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "--pair", "1:1,1,-1", "--a", "0,1", "--b", "1,1")
        assert (code, out.strip()) == (0, "1,0")

    def test_mul_via_fft_matches(self, capsys):
        _, direct, _ = run(
            capsys, "mul", "--pair", "2:4,-2,-3,1,1", "--a", "1,2,3,4", "--b", "2,0,-1,5"
        )
        code, fft, _ = run(
            capsys,
            "mul", "--via", "fft",
            "--pair", "2:4,-2,-3,1,1", "--a", "1,2,3,4", "--b", "2,0,-1,5",
        )
        assert code == 0
        assert fft == direct

    def test_add_inv_norm_trace(self, capsys):
        assert run(capsys, "add", "--pair", "1:1,1,-1", "--a", "1,2", "--b", "3,-1")[1].strip() == "4,1"
        assert run(capsys, "inv", "--pair", "1:1,1,-1", "--a", "0,1")[1].strip() == "1,1"
        assert run(capsys, "norm", "--pair", "1:1,1,-1", "--a", "0,1")[1].strip() == "-1"
        assert run(capsys, "trace", "--pair", "1:1,1,-1", "--a", "0,1")[1].strip() == "-1"

    def test_charpoly(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--pair", "2:4,-2,-3,1,1", "--a", "0,1,0,0")
        assert (code, out.strip()) == (0, "4,2,-3,-1,1")

    def test_rational_coordinates(self, capsys):
        code, out, _ = run(capsys, "norm", "--pair", "1:1,1,-1", "--a", "1/2,1/3")
        assert code == 0
        assert out.strip() == "-1/36"


class TestSearchCommand:
    def test_table_box(self, capsys):
        code, out, _ = run(
            capsys, "search", "--disc", "-275", "--degree", "4", "--height", "2", "--max-a0", "1"
        )
        assert code == 0
        assert "1:1,1,0,-2,-1" in out.splitlines()

    def test_json_same_pairs(self, capsys):
        _, plain, _ = run(
            capsys, "search", "--disc", "-275", "--degree", "4", "--height", "2", "--max-a0", "1"
        )
        _, js, _ = run(
            capsys, "--json", "search", "--disc", "-275", "--degree", "4", "--height", "2", "--max-a0", "1"
        )
        assert json.loads(js)["pairs"] == plain.split()

    @pytest.mark.parametrize("flag", ("--height", "--max-a0"))
    def test_empty_box_bound_is_one(self, capsys, flag):
        argv = {"--disc": "-275", "--degree": "4", "--height": "2", "--max-a0": "1", flag: "0"}
        code, out, err = run(capsys, "search", *(x for kv in argv.items() for x in kv))
        assert (code, out) == (1, "")
        assert "must be >= 1" in err

    def test_jobs_is_not_an_option(self, capsys):
        # the search runs in one thread, so the CLI takes no thread count
        code, out, err = run(
            capsys, "search", "--disc", "-275", "--degree", "4", "--height", "2", "--max-a0", "1",
            "--jobs", "2",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage: arithmat") and "unrecognized arguments: --jobs 2" in err


class TestVerifyTablesCommand:
    def test_bundled_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--file", str(bundled_table_path("quartic")))
        assert code == 0
        assert "all passed" in out

    def test_corrupt_file_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("-275;1;1,1,0,-2,-2\n")
        code, out, _ = run(capsys, "verify-tables", "--file", str(bad))
        assert code == 3
        assert "failure" in out

    @pytest.mark.parametrize(
        "row, code", [("5;0;1,2,1", 3), ("5;-1;1,1,-1", 3), ("-11337408;1;1,0,0,0,0,0,3", 0)]
    )
    def test_rows_make_field_decides(self, capsys, tmp_path, row, code):
        table = tmp_path / "table.txt"
        table.write_text(row + "\n")
        got, out, err = run(capsys, "verify-tables", "--file", str(table))
        assert (got, err) == (code, "")
        assert ("a0 must be a positive integer" in out) is (code == 3)

    @pytest.mark.parametrize(
        "text, number, line",
        [("# note\n\n-275;1\n", 3, "-275;1"), ("-275;1;1,1,0,-2,-1\n5;x;1,1\n", 2, "5;x;1,1"),
         ("5;1;1,,1\n", 1, "5;1;1,,1")],
    )
    def test_malformed_line_is_named(self, capsys, tmp_path, text, number, line):
        table = tmp_path / "table.txt"
        table.write_text(text)
        code, out, err = run(capsys, "verify-tables", "--file", str(table))
        assert (code, out) == (1, "")
        assert err == f"error: line {number}: expected 'disc;a0;a1,a2,...', got {line!r}\n"

    def test_prose_file_is_parse_error(self, capsys):
        code, out, err = run(capsys, "verify-tables", "--file", str(_REPO / "README.md"))
        assert (code, out) == (1, "")
        assert err.startswith("error: line ") and "expected 'disc;a0;a1,a2,...'" in err

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-tables", "--file", str(tmp_path / "nope.txt"))
        assert code == 1


class TestSyzygyCommand:
    def test_quartic_pass(self, capsys):
        code, out, _ = run(capsys, "syzygy", "--quartic", "4,-2,-3,1,1")
        assert (code, out.strip()) == (0, "PASS")

    def test_cubic_pass(self, capsys):
        code, out, _ = run(capsys, "syzygy", "--cubic", "1,1,-2,-1")
        assert (code, out.strip()) == (0, "PASS")

    @pytest.mark.parametrize("kind, form", [("cubic", "1,1,-2,-1"), ("quartic", "4,-2,-3,1,1")])
    def test_both_checks_share_one_expansion(self, capsys, monkeypatch, kind, form):
        # the two checks are the ones a tracer wraps; the cached expansion computes det(N) once
        covariants = cli.covariants
        covariants._ghf_from_coeffs.cache_clear()
        covariants._cubic_covariant_polys.cache_clear()
        calls = []

        def counted(name):
            original = getattr(covariants, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(covariants, name, wrapper)

        for name in (f"{kind}_syzygy_check", f"{kind}_norm_equation_check", "det_cofactor"):
            counted(name)
        code, out, _ = run(capsys, "syzygy", f"--{kind}", form)
        assert (code, out.strip()) == (0, "PASS")
        assert sorted(calls) == sorted(
            [f"{kind}_syzygy_check", f"{kind}_norm_equation_check", "det_cofactor"]
        )


# x^2 + 10^400 xy + y^2: exact arithmetic handles it, a float64 does not
_HUGE_MIDDLE_PAIR = "1:1,1" + "0" * 400 + ",1"


class TestDiagCheckCommand:
    def test_residual_small(self, capsys):
        code, out, _ = run(
            capsys, "diag-check", "--pair", "2:4,-2,-3,1,1", "--coords", "2,-1,3,4"
        )
        assert code == 0
        assert float(out.strip()) < 1e-8

    @pytest.mark.parametrize("pair, coords", [("1:1,1,-1", "1e400,1"), (_HUGE_MIDDLE_PAIR, "1,1")],
                             ids=["huge-coordinate", "huge-coefficient"])
    def test_value_beyond_float64_is_a_typed_error(self, capsys, pair, coords):
        code, out, err = run(capsys, "diag-check", "--pair", pair, "--coords", coords)
        assert (code, out) == (2, "")
        assert err == "error: FloatRangeError: a value of about 10^400 does not fit a float64\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "pair, coords, message",
        [
            # x^2 + 10^200 xy + y^2: a root near -10^200, whose square is past float64
            ("1:1,1" + "0" * 200 + ",1", "1,1", "a root of about 10^200 has powers beyond float64 range"),
            ("1:1,1" + "0" * 160 + ",1,1", "1,1,1", "a root of about 10^160 has powers beyond float64 range"),
            # roots near +-10^80 i fit, the discriminant of about -4 * 10^480 does not
            ("1:1,1,1" + "0" * 160 + ",1", "1,1,1", "a value of about 10^480 does not fit a float64"),
        ],
        ids=["quadratic-root-powers", "cubic-root-powers", "cubic-discriminant"],
    )
    def test_embedding_beyond_float64_is_a_typed_error(self, capsys, pair, coords, message):
        code, out, err = run(capsys, "diag-check", "--pair", pair, "--coords", coords)
        assert (code, out) == (2, "")
        assert err == f"error: FloatRangeError: {message}\n"
        assert "Traceback" not in err


def _fresh_python(*args):
    """Run `python *args` in a fresh interpreter with arithmat's src on the path."""
    src = str(pathlib.Path(arithmat.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=_REPO,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


@pytest.mark.parametrize("head", [(1, 0, 0, 1), (1, 0, 1)], ids=["quartic", "cubic"])
def test_huge_constant_is_accepted_mod_p_before_any_divisor_scan(head):
    # x^4 + x + 1 and x^3 + x + 1 are irreducible mod 2; the rational-root
    # scan would trial-divide the 401-digit constant and never return
    result = _fresh_python(
        "-c",
        "from arithmat.field import EssentialPair, make_field\n"
        "from arithmat.forms import BinaryForm\n"
        f"print(make_field(EssentialPair(1, BinaryForm([{', '.join(map(str, head))}, 10**400 + 1]))).n)",
    )
    assert (result.returncode, result.stdout) == (0, f"{len(head)}\n"), result.stderr


_LIBRARY = tuple(f"arithmat.{m}" for m in ("field", "element", "forms", "polyring", "symbolic"))
# modules that some subcommands run and that `import arithmat.cli` must not load; covariants is
# registered but not executed, or it would load the library
_LAZY = ("numpy", "dataclasses", "json", "arithmat.fastmul", "arithmat.search", "arithmat.numeric",
         *_LIBRARY)


def test_cli_import_leaves_numpy_unloaded():
    result = _fresh_python(
        "-c",
        "import sys; before = set(sys.modules); import arithmat.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "arithmat.cli" in added
    assert "numpy" not in added
    assert [m for m in _LAZY if m in added] == []


_ELEMENT_OP = ("--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0")


def test_package_import_loads_no_submodule():
    result = _fresh_python(
        "-c", "import sys, arithmat; print(*[m for m in sys.modules if m.startswith('arithmat.')])"
    )
    assert (result.returncode, result.stdout.split()) == (0, []), result.stderr


@pytest.mark.parametrize(
    "argv, loaded, unloaded",
    [
        (["disc", "--form", "1,1,0,-2,-1"], ("arithmat.forms",),
         ("arithmat.fastmul", "arithmat.search", "arithmat.field", "arithmat.element",
          "arithmat.symbolic")),
        (["bench", "--size", "4", "--algo", "ww"], ("arithmat.fastmul",), ("arithmat.search",)),
        (["search", "--disc", "-275", "--degree", "4", "--height", "2", "--max-a0", "1"],
         ("arithmat.search",), ("arithmat.fastmul",)),
        (["mul", "--via", "fft", "--pair", "1:1,1,-1", "--a", "0,1", "--b", "1,1"],
         ("arithmat.fastmul",), ()),
        (["inv", *_ELEMENT_OP], ("arithmat.element",), ("arithmat.symbolic",)),
        (["mul", *_ELEMENT_OP, "--b", "1,-1,2,1/5"], ("arithmat.element",),
         ("arithmat.symbolic", "arithmat.fastmul")),
        (["matrix", "--pair", "2:4,-2,-3,1,1", "--coords", "1,2,3,4"], ("arithmat.field",),
         ("arithmat.symbolic", "arithmat.element")),
        (["matrix", "--pair", "1:1,1,0,-2,-1", "--symbolic"], ("arithmat.symbolic",), ()),
        (["syzygy", "--quartic", "4,-2,-3,1,1"], ("arithmat.symbolic",), ()),
    ],
    ids=["disc", "bench", "search", "mul-fft", "inv", "mul", "matrix", "matrix-symbolic",
         "syzygy"],
)
def test_subcommand_loads_only_its_modules(argv, loaded, unloaded):
    result = _fresh_python(
        "-c",
        "import contextlib, io, sys\n"
        "from arithmat.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run_command({argv!r})\n"
        f"print(code, *[m for m in {loaded + unloaded!r} if m in sys.modules])"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", *loaded]


def test_diag_check_compiles_the_library_before_numpy():
    # numpy resident while field, forms and polyring compile raises the peak RSS
    result = _fresh_python(
        "-c",
        "import contextlib, io, sys\n"
        "from arithmat.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run_command(['diag-check', '--pair', '1:1,1,-1', '--coords', '3,5'])\n"
        "order = list(sys.modules)\n"
        "print(code, *[order.index(m) < order.index('numpy') for m in "
        "('arithmat.field', 'arithmat.forms', 'arithmat.polyring')])"
    )
    assert result.stdout.split() == ["0", "True", "True", "True"], result.stderr


@pytest.mark.parametrize("first", ["covariants", "cli"])
def test_one_covariants_module_in_either_import_order(first):
    # cli registers a lazy covariants; one imported before it must be reused, not shadowed
    second = "cli" if first == "covariants" else "covariants"
    result = _fresh_python(
        "-c",
        f"import sys, arithmat.{first}\n"
        "seen = [sys.modules['arithmat.covariants']]\n"
        f"import arithmat.{second}\n"
        "from arithmat.forms import BinaryForm\n"
        "seen += [arithmat.cli.covariants, sys.modules['arithmat.covariants'], arithmat.covariants]\n"
        "print(len({id(m) for m in seen}),"
        " arithmat.cli.covariants.quartic_syzygy_check(BinaryForm([4, -2, -3, 1, 1])))"
    )
    assert (result.returncode, result.stdout.split()) == (0, ["1", "True"]), result.stderr


def test_diag_check_without_numpy_is_a_typed_error():
    # None in sys.modules makes `import numpy` raise ModuleNotFoundError
    result = _fresh_python(
        "-c",
        "import sys; sys.modules['numpy'] = None\n"
        "from arithmat.cli import run_command\n"
        "sys.exit(run_command(['diag-check', '--pair', '1:1,1,-1', '--coords', '3,5']))"
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: MissingDependencyError: diag-check needs numpy")
    assert "Traceback" not in result.stderr


def test_diag_check_reraises_other_missing_modules():
    result = _fresh_python(
        "-c",
        "import sys; sys.modules['numpy.linalg'] = None\n"
        "from arithmat.cli import run_command\n"
        "run_command(['diag-check', '--pair', '1:1,1,-1', '--coords', '3,5'])"
    )
    assert result.returncode == 1
    assert "ModuleNotFoundError: import of numpy.linalg halted" in result.stderr


def _readme_examples():
    lines = (_REPO / "README.md").read_text(encoding="utf-8").splitlines()
    block = lines[lines.index("## Command line") + 2:]
    return [shlex.split(line, comments=True)[1:]
            for line in block[: block.index("```")] if line.startswith("arithmat ")]


_README_EXAMPLES = _readme_examples()


def test_readme_lists_every_subcommand_example():
    assert len(_README_EXAMPLES) == 14


@pytest.mark.parametrize("argv", _README_EXAMPLES, ids=[a[0] for a in _README_EXAMPLES])
def test_readme_example_in_fresh_process_matches_in_process(argv, capsys, monkeypatch):
    # in-process tests share one interpreter, so a handler that works only
    # because another test imported a module would pass them; this would not
    result = _fresh_python("-m", "arithmat.cli", *argv)
    monkeypatch.chdir(_REPO)
    code, out, _ = run(capsys, *argv)
    assert (result.returncode, code) == (0, 0), result.stderr
    if argv[0] == "bench":  # m,strategy,mults,adds,nanoseconds
        result.stdout, out = (text.rsplit(",", 1)[0] for text in (result.stdout, out))
    assert result.stdout == out


class TestBenchCommand:
    def test_ww_counters(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "4", "--algo", "ww")
        assert code == 0
        m, algo, mults, adds, ns = out.strip().split(",")
        assert (m, algo, mults) == ("4", "ww", "46")
        assert int(ns) > 0

    @pytest.mark.parametrize("size", ["0", "-1"])
    @pytest.mark.parametrize("algo", ["schoolbook", "ww", "recursive"])
    def test_size_below_one_is_a_typed_error(self, capsys, size, algo):
        code, out, err = run(capsys, "bench", "--size", size, "--algo", algo)
        assert (code, out) == (2, "")
        assert "DimensionMismatchError" in err

    def test_recursive_any_size(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "5", "--algo", "recursive")
        assert code == 0
        assert out.startswith("5,recursive,")


class TestExitCodesAndDeterminism:
    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "disc", "--form", "oops")
        assert code == 1

    def test_zero_denominator_is_a_parse_error(self, capsys):
        code, out, err = run(
            capsys, "mul", "--pair", "1:1,1,-1", "--a", "1/0,1", "--b", "1,1"
        )
        assert (code, out) == (1, "")
        assert "zero denominator" in err

    @pytest.mark.parametrize("flag", ["--cubic", "--quartic"])
    def test_empty_syzygy_form_is_a_parse_error(self, capsys, flag):
        code, out, err = run(capsys, "syzygy", flag, "")
        assert (code, out) == (1, "")
        assert "Traceback" not in err

    def test_unknown_command_is_one(self, capsys):
        assert run(capsys, "nonsense")[0] == 1

    def test_domain_error_is_two_with_name(self, capsys):
        code, _, err = run(capsys, "matrix", "--pair", "2:2,2,1,1,1", "--symbolic")
        assert code == 2
        assert "DivisibilityError" in err

    def test_symbolic_degree_cap_is_an_unsupported_degree(self, capsys):
        # x^17 + 2 is a valid field one degree beyond the symbolic cap of 16
        code, out, err = run(capsys, "matrix", "--pair", "1:1" + ",0" * 16 + ",2", "--symbolic")
        assert (code, out) == (2, "")
        assert err.strip() == "error: UnsupportedDegreeError: symbolic mode supports degree <= 16"

    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ["disc", "--form", "1,1,0,-2,-1"],
            ["matrix", "--pair", "2:4,-2,-3,1,1", "--symbolic"],
            ["search", "--disc", "513", "--degree", "4", "--height", "2", "--max-a0", "2"],
            ["diag-check", "--pair", "1:1,1,-1", "--coords", "3,5"],
            ["--json", "charpoly", "--pair", "1:1,1,0,-2,-1", "--a", "0,1,0,0"],
        ):
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


_PAIRS = ["1:1,1,-1", "2:4,-2,-3,1,1", "1:1,1,0,-2,-1", "1:1,0,0,0,0,0,3", "1:1,0,0,0,0,0,108",
          "0:1,1", "-1:1,1,-1", "1:0,1,1", "1:1,2,1", "2:2,2,1,1,1", "a:b", "1:", "",
          _HUGE_MIDDLE_PAIR]
_COORDS = ["0,1", "1,1", "0,0", "3,5", "1/2,1/3", "1/0,1", "1,2,3,4", "0,1,0,0", "0,0,0,0",
           "1,0,0,0,0,0", "0,1,0,0,0,0", "1", "1,,2", "x", "", "1e400,1"]
_FORMS = ["1,1,0,-2,-1", "4,-2,-3,1,1", "1,1,-2,-1", "1,2,1", "1,0,0,0,0,0,108", "0,1,1",
          "1,0", "1", "x", ""]
_INTS = ["-275", "513", "0", "1", "-1", "2", "3", "4", "5", "6", "x", ""]
# box and matrix sizes stay small, so every search or bench call is quick
_SIZES = ["-1", "0", "1", "2", "x", ""]
_FLAG_VALUES = {
    "--pair": _PAIRS, "--coords": _COORDS, "--a": _COORDS, "--b": _COORDS,
    "--form": _FORMS, "--cubic": _FORMS, "--quartic": _FORMS,
    "--disc": _INTS, "--degree": _INTS,
    "--height": _SIZES, "--max-a0": _SIZES, "--size": _SIZES,
    "--via": ["matrix", "fft", "x"], "--algo": ["schoolbook", "ww", "recursive", "x"],
    "--file": [str(bundled_table_path("quintic")), "nope.txt", ".", ""],
    "--json": None, "--symbolic": None,
}
_ELEMENT = ["--pair", "--a"]
_COMMAND_FLAGS = {
    "disc": ["--form"],
    "matrix": ["--pair", "--coords", "--symbolic"],
    **{name: _ELEMENT for name in ("inv", "norm", "trace", "charpoly")},
    "add": _ELEMENT + ["--b"],
    "mul": _ELEMENT + ["--b", "--via"],
    "search": ["--disc", "--degree", "--height", "--max-a0"],
    "verify-tables": ["--file"],
    "syzygy": ["--cubic", "--quartic"],
    "diag-check": ["--pair", "--coords"],
    "bench": ["--size", "--algo"],
}


def _draw_argv(data) -> list[str]:
    # each flag of the subcommand mostly present, plus a few drawn from all flags
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = [f for f in _COMMAND_FLAGS[command] if data.draw(st.integers(0, 5))]
    flags += data.draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=2))
    argv = ["--json"] * data.draw(st.integers(0, 1)) + [command]
    for flag in flags:
        values = _FLAG_VALUES[flag]
        argv += [flag] if values is None else [flag, data.draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_argv_ends_in_an_exit_code_without_traceback(data):
    # an exception escaping run_command fails the test with its traceback
    argv = _draw_argv(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


# ----------------------------------------------------------------------
# One subparser per call, with the full parser's output on every usage error
# ----------------------------------------------------------------------


def _parse_outcome(parse, argv):
    """Exit code, stdout, stderr and parsed namespace of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, namespace = 0, vars(parse(argv))
        except SystemExit as exc:
            code, namespace = exc.code, None
    return code, out.getvalue(), err.getvalue(), namespace


def _full_parse(argv):
    return cli._build_parser().parse_args(argv)


_PAIR = ["--pair", "1:1,1,-1"]
_PARSER_ARGVS = [
    ["--help"],
    ["--he", "disc", "--form", "1,2,1"],
    *([command, "--help"] for command in cli._HANDLERS),
    ["disc", "--he"],
    [],
    ["--json"],
    ["frobnicate", "--form", "1,2,1"],
    ["inv", *_PAIR],
    ["matrix", *_PAIR],
    ["mul", *_PAIR, "--a", "0,1", "--b", "1,1", "--via", "abacus"],
    ["bench", "--size", "4", "--algo", "strassen"],
    ["bench", "--size", "four", "--algo", "ww"],
    ["disc", "--form", "1,2,1", "--extra"],
    ["--json", "disc", "--form", "1,2,1", "disc"],
    ["--js", "disc", "--form", "1,2,1"],
    *(record["argv"] for record in json.loads((_REPO / "tests" / "cli_golden.json").read_text())),
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_one_subcommand_parser_reports_as_the_full_parser(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_argv_parses_as_the_full_parser(data):
    argv = _draw_argv(data)
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)


def test_a_parsed_call_builds_only_its_subparser(monkeypatch):
    built = []

    def build(command=None):
        built.append(command)
        return _build(command)

    _build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", build)
    for argv in _PARSER_ARGVS:
        parsed = _parse_outcome(_full_parse, argv)[3] is not None
        built.clear()
        assert (_parse_outcome(cli._parse_args, argv)[3] is not None) == parsed
        if parsed:
            # an abbreviated --json is left to the full parser
            command = next(a for a in argv if a != "--json")
            assert built == [command if command in cli._HANDLERS else None], argv
    assert list(_build("inv")._subparsers._group_actions[0].choices) == ["inv"]
