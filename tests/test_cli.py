"""Command-line interface: output bytes, exit codes, formats, input
conventions, and seeded generators."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import kscolor
from kscolor import cli
from kscolor.errors import ResourceLimitError

TRUE_RAY_ARG = "[1/3,1/2,1/2,1/2,1/2,1/2]"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


# A 3x3, four-element complex POVM whose binary64 entries sum to I only to
# rounding.
POVM3 = ("[[[0.4,0.1,[0,0.05]],[0.1,0.2,0],[[0,-0.05],0,0.1]],"
         "[[0.3,-0.1,0],[-0.1,0.3,[0,0.1]],[0,[0,-0.1],0.2]],"
         "[[0.2,0,[0,-0.05]],[0,0.25,[0,-0.1]],[[0,0.05],[0,0.1],0.3]],"
         "[[0.1,0,0],[0,0.25,0],[0,0,0.4]]]")


def run_main(argv, stdin=None):
    """Invoke cli.main in-process; returns (exit_code, stdout, stderr)."""
    old_in = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdout", out)
            mp.setattr(sys, "stderr", err)
            code = cli.main(argv)
    finally:
        sys.stdin = old_in
    return code, out.getvalue(), err.getvalue()


def _child_env():
    """The parent's environment with the directory that holds the imported
    kscolor package first on PYTHONPATH, so a child interpreter imports the
    same code without an install."""
    env = dict(os.environ)
    src = str(Path(kscolor.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def _script_target(name):
    """The `module:attr` string that [project.scripts] declares for `name`,
    or None. A line scan, since tomllib is not in Python 3.10."""
    section = None
    for raw in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[] ")
        elif section == "project.scripts" and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key.strip("\"'") == name:
                return value.strip("\"'")
    return None


_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import kscolor.cli
print(json.dumps({"file": kscolor.__file__, "before": sorted(before), "after": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def cli_imports():
    """sys.modules before and after `import kscolor.cli` in a child started
    with -S, so no site hook imports anything first."""
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert Path(probe["file"]).resolve() == Path(kscolor.__file__).resolve()
    return probe


class TestImportCost:
    """One CLI call imports kscolor.cli in a fresh process, so what that
    import loads is paid on every call."""

    def test_no_dataclasses_or_inspect(self, cli_imports):
        assert {"dataclasses", "inspect"}.isdisjoint(cli_imports["after"])

    def test_no_typing_or_importlib_resources(self, cli_imports):
        assert {"typing", "importlib.resources"}.isdisjoint(cli_imports["after"])

    def test_only_standard_library_modules(self, cli_imports):
        added = {m.split(".")[0] for m in set(cli_imports["after"]) - set(cli_imports["before"])}
        assert sorted(added - set(sys.stdlib_module_names) - {"kscolor"}) == []


class TestClassify:
    def test_true_ray_exact_bytes(self):
        code, out, err = run_main(["classify-ray", TRUE_RAY_ARG])
        assert code == 0
        assert out == '{"value":"TRUE"}\n'
        assert err == ""

    def test_axis_ray_is_undetermined(self):
        # a lone ray is never FALSE: falseness needs a witness frame
        code, out, _ = run_main(["classify-ray", "[1,0,0,0,0,0]"])
        assert code == 0
        assert json.loads(out) == {"value": "UNDETERMINED"}

    def test_entry_point_bytes(self):
        # run the declared console-script target the way the generated
        # wrapper does, in a fresh interpreter, so no install is needed
        target = _script_target("kscolor")
        assert target is not None, "[project.scripts] has no kscolor entry"
        module, sep, attr = target.partition(":")
        assert sep and module and attr and ":" not in attr, target
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
                "classify-ray",
                TRUE_RAY_ARG,
            ],
            capture_output=True,
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == b'{"value":"TRUE"}\n'

    def test_classify_matrix(self):
        rows = (
            "[[1,0,0,0,0,0],"
            "[0,1,0,0,0,0],"
            "[0,0,0,0,0,0]]"
        )
        # projection matrices enter as exact complex rows; diag(1,1,0)
        code, out, _ = run_main(
            [
                "classify-matrix",
                '[[{"re":"1"},{"re":"0"},{"re":"0"}],'
                '[{"re":"0"},{"re":"1"},{"re":"0"}],'
                '[{"re":"0"},{"re":"0"},{"re":"0"}]]',
            ]
        )
        assert code == 0
        assert json.loads(out)["value"] in {"FALSE", "UNDETERMINED"}

    def test_classify_povm_identity_has_no_witness(self):
        identity = '[["1","0","0"],["0","1","0"],["0","0","1"]]'
        code, out, _ = run_main(["classify-povm", identity])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "UNDETERMINED-NO-WITNESS"
        assert doc["witness"] is None

    def test_classify_povm_false_with_witness(self):
        mat = '[["0","0","0"],["0","1","0"],["0","0","1"]]'
        code, out, _ = run_main(["classify-povm", mat])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "FALSE"
        assert doc["witness"]["kind"] == "povm"


class TestExitCodes:
    def test_invalid_input_is_2(self):
        code, out, err = run_main(["classify-ray", "[1/3]"])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert doc["error"]

    @pytest.mark.parametrize("dimension", ['"two"', "2", "true", "1.0"])
    def test_serialized_dimension_must_match(self, dimension):
        # A 1x1 POVM whose elements sum to 1; only its 'dimension' is wrong.
        doc = ('{"kind":"povm","dimension":%s,"elements":'
               '[[[{"re":{"rat":"0","sqrt2":"1/2"}}]],'
               '[[{"re":{"rat":"1","sqrt2":"-1/2"}}]]]}' % dimension)
        code, out, err = run_main(["verify-decomposition", doc])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert "'dimension'" in doc["error"]

    def test_degenerate_input_is_3(self):
        identity_targets = "[[[1,0,0],[0,1,0],[0,0,1]]]"
        code, _, err = run_main(["make-suitable-povm", identity_targets])
        assert code == 3
        assert json.loads(err)["type"] == "DegenerateInputError"

    def test_degenerate_resolved_by_allow_split(self):
        identity_targets = "[[[1,0,0],[0,1,0],[0,0,1]]]"
        code, out, _ = run_main(
            ["make-suitable-povm", identity_targets, "--allow-split"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sum"] == 1
        assert len(doc["elements"]) == 2

    def test_resource_limit_is_4(self, monkeypatch):
        def exhausted(args):
            raise ResourceLimitError("ran out of rounds")

        monkeypatch.setattr(cli, "_cmd_approx_true", exhausted)
        code, _, err = run_main(["approx-true", "[1,0,0,0,0,0]"])
        assert code == 4
        assert json.loads(err)["type"] == "ResourceLimitError"

    def test_deeply_nested_input_is_2(self):
        code, out, err = run_main(["classify-ray", "[" * 5000])
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "InvalidInputError"

    @pytest.mark.parametrize("target", ["[1e308,1e308,1,1]", "[1e-320,0,0,0]"])
    @pytest.mark.parametrize(
        "command, value", [("approx-true", "TRUE"), ("false-ray", "FALSE")]
    )
    def test_extreme_float_target_is_0(self, command, value, target):
        code, out, err = run_main([command, target])
        assert code == 0, err
        assert json.loads(out)["value"] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx-true", "[1e400,0,0,0]"],
            ["false-ray", f"[1,-{10**400}s2,0,0]"],
            ["make-suitable-povm", '[[["1e400",0],[0,1]],[[1,0],[0,1]]]'],
            ["make-suitable-povm", "[[[0,[1,1e400]],[0,1]],[[1,0],[0,0]]]"],
        ],
    )
    def test_number_outside_binary64_is_2(self, argv):
        code, out, err = run_main(argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert "binary64" in doc["error"]

    @pytest.mark.parametrize(
        "bad_line", ["dimension abc", "dimension", "ray a 1/0 1"]
    )
    def test_malformed_rayset_on_stdin_is_2(self, bad_line):
        text = f"rayset v1\nfield rational\ndimension 2\n{bad_line}\n"
        code, out, err = run_main(["ks-solve", "-"], stdin=text)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert doc["error"]

    def test_povm_entry_near_float_limit_names_real_fault(self):
        code, out, err = run_main(
            ["make-suitable-povm", "[[[1e308,0],[0,1]],[[1,0],[0,1]]]",
             "--epsilon", "1/100"]
        )
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert "sum to the identity" in doc["error"]

    def test_bad_flag_value(self):
        code, out, err = run_main(
            ["approx-true", "[1,0,0,0,0,0]", "--epsilon", "fast"]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["classify-ray"],
            ["classify-ray", TRUE_RAY_ARG, "--format", "yaml"],
            ["classify-ray", TRUE_RAY_ARG, "--no-such-flag"],
            ["gen-povm", "--elements", "1e400"],
        ],
    )
    def test_argument_error_is_json(self, argv):
        code, out, err = run_main(argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert doc["error"]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag):
        with pytest.raises(SystemExit) as exc:
            run_main([flag])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx-true", "[1,0,0,0]", "--epsilon", "1e-5000"],
            ["make-suitable-povm", "[[[0.5,0],[0,0.5]],[[0.5,0],[0,0.5]]]",
             "--epsilon", "1e-5000"],
        ],
    )
    def test_result_too_long_to_print_is_4(self, argv):
        # CPython refuses to print integers of more than 4300 digits.
        code, out, err = run_main(argv)
        assert code == 4
        assert out == ""
        assert json.loads(err)["type"] == "ResourceLimitError"

    @pytest.mark.parametrize("eps", ["1e-4000", "1e-20000", "1e-99999"])
    def test_make_suitable_povm_unprintable_result_in_bounded_time(self, eps):
        """The lattice point misses by the targets' rounding, so the error
        prints eps and d^2; where either has more than 4300 digits it exits 4,
        and the integer distance certificate takes no gcd of that size.  The
        bound is 3x the slowest run measured at 1e-99999."""
        t0 = time.monotonic()
        code, out, err = run_main(["make-suitable-povm", POVM3, "--epsilon", eps])
        assert time.monotonic() - t0 < 15.0
        assert (code, out) == (4, "")
        assert json.loads(err)["type"] == "ResourceLimitError"

    def test_huge_decimal_exponent_is_refused_quickly(self):
        # Fraction("1e-10000000") alone takes seconds and a 4 MB integer;
        # the exponent is refused before it is expanded.
        argv = ["make-suitable-povm", "[[[0.5,0],[0,0.5]],[[0.5,0],[0,0.5]]]",
                "--epsilon", "1e-10000000"]
        proc = subprocess.run(
            [sys.executable, "-m", "kscolor.cli", *argv],
            capture_output=True, text=True, timeout=10,
            env=_child_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        doc = json.loads(proc.stderr)
        assert doc["type"] == "InvalidInputError"
        assert "exponent" in doc["error"]


# The flags each subcommand's handler reads, besides --format, which all take.
_READS = {
    "classify-ray": (), "classify-matrix": (), "classify-povm": (),
    "approx-true": ("--epsilon",), "suitable-frame": ("--epsilon",),
    "false-ray": ("--epsilon",), "make-suitable-povm": ("--epsilon", "--allow-split"),
    "verify-decomposition": (), "ks-solve": (), "ks-perturb": ("--epsilon",),
    "gen-ray": ("--dimension", "--seed"), "gen-frame": ("--dimension", "--seed"),
    "gen-povm": ("--dimension", "--seed", "--elements"),
}
_VALID = {"--epsilon": ["1/100"], "--dimension": ["4"], "--seed": ["7"],
          "--elements": ["2"], "--allow-split": [], "--format": ["text"]}


class TestFlags:
    @pytest.mark.parametrize("flag", sorted(_VALID))
    @pytest.mark.parametrize("command", sorted(_READS))
    def test_each_subcommand_takes_only_the_flags_it_reads(self, command, flag):
        argv = [command] + ([] if command.startswith("gen-") else ["x"]) + [flag] + _VALID[flag]
        if flag == "--format" or flag in _READS[command]:
            args = cli._build_parser().parse_args(argv)
            assert args.func is getattr(cli, "_cmd_" + command.replace("-", "_"))
            assert getattr(args, flag[2:].replace("-", "_")) not in (None, False)
            return
        code, out, err = run_main(argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "InvalidInputError"
        assert flag in doc["error"]

    def test_flag_slots(self):
        """13 --format, 5 --epsilon, 3 each of --dimension and --seed, one
        each of --elements and --allow-split: 26 option slots in all."""
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == _SUBCOMMANDS
        slots = {name: sorted(a.dest for a in p._actions if a.option_strings and a.dest != "help")
                 for name, p in sub.choices.items()}
        assert slots == {c: sorted(f[2:].replace("-", "_") for f in _READS[c] + ("--format",))
                         for c in _READS}
        assert sum(map(len, slots.values())) == 26

    def test_top_level_help_bytes_pinned(self, monkeypatch, capsys):
        # Names, help strings and order of the subcommands, as argparse of
        # CPython 3.11 lays them out at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
            "fd385c4d8091b0dca7f32a3db43c8e2bc398ae398063f2b57a570558af9fa6c0"
        )


class TestFormats:
    def test_text_format(self):
        code, out, _ = run_main(["classify-ray", TRUE_RAY_ARG, "--format", "text"])
        assert code == 0
        assert out == "value = TRUE\n"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("KSCOLOR_FORMAT", "text")
        code, out, _ = run_main(["classify-ray", TRUE_RAY_ARG])
        assert code == 0
        assert out == "value = TRUE\n"

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("KSCOLOR_FORMAT", "text")
        code, out, _ = run_main(["classify-ray", TRUE_RAY_ARG, "--format", "json"])
        assert code == 0
        assert out == '{"value":"TRUE"}\n'

    def test_unknown_env_value_falls_back_to_json(self, monkeypatch):
        monkeypatch.setenv("KSCOLOR_FORMAT", "yaml")
        code, out, _ = run_main(["classify-ray", TRUE_RAY_ARG])
        assert code == 0
        assert out == '{"value":"TRUE"}\n'

    def test_text_error_format(self):
        code, _, err = run_main(["classify-ray", "[1/3]", "--format", "text"])
        assert code == 2
        assert err.startswith("error (InvalidInputError):")


class TestInputConventions:
    def test_at_file(self, tmp_path):
        path = tmp_path / "ray.txt"
        path.write_text(TRUE_RAY_ARG)
        code, out, _ = run_main(["classify-ray", f"@{path}"])
        assert code == 0
        assert out == '{"value":"TRUE"}\n'

    def test_stdin_dash(self):
        code, out, _ = run_main(["classify-ray", "-"], stdin=TRUE_RAY_ARG)
        assert code == 0
        assert out == '{"value":"TRUE"}\n'

    def test_missing_at_file(self):
        code, _, err = run_main(["classify-ray", "@/no/such/file"])
        assert code == 2
        assert json.loads(err)["type"] == "InvalidInputError"

    def test_lenient_bare_tokens(self):
        # bare fractions and sqrt2 tokens without quotes
        code, out, _ = run_main(
            ["classify-povm", "[[1/2s2,0,0],[0,0,0],[0,0,0]]"]
        )
        assert code == 0
        assert json.loads(out)["value"] == "TRUE"

    def test_strict_json_also_accepted(self):
        code, out, _ = run_main(
            ["classify-ray", '["1/3","1/2","1/2","1/2","1/2","1/2"]']
        )
        assert code == 0
        assert json.loads(out) == {"value": "TRUE"}


class TestRoundTrips:
    def test_suitable_frame_verifies(self, tmp_path):
        code, out, _ = run_main(
            [
                "suitable-frame",
                "[[1,0,0,0,0,0],[0,0,1,0,0,0],[0,0,0,0,1,0]]",
                "--epsilon",
                "1/100",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sum"] == 1
        assert doc["values"].count("TRUE") == 1
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(doc["frame"]))
        code, out, _ = run_main(["verify-decomposition", str(path)])
        assert code == 0
        assert json.loads(out) == {"sum": 1}

    def test_povm_verifies(self, tmp_path):
        code, out, _ = run_main(
            ["make-suitable-povm", "[[[0.5,0,0],[0,0.5,0],[0,0,0.5]],"
             "[[0.5,0,0],[0,0.5,0],[0,0,0.5]]]", "--epsilon", "1/100"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sum"] == 1
        povm_doc = {k: doc[k] for k in ("kind", "dimension", "elements")}
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(povm_doc))
        code, out, _ = run_main(["verify-decomposition", str(path)])
        assert code == 0
        assert json.loads(out) == {"sum": 1}

    def test_ks_solve_builtin(self):
        code, out, _ = run_main(["ks-solve", "peres33"])
        assert code == 0
        assert json.loads(out) == {"result": "UNSAT"}

    def test_ks_solve_sat_reports_assignment(self, tmp_path):
        path = tmp_path / "basis.rays"
        text = subprocess.run(
            [
                sys.executable,
                "-c",
                "from kscolor.kscheck import dump_rayset, RaySet;"
                "from kscolor.fields import QuadComplex, QuadRational;"
                "from fractions import Fraction;"
                "rs = RaySet(3, [[QuadComplex(QuadRational(Fraction(int(c))))"
                " for c in row] for row in ['100','010','001']]);"
                "print(dump_rayset(rs), end='')",
            ],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert text.returncode == 0, text.stderr
        path.write_text(text.stdout)
        code, out, _ = run_main(["ks-solve", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "SAT"
        assert sorted(doc["assignment"].values()) == [0, 0, 1]

    def test_ks_solve_deeper_than_the_recursion_limit(self, tmp_path):
        """1,100 rays (1, k, 0), no two orthogonal: the search is 1,100
        decisions deep.  A child process answers SAT and exits 0, in under
        1 s on a 2-vCPU VM."""
        rs = kscolor.RaySet(3, [[1, k, 0] for k in range(1, 1101)])
        path = tmp_path / "deep.rays"
        path.write_text(kscolor.dump_rayset(rs, with_checks=False))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from kscolor.cli import main; sys.exit(main())",
             "ks-solve", str(path)],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"] == "SAT"
        assert doc["assignment"] == {label: 1 for label in rs.labels}
        assert elapsed < 30, f"{elapsed:.2f} s"

    def test_ks_perturb_small(self):
        code, out, _ = run_main(
            ["ks-perturb", "peres33", "--epsilon", "1/10000"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_suitable"] is True
        assert doc["all_shared_diverge"] is True
        assert len(doc["contexts"]) == 16
        assert all(c["sum"] == 1 for c in doc["contexts"])


class TestGenerators:
    def test_gen_ray_deterministic(self):
        _, out1, _ = run_main(["gen-ray", "--seed", "7"])
        _, out2, _ = run_main(["gen-ray", "--seed", "7"])
        _, out3, _ = run_main(["gen-ray", "--seed", "8"])
        assert out1 == out2
        assert out1 != out3

    def test_gen_ray_dimension(self):
        _, out, _ = run_main(["gen-ray", "--seed", "1", "--dimension", "5"])
        doc = json.loads(out)
        assert len(doc["target"]) == 10

    @pytest.mark.parametrize("dimension", ["0", "-1", "1"])
    def test_gen_ray_rejects_small_dimension(self, dimension):
        # In a child process with a timeout, so a generator that loops
        # forever fails the test instead of hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "kscolor.cli", "gen-ray", "--dimension", dimension],
            capture_output=True,
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert json.loads(proc.stderr)["type"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "command,dimension",
        [("gen-frame", "0"), ("gen-frame", "-1"), ("gen-frame", "1"),
         ("gen-povm", "0"), ("gen-povm", "-1")],
    )
    def test_generators_reject_small_dimension(self, command, dimension):
        code, out, err = run_main([command, "--dimension", dimension])
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-ray", "--dimension", "65"],
            ["gen-frame", "--dimension", "65"],
            ["gen-povm", "--dimension", "65"],
            ["gen-povm", "--elements", "65"],
            ["gen-povm", "--elements", "0"],
        ],
    )
    def test_generators_reject_sizes_outside_bounds(self, argv):
        code, out, err = run_main(argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "InvalidInputError"

    def test_gen_ray_accepts_largest_dimension(self):
        code, out, _ = run_main(["gen-ray", "--dimension", "64"])
        assert code == 0
        assert len(json.loads(out)["target"]) == 128

    def test_gen_povm_dimension_one_feeds_make_suitable(self):
        _, gen, _ = run_main(["gen-povm", "--seed", "5", "--dimension", "1"])
        code, out, _ = run_main(
            ["make-suitable-povm", "-", "--epsilon", "1/100"], stdin=gen
        )
        assert code == 0
        assert json.loads(out)["sum"] == 1

    def test_gen_frame_feeds_suitable_frame(self):
        _, gen, _ = run_main(["gen-frame", "--seed", "3"])
        code, out, _ = run_main(
            ["suitable-frame", "-", "--epsilon", "1/100"], stdin=gen
        )
        assert code == 0
        assert json.loads(out)["sum"] == 1

    def test_gen_ray_feeds_approx_true(self):
        _, gen, _ = run_main(["gen-ray", "--seed", "3"])
        code, out, _ = run_main(
            ["approx-true", "-", "--epsilon", "1/100"], stdin=gen
        )
        assert code == 0
        assert json.loads(out)["value"] == "TRUE"

    def test_gen_ray_feeds_false_ray(self):
        _, gen, _ = run_main(["gen-ray", "--seed", "4"])
        code, out, _ = run_main(
            ["false-ray", "-", "--epsilon", "1/100"], stdin=gen
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "FALSE"
        assert doc["witness_values"].count("TRUE") == 1

    def test_gen_povm_feeds_make_suitable(self):
        _, gen, _ = run_main(
            ["gen-povm", "--seed", "11", "--elements", "2"]
        )
        code, out, _ = run_main(
            ["make-suitable-povm", "-", "--epsilon", "1/100"], stdin=gen
        )
        assert code == 0
        assert json.loads(out)["sum"] == 1

    def test_seed_does_not_affect_deterministic_commands(self):
        # classify-ray reads no seed, so --seed is refused, not ignored.
        for value in ("1", "99"):
            code, out, err = run_main(["classify-ray", TRUE_RAY_ARG, "--seed", value])
            assert code == 2
            assert out == ""
            assert "--seed" in json.loads(err)["error"]


class TestByteStability:
    def test_repeated_runs_identical(self):
        outs = set()
        for _ in range(3):
            code, out, _ = run_main(
                ["suitable-frame", "[[1,0,0,0,0,0],[0,0,1,0,0,0],[0,0,0,0,1,0]]"]
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_ks_perturb_peres33_bytes_pinned(self):
        """Pins context order and every perturbed frame of the peres33
        nullification report."""
        code, out, _ = run_main(["ks-perturb", "peres33", "--epsilon", "1/10000"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "359b867c8c75bfc908e46792ef7fb739f1993a45c20e562058527daf363c6653"
        )

    def test_ks_perturb_peres24_bytes_pinned(self):
        """Pins the peres24 report, whose repaired contexts reorder their
        legs for Gram-Schmidt and nudge their roundings."""
        code, out, _ = run_main(["ks-perturb", "peres24", "--epsilon", "1/10000"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "bc25882cec276df585f8fccfd8fd066c541a417ccf265824696efa6e193b6530"
        )

    def test_ks_perturb_tiny_epsilon_is_bounded(self):
        """One pass plus one repair: no retry loop shrinks eps, so a tiny
        eps costs one construction at a large scale."""
        t0 = time.monotonic()
        code, out, _ = run_main(["ks-perturb", "peres24", "--epsilon", "1e-500"])
        assert time.monotonic() - t0 < 20.0
        assert code == 0
        doc = json.loads(out)
        assert doc["all_shared_diverge"] is True and doc["all_suitable"] is True

    @pytest.mark.parametrize("eps", ["1e-5000", "1e-20000"])
    def test_ks_perturb_unprintable_epsilon_is_refused_first(self, eps):
        """An eps whose denominator has more than 4300 digits cannot be
        printed in the report, so it is refused before any frame is built."""
        t0 = time.monotonic()
        code, out, err = run_main(["ks-perturb", "peres24", "--epsilon", eps])
        assert time.monotonic() - t0 < 5.0
        assert (code, out) == (4, "")
        assert json.loads(err)["type"] == "ResourceLimitError"

    def test_ks_perturb_checks_epsilon_before_contexts(self, tmp_path):
        """A set with no full context exits 2, unless eps is refused first:
        a nonpositive eps with exit 2, an unprintable one with exit 4."""
        path = tmp_path / "open.rays"
        path.write_text("rayset v1\ndimension 3\nfield rational\nray a 1 0 0\n")
        for eps, code, message in [("1e-4", 2, "no full context"),
                                   ("1e-5000", 4, "too many digits"),
                                   ("-1e-5000", 2, "eps must be positive")]:
            got, out, err = run_main(["ks-perturb", str(path), f"--epsilon={eps}"])
            assert (got, out) == (code, "")
            assert message in json.loads(err)["error"]

    @pytest.mark.parametrize("rays", [
        ["B 0 0", "0 B 0", "0 0 B"],
        ["1/B 0 0", "0 1/B 0", "0 0 1/B"],
        ["B 1 0", "-1 B 0", "0 0 1"],
    ], ids=["huge", "tiny", "mixed"])
    def test_ks_perturb_coordinates_beyond_binary64(self, tmp_path, rays):
        """Coordinates of 10^400 and 10^-400, alone or beside 1, exit 0 as
        ks-solve does: the float targets are read from the exact integers."""
        path = tmp_path / "wide.rays"
        lines = [f"ray r{k} {r.replace('B', '1' + '0' * 400)}" for k, r in enumerate(rays)]
        path.write_text("\n".join(["rayset v1", "dimension 3", "field rational", *lines]) + "\n")
        for command in ("ks-solve", "ks-perturb"):
            code, out, err = run_main([command, str(path)])
            assert code == 0, err
        doc = json.loads(out)
        assert doc["all_suitable"] is True and doc["all_shared_diverge"] is True

    def test_ks_perturb_coordinate_cancelling_far_below_its_parts(self, tmp_path):
        """A coordinate (1 - s2)^900, about 10^-344 with parts of about
        10^344, exits 0 as ks-solve does."""
        p, q = 1, 0
        for _ in range(900):
            p, q = p - 2 * q, q - p  # times (1 - s2)
        path = tmp_path / "cancel.rays"
        path.write_text("\n".join(["rayset v1", "dimension 3", "field quad2",
                                   f"ray a {p}{q:+d}s2 0 0", "ray b 0 1 0", "ray c 0 0 1"]) + "\n")
        for command in ("ks-solve", "ks-perturb"):
            code, out, err = run_main([command, str(path)])
            assert code == 0, err
        doc = json.loads(out)
        assert doc["all_suitable"] is True and doc["all_shared_diverge"] is True

    def test_make_suitable_povm_bytes_pinned(self):
        """Pins the lattice point, the corner transfer and the serialized
        form of a 3x3, four-element complex POVM; the digest was recorded
        with the Fraction-matrix construction this output must match."""
        code, out, _ = run_main(["make-suitable-povm", POVM3, "--epsilon", "1e-4"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "baee41529b57919dd1d01856b1fb188ed4527c24db8e9b29293573c4f22bca06"
        )

    # A 4x4 float unitary (the DFT matrix / 2 times a complex Givens
    # rotation and a phase), so every leg has generic complex coordinates.
    _UNITARY4 = (
        "[[0.3414970359675121,0.13095670971327042,0.5,0.0,0.5908303096385225,"
        "0.13095670971327042,0.48683319750268744,-0.1139887617675942],"
        "[0.5908303096385223,-0.13095670971327045,3.061616997868383e-17,0.5,"
        "-0.3414970359675121,0.13095670971327047,-0.11398876176759429,"
        "-0.48683319750268744],"
        "[0.3414970359675121,0.13095670971327045,-0.5,6.123233995736766e-17,"
        "0.5908303096385225,0.1309567097132703,-0.4868331975026874,"
        "0.11398876176759438],"
        "[0.5908303096385223,-0.13095670971327047,-9.184850993605148e-17,-0.5,"
        "-0.3414970359675121,0.13095670971327059,0.11398876176759447,"
        "0.4868331975026874]]"
    )

    @pytest.mark.parametrize(
        "command, value, digest",
        [
            ("approx-true", "[0.3,-0.71,0.12,0.05,-0.44,0.2,0.1,0.33,0.0,-0.07]",
             "0dbbb3c2276f28b873fa5981886e9d9421856f72a3409ced9333a3be93375fcc"),
            ("false-ray", json.dumps(json.loads(_UNITARY4)[1], separators=(",", ":")),
             "3f05bc2fa93819d2b62f3d17c460841fbee383dcbb285f51ff42663a6d32d2c0"),
            ("suitable-frame", _UNITARY4,
             "3045290ac88942c6255c68bda23ca8c8d93e388fb7ca535e5e707d4f1577733a"),
        ],
    )
    def test_density_bytes_pinned(self, command, value, digest):
        """Pins the TRUE lattice point, the Gram-Schmidt legs and the exact
        distances of the three density commands at eps 1e-6; the digests
        were recorded with the GaussianRational Gram-Schmidt."""
        code, out, _ = run_main([command, value, "--epsilon", "1e-6"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "element, via_slice, digest",
        [
            ('[["1/4","1/8+1/16s2",{"re":"0","im":"1/10"}],["1/8+1/16s2","1/3",0],'
             '[{"re":"0","im":"-1/10"},0,"1/2"]]', True,
             "8535b437eee031c50d45822335031686ee9b2647cc84560545985181545d4dcb"),
            ('[["1/2",{"re":"1/4+1/8s2","im":"1/5"},0],[{"re":"1/4+1/8s2","im":"-1/5"},"1/2",0],'
             '[0,0,"1/3-1/5s2"]]', False,
             "64fcba8a59e5eb38f18900264a4ec1db5ca86d8908086e101ecc45c88632cb70"),
        ],
    )
    def test_classify_povm_witness_bytes_pinned(self, element, via_slice, digest):
        """Pins the two witness paths of classify-povm: the delta*sqrt2*E11
        slice, and the complement scaled by lam and 1 - lam; the digests were
        recorded with the Fraction-entry QuadHermitian arithmetic."""
        code, out, _ = run_main(["classify-povm", element])
        assert code == 0
        second = json.loads(out)["witness"]["elements"][1]
        off_corner = [e for k, e in enumerate(x for row in second for x in row) if k]
        zero = {"rat": "0", "sqrt2": "0"}
        assert all(e == {"re": zero, "im": zero} for e in off_corner) is via_slice
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_keys_sorted_and_compact(self):
        _, out, _ = run_main(["ks-solve", "peres33"])
        assert out == json.dumps(
            json.loads(out), sort_keys=True, separators=(",", ":")
        ) + "\n"


# values as json.dumps writes them: the parser must read them back unchanged
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)
# bare scalar tokens: fractions, Q(sqrt2) tokens and float text
_BARE_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
    st.builds("{}{:+}s2".format, st.integers(-99, 99), st.integers(-99, 99)),
    st.floats().map(repr),
    st.sampled_from(["s2", "-s2", "3/4s2", "1/2-1/3s2", "1e400", "1e-5000"]),
)


class TestLenientValues:
    @given(_JSON_VALUES, st.booleans(), st.sampled_from([None, 0, 2]))
    def test_json_round_trip(self, value, ensure_ascii, indent):
        text = json.dumps(value, ensure_ascii=ensure_ascii, indent=indent)
        assert cli._lenient_loads(text) == value

    @given(st.lists(_BARE_TOKENS, min_size=1, max_size=5))
    def test_bare_tokens_read_as_quoted(self, tokens):
        assert cli._lenient_loads(tokens[0]) == tokens[0]
        bare = "[" + ", ".join(tokens) + "]"
        assert cli._lenient_loads(bare) == cli._lenient_loads(json.dumps(tokens))

    def test_json_string_escapes_apply(self):
        assert cli._lenient_loads(r'["a\tb", "\u0041", "q\"q"]') == [
            "a\tb", "A", 'q"q'
        ]
        code, _, err = run_main(["classify-ray", r'["\s"]'])
        assert code == 2
        assert json.loads(err)["type"] == "InvalidInputError"


_SUBCOMMANDS = [
    "classify-ray", "classify-matrix", "classify-povm", "approx-true",
    "suitable-frame", "false-ray", "make-suitable-povm", "verify-decomposition",
    "ks-solve", "ks-perturb", "gen-ray", "gen-frame", "gen-povm",
]
_EXTREMES = ["1e308", "1e-320", "1e400", "nan", "inf", "-0.0", "1e-5000"]
_SCALARS = _EXTREMES + ["0", "1", "-1", "0.6", "0.8", "1/2", "1/3", "1/0", "s2",
                        "1/2-1/3s2"]
_SIZES = ["-1", "0", "1", "2", "3", "64", "65", "1e400"]
_FLAG_VALUES = {
    "--epsilon": _EXTREMES + ["1/100", "1e-4", "0", "-1", "1/0", "abc"],
    "--dimension": _SIZES,
    "--seed": ["0", "7", "-1", "1e400"],
    "--format": ["json", "text", "yaml"],
}
# how deeply each subcommand's value nests; the ks-* and gen-* values differ
_DEPTHS = {"classify-ray": 1, "approx-true": 1, "false-ray": 1,
           "classify-matrix": 2, "classify-povm": 2, "suitable-frame": 2,
           "make-suitable-povm": 3, "verify-decomposition": 3}
_FRAGMENTS = ["[", "]", "{", "}", ",", ":", '"', "\\", "null", "true", "-", "@",
              "@/no/such/file", ".", "peres33", "kind", "povm", "frame", "--help",
              "--version", "--allow-split", "--elements", "--eps"]
_SMALL_RAYSET = "rayset v1\ndimension 2\nfield rational\nray a 1 0\nray b 0 1\n"


@st.composite
def _nested(draw, depth):
    """A bracketed array of scalars, or of such arrays."""
    if depth == 0:
        return draw(st.sampled_from(_SCALARS))
    items = draw(st.lists(_nested(depth - 1), min_size=1, max_size=4))
    return "[" + ",".join(items) + "]"


_JUNK = st.one_of(
    st.sampled_from(_FRAGMENTS + _SCALARS),
    st.lists(st.sampled_from(_SCALARS + _FRAGMENTS), max_size=6).map("".join),
    st.text(max_size=10),
)


@st.composite
def _argv(draw):
    """A subcommand (or junk) with a value of about its shape, flags drawn
    from their own values, and sometimes one stray argument."""
    cmd = draw(st.sampled_from(_SUBCOMMANDS + ["nosuch", ""]))
    if cmd in _DEPTHS:
        argv = [cmd, draw(_nested(_DEPTHS[cmd]) | _JUNK)]
    elif cmd.startswith("ks-"):
        argv = [cmd, draw(st.sampled_from(["peres33", "-", "none.rays", "."]) | _JUNK)]
    else:
        argv = [cmd]
    flags = dict(_FLAG_VALUES)
    if cmd == "gen-povm":
        flags["--elements"] = _SIZES
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    if cmd == "make-suitable-povm" and draw(st.booleans()):
        argv.append("--allow-split")
    return argv + draw(st.lists(_JUNK, max_size=1))


_EXIT_CODES = {"InvalidInputError": 2, "NotApplicableError": 2,
               "DegenerateInputError": 3, "ResourceLimitError": 4}


class TestFuzz:
    @seed(20261018)
    @settings(max_examples=500, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(["classify-ray"], "")
    @example(["approx-true", "[1,0,0,0]", "--epsilon", "abc"], "")
    @example(["nosuch"], "")
    @example(["approx-true", "[1,0,0,0]", "--epsilon", "1e-5000"], "")
    @given(
        _argv(),
        st.sampled_from(["", _SMALL_RAYSET, "[1,0,0,0]", "[[[1,0],[0,1]]]"])
        | st.text(max_size=20),
    )
    def test_every_subcommand_exits_cleanly(self, argv, stdin):
        try:
            code, out, err = run_main(argv, stdin=stdin)
        except SystemExit as exc:  # --help and --version only
            assert exc.code == 0
            return
        assert code in (0, 2, 3, 4)
        text = any("text" in a for a in argv)
        if code == 0:
            if not text:
                json.loads(out)
            return
        assert out == ""
        if text and err.startswith("error ("):
            kind = err[len("error ("):err.index(")")]
        else:
            doc = json.loads(err)
            assert set(doc) == {"error", "type"}
            kind = doc["type"]
        assert _EXIT_CODES[kind] == code
