"""End-to-end tests for the command-line interface."""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twocubes
from twocubes import cli, families
from twocubes.cli import main, parse_scalar
from twocubes.exact import SQRT2
from twocubes.forms import BinaryForm, form_to_json, scalar_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# -- literals ---------------------------------------------------------------

def test_parse_scalar_fraction():
    from fractions import Fraction

    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("-4") == Fraction(-4)
    assert parse_scalar("0.25") == Fraction(1, 4)


def test_parse_scalar_complex_pair():
    assert parse_scalar("1.5,-2") == complex(1.5, -2.0)
    assert parse_scalar("0,7.0710678118654755") == complex(0.0, 7.0710678118654755)


def test_parse_scalar_rejects_garbage():
    from twocubes.cli import UsageError

    with pytest.raises(UsageError):
        parse_scalar("bad")
    with pytest.raises(UsageError):
        parse_scalar("1,2,3")
    for text in ("nan,0", "0,inf", "-inf,1", "nan", "inf"):
        with pytest.raises(UsageError):
            parse_scalar(text)


def test_scalar_json_rational_cyclotomic_collapses():
    import fractions

    value = SQRT2 * SQRT2  # rational element of the cyclotomic field
    assert scalar_json(value) == "2"
    assert scalar_json(SQRT2) == {
        "cyclotomic": [str(c) for c in SQRT2.coeffs]
    }
    assert scalar_json(fractions.Fraction(-3, 7)) == "-3/7"
    assert scalar_json(complex(1.0, -2.0)) == [1.0, -2.0]
    # forms.form_to_json writes each coefficient with the same encoder
    exact = BinaryForm.exact(2, [fractions.Fraction(3, 2), SQRT2, value])
    assert form_to_json(exact) == {"degree": 2, "coeffs": ["3/2", scalar_json(SQRT2), "2"]}
    assert form_to_json(BinaryForm.floating(1, [1.5 + 2j, -3])) == {"degree": 1, "coeffs": [[1.5, 2.0], [-3.0, 0.0]]}


# -- decompose --------------------------------------------------------------

def test_decompose_octahedral_sextic(capsys):
    code, payload = run_json(capsys, "decompose", "0", "1", "0", "0", "0", "-1", "0")
    assert code == 0
    assert payload["N"] == 6
    assert len(payload["representations"]) == 6
    assert all(rep["residual"] < 1e-9 for rep in payload["representations"])


def test_decompose_prints_a_zero_H_unsigned(capsys):
    # json.loads would read -0.0 as equal to 0.0, so the printed text is pinned
    code, out = run_cli(capsys, "decompose", "0", "1", "0", "0", "0", "-1", "0")
    assert code == 0
    assert '"H": [0.0, 0.0]' in out


def test_decompose_obstructed_sextic(capsys):
    code, payload = run_json(capsys, "decompose", "1", "0", "3", "0", "3", "0", "1")
    assert code == 0
    assert payload["N"] == 0
    assert payload["representations"] == []


@pytest.mark.parametrize("coeffs, n", [
    # A(-5) under x -> 100x: six roots of modulus ~0.01, coefficients 1 to 1e12
    (["1000000000000", "0", "-500000000", "0", "-50000", "0", "1"], 6),
    # x^6 - y^6 under x -> x/100: six roots of modulus 100
    (["1e-12", "0", "0", "0", "0", "0", "-1"], None),
], ids=["A(-5)@x100", "x6-y6@x/100"])
def test_decompose_rescaled_sextic_keeps_simple_roots(capsys, coeffs, n):
    code, payload = run_json(capsys, "decompose", *coeffs)
    assert code == 0
    assert payload["multiplicities"] == [1] * 6
    if n is not None:
        assert payload["N"] == n


@pytest.mark.xfail(strict=True, reason="the float engine rounds exact input: a squarefree sextic cannot have "
                                       "N = 5, and the exact N of both inputs needs Clebsch's covariants")
@pytest.mark.parametrize("coeffs, n", [
    # A(-5) under x -> 1000x
    (["1000000000000000000", "0", "-5000000000000", "0", "-5000000", "0", "1"], 6),
    # x^6 - y^6 under x -> x/100; 1e-12 parses as an exact rational
    (["1e-12", "0", "0", "0", "0", "0", "-1"], 4),
], ids=["A(-5)@x1000", "x6-y6@x/100"])
def test_decompose_exact_rescaled_sextic_count(capsys, coeffs, n):
    code, payload = run_json(capsys, "decompose", *coeffs)
    assert code == 0
    assert payload["N"] == n


def test_decompose_text_format_lines(capsys):
    # the residuals are floats, so the text is pinned by the shape of its
    # lines and by the forms it shares with the JSON output
    argv = ["decompose", "0", "1", "0", "0", "0", "-1", "0"]
    _, payload = run_json(capsys, *argv)
    code, out = run_cli(capsys, "--format", "text", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N = 6"
    assert lines[-1] == "root multiplicities: [1, 1, 1, 1, 1, 1]"
    reps = lines[1:-1]
    assert len(reps) == 6
    pattern = re.compile(r"representation (\d): f1 = (\{.*\})  f2 = (\{.*\})  residual = (\d\.\d{3}e[-+]\d{2})")
    for k, (line, rep) in enumerate(zip(reps, payload["representations"]), 1):
        match = pattern.fullmatch(line)
        assert match, line
        assert int(match[1]) == k
        assert json.loads(match[2]) == rep["f1"]
        assert json.loads(match[3]) == rep["f2"]
        assert match[4] == f"{rep['residual']:.3e}"


def test_decompose_wrong_coefficient_count_is_usage_error(capsys):
    code = main(["decompose", "1", "0", "3", "0", "3", "0"])
    capsys.readouterr()
    assert code == 1


def test_decompose_coefficient_that_underflows_is_computation_failure(capsys):
    # 1e-400 is exact and nonzero but 0.0 as a float, which would read as a
    # sextic with a sixfold root instead of one equivalent to x^6 + y^6
    code = main(["decompose", "1e-400", "0", "0", "0", "0", "0", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "underflows" in captured.err and len(captured.err) < 200


def test_decompose_bad_literal_is_usage_error(capsys):
    code = main(["decompose", "1", "0", "0", "bad", "0", "0", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad" in err


# -- census -----------------------------------------------------------------

def test_census_even_palindromic_counts(capsys):
    code, payload = run_json(capsys, "census", "A", "-5", "-1", "0", "3", "7", "15")
    assert code == 0
    assert payload["generic"] == 2
    assert [cell["N"] for cell in payload["cells"]] == [6, 1, 4, 0, 2, 4]
    assert [cell["exceptional"] for cell in payload["cells"]] == [
        True, True, True, True, False, True,
    ]


def test_census_midcube_counts(capsys):
    code, payload = run_json(capsys, "census", "B", "0", "2", "-2", "1")
    assert code == 0
    assert payload["generic"] == 3
    assert [cell["N"] for cell in payload["cells"]] == [4, 0, 0, 3]


def test_census_midcube_imaginary_exceptional_point(capsys):
    code, payload = run_json(capsys, "census", "B", "0,7.0710678118654755")
    assert code == 0
    assert payload["cells"][0]["N"] == 6
    assert payload["cells"][0]["exceptional"] is True


def test_census_parallel_matches_serial(capsys):
    _, serial = run_cli(capsys, "census", "A", "-5", "-1", "0", "3")
    _, parallel = run_cli(capsys, "--jobs", "2", "census", "A", "-5", "-1", "0", "3")
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_jobs_below_one_is_usage_error(capsys, jobs):
    code = main(["--jobs", jobs, "census", "A", "7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error: --jobs must be at least 1" in captured.err


def test_census_pool_has_no_more_workers_than_cells(capsys, monkeypatch):
    import multiprocessing

    sizes = []

    class FakePool:  # records its size and maps in this process
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
    _, serial = run_cli(capsys, "census", "A", "7", "15", "3")
    _, parallel = run_cli(capsys, "--jobs", "8", "census", "A", "7", "15", "3")
    _, single = run_cli(capsys, "--jobs", "8", "census", "A", "7")
    assert sizes == [3] and parallel == serial and json.loads(single)["cells"][0]["N"] == 2


def test_census_grid_appends_real_parameters(capsys):
    code, payload = run_json(capsys, "census", "A", "--grid", "6:8:3")
    assert code == 0
    assert [cell["t"] for cell in payload["cells"]] == [[6.0, 0.0], [7.0, 0.0], [8.0, 0.0]]
    assert [cell["N"] for cell in payload["cells"]] == [2, 2, 2]


def test_census_grid_count_above_the_cap_is_usage_error(capsys, monkeypatch):
    # the count is checked before any grid value is built, so even 1e11
    # points return at once
    assert main(["census", "A", "--grid", "0:1:100000000000"]) == 1
    assert "at most" in capsys.readouterr().err
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 3)
    assert main(["census", "A", "--grid", "6:8:4"]) == 1
    code, payload = run_json(capsys, "census", "A", "--grid", "6:8:3")
    assert code == 0 and len(payload["cells"]) == 3


def test_census_without_values_is_usage_error(capsys):
    code = main(["census", "A"])
    capsys.readouterr()
    assert code == 1


def test_census_unknown_family_is_usage_error(capsys):
    code = main(["census", "C", "1"])
    capsys.readouterr()
    assert code == 1


def test_census_golden_even_palindromic(capsys, regen_golden):
    _, out = run_cli(capsys, "census", "A", "-5", "-1", "0", "3", "7", "15")
    path = GOLDEN / "census_a.json"
    if regen_golden:
        path.write_text(out)
    assert out == path.read_text()


def test_census_golden_midcube(capsys, regen_golden):
    _, out = run_cli(capsys, "census", "B", "0", "2", "-2", "1")
    path = GOLDEN / "census_b.json"
    if regen_golden:
        path.write_text(out)
    assert out == path.read_text()


def test_exact_command_output_is_byte_stable(capsys):
    _, first = run_cli(capsys, "census", "B", "0", "2", "-2", "1")
    _, second = run_cli(capsys, "census", "B", "0", "2", "-2", "1")
    assert first == second
    _, third = run_cli(capsys, "eb", "inverse", "12", "1", "10", "9")
    _, fourth = run_cli(capsys, "eb", "inverse", "12", "1", "10", "9")
    assert third == fourth


# Commands whose output is exact (no float digits that depend on libm): each
# golden file holds the command's stdout, then its stderr, then its exit code.
_EXACT_GOLDENS = {
    "family_f_lambda_2": ["family", "F", "--lambda", "2"],
    "family_f_no_lambda": ["family", "F"],
    "family_n_lambda_3": ["family", "N", "--lambda", "3"],
    "family_n_no_lambda": ["family", "N"],
    "family_r": ["family", "R"],
    "family_r_lambda_5": ["family", "R", "--lambda", "5"],
    "family_young": ["family", "YOUNG"],
    "family_young_lambda_2": ["family", "young", "--lambda", "2"],
    "family_hirschhorn": ["family", "HIRSCHHORN"],
    "family_hirschhorn_lambda_3": ["family", "hirschhorn", "--lambda", "3"],
    "family_vieta": ["family", "VIETA"],
    "family_vieta_lambda_1": ["family", "VIETA", "--lambda", "1"],
    "family_unknown_lambda_2": ["family", "Z", "--lambda", "2"],
    "family_f_text": ["--format", "text", "family", "F", "--lambda", "-1/2"],
    "type_detect_integer": ["type-detect", "3", "5", "-5", "5", "-5", "-3", "6", "-4", "4", "-4", "4", "-6"],
    "type_detect_text": ["--format", "text", "type-detect", "3", "5", "-5", "5", "-5", "-3", "6", "-4", "4", "-4", "4", "-6"],
    "eb_forward": ["eb", "forward", "-3/2", "1/2", "1"],
    "eb_forward_text": ["--format", "text", "eb", "forward", "-3/2", "1/2", "1"],
    "eb_inverse": ["eb", "inverse", "12", "1", "10", "9"],
    "eb_inverse_text": ["--format", "text", "eb", "inverse", "12", "1", "10", "9"],
    "eb_third": ["eb", "third", "-3/2", "1/2", "1"],
    "eb_third_text": ["--format", "text", "eb", "third", "-3/2", "1/2", "1"],
    "curve_add_rational": ["curve-add", "1", "12", "9", "10", "1729"],
    "curve_add_text": ["--format", "text", "curve-add", "1", "12", "9", "10", "1729"],
    "verify_text": ["--format", "text", "verify"],
}


@pytest.mark.parametrize("name", sorted(_EXACT_GOLDENS))
def test_exact_command_golden(capsys, regen_golden, name):
    code = main(_EXACT_GOLDENS[name])
    captured = capsys.readouterr()
    out = f"{captured.out}{captured.err}exit {code}\n"
    path = GOLDEN / f"{name}.txt"
    if regen_golden:
        path.write_text(out)
    assert out == path.read_text()


# -- verify -----------------------------------------------------------------

def test_verify_full_suite_passes(capsys):
    code, payload = run_json(capsys, "verify")
    assert code == 0
    assert len(payload) == 21
    assert all(entry["pass"] for entry in payload)


def test_verify_subset_and_order(capsys):
    code, payload = run_json(capsys, "verify", "--ids", "05,01,17")
    assert code == 0
    assert [entry["id"] for entry in payload] == ["01", "05", "17"]


def test_verify_unknown_ids_is_usage_error(capsys):
    code = main(["verify", "--ids", "99"])
    capsys.readouterr()
    assert code == 1


def test_verify_failure_exits_three(capsys, monkeypatch):
    def perturbed():
        quads = families.ramanujan_quadruple()
        return (BinaryForm.exact(2, [7, -4, 4]),) + quads[1:]

    monkeypatch.setattr(families, "ramanujan_quadruple", perturbed)
    code, payload = run_json(capsys, "verify", "--ids", "01")
    assert code == 3
    assert payload[0]["pass"] is False


def test_verify_text_format_lines(capsys):
    code, out = run_cli(capsys, "--format", "text", "verify", "--ids", "01,02")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("01 PASS")
    assert lines[1].startswith("02 PASS")


# -- family -----------------------------------------------------------------

def test_family_twisted_sextet_at_two(capsys):
    code, payload = run_json(capsys, "family", "F", "--lambda", "2")
    assert code == 0
    assert len(payload["members"]) == 6
    assert payload["members"][0] == ["8", "-1", "8"]
    assert payload["members"][1] == ["-2", "16", "-2"]
    assert payload["degree"] == 2


def test_family_parametric_requires_lambda(capsys):
    code = main(["family", "F"])
    capsys.readouterr()
    assert code == 1


def test_family_integer_quadruples(capsys):
    code, payload = run_json(capsys, "family", "R")
    assert code == 0
    assert payload["members"] == [
        ["6", "-4", "4"],
        ["3", "5", "-5"],
        ["4", "-4", "6"],
        ["5", "-5", "-3"],
    ]
    code, payload = run_json(capsys, "family", "young")
    assert code == 0
    assert payload["members"][0] == ["1", "16", "-21"]


def test_family_parametric_quartets_accept_lambda(capsys):
    code, payload = run_json(capsys, "family", "hirschhorn", "--lambda", "3")
    assert code == 0
    assert payload["members"][0] == ["3", "162", "-728"]
    code, payload = run_json(capsys, "family", "vieta")
    assert code == 0
    assert payload["degree"] == 4


@pytest.mark.parametrize("family", ["R", "vieta"])
def test_family_without_a_parameter_rejects_lambda(capsys, family):
    code = main(["family", family, "--lambda", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: family {family.upper()} takes no --lambda" in captured.err


def test_family_text_prints_each_member_as_json(capsys):
    # the rule of decompose --format text: each member is the JSON of its
    # coefficients, cyclotomic entries included
    _, payload = run_json(capsys, "family", "F", "--lambda", "-1/2")
    code, out = run_cli(capsys, "--format", "text", "family", "F", "--lambda", "-1/2")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == len(payload["members"])
    for k, (line, member) in enumerate(zip(lines, payload["members"]), 1):
        prefix = f"member {k}: "
        assert line.startswith(prefix)
        assert line[len(prefix):] == json.dumps(member, sort_keys=True)


def test_family_unknown_is_usage_error(capsys):
    code = main(["family", "Z"])
    capsys.readouterr()
    assert code == 1


# -- type-detect ------------------------------------------------------------

def test_type_detect_integer_quadruple(capsys):
    code, payload = run_json(
        capsys,
        "type-detect",
        "3", "5", "-5", "5", "-5", "-3", "6", "-4", "4", "-4", "4", "-6",
    )
    assert code == 0
    assert payload["T"] == "4"
    assert "T*(" in payload["arrangement"]


def test_type_detect_rejects_unequal_sums(capsys):
    code = main([
        "type-detect",
        "1", "0", "0", "0", "0", "1", "1", "0", "0", "0", "0", "2",
    ])
    capsys.readouterr()
    assert code == 2


# -- eb ---------------------------------------------------------------------

def test_eb_forward_integer_instance(capsys):
    code, payload = run_json(capsys, "eb", "forward", "-3/2", "1/2", "1")
    assert code == 0
    assert (payload["f1"], payload["f2"], payload["f3"], payload["f4"]) == (
        "10", "-1", "-9", "12",
    )
    assert payload["p"] == "999"
    assert payload["degenerate"] is False


def test_eb_inverse_instances(capsys):
    code, payload = run_json(capsys, "eb", "inverse", "10", "-1", "-9", "12")
    assert code == 0
    assert (payload["a"], payload["b"], payload["mu"]) == ("-3/2", "1/2", "1")
    code, payload = run_json(capsys, "eb", "inverse", "12", "1", "10", "9")
    assert code == 0
    assert (payload["a"], payload["b"], payload["mu"]) == ("10/19", "7/19", "361/42")


def test_eb_third_representation(capsys):
    code, payload = run_json(capsys, "eb", "third", "-3/2", "1/2", "1")
    assert code == 0
    assert (payload["h1"], payload["h2"]) == ("-8", "6")


def test_eb_dishonest_quadruple_is_computation_failure(capsys):
    code = main(["eb", "inverse", "1", "2", "1", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "honest" in err


def test_eb_wrong_arity_is_usage_error(capsys):
    code = main(["eb", "forward", "1", "2"])
    capsys.readouterr()
    assert code == 1


# -- curve-add --------------------------------------------------------------

def test_curve_add_taxicab_chord(capsys):
    code, payload = run_json(capsys, "curve-add", "1", "12", "9", "10", "1729")
    assert code == 0
    assert (payload["x3"], payload["y3"]) == ("-37/3", "46/3")


def test_curve_add_degenerate_chord_is_computation_failure(capsys):
    code = main(["curve-add", "1", "12", "1", "12", "1729"])
    err = capsys.readouterr().err
    assert code == 2
    assert "chord" in err


def test_curve_add_off_curve_point_is_computation_failure(capsys):
    code = main(["curve-add", "1", "11", "9", "10", "1729"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("point, code", [
    (["1,0", "12,0", "9,0", "10,0", "1729"], 0),
    (["1,0", "1,0", "2,0", "0,0", "9,0"], 2),
    (["0.00001,0", "0.00012,0", "0.00009,0", "0.0001,0", "1.729e-12,0"], 0),
    (["0.00001,0", "0.00012,0", "0.00009,0", "0.00011,0", "1.729e-12,0"], 2),
], ids=["on-curve", "off-curve", "on-curve-at-1e-5", "off-curve-at-1e-5"])
def test_curve_add_complex_chord_exit_code(capsys, point, code):
    # the complex on-curve test is the float kernel's is_zero, which raises
    # rather than asserts, so it still decides under python -O
    assert main(["curve-add", *point]) == code
    capsys.readouterr()


@pytest.mark.parametrize("mu", ["0.00001,0", "2,0"])
def test_eb_forward_complex_degenerate_flag_is_scale_free(capsys, mu):
    # p is about |f1|^3: not degenerate at any scale of mu
    code, payload = run_json(capsys, "eb", "forward", "0.25,0.5", "0,-0.75", mu)
    assert code == 0 and payload["degenerate"] is False


def test_curve_add_accepts_a_point_within_FLOAT_TOL(capsys):
    # x1 = 1 + 1e-9 misses the curve by ~2e-12 relative: inside FLOAT_TOL = 1e-9
    point = ["1.000000001,0", "12", "9", "10", "1729"]
    code, payload = run_json(capsys, "curve-add", *point)
    assert code == 0 and abs(payload["x3"][0] + 37 / 3) < 1e-6


@pytest.mark.parametrize("argv", [
    ["curve-add", "nan,0", "1,0", "1,0", "2,0", "9,0"],
    ["decompose", "nan,0", "0", "0", "0", "0", "0", "1"],
    ["decompose", "1e400,0", "0", "0", "0", "0", "0", "1"],
    ["census", "A", "--grid", "nan:1:3"],
    ["census", "A", "--grid", "-1e308:1e308:3"],
], ids=["nan-point", "nan-coeff", "overflowing-coeff", "nan-grid", "overflowing-grid-step"])
def test_non_finite_input_is_usage_error(capsys, argv):
    # no NaN may reach a computation
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


_DECOMPOSE = ["decompose", "1", "0", "-5", "0", "-5", "0", "1"]
_CURVE_ADD = ["curve-add", "1", "12", "9", "10", "1729"]


@pytest.mark.parametrize("argv", [
    ["--tol", "1", "curve-add", "1,0", "1,0", "2,0", "0,0", "9,0"],
    ["--tol", "1e-20", *_DECOMPOSE],
    ["--tol", "1e-20", "census", "A", "7"],
    ["--tol", "1e-20", "verify", "--ids", "01"],
    ["--jobs", "4", *_DECOMPOSE],
    ["--jobs", "1", *_DECOMPOSE],
    ["--jobs", "3", "verify", "--ids", "01"],
    ["--jobs", "2", *_CURVE_ADD],
])
def test_tol_on_other_commands_is_usage_error(capsys, argv):
    # --tol is no option: the on-curve tolerance is FLOAT_TOL, so the
    # off-curve (1, 1) of x^3 + y^3 = 9 never reaches a computation.
    # --jobs is read by census alone; the other commands reject it
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: " in captured.err
    if argv[0] == "--jobs":
        assert "error: --jobs applies only to census" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["eb", "inverse", "12", "1", "10"], "eb inverse needs f1 f2 f3 f4"),
    (["eb", "third", "-3/2", "1/2"], "eb third needs a b mu"),
    (["census", "A", "--grid", "1:2"], "grid must be start:stop:count"),
    (["census", "A", "--grid", "a:b:3"], "grid must be start:stop:count with numeric bounds"),
    (["census", "A", "--grid", "0:1:1"], "grid needs at least two points"),
    (["decompose", "1,x", "0", "0", "0", "0", "0", "1"], "cannot parse complex pair '1,x'"),
], ids=["eb-inverse-arity", "eb-third-arity", "grid-two-fields", "grid-non-numeric", "grid-one-point",
        "complex-literal"])
def test_usage_error_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# -- harness ----------------------------------------------------------------

def test_missing_command_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 1


def test_argparse_usage_error_prints_usage_and_error(capsys, monkeypatch):
    # argparse's own error writes the subcommand's usage line and the error,
    # and its exit code 2 becomes the CLI's usage-error code 1; the width is
    # pinned because argparse wraps the usage line to the terminal
    monkeypatch.setenv("COLUMNS", "80")
    code = main(["census"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "usage: twocubes census [-h] [--grid GRID] family [values ...]\n"
        "twocubes census: error: the following arguments are required: family, values\n"
    )


def _run_python(*args):
    """`python args...` in a fresh interpreter with src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_module(module, *argv):
    return _run_python("-m", module, *argv)


def test_console_entry_point_runs():
    proc = _run_module("twocubes.cli", "curve-add", "1", "12", "9", "10", "1729")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"x3": "-37/3", "y3": "46/3"}


def test_package_runs_as_a_module():
    proc = _run_module("twocubes", "decompose", "0", "1", "0", "0", "0", "-1", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 6


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a parallel census imports multiprocessing, so no cold start pays for it
    proc = _run_python("-c", "import sys, twocubes.cli; print('multiprocessing' in sys.modules)")
    assert proc.stdout.strip() == "False"


# One command in a fresh interpreter; prints its exit code and every module
# loaded by the end.
_FOOTPRINT = """
import contextlib, io, json, sys
from twocubes import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "loaded": list(sys.modules)}))
"""


@pytest.mark.parametrize(
    "argv, loads, leaves",
    [
        pytest.param(
            ["decompose", "0", "1", "0", "0", "0", "-1", "0"],
            {"decomp", "roots"},
            {"classify", "families", "ecurve", "multiprocessing"},
            id="decompose",
        ),
        pytest.param(["verify", "--ids", "01"], {"families"}, {"classify", "roots", "decomp"}, id="verify"),
        pytest.param(["family", "F", "--lambda", "2"], {"families"}, {"classify", "roots", "decomp"}, id="family"),
        pytest.param(
            ["type-detect", "3", "5", "-5", "5", "-5", "-3", "6", "-4", "4", "-4", "4", "-6"],
            {"classify"},
            set(),
            id="type-detect",
        ),
        pytest.param(["eb", "forward", "-3/2", "1/2", "1"], {"ecurve"}, {"decomp", "roots", "classify"}, id="eb"),
        pytest.param(
            ["curve-add", "1", "12", "9", "10", "1729"], {"ecurve"}, {"decomp", "roots", "classify"}, id="curve-add"
        ),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(argv, loads, leaves):
    # a cold start compiles and runs every module it loads, so a command
    # that loads a module it never calls pays for it on every start
    proc = _run_python("-c", _FOOTPRINT, *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    # twocubes submodules by their short names
    loaded = {name.removeprefix("twocubes.") for name in result["loaded"]}
    assert loads <= loaded
    assert not leaves & loaded


# The package's public names by defining module, as the package exported
# them when its import loaded every module.
_PUBLIC_NAMES = {
    "exact": ("CycNum", "ParamPoly", "Rational"),
    "forms": ("BinaryForm", "LinearChange", "FloatKernel", "form_compose", "EXACT", "FLOAT"),
    "decomp": ("rep_count", "report_to_json"),
    "classify": ("type_detect", "canonicalize_type", "tame_complete", "wild_family"),
    "families": ("verify_identity_suite",),
    "ecurve": ("EBParams", "RationalFunction", "eb_forward", "eb_inverse", "curve_add", "curve_third_rep"),
}


def test_package_names_resolve_to_their_modules_objects():
    assert sorted(twocubes.__all__) == sorted(n for names in _PUBLIC_NAMES.values() for n in names)
    for module, names in _PUBLIC_NAMES.items():
        defining = importlib.import_module(f"twocubes.{module}")
        for name in names:
            assert getattr(twocubes, name) is getattr(defining, name), name
    assert set(twocubes.__all__) <= set(dir(twocubes))
    namespace = {}
    exec("from twocubes import *", namespace)
    assert all(namespace[name] is getattr(twocubes, name) for name in twocubes.__all__)


def test_unknown_package_attribute_raises_and_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        twocubes.no_such_name


def test_package_import_loads_no_submodule_until_a_name_is_used():
    script = (
        "import json, sys, twocubes\n"
        "def loaded(): return sorted(n for n in sys.modules if n.startswith('twocubes.'))\n"
        "before = loaded()\n"
        "twocubes.curve_add\n"
        "after_name = loaded()\n"
        "module = twocubes.families\n"
        "print(json.dumps([before, after_name, module.__name__, loaded()]))\n"
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    before, after_name, module, after_module = json.loads(proc.stdout)
    assert before == []
    assert after_name == ["twocubes.ecurve", "twocubes.exact", "twocubes.forms"]
    # a submodule read as an attribute is imported, as when the package
    # loaded every module
    assert module == "twocubes.families"
    assert after_module == ["twocubes.ecurve", "twocubes.exact", "twocubes.families", "twocubes.forms"]


def test_text_format_census(capsys):
    code, out = run_cli(capsys, "--format", "text", "census", "A", "7", "15")
    assert code == 0
    assert "generic N = 2" in out
    assert "t = 15: N = 4  *" in out


# -- the README's examples ------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def _readme_block(heading, fence):
    """The first code block fenced by ```fence under the ## heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The argv of each `twocubes ...` line of the Command line block."""
    commands = []
    for line in _readme_block("Command line", "sh").splitlines():
        words = line.split("#", 1)[0].split()
        if "twocubes" in words:
            commands.append(words[words.index("twocubes") + 1:])
    return commands


def test_readme_lists_the_commands_it_shows():
    assert len(_readme_commands()) == 13


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    json.loads(out)


def test_readme_library_snippet_runs():
    from fractions import Fraction

    scope = {}
    exec(_readme_block("Library", "python"), scope)
    assert scope["report"].N == 6
    assert (scope["x3"], scope["y3"]) == (Fraction(-37, 3), Fraction(46, 3))
