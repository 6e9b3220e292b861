"""Expression grammar, round-trip printing, and the command-line surface."""
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from algint.algfield import AlgElem
from algint.cli import SCHEMA_CORPUS, SCHEMA_RESULT, main, run_record
from algint.errors import (
    AlgintError,
    DomainError,
    ExprSyntaxError,
    SuitabilityFailure,
    UnknownVariable,
)
from algint.parsing import MAX_EXPONENT, build_curve, build_element, field_for, uses_t
from algint.polyred import AdditiveDecomp
from algint.rings import QQ, QT, POLY_X_QQ

from conftest import curve_elements, reference_curve, small_fractions

R = POLY_X_QQ
ROOT = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# grammar

def test_precedence_and_associativity(parabola):
    assert build_element("1 + 2*3", parabola) == build_element("7", parabola)
    assert build_element("2*x^2", parabola) == build_element("2*(x^2)", parabola)
    assert build_element("1 - 2 - 3", parabola) == build_element("-4", parabola)
    assert build_element("8/2/2", parabola) == build_element("2", parabola)
    assert build_element("-x^2", parabola) == build_element("-(x^2)", parabola)


def test_negative_exponents(parabola):
    assert build_element("x^-2", parabola) == build_element("1/x^2", parabola)


def test_y_free_integrands_are_field_elements(parabola, legendre):
    xf = parabola.xfrac
    for text, value in (("1", xf.one), ("x^-2", xf.of(R.one, R.gen**2))):
        f = build_element(text, parabola)
        assert isinstance(f, AlgElem)
        assert f == parabola.from_x(value)
    f = build_element("t/(x-1)", legendre)
    xr = legendre.xring
    assert isinstance(f, AlgElem)
    assert f == legendre.from_x(legendre.xfrac.of(xr.from_coeff(QT.gen), xr.gen - 1))


def test_unary_minus(parabola):
    assert build_element("-y + y", parabola) == parabola.zero()
    assert build_element("- - 3", parabola) == build_element("3", parabola)


def test_syntax_error_positions():
    cases = [
        ("y/(x^", 4),        # '^' missing its exponent
        ("x + ", 2),         # '+' missing its right operand
        ("(x", 2),           # unclosed parenthesis
        ("x * * y", 2),      # first '*' is the one missing an operand
        ("x + @", 4),        # bad character
    ]
    curve = build_curve("y^2 - x", QQ)
    for text, offset in cases:
        with pytest.raises(ExprSyntaxError) as err:
            build_element(text, curve)
        assert err.value.position == offset, text
        assert f"offset {offset}" in str(err.value)


@pytest.mark.parametrize(
    "integrand, offset", [("x\u00b2*y", 1), ("\u0663*y", 0)],
    ids=["superscript-two", "arabic-indic-three"],
)
def test_integer_literals_are_ascii_digits(parabola, capsys, integrand, offset):
    with pytest.raises(ExprSyntaxError) as err:
        build_element(integrand, parabola)
    assert err.value.position == offset
    assert f"unexpected character {integrand[offset]!r}" in str(err.value)
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", integrand])
    assert rc == 2
    assert f"offset {offset}" in capsys.readouterr().err


def test_unknown_variable_reports_name_and_position(parabola):
    with pytest.raises(UnknownVariable) as err:
        build_element("x + z*y", parabola)
    assert err.value.name == "z"
    assert err.value.position == 4


def test_t_rejected_over_plain_rationals(parabola):
    with pytest.raises(UnknownVariable):
        build_element("t*y", parabola)


def test_field_for_detects_parameter():
    assert field_for(["y^2 - x"]) is QQ
    assert field_for(["y^2 - x - t"]) is QT
    assert field_for(["y^2 - x"], force_t=True) is QT
    assert uses_t("x - t")
    assert not uses_t("x - torsion")  # names are maximal letter runs


def test_curve_must_involve_y():
    with pytest.raises(DomainError):
        build_curve("x^2 - 1", QQ)
    with pytest.raises(DomainError):
        build_curve("1/y", QQ)  # y inside a denominator is rejected
    # y over an x-denominator is fine: clearing gives the line y = x
    assert build_curve("y/x - 1", QQ).m == build_curve("y - x", QQ).m


# curve text -> (exit code, stderr) of `integrate --integrand y`; y has no
# inverse in K(x)[y], so a divisor with y is refused even where it divides
@pytest.mark.parametrize(
    "curve, code, err",
    [
        ("x/y", 3, "DomainError: curve must be polynomial in y"),
        ("y^2 - x*(y+1)^-1", 3, "DomainError: curve must be polynomial in y"),
        ("(y^2-x^2)/(y-x)", 3, "DomainError: curve must be polynomial in y"),
        ("y^2 - x/(y-y+2)", 3, "DomainError: curve must be polynomial in y"),
        ("y^2 - x/(y-y)", 3, "DomainError: division by zero"),
        ("y^2 - (x-x)^-1", 3, "DomainError: division by zero"),
        ("y/x - 1", 0, ""),
        ("x^2", 3, "DomainError: curve must involve y"),
        ("y - y + x", 3, "DomainError: curve must involve y"),
    ],
)
def test_curve_divisor_rule(capsys, curve, code, err):
    assert main(["integrate", "--curve", curve, "--integrand", "y"]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ([err] if err else [])
    if code == 0:
        assert "antiderivative = 1/2*x^2" in captured.out


def _curve_outcome(build, text, field):
    try:
        curve = build(text, field)
    except AlgintError as exc:
        return type(exc).__name__, str(exc)
    return curve.m, curve.lead


# y-free factors that curve texts divide by and raise to negative powers
_X_FACTORS = {
    QQ: ["x", "(x - 1)", "(x + 2)", "(2*x^2 + 3)"],
    QT: ["x", "t", "(x - t)", "(t*x + 1)", "(x^2 - t)"],
}


@st.composite
def curve_texts(draw, field):
    factors = st.sampled_from(_X_FACTORS[field])
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        parts = [str(draw(st.integers(-5, 5))), f"y^{draw(st.integers(0, 3))}"]
        for _ in range(draw(st.integers(0, 2))):
            parts.append(f"{draw(factors)}^{draw(st.integers(-2, 3))}")
        if draw(st.booleans()):
            parts.append(f"(y - {draw(factors)})^{draw(st.integers(1, 2))}")
        term = "*".join(parts)
        if draw(st.booleans()):
            term += f"/{draw(factors)}"
        terms.append(term)
    text = " + ".join(terms)
    if draw(st.booleans()):
        text = f"({text})/{draw(factors)}^{draw(st.integers(1, 2))}"
    return text


@settings(max_examples=60)
@given(st.data())
def test_curve_matches_the_fraction_field_oracle(data):
    field = data.draw(st.sampled_from([QQ, QT]))
    text = data.draw(curve_texts(field))
    assert _curve_outcome(build_curve, text, field) == _curve_outcome(
        reference_curve, text, field
    )


def _record_curves():
    pairs = set()
    for path in (ROOT / "data" / "desk_corpus.jsonl", ROOT / "tests" / "data" / "seeded_curves.jsonl"):
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                rec = json.loads(line)
                field = field_for(
                    [rec["curve"], rec["integrand"]],
                    force_t=rec.get("mode") == "telescope",
                )
                pairs.add((rec["curve"], field))
    return sorted(pairs, key=lambda pair: (pair[0], repr(pair[1])))


@pytest.mark.parametrize("curve, field", _record_curves(), ids=str)
def test_record_curve_matches_the_fraction_field_oracle(curve, field):
    assert _curve_outcome(build_curve, curve, field) == _curve_outcome(
        reference_curve, curve, field
    )


def test_curve_denominators_cleared():
    curve = build_curve("y^2/2 - x/3", QQ)
    # same curve as 3*y^2 - 2*x after clearing; monic internal model
    other = build_curve("3*y^2 - 2*x", QQ)
    assert curve.m == other.m


@settings(max_examples=20)
@given(st.data())
def test_print_parse_roundtrip(parabola, data):
    f = data.draw(
        curve_elements(parabola, max_degree=2, denom_pool=(R.poly([0, 1]),))
    )
    assert build_element(str(f), parabola) == f


@settings(max_examples=15)
@given(st.data())
def test_print_parse_roundtrip_with_parameter(legendre, data):
    coeffs = data.draw(
        st.lists(small_fractions, min_size=2, max_size=2)
    )
    f = legendre.from_coords(
        [legendre.xfrac.coerce(c) for c in coeffs]
    ) * legendre.gen() + build_element("t/x", legendre)
    assert build_element(str(f), legendre) == f


def _powered(pair):
    base, exponent = pair
    return f"({base})^{exponent}"


_EXPONENTS = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["2^2", "-1^2", "100", "101", "2^7"])
)
_ATOMS = st.one_of(
    st.sampled_from(["x", "y", "t", "0", "1", "2", "(x - x)", "(t - t)", "x^100", "x^101"]),
    st.integers(0, 10**6).map(str),
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, _EXPONENTS).map(_powered),
    ),
    max_leaves=8,
)


@st.composite
def _grammar_texts(draw):
    """A text of the parsing grammar, now and then cut short."""
    text = draw(st.one_of(_EXPRESSIONS, _EXPRESSIONS.map(lambda e: f"y^2 - ({e})")))
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=60)
@given(curve_text=_grammar_texts(), integrand=_grammar_texts())
def test_parsing_gives_a_value_or_an_algint_error(curve_text, integrand):
    # no input text may reach the user as a traceback
    try:
        curve = build_curve(curve_text, field_for([curve_text, integrand]))
        assert isinstance(build_element(integrand, curve), AlgElem)
    except AlgintError:
        pass


# ---------------------------------------------------------------------------
# CLI surface

def test_cli_integrate_text(capsys):
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", "y/x^3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "integrable: yes" in out
    assert "-2/3/x^2*y" in out


def test_cli_integrate_non_integrable_text(capsys):
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", "y/(x^2*(x+1))"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "integrable: no" in out


def test_cli_syntax_error_exit_code(capsys):
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", "y/(x^"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "offset 4" in err


def test_cli_domain_error_exit_code(capsys):
    rc = main(["integrate", "--curve", "x^2 - 1", "--integrand", "x"])
    assert rc == 3


@pytest.mark.parametrize(
    "integrand", ["1/(x-x)", "(x-x)^-1", "0^-1", "y/(x-x)", "t/(x-x)"]
)
def test_zero_divisor_is_an_inversion_of_zero(capsys, tmp_path, integrand):
    # y-free divisors are evaluated in K(x) but report as the field does
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", integrand])
    assert rc == 3
    assert "DomainError: inversion of zero" in capsys.readouterr().err.splitlines()
    path = tmp_path / "zero.jsonl"
    path.write_text(
        json.dumps({"name": "zero", "curve": "y^2 - x", "integrand": integrand})
        + "\n"
    )
    assert main(["corpus", str(path), "--format", "structured"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["status"] == "error"
    assert entry["error"] == "DomainError: inversion of zero"


@pytest.mark.parametrize("curve", ["y^2 - 1/(x-x)", "y^2 - (x-x)^-1", "y^2 - x/(y-y)"])
def test_zero_divisor_in_a_curve_is_a_division_by_zero(curve):
    with pytest.raises(DomainError, match="^division by zero$"):
        build_curve(curve, QQ)


def test_cli_max_order_exit_code(capsys):
    rc = main([
        "telescope", "--curve", "y^2 - x*(x - 1)*(x - t)",
        "--integrand", "1/y", "--max-order", "1",
    ])
    assert rc == 5


def test_cli_suitability_exit_code(monkeypatch, capsys):
    import algint.cli as cli_mod

    def boom(*args, **kwargs):
        raise SuitabilityFailure("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "_setup", boom)
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", "y"])
    assert rc == 4


def test_wrong_antiderivative_fails_its_check(monkeypatch, capsys):
    # the corpus runner runs the CLI's subcommand, and with it its check
    monkeypatch.setattr(AdditiveDecomp, "antiderivative", lambda dec: dec.g + dec.g)
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", "y/x^3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "decomposition check failed" in captured.err
    assert "antiderivative =" not in captured.out
    out = run_record({"name": "probe", "curve": "y^2 - x", "integrand": "y/x^3"})
    assert out == {
        "name": "probe", "mode": "integrate", "status": "error",
        "error": "AlgintError: decomposition check failed",
    }


@pytest.mark.parametrize("mode", ["integrate", "decompose"])
def test_wrong_remainder_of_a_non_integrable_record_fails_its_check(
    monkeypatch, capsys, mode
):
    # f is not integrable, so no antiderivative is printed: only
    # f == dx(g) + h catches the wrong h
    real = AdditiveDecomp.remainder_element
    monkeypatch.setattr(
        AdditiveDecomp, "remainder_element", lambda dec: real(dec) + real(dec)
    )
    curve, integrand = "y^2 - x", "y/(x^2*(x+1))"
    out = run_record(
        {"name": "probe", "mode": mode, "curve": curve, "integrand": integrand}
    )
    assert out == {
        "name": "probe", "mode": mode, "status": "error",
        "error": "AlgintError: decomposition check failed",
    }
    rc = main([mode, "--curve", curve, "--integrand", integrand])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "AlgintError: decomposition check failed\n"
    assert captured.out == ""


def test_negative_order_cap_is_a_domain_error(capsys):
    curve, integrand = "y^2 - x - t", "y"  # order 0 under any cap >= 0
    rc = main(["telescope", "--curve", curve, "--integrand", integrand,
               "--max-order", "-1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "DomainError: order cap must be >= 0, got -1\n"
    assert captured.out == ""
    out = run_record({"name": "probe", "mode": "telescope", "curve": curve,
                      "integrand": integrand, "max_order": -1})
    assert out == {
        "name": "probe", "mode": "telescope", "status": "error",
        "error": "DomainError: order cap must be >= 0, got -1",
    }


@pytest.mark.parametrize(
    "command, target, part, message, integrand",
    [
        ("decompose", "additive_decompose", "g", "decomposition check failed", "y/x^3"),
        # not integrable: only f == dx(g) + h catches the wrong g
        ("decompose", "additive_decompose", "g", "decomposition check failed",
         "y/(x^2*(x+1))"),
        ("integrate", "additive_decompose", "g", "decomposition check failed",
         "y/(x^2*(x+1))"),
        ("reduce", "lazy_hermite_reduce", "g_part", "reduction check failed", "y/x^3"),
    ],
)
def test_wrong_derivative_part_fails_its_check(
    monkeypatch, capsys, command, target, part, message, integrand
):
    import algint.cli as cli_mod

    real = getattr(cli_mod, target)

    def doubled(*args):
        out = real(*args)
        g = getattr(out, part)
        return dataclasses.replace(out, **{part: g + g})

    monkeypatch.setattr(cli_mod, target, doubled)
    rc = main([command, "--curve", "y^2 - x", "--integrand", integrand])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert message in captured.err


def test_cli_reducible_quadratic_curve_exit_code(capsys):
    rc = main(["integrate", "--curve", "y^2 - x^2", "--integrand", "y/x"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "CurveReducible" in captured.err


@pytest.mark.parametrize("curve", ["y^4 - x^2", "y^3 - x^3", "y^6 - x^3", "y^4 + 4*x^4"])
def test_cli_reducible_binomial_curve_exit_code(capsys, curve):
    rc = main(["integrate", "--curve", curve, "--integrand", "y/x"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "CurveReducible" in captured.err


def test_cli_import_leaves_the_process_pool_out():
    code = "import sys, algint.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", str(ROOT / "data" / "desk_corpus.jsonl"), "--format", "structured"],
        ["integrate", "--curve", "y^2 - x", "--integrand", "y"],
    ],
    ids=["corpus", "integrate"],
)
def test_cli_output_closed_early_exits_1_without_a_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "algint.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    child.stdout.close()  # long before the child has imported algint
    err = child.stderr.read()
    assert child.wait() == 1
    assert err == ""


def test_cli_structured_output_is_deterministic(capsys):
    argv = [
        "telescope", "--curve", "y^2 - x*(x - 1)*(x - t)",
        "--integrand", "1/y", "--format", "structured",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == SCHEMA_RESULT
    assert set(doc) == {"input", "mode", "result", "schema"}
    assert doc["mode"] == "telescope"
    assert doc["result"]["order"] == 2
    assert doc["result"]["verified"] is True
    assert doc["result"]["coefficients"] == ["1", "8*t - 4", "4*t^2 - 4*t"]


def test_cli_verify_subcommand(capsys):
    rc = main([
        "verify", "--curve", "y^2 - x*(x - 1)*(x - t)", "--integrand", "1/y",
        "--telescoper", "1, 8*t - 4, 4*t^2 - 4*t",
        "--certificate", "(-2/(x^2 - 2*t*x + t^2))*y",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified: yes" in out


@pytest.mark.parametrize(
    "curve, integrand",
    [
        ("y^2 - x*(x - 1)*(x - t)", "1/y"),
        ("y^2 - x*(x - 1)*(x - t)", "1/y^3"),
        ("y^3 - x^2 - t", "1/y"),
        ("y^2 - x - t", "y"),
    ],
)
def test_printed_telescoper_verifies_and_a_shifted_one_does_not(capsys, curve, integrand):
    common = ["--curve", curve, "--integrand", integrand, "--format", "structured"]
    assert main(["telescope", *common]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    coeffs = result["coefficients"]
    # adding 1 to the D_t^0 coefficient adds f to L(f)
    shifted = [f"({coeffs[0]}) + 1", *coeffs[1:]]
    for telescoper, verified in ((coeffs, True), (shifted, False)):
        argv = [
            "verify", *common, "--telescoper", ", ".join(telescoper),
            "--certificate", result["certificate"],
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {"verified": verified}


def test_cli_verify_rejects_wrong_operator(capsys):
    rc = main([
        "verify", "--curve", "y^2 - x*(x - 1)*(x - t)", "--integrand", "1/y",
        "--telescoper", "1, 1, 1",
        "--certificate", "(-2/(x^2 - 2*t*x + t^2))*y",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified: no" in out


def test_cli_verify_refuses_the_zero_operator(capsys):
    rc = main([
        "verify", "--curve", "y^2 - x - t", "--integrand", "y",
        "--telescoper", "0", "--certificate", "0",
    ])
    assert rc == 0
    assert "verified: no" in capsys.readouterr().out


@pytest.mark.parametrize(
    "telescoper, message",
    [
        ("1, 2*x", "unknown variable 'x' (at offset 5)"),
        ("t,t+", "operator '+' is missing its operand (at offset 3)"),
        ("1,,2", "expected a value (at offset 2)"),
        (" t ,  @", "unexpected character '@' (at offset 6)"),
    ],
)
def test_cli_verify_syntax_error_offsets_count_in_the_whole_telescoper(
    capsys, telescoper, message
):
    rc = main([
        "verify", "--curve", "y^2 - x*(x - 1)*(x - t)", "--integrand", "1/y",
        "--telescoper", telescoper, "--certificate", "0",
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"syntax error: {message}"]


def test_cli_decompose_text_and_structured(capsys):
    argv = ["decompose", "--curve", "y^2 - x", "--integrand", "y/(x^2*(x+1))"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:7] == [
        "g = ((-2*x - 2)/x)*y",
        "integrable: no",
        "pole part: d = x + 1, coeffs = ['0', '1']",
        "infinity part: a = x, coeffs = ['0', '0']",
        "u = 1",
        "basis: ['1', 'y']",
        "infinity basis: ['1', '1/x*y']",
    ]
    assert lines[7].startswith("elapsed: ")
    assert main(argv + ["--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "decompose"
    assert doc["result"] == {
        "g": "((-2*x - 2)/x)*y",
        "integrable": False,
        "pole_part": {"d": "x + 1", "coeffs": ["0", "1"]},
        "infinity_part": {"a": "x", "coeffs": ["0", "0"]},
        "u": "1",
        "basis": ["1", "y"],
        "infinity_basis": ["1", "1/x*y"],
    }


def test_cli_telescope_text(capsys):
    rc = main(["telescope", "--curve", "y^2 - x*(x - 1)*(x - t)", "--integrand", "1/y"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[:4] == [
        "order: 2",
        "L = (4*t^2 - 4*t)*Dt^2 + (8*t - 4)*Dt + 1",
        "certificate = (-2/(x^2 - 2*t*x + t^2))*y",
        "verified: yes",
    ]


def test_cli_quartic_update_integrates(capsys):
    # the inconsistent step of y/x^2 needs the row kernel's update
    rc = main([
        "integrate", "--curve", "y^4 + x^2*y^3 + x^2*y - x^3", "--integrand", "y/x^2",
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "integrable: no" in captured.out


def test_cli_reduce_text(capsys):
    rc = main(["reduce", "--curve", "y^2 - x", "--integrand", "y/(x^2*(x+1))"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "remainder" in out


# ---------------------------------------------------------------------------
# corpus runner

def test_run_record_verifies_antiderivative():
    rec = {
        "name": "inline", "mode": "integrate",
        "curve": "y^2 - x", "integrand": "y/x^3",
        "expect": {"integrable": True},
    }
    out = run_record(rec)
    assert out["status"] == "ok"


def test_run_record_flags_expectation_mismatch():
    rec = {
        "name": "wrong", "mode": "integrate",
        "curve": "y^2 - x", "integrand": "y/x^3",
        "expect": {"integrable": False},
    }
    out = run_record(rec)
    assert out["status"] == "mismatch"
    assert out["error"] == "expected integrable=False, got True"
    rec = {
        "name": "wrong", "mode": "telescope",
        "curve": "y^2 - x - t", "integrand": "y",
        "expect": {"order": 1},
    }
    out = run_record(rec)
    assert out["status"] == "mismatch"
    assert out["error"] == "expected order=1, got 0"


def test_run_record_captures_errors():
    rec = {
        "name": "broken", "mode": "integrate",
        "curve": "x^2 - 1", "integrand": "x",
    }
    out = run_record(rec)
    assert out["status"] == "error"
    assert out["error"]


@pytest.mark.parametrize(
    "record, message",
    [
        ({"name": "no-curve", "integrand": "1/y"}, "'curve' is missing"),
        (
            {"name": "bad-order", "mode": "telescope", "curve": "y^2 - x - t",
             "integrand": "1/y", "max_order": "abc"},
            "'max_order' must be int",
        ),
        (
            {"name": "deep", "curve": "y^2 - x",
             "integrand": "(" * 3000 + "x" + ")" * 3000},
            "nests deeper than",
        ),
        # refused before the record is parsed
        ({"name": "reduce", "mode": "reduce", "curve": "y^2 - x", "integrand": "(("},
         "unknown mode 'reduce'"),
        ({"name": "verify", "mode": "verify", "curve": "y^2 - x", "integrand": "(("},
         "unknown mode 'verify'"),
    ],
    ids=["missing-curve", "max-order-not-int", "deep-nesting", "reduce-mode", "verify-mode"],
)
def test_run_record_contains_bad_records(record, message):
    out = run_record(record)
    assert out["status"] == "error"
    assert message in out["error"]
    assert out["name"] == record["name"]


def test_parser_depth_bound_is_a_syntax_error(parabola, capsys):
    assert build_element("-" * 50 + "(" * 50 + "x" + ")" * 50, parabola)
    with pytest.raises(ExprSyntaxError):
        build_element("-" * 3000 + "x", parabola)
    rc = main(["integrate", "--curve", "y^2 - x",
               "--integrand", "(" * 3000 + "x" + ")" * 3000])
    assert rc == 2
    assert "nests deeper" in capsys.readouterr().err


@pytest.mark.parametrize(
    "integrand, offset, message",
    [
        ("1" * 5000 + "*y", 0, "integer literal of 5000 digits"),
        ("x^100000000", 2, "exponent exceeds"),
    ],
    ids=["long-literal", "huge-exponent"],
)
def test_numeric_bounds_are_syntax_errors(parabola, capsys, integrand, offset, message):
    with pytest.raises(ExprSyntaxError) as err:
        build_element(integrand, parabola)
    assert err.value.position == offset
    assert message in str(err.value)
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", integrand])
    assert rc == 2
    assert message in capsys.readouterr().err
    out = run_record({"name": "probe", "curve": "y^2 - x", "integrand": integrand})
    assert out["status"] == "error"
    assert out["error"].startswith("ExprSyntaxError: ")


def test_exponent_bound_admits_the_bound_itself(parabola):
    assert build_element(f"x^{MAX_EXPONENT}", parabola) == parabola.from_x(
        parabola.xfrac.gen ** MAX_EXPONENT
    )
    assert build_element(f"x^-{MAX_EXPONENT}", parabola) * build_element(
        f"x^{MAX_EXPONENT}", parabola
    ) == parabola.one()


def test_chained_powers_associate_rightward(parabola):
    assert build_element("x^2^3", parabola) == build_element("x^8", parabola)
    assert build_element("x^2^2^2", parabola) == build_element("x^16", parabola)
    # '^' binds tighter than the minus of an exponent: x^-(2^2)
    assert build_element("x^-2^2", parabola) == build_element("1/x^4", parabola)
    assert build_element("x^10^2", parabola) == build_element(f"x^{MAX_EXPONENT}", parabola)


def test_powers_through_parentheses_admit_the_bound_itself(parabola):
    x100 = build_element(f"x^{MAX_EXPONENT}", parabola)
    assert build_element("(x^2)^50", parabola) == x100
    assert build_element("(x^2)^-50", parabola) * x100 == parabola.one()
    # a sibling factor keeps its own power; a product is not a power
    assert build_element("(x^50 * -x)^2", parabola) == x100 * build_element("x^2", parabola)
    assert build_element("x^100*x^100", parabola) == x100 * x100


@pytest.mark.parametrize(
    "integrand, offset, message",
    [
        ("x^100^100", 2, "exponent exceeds 100"),
        ("x^2^7", 2, "exponent exceeds 100"),
        ("x^2^-1", 2, "'^' requires an integer exponent"),
        ("(x^10)^11", 7, "exponent exceeds 100"),
        ("(x^2)^51", 6, "exponent exceeds 100"),
        ("(x^100)^100", 8, "exponent exceeds 100"),
        ("((x^10)^10)^10*y", 12, "exponent exceeds 100"),
    ],
    ids=["tower", "just-over", "fractional", "group", "group-just-over",
         "group-tower", "nested-groups"],
)
def test_chained_power_bounds_are_syntax_errors(parabola, capsys, integrand, offset, message):
    # the chain, and the power of each name through its groups, are bounded
    # as they are evaluated, so x^100^100 and (x^100)^100 fail at once
    # instead of building x^10000
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        build_element(integrand, parabola)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == offset
    assert message in str(err.value)
    rc = main(["integrate", "--curve", "y^2 - x", "--integrand", integrand])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_corpus_line_that_is_not_json_is_an_error_record(capsys, tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        json.dumps({"name": "good", "curve": "y^2 - x", "integrand": "y/x^3"})
        + "\n{not json\n"
    )
    for jobs in ("1", "2"):
        argv = ["corpus", str(path), "--format", "structured", "--jobs", jobs]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        good, bad = doc["entries"]
        assert good["status"] == "ok"
        assert set(bad) == set(run_record([]))
        assert bad["status"] == "error"
        assert bad["error"].startswith("JSONDecodeError: corpus line 2: ")
        assert doc["summary"] == {"total": 2, "ok": 1, "mismatch": 0, "error": 1}


@pytest.mark.parametrize(
    "kind, error",
    [("missing", "FileNotFoundError"), ("directory", "IsADirectoryError"),
     ("not-utf8", "UnicodeDecodeError")],
)
def test_unreadable_corpus_exits_3_with_one_line(capsys, tmp_path, kind, error):
    path = tmp_path / "corpus.jsonl"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe" + json.dumps({"curve": "y^2 - x"}).encode())
    assert main(["corpus", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{error}: ")
    assert captured.err.count("\n") == 1


def test_corpus_continues_past_bad_records(capsys, tmp_path):
    lines = [
        json.dumps({"name": "no-curve", "integrand": "1/y"}),
        json.dumps({"name": "good", "curve": "y^2 - x", "integrand": "y/x^3"}),
        json.dumps({"name": "deep", "curve": "y^2 - x",
                    "integrand": "(" * 3000 + "x" + ")" * 3000}),
    ]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["corpus", str(path), "--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [e["status"] for e in doc["entries"]] == ["error", "ok", "error"]
    assert doc["summary"] == {"total": 3, "ok": 1, "mismatch": 0, "error": 2}



@pytest.mark.parametrize("jobs", ["1", "2"])
def test_desk_corpus_structured_matches_golden_file(capsys, jobs):
    golden = (ROOT / "tests" / "data" / "desk_corpus.structured.json").read_text()
    corpus = str(ROOT / "data" / "desk_corpus.jsonl")
    assert main(["corpus", corpus, "--format", "structured", "--jobs", jobs]) == 0
    assert capsys.readouterr().out == golden


def test_corpus_cli_on_bundled_file(capsys):
    rc = main(["corpus", "data/desk_corpus.jsonl"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "12/12 ok" in out


def test_corpus_cli_parallel_structured_deterministic(capsys, tmp_path):
    lines = [
        json.dumps({"name": "a", "mode": "integrate", "curve": "y^2 - x",
                    "integrand": "y/x^3", "expect": {"integrable": True}}),
        "# comment line",
        json.dumps({"name": "b", "mode": "integrate", "curve": "y^2 - x",
                    "integrand": "y/(x^2*(x+1))", "expect": {"integrable": False}}),
    ]
    path = tmp_path / "mini.jsonl"
    path.write_text("\n".join(lines) + "\n")
    argv1 = ["corpus", str(path), "--format", "structured"]
    argv2 = ["corpus", str(path), "--format", "structured", "--jobs", "2"]
    assert main(argv1) == 0
    first = capsys.readouterr().out
    assert main(argv2) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == SCHEMA_CORPUS
    assert [e["name"] for e in doc["entries"]] == ["a", "b"]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    process, starts nothing."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize(
    "records, jobs, workers",
    [(2, "500", [2]), (3, "2", [2]), (1, "4", []), (0, "2", [])],
    ids=["capped-at-records", "below-records", "one-record-serial", "empty-serial"],
)
def test_corpus_jobs_bounded_by_records(monkeypatch, capsys, tmp_path, records, jobs, workers):
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    path = tmp_path / "few.jsonl"
    record = {"curve": "y^2 - x", "integrand": "y/x^3"}
    path.write_text("".join(json.dumps(record) + "\n" for _ in range(records)))
    assert main(["corpus", str(path), "--jobs", jobs]) == 0
    assert _SerialPool.made == workers
    assert f"{records}/{records} ok" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_corpus_refuses_a_job_count_below_one(monkeypatch, capsys, jobs):
    # refused by argparse: exit 2 with a usage line, before any record runs
    import concurrent.futures

    import algint.cli as cli_mod

    monkeypatch.setattr(_SerialPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_mod, "_run_line", None)
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(ROOT / "data" / "desk_corpus.jsonl"), "--jobs", jobs])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert _SerialPool.made == []
    assert captured.out == ""
    assert captured.err.startswith("usage: algint corpus")
    assert f"argument --jobs: must be at least 1, got {jobs}" in captured.err
    assert "Traceback" not in captured.err


def test_corpus_exit_nonzero_on_mismatch(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({
        "name": "bad", "mode": "integrate", "curve": "y^2 - x",
        "integrand": "y/x^3", "expect": {"integrable": False},
    }) + "\n")
    rc = main(["corpus", str(path)])
    assert rc != 0
