"""Command line interface.

Subcommands: reduce (Hermite stage only), decompose (full additive
decomposition), integrate (antiderivative or certified failure), telescope,
verify (recheck a telescoper/certificate pair), corpus (run a JSONL problem
file, optionally in parallel).

Exit codes: 0 success, 2 expression syntax errors, 3 domain and
precondition violations, 4 certified-enlargement failures (no suitable basis
or no certified update), 5 telescoping order cap exceeded.

Structured output is JSON with sorted keys and no timing data, so repeated
runs are byte-identical; text output is free to include timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (
    AlgintError,
    ExprSyntaxError,
    MaxOrderExceeded,
    SuitabilityFailure,
    UpdateCandidatesExhausted,
)
from .hermite import lazy_hermite_reduce
from .parsing import build_curve, build_element, field_for, parse_expression
from .polyred import additive_decompose, on_kept_curve
from .rings import QT, T_POLY
from .telescoper import telescope, verify_telescoper

SCHEMA_RESULT = "algint.result/2"
SCHEMA_CORPUS = "algint.corpus/2"


def _field_name(field):
    return "QQ(t)" if field == QT else "QQ"


def _setup(args, force_t=False):
    field = field_for([args.curve, args.integrand], force_t=force_t)
    curve = build_curve(args.curve, field)
    f = build_element(args.integrand, curve)
    return field, curve, f


def _cmd_reduce(args):
    field, curve, f = _setup(args)
    decomposer, f = on_kept_curve(f)
    res = lazy_hermite_reduce(f, decomposer.initial_basis, decomposer.step_system)
    rem = res.remainder
    if f != res.g_part.dx() + rem.element():
        raise AlgintError("reduction check failed")
    return field, {
        "g": str(res.g_part),
        "remainder": {
            "d": str(rem.d),
            "e": str(rem.basis.e),
            "coeffs": [str(c) for c in rem.nums],
        },
        "basis": [str(w) for w in res.basis.elements],
        "adjoined": [str(w) for w in res.adjoined],
    }


def _check_decomposition(f, g, h):
    """Raise unless f == dx(g) + h for the g and h about to be printed."""
    if f != g.dx() + h:
        raise AlgintError("decomposition check failed")


def _cmd_decompose(args):
    field, curve, f = _setup(args)
    dec = additive_decompose(f)
    _check_decomposition(f, dec.g, dec.remainder_element())
    return field, {
        "g": str(dec.g),
        "integrable": dec.integrable,
        "pole_part": {"d": str(dec.d), "coeffs": [str(c) for c in dec.p_nums]},
        "infinity_part": {
            "a": str(dec.a),
            "coeffs": [str(c) for c in dec.q_nums],
        },
        "u": str(dec.u),
        "basis": [str(w) for w in dec.basis.elements],
        "infinity_basis": [str(v) for v in dec.inf_basis.elements],
    }


def _cmd_integrate(args):
    field, curve, f = _setup(args)
    dec = additive_decompose(f)
    anti = dec.antiderivative()
    rem = dec.remainder_element()
    _check_decomposition(f, dec.g if anti is None else anti, rem)
    return field, {
        "integrable": dec.integrable,
        "antiderivative": None if anti is None else str(anti),
        "remainder": None if dec.integrable else str(rem),
    }


def _cmd_telescope(args):
    field, curve, f = _setup(args, force_t=True)
    tele = telescope(f, max_order=args.max_order)
    return field, {
        "order": tele.order,
        "coefficients": [str(c) for c in tele.coeffs],
        "certificate": str(tele.certificate),
        "ranks": list(tele.ranks),
        "verified": True,
    }


def _parse_coeffs(text):
    """The comma-separated coefficients of --telescoper; the offset of a
    syntax error counts in the whole argument."""
    names = {"t": QT.of(T_POLY.gen)}
    coeffs, start = [], 0
    for piece in text.split(","):
        try:
            coeffs.append(parse_expression(piece, names, QT.from_int))
        except ExprSyntaxError as exc:
            exc.position += start
            raise
        start += len(piece) + 1
    return tuple(coeffs)


def _cmd_verify(args):
    field, curve, f = _setup(args, force_t=True)
    coeffs = _parse_coeffs(args.telescoper)
    cert = build_element(args.certificate, curve)
    ok = verify_telescoper(f, coeffs, cert)
    return field, {"verified": ok}


def _operator_text(coeffs):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = str(coeffs[i])
        if c == "0":
            continue
        if i == 0:
            terms.append(c if _is_atom(c) else f"({c})")
        else:
            base = "Dt" if i == 1 else f"Dt^{i}"
            terms.append(base if c == "1" else f"({c})*{base}")
    return " + ".join(terms) if terms else "0"


def _is_atom(s):
    return all(ch not in s for ch in "+- ")


def _print_text(mode, payload, elapsed):
    if mode == "reduce":
        print(f"g = {payload['g']}")
        rem = payload["remainder"]
        print(f"remainder coeffs (over basis, denominator d*e): {rem['coeffs']}")
        print(f"d = {rem['d']}")
        print(f"e = {rem['e']}")
        print(f"basis: {payload['basis']}")
        if payload["adjoined"]:
            print(f"adjoined integral elements: {payload['adjoined']}")
    elif mode == "decompose":
        print(f"g = {payload['g']}")
        print(f"integrable: {'yes' if payload['integrable'] else 'no'}")
        print(f"pole part: d = {payload['pole_part']['d']}, coeffs = {payload['pole_part']['coeffs']}")
        print(f"infinity part: a = {payload['infinity_part']['a']}, coeffs = {payload['infinity_part']['coeffs']}")
        print(f"u = {payload['u']}")
        print(f"basis: {payload['basis']}")
        print(f"infinity basis: {payload['infinity_basis']}")
    elif mode == "integrate":
        if payload["integrable"]:
            print("integrable: yes")
            print(f"antiderivative = {payload['antiderivative']}")
        else:
            print("integrable: no")
            print(f"minimal remainder = {payload['remainder']}")
    elif mode == "telescope":
        print(f"order: {payload['order']}")
        print(f"L = {_operator_text(payload['coefficients'])}")
        print(f"certificate = {payload['certificate']}")
        print("verified: yes")
    elif mode == "verify":
        print(f"verified: {'yes' if payload['verified'] else 'no'}")
    print(f"elapsed: {elapsed:.3f}s")


def _emit(args, field, payload, elapsed):
    if args.format == "structured":
        doc = {
            "schema": SCHEMA_RESULT,
            "mode": args.command,
            "input": {
                "curve": args.curve,
                "integrand": args.integrand,
                "field": _field_name(field),
            },
            "result": payload,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        _print_text(args.command, payload, elapsed)


# -- corpus running


# field -> (type, required) of a corpus record
_RECORD_FIELDS = {
    "name": (str, False),
    "mode": (str, False),
    "curve": (str, True),
    "integrand": (str, True),
    "max_order": (int, False),
    "expect": (dict, False),
}


def _record_problem(record):
    """What makes a corpus record unusable, or None."""
    if not isinstance(record, dict):
        return f"a record must be a JSON object, got {type(record).__name__}"
    for key, (kind, required) in _RECORD_FIELDS.items():
        if key not in record:
            if required:
                return f"record field {key!r} is missing"
            continue
        value = record[key]
        # JSON true/false load as bool, which is a subclass of int
        if not isinstance(value, kind) or isinstance(value, bool):
            return (
                f"record field {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    return None


# corpus mode -> (subcommand run, its payload fields kept, field `expect`
# checks); a record holds no telescoper or certificate, so it cannot ask
# for `reduce` or `verify`
_CORPUS_MODES = {
    "integrate": ("integrate", ("integrable", "antiderivative"), "integrable"),
    "decompose": ("integrate", ("integrable", "antiderivative"), "integrable"),
    "telescope": (
        "telescope", ("order", "coefficients", "certificate", "verified"), "order"
    ),
}


def run_record(record):
    """Run one corpus record through its subcommand; never raises, reports
    errors in the result."""
    fields = record if isinstance(record, dict) else {}
    mode = str(fields.get("mode", "integrate"))
    out = {
        "name": str(fields.get("name", "<unnamed>")),
        "mode": mode,
        "status": "error",
        "error": None,
    }
    problem = _record_problem(record)
    if problem is not None:
        out["error"] = f"DomainError: {problem}"
        return out
    if mode not in _CORPUS_MODES:
        out["error"] = f"unknown mode {mode!r}"
        return out
    command, kept, key = _CORPUS_MODES[mode]
    args = argparse.Namespace(
        curve=record["curve"],
        integrand=record["integrand"],
        max_order=record.get("max_order", 20),
    )
    try:
        _, payload = _DISPATCH[command](args)
    except AlgintError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out["status"] = "ok"
    out["result"] = {k: payload[k] for k in kept}
    expected = record.get("expect", {})
    if key in expected and expected[key] != payload[key]:
        out["status"] = "mismatch"
        out["error"] = f"expected {key}={expected[key]!r}, got {payload[key]!r}"
    return out


def _run_line(numbered):
    """run_record on one (1-based line number, text) corpus line; a line
    that is not valid JSON gives the error record of a record that is not
    an object, naming the line."""
    number, line = numbered
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        out = run_record(None)
        out["error"] = f"{type(exc).__name__}: corpus line {number}: {exc}"
        return out
    return run_record(record)


def _cmd_corpus(args):
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            lines = [
                (number, line)
                for number, line in enumerate(fh, 1)
                if line.strip() and not line.startswith("#")
            ]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    # at most one worker per record: under fork, a pool starts every
    # worker at its first submit
    jobs = min(args.jobs, len(lines))
    if jobs > 1:
        # imported here: the process pool costs every other run start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_line, lines))
    else:
        results = [_run_line(line) for line in lines]
    ok = sum(1 for r in results if r["status"] == "ok")
    summary = {
        "total": len(results),
        "ok": ok,
        "mismatch": sum(1 for r in results if r["status"] == "mismatch"),
        "error": sum(1 for r in results if r["status"] == "error"),
    }
    if args.format == "structured":
        doc = {
            "schema": SCHEMA_CORPUS,
            "entries": results,
            "summary": summary,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        width = max((len(r["name"]) for r in results), default=4)
        for r in results:
            line = f"{r['name']:<{width}}  {r['mode']:<10} {r['status']}"
            if r["error"]:
                line += f"  ({r['error']})"
            print(line)
        print(
            f"{summary['ok']}/{summary['total']} ok, "
            f"{summary['mismatch']} mismatched, {summary['error']} errored"
        )
    return 0 if ok == len(results) else 1


def _add_common(sub):
    sub.add_argument("--curve", required=True, help="defining polynomial in x, y (and t)")
    sub.add_argument("--integrand", required=True, help="expression in x, y (and t)")
    sub.add_argument(
        "--format", choices=["text", "structured"], default="text",
        help="structured output is deterministic JSON",
    )


def positive_int(text):
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algint",
        description="Exact integration and creative telescoping for algebraic functions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("reduce", "decompose", "integrate"):
        sp = subs.add_parser(name)
        _add_common(sp)
    sp = subs.add_parser("telescope")
    _add_common(sp)
    sp.add_argument("--max-order", type=int, default=20)
    sp = subs.add_parser("verify")
    _add_common(sp)
    sp.add_argument(
        "--telescoper", required=True,
        help="comma-separated coefficients in t, constant term first",
    )
    sp.add_argument("--certificate", required=True)
    sp = subs.add_parser("corpus")
    sp.add_argument("path")
    sp.add_argument("--jobs", type=positive_int, default=1)
    sp.add_argument(
        "--format", choices=["text", "structured"], default="text"
    )
    return parser


_DISPATCH = {
    "reduce": _cmd_reduce,
    "decompose": _cmd_decompose,
    "integrate": _cmd_integrate,
    "telescope": _cmd_telescope,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            code = _cmd_corpus(args)
        else:
            start = time.monotonic()
            field, payload = _DISPATCH[args.command](args)
            _emit(args, field, payload, time.monotonic() - start)
            code = 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the output early; stdout goes to devnull so
        # that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (SuitabilityFailure, UpdateCandidatesExhausted) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except MaxOrderExceeded as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except AlgintError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
