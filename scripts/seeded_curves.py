#!/usr/bin/env python3
"""Draw the seeded curve corpus of tests/test_seeded_curves.py.

Writes tests/data/seeded_curves.jsonl: four seeded irreducible curves for
each enlargement site of the engine, three corpus records per curve.

- finite:   y-degree 2 to 3, the scaled power basis has a non-squarefree
            e, so the initial suitable basis needs a finite repair
            (leading coefficient from 1, x, x^2, x - 1; coefficients of
            the powers of y of x-degree up to 2, in -3..3);
- infinity: random quartics whose start basis at infinity is not suitable
            (x-degree up to 1, coefficients -2..2);
- update:   y-degree 2 to 4, singular at the origin, and the reduction of
            y/x^2 makes a module update (x-degree up to 2, in -3..3).

The degrees are kept low for tier-1 time: with a finite repair at
y-degree 4, or with quartics of x-degree 2 at infinity, most curves take
3 to 10 s of CPU time for their three records.

Each curve is irreducible by sympy.factor_list, so tier-1 needs no sympy
to trust the list.  Its records integrate dx(g) for g = y/x (integrable),
dx(g) + 1/(x - 5) (not integrable: the trace of the planted pole has
residue n at x = 5, and traces of derivatives have none) and decompose
y/x^2.  Each record names the site that must run on it.  Draws whose
records take over CAP_S seconds of CPU time in all, on the machine that
draws them, are skipped, so that the module stays fast; the list is pinned
in the repository, so tier-1 does not depend on that machine.  Run from
the repository root, then refresh the frozen output:

    python scripts/seeded_curves.py
    PYTHONPATH=src python -m algint.cli corpus tests/data/seeded_curves.jsonl \\
        --format structured > tests/data/seeded_curves.structured.json
"""
import json
import pathlib
import random
import signal
import sys
import time

import sympy

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from algint import algfield, hermite, polyred  # noqa: E402
from algint.algfield import FieldBasis, power_basis  # noqa: E402
from algint.cli import run_record  # noqa: E402
from algint.errors import AlgintError  # noqa: E402
from algint.parsing import build_curve, build_element  # noqa: E402
from algint.rings import QQ  # noqa: E402

PER_SITE = 4
CAP_S = 2.0
SITES = {  # site: (seed, the function whose call marks it)
    "finite": (41, (algfield, "_repair_suitability")),
    "infinity": (42, (polyred, "_repair_at_infinity")),
    "update": (43, (hermite, "basis_update")),
}


def _poly(rng, bound, max_degree, low_degree=0):
    terms = [
        f"{c}*x^{k}"
        for k in range(low_degree, max_degree + 1)
        if (c := rng.randint(-bound, bound))
    ]
    return "(" + (" + ".join(terms) or "0") + ")"


def draw(rng, site):
    if site == "finite":
        n = rng.randint(2, 3)
        lead = rng.choice(["1", "x", "x^2", "(x - 1)"])
        parts = [f"{lead}*y^{n}"] + [f"{_poly(rng, 3, 2)}*y^{j}" for j in range(n)]
    elif site == "infinity":
        n = 4
        parts = ["y^4"] + [f"{_poly(rng, 2, 1)}*y^{j}" for j in range(n)]
    else:
        n = rng.randint(2, 4)
        parts = [f"y^{n}"] + [f"{_poly(rng, 3, 2, max(0, 2 - j))}*y^{j}" for j in range(n)]
    return str(sympy.expand(sympy.sympify(" + ".join(parts).replace("^", "**")))).replace(
        "**", "^"
    )


def qualifies(site, text):
    """A cheap test that the site runs, before any record does."""
    curve = build_curve(text, QQ)
    if site == "finite":
        return not power_basis(curve).e_squarefree
    if site == "infinity":
        start = FieldBasis(curve, polyred.start_at_infinity(curve))
        return not polyred._suitable_at_inf(start)
    f = build_element("y/x^2", curve)
    return bool(hermite.lazy_hermite_reduce(f, algfield.initial_suitable_basis(curve)).adjoined)


def irreducible(text):
    y = sympy.Symbol("y")
    _, factors = sympy.factor_list(sympy.sympify(text.replace("^", "**")))
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].has(y)


def records(site, index, text):
    curve = build_curve(text, QQ)
    g = build_element("y/x", curve)
    dg = str(g.dx())
    name = f"{site}-{index}"
    common = {"curve": text, "g": "y/x", "pole": 5}
    return [
        {"name": f"{name}-dx", "mode": "integrate", "integrand": dg,
         "expect": {"integrable": True}, **common},
        {"name": f"{name}-planted", "mode": "integrate",
         "integrand": f"{dg} + 1/(x - 5)", "expect": {"integrable": False}, **common},
        {"name": f"{name}-decompose", "mode": "decompose", "integrand": "y/x^2",
         **common},
    ]


def sites_run(record):
    """Which sites a run of the record reaches."""
    ran = set()
    saved = []
    for site, (_, (owner, attr)) in SITES.items():
        real = getattr(owner, attr)
        saved.append((owner, attr, real))

        def spy(*args, _site=site, _real=real):
            ran.add(_site)
            return _real(*args)

        setattr(owner, attr, spy)
    try:
        out = run_record(record)
    finally:
        for owner, attr, real in saved:
            setattr(owner, attr, real)
    return out, ran


def _stall(*_):
    raise TimeoutError


def main():
    signal.signal(signal.SIGALRM, _stall)
    lines = [
        "# Seeded irreducible curves that reach each enlargement site; drawn by",
        "# scripts/seeded_curves.py, frozen output in seeded_curves.structured.json.",
    ]
    for site, (seed, _) in SITES.items():
        rng = random.Random(seed)
        found = draws = slow = 0
        while found < PER_SITE:
            draws += 1
            text = draw(rng, site)
            signal.alarm(10)  # a draw that stalls counts as slow
            try:
                if not qualifies(site, text) or not irreducible(text):
                    continue
                recs = records(site, found + 1, text)
                start = time.process_time()
                runs = [sites_run(r) for r in recs]
                elapsed = time.process_time() - start
            except AlgintError:
                continue
            except TimeoutError:
                elapsed = CAP_S + 1
            finally:
                signal.alarm(0)
            if elapsed > CAP_S:
                slow += 1
                print(f"{site}: {elapsed:.1f} s: {text}", file=sys.stderr, flush=True)
                continue
            failed = [out for out, _ in runs if out["status"] != "ok"]
            if failed:
                print(f"{site}: {text}: {failed}", file=sys.stderr)
                continue
            # the update site must run on the y/x^2 record, the others on all
            must = runs[2:] if site == "update" else runs
            if not all(site in ran for _, ran in must):
                continue
            for rec, (_, ran) in zip(recs, runs):
                rec["site"] = site if site in ran else None
                lines.append(json.dumps(rec))
            found += 1
            print(f"{site}: {elapsed:.1f} s: {text}", file=sys.stderr, flush=True)
        print(f"{site}: {found} curves from {draws} draws, {slow} slow skipped",
              file=sys.stderr)
    (ROOT / "tests" / "data" / "seeded_curves.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
