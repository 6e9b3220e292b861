"""Regenerate bench/frozen_telescopers.json from the engine.

The verify-text workload re-checks these telescoper/certificate pairs.
They were computed once by ``algint.cli.run_record`` and are checked
independently of the engine by ``bench/test_frozen_certificates.py``
(sympy).  Run from the repository root:

    python3 bench/freeze.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from algint.cli import run_record  # noqa: E402
from workloads import FROZEN, legendre  # noqa: E402

SOURCES = (
    [(legendre(a), f, 2) for a in (1, -1, 2, -2, 3, -3) for f in ("1/y", "x/y")]
    + [
        (legendre(3), "1/y^3", 2),
        ("y^2 - x*(x - 1)*(x - t)*(x + t)", "1/y", 2),
        ("y^3 - x^2 - t", "1/y", 1),
        ("y^2 - x - t", "y", 0),
        ("y - 1", "1/(x - t)", 1),
    ]
)


def main():
    pairs = []
    for curve, integrand, order in SOURCES:
        out = run_record(
            {"mode": "telescope", "curve": curve, "integrand": integrand,
             "expect": {"order": order}}
        )
        if out["status"] != "ok":
            raise SystemExit(f"{curve} / {integrand}: {out['error']}")
        pairs.append({
            "curve": curve,
            "integrand": integrand,
            "order": order,
            "coefficients": out["result"]["coefficients"],
            "certificate": out["result"]["certificate"],
        })
        print(f"{curve}  {integrand}  order {order}", flush=True)
    doc = {
        "about": "telescoper/certificate pairs L(f) = dx(certificate), "
                 "coefficients constant term first; regenerate with "
                 "python3 bench/freeze.py",
        "pairs": pairs,
    }
    FROZEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
