"""Versioned table of published reference values for the two benchmark
problems, with per-value comparison tolerances.  Regression gating against
this table is a first-class CLI feature (`excite-iter compare`)."""

from __future__ import annotations

import json

REFERENCES_VERSION = 1

#: asymptotic-expansion comparison constants for the g = 8 double well;
#: stored, never recomputed
E_ASYMP_G8 = 7.728854       # tag eq_A_1
EPS_ASYMP_G8 = 0.003027     # tag eq_A_4

#: tags accepted by `excite-iter compare`
REFERENCES = {
    "eq_3_17": {
        "description": "DeltaBox delta=0.1, anchor 1, linear trial: "
                       "eps_1..eps_3",
        "case": "soluble",
        "values": {"eps_1": 0.59086, "eps_2": 0.31348, "eps_3": 0.30924},
        "tolerances": {"eps_1": 5e-5, "eps_2": 5e-5, "eps_3": 5e-5},
    },
    "eq_4_6": {
        "description": "quartic g=3, anchor 1.0, saturating trial: "
                       "eps_1..eps_4",
        "case": "quartic",
        "values": {"eps_1": 0.41776, "eps_2": 0.41367,
                   "eps_3": 0.413568, "eps_4": 0.413568},
        "tolerances": {"eps_1": 5e-6, "eps_2": 5e-6,
                       "eps_3": 5e-6, "eps_4": 5e-6},
    },
    "eq_4_8": {
        "description": "quartic g=3, anchor 0.5, saturating trial: "
                       "eps_1..eps_4",
        "case": "quartic",
        "values": {"eps_1": 0.41363, "eps_2": 0.41358,
                   "eps_3": 0.413569, "eps_4": 0.413568},
        "tolerances": {"eps_1": 5e-6, "eps_2": 5e-6,
                       "eps_3": 5e-6, "eps_4": 5e-6},
    },
    "eq_A_6": {
        "description": "quartic g=8, anchor 1.0: eps_1..eps_4",
        "case": "quartic",
        "values": {"eps_1": 0.00310125, "eps_2": 0.00301796,
                   "eps_3": 0.003017947, "eps_4": 0.003017947},
        "tolerances": {"eps_1": 5e-6, "eps_2": 5e-6,
                       "eps_3": 5e-8, "eps_4": 5e-8},
    },
    "eq_4_5": {
        "description": "quartic g=3 ground-state energy",
        "case": "quartic",
        "values": {"e_gd": 2.48291},
        "tolerances": {"e_gd": 2e-4},
    },
    "eq_A_5": {
        "description": "quartic g=8 ground-state energy",
        "case": "quartic",
        "values": {"e_gd": 7.727340},
        "tolerances": {"e_gd": 2e-4},
    },
}


def _summary_value(summary: dict, key: str, path) -> float | None:
    """The summary's value of a reference key (eps_n is the nth entry of
    eps_sequence), or None when it has none.  Raises ValueError, naming
    the file and the key, when that value is not a real number."""
    if key.startswith("eps_"):
        idx = int(key.split("_")[1]) - 1
        seq = summary.get("eps_sequence", [])
        if not isinstance(seq, list):
            raise ValueError(f"{path}: eps_sequence is not a list")
        value = seq[idx] if idx < len(seq) else None
    else:
        value = summary.get(key)
    if value is not None and type(value) not in (int, float):
        raise ValueError(f"{path}: {key} is not a number: {value!r}")
    return value


def compare_report(summary_path, reference_tag: str) -> tuple[str, bool]:
    """Compare a run summary against one reference table.

    Returns the textual report and an overall pass flag; a summary of
    another case than the table's, or of none, fails.  Raises ValueError
    when the summary is not a JSON object or a compared value in it is
    not a real number.
    """
    if reference_tag not in REFERENCES:
        raise KeyError(
            f"unknown reference tag {reference_tag!r}; known: "
            f"{', '.join(sorted(REFERENCES))}")
    with open(str(summary_path)) as f:
        summary = json.load(f)
    if not isinstance(summary, dict):
        raise ValueError(f"{summary_path}: not a JSON object")
    ref = REFERENCES[reference_tag]
    lines = [f"reference {reference_tag} (v{REFERENCES_VERSION}): "
             f"{ref['description']}"]
    all_ok = summary.get("case") == ref["case"]
    if not all_ok:
        lines.append(f"  case     actual={summary.get('case', 'MISSING')} "
                     f"expected={ref['case']} FAIL")
    for key, expected in ref["values"].items():
        tol = ref["tolerances"][key]
        actual = _summary_value(summary, key, summary_path)
        if actual is None:
            lines.append(f"  {key:8s} MISSING from summary")
            all_ok = False
            continue
        dev = abs(actual - expected)
        rel = dev / abs(expected) if expected else float("inf")
        ok = dev <= tol
        all_ok &= ok
        lines.append(
            f"  {key:8s} actual={actual:.10g} expected={expected:.10g} "
            f"abs_dev={dev:.3e} rel_dev={rel:.3e} tol={tol:.1e} "
            f"{'PASS' if ok else 'FAIL'}")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return "\n".join(lines), all_ok
