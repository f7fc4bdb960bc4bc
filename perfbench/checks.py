"""Correctness checks on what one excite-iter process left behind.

Artifacts are compared by value, never by bytes, so a change of CSV
formatting that keeps the numbers passes. Each failed check adds one
message to the list returned; an operation with any message counts as
failed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from refs import REL_TOL, rel_err, soluble_chi

#: agreement required between columns that the program derives from one
#: another with a single floating-point operation
DERIVED_RTOL = 1e-12
#: agreement of the soluble ground state and exact chi with the closed
#: forms, which the program evaluates by another route
CLOSED_FORM_TOL = 1e-9


def read_csv(path):
    """(header, rows x columns array) of a CSV artifact."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, data


def _close(a, b, rtol, atol=0.0):
    return np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=False)


def check_cli_run(op, out_dir, ref_eps, cold_eps=None):
    """Check one CLI run's summary and artifacts.

    op: the generated input (case, delta or g, anchor, trial, and for a
    warm run the ground-state cache it read); ref_eps: the independent
    reference; cold_eps: for a warm run, the eps sequence of the cold
    solve of the same (g, anchor, trial), which must match bit for bit.
    Returns (errors, facts) where facts holds eps, its relative error,
    the status and the artifact sizes.
    """
    errors = []
    facts = {"csv_cells": 0, "artifact_bytes": 0, "cache_bytes": 0}
    try:
        with open(os.path.join(out_dir, "summary.json")) as f:
            summary = json.load(f)
        eps_seq = summary["eps_sequence"]
        n = summary["grid"]["n_points"]
        x_max = summary["grid"]["x_max"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"summary.json unreadable: {exc!r}"], facts
    case = op["case"]
    eps = eps_seq[-1]
    facts.update(eps=eps, rel_err=rel_err(eps, ref_eps),
                 status=summary.get("status"))
    if not facts["rel_err"] <= REL_TOL[case]:
        errors.append(f"eps={eps!r} vs reference {ref_eps!r}: relative "
                      f"error {facts['rel_err']:.3g} > {REL_TOL[case]}")
    if cold_eps is not None and eps_seq != cold_eps:
        errors.append("warm eps_sequence differs from the cold solve")

    x_ref = np.linspace(0.0, x_max, n)
    i0 = int(round(op["anchor"] / (x_max / (n - 1))))
    try:
        header, chi = read_csv(os.path.join(out_dir, "chi_curves.csv"))
        want = ["x"] + [f"chi_{k}" for k in range(len(eps_seq) + 1)]
        if case == "soluble":
            want.append("chi_exact")
        if header != want or chi.shape != (n, len(want)):
            errors.append(f"chi_curves.csv: columns {header}, shape "
                          f"{chi.shape}; want {want} x {n} rows")
        else:
            facts["csv_cells"] += chi.size
            if not _close(chi[:, 0], x_ref, 0.0, 1e-12 * x_max):
                errors.append("chi_curves.csv: x is not the grid")
            n_iter = len(eps_seq) + 1
            if not _close(chi[i0, 1:n_iter], chi[i0, 1], DERIVED_RTOL):
                errors.append("chi_curves.csv: iterates differ at the "
                              "anchor (fixed-point rule)")
            if case == "soluble":
                exact = soluble_chi(op["delta"], x_ref)
                exact *= chi[i0, 1] / exact[i0]
                if not _close(chi[:, -1], exact, CLOSED_FORM_TOL):
                    errors.append("chi_curves.csv: chi_exact is not the "
                                  "closed form")
        header, wf = read_csv(os.path.join(out_dir, "wavefunctions.csv"))
        if header != ["x", "psi_gd", "psi_ex"] or wf.shape != (n, 3):
            errors.append(f"wavefunctions.csv: columns {header}, shape "
                          f"{wf.shape}")
        else:
            facts["csv_cells"] += wf.size
            last = chi[:, len(eps_seq) + 1] if chi.shape[0] == n else None
            if last is not None and not _close(
                    wf[:, 2], wf[:, 1] * last, DERIVED_RTOL, 1e-300):
                errors.append("wavefunctions.csv: psi_ex != psi_gd * chi")
            if case == "soluble":
                p = math.pi - op["delta"]
                if not _close(wf[:, 1], np.sin(p * (1.0 - x_ref)), 0.0,
                              CLOSED_FORM_TOL):
                    errors.append("wavefunctions.csv: psi_gd is not "
                                  "sin(p(1-x))")
            elif wf[0, 1] != 1.0:
                errors.append("wavefunctions.csv: psi_gd(0) != 1")
        gs_csv = os.path.join(out_dir, "groundstate.csv")
        if "cache" in op:
            if os.path.exists(gs_csv):
                errors.append("warm run rewrote groundstate.csv")
            facts["cache_bytes"] = sum(
                os.path.getsize(p) for p in (op["cache"],
                                             op["cache"] + ".json"))
        else:
            errors += _check_groundstate(gs_csv, summary, wf, n)
            facts["cache_bytes"] = sum(
                os.path.getsize(p) for p in (gs_csv, gs_csv + ".json"))
    except (OSError, ValueError, IndexError) as exc:
        errors.append(f"artifact unreadable: {exc!r}")
    facts["artifact_bytes"] = sum(
        e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    return errors, facts


def _check_groundstate(path, summary, wf, n):
    header, gs = read_csv(path)
    if header != ["x", "S", "Sprime"] or gs.shape != (n, 3):
        return [f"groundstate.csv: columns {header}, shape {gs.shape}"]
    errors = []
    with open(path + ".json") as f:
        meta = json.load(f)
    if meta.get("e_gd") != summary["e_gd"]:
        errors.append("groundstate.csv.json: e_gd differs from summary")
    finite = np.isfinite(gs[:, 1])
    with np.errstate(under="ignore"):
        psi = np.exp(-gs[finite, 1])
    if not _close(psi, wf[finite, 1], DERIVED_RTOL, 1e-300):
        errors.append("groundstate.csv: exp(-S) != psi_gd")
    return errors
