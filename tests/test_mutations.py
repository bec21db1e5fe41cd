"""Mutations of the program that its checks of the paper's claims must catch.

Each mutation breaks one piece of the program by a monkeypatch, and its
tests name the ``flow`` fields and ``verify`` checks that must fail under
it: a check that passes on a broken implementation shows nothing.  Each
test runs its argv unbroken first, so the same fields are known to pass on
the program as it is.
"""

import json
import math

import numpy as np
import pytest

from geonull import flows, splitting
from geonull.cli import EXIT_VERIFY, main

# kernel-mode flows: the default conullity3 start, and the digest's sekigawa ride
FLOWS = {
    "conullity3": ("flow", "--metric", "conullity3", "--tmax", "0.5"),
    "sekigawa": ("flow", "--metric", "sekigawa", "--p", "2+u*u", "--point", "0.2,0.3,0.1", "--tmax", "0.5"),
}


def _run(capsys, *argv):
    """``(exit code, the JSON document on stdout)`` of one command line."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def _failing_checks(doc) -> set:
    return {check["name"] for suite in doc["suites"] for check in suite["checks"] if not check["passed"]}


def _frame_not_transported(monkeypatch):
    """Both transports leave the frame W where it was: a stacked block's and the point-by-point loop's."""
    monkeypatch.setattr(flows._Ride, "_transport", lambda self, b: np.repeat(self.ws[-1][-1:], len(b), axis=0))
    monkeypatch.setattr(flows, "_frame_step", lambda W, gammas, velocities, h: W)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_frame_not_transported_fails_the_flow_fields(name, capsys, monkeypatch):
    code, sound = _run(capsys, *FLOWS[name])
    assert code == 0 and sound["max_deviation"] < 1e-13 and sound["basis_gram_drift"] < 1e-13
    _frame_not_transported(monkeypatch)
    code, broken = _run(capsys, *FLOWS[name])
    # the report is whole and exits 0: the two fields carry the fault
    # (measured 0.04 and 0.14 on conullity3, 0.11 and 0.24 on sekigawa)
    assert code == 0 and broken["aborted"] is None and len(broken["samples"]) == len(sound["samples"])
    assert broken["max_deviation"] > 0.01 and broken["basis_gram_drift"] > 0.1


def test_frame_not_transported_fails_its_verify_checks(capsys, monkeypatch):
    code, sound = _run(capsys, "verify", "--suite", "all", "--json")
    assert code == 0 and not _failing_checks(sound)
    _frame_not_transported(monkeypatch)
    code, broken = _run(capsys, "verify", "--suite", "all", "--json")
    assert code == EXIT_VERIFY and not broken["passed"]
    assert _failing_checks(broken) == {
        "transport_preserves_gram", "riccati_evolution_matches", "divergence_is_minus_trace",
    }


def _solve_scaled(monkeypatch):
    """Every solved C scaled by 1.01: the least-squares step scales each coefficient matrix after its residual."""
    least_squares = splitting._least_squares
    monkeypatch.setattr(splitting, "_least_squares",
                        lambda *args: [(1.01 * coef, residual) for coef, residual in least_squares(*args)])


def test_solve_scaling_fails_the_splitting_matrix_check(capsys, monkeypatch):
    entry = math.sqrt(2.0) / 5.0  # the normal form's sqrt(2)/p at the origin, p = 5
    code, sound = _run(capsys, "verify", "--suite", "all", "--json")
    assert code == 0 and not _failing_checks(sound)
    code, doc = _run(capsys, "analyze", "--metric", "conullity3")
    assert code == 0 and abs(doc["splitting"]["normal_form_entries"][0] - entry) < 1e-15
    _solve_scaled(monkeypatch)
    code, broken = _run(capsys, "verify", "--suite", "all", "--json")
    # C' = C^2 and tr C = 0 hold for 1.01 C too, since the catalog's C squares to 0:
    # only the check of C against its closed form sees the scale
    assert code == EXIT_VERIFY and not broken["passed"]
    assert _failing_checks(broken) == {"splitting_matrix_at_origin"}
    code, doc = _run(capsys, "analyze", "--metric", "conullity3")
    assert code == 0 and abs(doc["splitting"]["normal_form_entries"][0] - 1.01 * entry) < 1e-15  # 0.28567
