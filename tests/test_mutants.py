"""Known wrong programs that a run's own outputs must reject.

Each row patches one function in-process, runs one subcommand on a small
config (then ``report`` where it applies) and expects what a user would
see: exit 2 from a failed check, another nonzero exit, or a NO verdict.
A row whose mutant no printed verdict rejects yet is a strict expected
failure, so the change that gives the outputs the teeth to reject it
must turn the row into a plain test.
"""

import json

import numpy as np
import pytest

from dispersim import propagators, tailprob, wiener
from dispersim.cli import main
from dispersim.grid import monomial_weight


def run(capsys, args) -> tuple[int, str]:
    status = main(args)
    return status, capsys.readouterr().out


def rejected(capsys, args, out_dir) -> bool:
    """True when the run, or ``report`` on its outputs, exits nonzero or
    prints a NO."""
    status, _ = run(capsys, args)
    if status != 0:
        return True
    status, text = run(capsys, ["report", "--out", str(out_dir)])
    return status != 0 or any(line.split()[-1:] == ["NO"] for line in text.splitlines())


def survives(reason):
    """The mark of a row whose mutant no printed verdict rejects yet."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_scaled_square_function_fails_check_wiener(tmp_path, capsys, monkeypatch):
    square = wiener._square_function_from_coeffs
    monkeypatch.setattr(wiener, "_square_function_from_coeffs", lambda *args: 1.5 * square(*args))
    grids = {"grids": [{"dim": 1, "samples_per_axis": 64, "extent": 16.0}]}
    status, _ = run(capsys, ["check-wiener", "--config", config(tmp_path, grids)])
    assert status == 2


@survives("the exact law and the draws share the series")
def test_tails_series_without_minus_one(tmp_path, capsys, monkeypatch):
    # symbol + 1 - 1: the series of S(t)f instead of S(t)f - f.
    symbol = tailprob.symbol
    monkeypatch.setattr(tailprob, "symbol", lambda *args: symbol(*args) + 1.0)
    payload = {
        "grid": {"dim": 1, "samples_per_axis": 256, "extent": 40.0},
        "flow": "kdv",
        "data": {"recipe": "gaussian", "width": 2.0},
        "times": [0.02, 0.05, 0.1],
        "thresholds": [0.001, 0.003, 0.01],
        "ensemble_size": 2000,
        "seed": 7,
    }
    out = tmp_path / "tails"
    args = ["tails", "--config", config(tmp_path, payload), "--out", str(out)]
    assert rejected(capsys, args, out)


@survives("no check-propagators line compares a flow with its data")
def test_symbol_at_minus_t(capsys, monkeypatch):
    symbol = propagators.symbol
    monkeypatch.setattr(propagators, "symbol", lambda kind, spec, t: symbol(kind, spec, -t))
    status, _ = run(capsys, ["check-propagators"])
    assert status != 0


@survives("no planned verdict sees the draws' decay ratio")
def test_density_decay_ratio_with_signed_monomial(tmp_path, capsys, monkeypatch):
    # The draws weigh |d^beta g^omega| by the signed x^alpha; the sigma law
    # keeps |x^alpha|.
    setup_of, rates_of = tailprob._split_setup, tailprob._decay_rates

    def signed_setup(split, pairs):
        setup = setup_of(split, pairs)
        coords = split.g.spec.coordinate_grids()
        alphas = [a for a, _ in dict.fromkeys(pairs)]
        terms = [
            (b, w if w is None else np.fft.ifftshift(monomial_weight(coords, a)).reshape(-1), v)
            for a, (b, w, v) in zip(alphas, setup[4])
        ]
        return setup[:4] + (terms,)

    def unsigned_rates(setup):
        terms = [(b, None if w is None else np.abs(w), v) for b, w, v in setup[4]]
        return rates_of(setup[:4] + (terms,))

    monkeypatch.setattr(tailprob, "_split_setup", signed_setup)
    monkeypatch.setattr(tailprob, "_decay_rates", unsigned_rates)
    payload = {
        "grid": {"dim": 2, "samples_per_axis": 32, "extent": 16.0},
        "data": {"recipe": "gaussian", "width": 2.0},
        "epsilon_schedule": [0.2, 0.1],
        "ensemble_size": 500,
        "seed": 7,
    }
    out = tmp_path / "density"
    args = ["density", "--config", config(tmp_path, payload), "--out", str(out)]
    assert rejected(capsys, args, out)
