import json

import pytest

from torus_asep.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_single_state(tmp_path, capsys):
    out_file = tmp_path / "states.json"
    code = main(["enumerate", "--L", "2", "--n", "1", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["count"] == 1 and payload["states"] == ["B1 b1"]


def test_enumerate_stdout_csv(capsys):
    code, out, _ = run(["enumerate", "--L", "4", "--n", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "index,state"
    assert len(out.splitlines()) == 13


def test_weights_with_rates(capsys):
    code, out, _ = run(["weights", "--L", "3", "--n", "2", "--rates", "1,2;3,5"], capsys)
    assert code == 0
    payload = json.loads(out)
    states = {row["state"]: row for row in payload["weights"]}
    assert states["B1 B2 b1"]["weight"] == "q2"
    assert states["B1 B2 b1"]["weight_value"] == "5"
    assert states["B1 b1 B2"]["weight"] == "p2"


def test_stationary_outputs_and_generator_dump(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    out_file = tmp_path / "table.json"
    code = main(
        [
            "stationary", "--L", "3", "--n", "2", "--rates", "1,2;3,5",
            "--output", str(out_file), "--generator-out", str(gen_dir),
        ]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["table"]) == 12
    total = sum(eval_frac(row["probability"]) for row in payload["table"])
    assert total == 1
    assert (gen_dir / "generator.csv").exists()
    assert (gen_dir / "states.json").exists()


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


def test_verify_symbolic(capsys):
    code, out, _ = run(["verify", "--L", "4", "--n", "2", "--mode", "symbolic"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    names = {c["name"] for c in payload["checks"]}
    assert {"balance_symbolic", "lumping_fiber_rates", "weight_determinant"} <= names


def test_verify_numeric(capsys):
    code, out, _ = run(["verify", "--L", "4", "--n", "2", "--rates", "1,2;3,5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "numeric"
    assert any(c["name"] == "stationary_matches_weights" and c["ok"] for c in payload["checks"])


def test_observables_numeric(capsys):
    code, out, _ = run(
        ["observables", "--L", "4", "--n", "2", "--rates", "1,2;3,5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    from fractions import Fraction

    from torus_asep.observables import closed_currents
    from torus_asep.symbolic import RatePoint

    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    expected = closed_currents(4, 2, rp)["bullet_edge_current"]
    rows = [r for r in payload["currents"] if r["observable"] == "bullet_edge_current"]
    assert rows and all(Fraction(r["closed_form"]) == expected for r in rows)


def test_observables_symbolic(capsys):
    code, out, _ = run(["observables", "--L", "3", "--n", "2", "--mode", "symbolic"], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_special(capsys):
    code, out, _ = run(["special", "--L", "4", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["cases"]) == 3


def test_ta_listing(capsys):
    code, out, _ = run(["ta", "--L", "5", "--n", "2", "--set", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] and payload["restricted_count"] == 15


def test_simulate_writes_artifacts(tmp_path):
    out_dir = tmp_path / "run"
    args = [
        "simulate", "--L", "4", "--n", "2", "--rates", "1,2;3,5",
        "--seed", "5", "--events", "2000", "--output", str(out_dir),
    ]
    assert main(args) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["events"] == 2000
    first = (out_dir / "estimates.json").read_bytes()
    ledger_first = (out_dir / "ledger.csv").read_bytes()
    # reruns with the same configuration are byte-identical
    assert main(args) == 0
    assert (out_dir / "estimates.json").read_bytes() == first
    assert (out_dir / "ledger.csv").read_bytes() == ledger_first


def test_bad_rates_exit_code(capsys):
    code, _, err = run(["observables", "--L", "4", "--n", "2", "--rates", "1,2,3;4"], capsys)
    assert code == 2 and "error" in err


def test_wrong_rate_length_exit_code(capsys):
    code, _, err = run(["stationary", "--L", "4", "--n", "2", "--rates", "1;2"], capsys)
    assert code == 2


def test_state_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "10")
    code, _, err = run(["stationary", "--L", "4", "--n", "2", "--rates", "1,2;3,5"], capsys)
    assert code == 3 and "cap" in err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--L", "4"])
    assert exc.value.code == 2


def test_simulate_requires_one_horizon(capsys):
    code, _, err = run(
        ["simulate", "--L", "4", "--n", "2", "--rates", "1,2;3,5", "--seed", "1"], capsys
    )
    assert code == 2


def test_report_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    args = ["verify", "--L", "3", "--n", "2", "--rates", "1,2;3,5", "--output", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


# sha256 of the `observables` output at (4,2); a change to how the oracles
# compare or render must leave these bytes untouched.
GOLDEN_OBSERVABLES = {
    ("json", None): "6d37e233b4685b8ef0634d81f3aa57bf6d9332b506a38699f9a9e5c48835851f",
    ("csv", None): "07d5ac843e61fd1db06b5486d59f4fe84e6524a73610848d6910babd27902c63",
    ("json", "1,2;3,5"): "061a42bea4cea7a835bcbce3ea132c738634e4127331d58833e9512e8c6611b3",
    ("csv", "1,2;3,5"): "568205cd5b52be21058a1893ed14bc9120c203f08f7492eb03745bf6c9c0fa8c",
}


@pytest.mark.parametrize("fmt,rates", sorted(GOLDEN_OBSERVABLES, key=str))
def test_observables_output_matches_golden_hash(fmt, rates, capsys):
    import hashlib

    args = ["observables", "--L", "4", "--n", "2", "--format", fmt]
    if rates is not None:
        args += ["--rates", rates]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OBSERVABLES[(fmt, rates)]
