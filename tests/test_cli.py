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
    code, out, _ = run(["verify", "--L", "4", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["mode"] == "symbolic"
    names = {c["name"] for c in payload["checks"]}
    assert {"balance_symbolic", "lumping_fiber_rates", "weight_determinant"} <= names


def test_verify_numeric(capsys):
    code, out, _ = run(["verify", "--L", "4", "--n", "2", "--rates", "1,2;3,5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "numeric"
    assert any(c["name"] == "stationary_matches_weights" and c["ok"] for c in payload["checks"])


@pytest.mark.parametrize("rates", ["1,2,3;0,5,0", "1,0,3;2,5,1/2"])
def test_stationary_and_verify_at_a_zero_rate(rates, capsys):
    """The full-space solve puts the law on the one closed class: each
    probability is the weight value over their sum, zero off the class."""
    code, out, _ = run(["stationary", "--L", "5", "--n", "3", "--rates", rates], capsys)
    assert code == 0
    table = json.loads(out)["table"]
    total = sum(eval_frac(row["weight_value"]) for row in table)
    assert all(eval_frac(row["probability"]) == eval_frac(row["weight_value"]) / total for row in table)
    assert any(row["probability"] == "0" for row in table)
    code, out, _ = run(["verify", "--L", "5", "--n", "3", "--rates", rates], capsys)
    assert code == 0 and json.loads(out)["ok"]


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
    code, out, _ = run(["observables", "--L", "3", "--n", "2"], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_a_json_observables_run_builds_no_csv_rows(monkeypatch, capsys):
    """A JSON run writes the JSON rows only; the CSV rows are never built."""
    from torus_asep.observables import ObservableReport

    def refuse(self):
        raise AssertionError("a JSON run built the CSV rows")

    monkeypatch.setattr(ObservableReport, "to_csv_rows", refuse)
    for rates in ([], ["--rates", "1,2;3,5"]):
        code, out, _ = run(["observables", "--L", "4", "--n", "2", *rates], capsys)
        assert code == 0 and json.loads(out)["ok"]


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


@pytest.mark.parametrize("labels,token", [("a", "a"), ("1,x", "x"), ("3", "3"), ("0", "0"), ("1.0", "1.0")])
def test_ta_set_names_a_bad_token(labels, token, capsys):
    code, out, err = run(["ta", "--L", "5", "--n", "2", "--set", labels], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --set takes comma-separated row labels in 1..2, got '{token}'\n"


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


BAD_RATES_FILES = {
    "missing_file": None,
    "not_an_object": "[1, 2]",
    "no_q": '{"p": ["1", "2"]}',
    "zero_denominator": '{"p": ["1/0", "2"], "q": ["3", "5"]}',
}


@pytest.mark.parametrize("command", ["weights", "stationary", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_RATES_FILES))
def test_bad_rates_file_is_a_usage_error(case, command, tmp_path, capsys):
    path = tmp_path / "rates.json"
    if BAD_RATES_FILES[case] is not None:
        path.write_text(BAD_RATES_FILES[case])
    code, out, err = run([command, "--L", "4", "--n", "2", "--rates-file", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_wrong_rate_length_exit_code(capsys):
    code, _, err = run(["stationary", "--L", "4", "--n", "2", "--rates", "1;2"], capsys)
    assert code == 2


def test_state_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "10")
    code, _, err = run(["stationary", "--L", "4", "--n", "2", "--rates", "1,2;3,5"], capsys)
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("command", ["stationary", "verify", "observables", "enumerate", "weights"])
def test_state_cap_applies_to_every_state_space_command(command, monkeypatch, capsys):
    # (5,3) has 270 states, 54 of them restricted.
    args = [command, "--L", "5", "--n", "3"]
    if command != "enumerate":
        args += ["--rates", "1,2,3;4,5,6"]
    for cap in ("100", "10"):
        monkeypatch.setenv("TORUS_ASEP_STATE_CAP", cap)
        code, out, err = run(args, capsys)
        assert code == 3 and "270 states" in err and out == ""
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "many")
    code, out, err = run(args, capsys)
    assert code == 2 and "TORUS_ASEP_STATE_CAP" in err and out == ""


def test_a_raised_cap_reaches_observables(monkeypatch):
    """(11,3) has 3,247,695 states, above the default cap: raised, the cap
    lets `observables` go on to build the graph, which a stub stops."""
    from torus_asep import dynamics

    class GraphBuilt(Exception):
        pass

    def stub(L, n):
        raise GraphBuilt

    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "5000000")
    monkeypatch.setattr(dynamics, "_graph", stub)
    with pytest.raises(GraphBuilt):
        main(["observables", "--L", "11", "--n", "3", "--rates", "1,2,3;1,1,1"])


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--L", "4"])
    assert exc.value.code == 2


def test_simulate_requires_one_horizon(capsys):
    code, _, err = run(
        ["simulate", "--L", "4", "--n", "2", "--rates", "1,2;3,5", "--seed", "1"], capsys
    )
    assert code == 2


def test_simulate_writes_to_the_output_directory_and_takes_no_format(tmp_path, monkeypatch, capsys):
    args = ["simulate", "--L", "4", "--n", "2", "--rates", "1,2;3,5", "--events", "200"]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(args, capsys)
    assert code == 0 and out == "wrote manifest.json, ledger.csv, estimates.json to .\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["estimates.json", "ledger.csv", "manifest.json"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_simulate_ledger_above_the_cap_exits_3_before_allocating(tmp_path, monkeypatch, capsys):
    """10^8 batches would need billions of ledger cells: the run is refused
    with exit 3 before any array or list of that size is made."""
    from torus_asep import mcmc

    def refuse(*args, **kwargs):
        raise AssertionError("the ledger was allocated")

    monkeypatch.setattr(mcmc.np, "zeros", refuse)
    code, out, err = run(
        ["simulate", "--L", "4", "--n", "2", "--rates", "1,2;3,5", "--time", "5",
         "--batches", "100000000", "--output", str(tmp_path)], capsys
    )
    assert code == 3 and out == ""
    assert err == "error: the run's ledger has 4500000000 cells, above the cap 2000000\n"
    assert not any(tmp_path.iterdir())


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


# sha256 of the `simulate` outputs (manifest.json, ledger.csv, estimates.json),
# taken when the variates were first drawn in blocks of 256 events; a change
# to the simulator kernel or the estimators must leave these bytes
# untouched.  (10,5) reaches 8 or more enabled moves, where numpy's sum of
# the move rates stops adding in sequence.
GOLDEN_SIMULATE = {
    "4,2-events": (
        ["--L", "4", "--n", "2", "--rates", "1,2;3,5", "--seed", "5", "--events", "3000"],
        "25915b49affcd2856e18e93db194771b44158b0999845620ead6fc01be932c7d",
        "c85a621264098dc4ebd6331b08d86015bdcf852741dd36001acf7b56e1780cec",
        "b10c236aaedb3b39545224d7e5abfb5eca69c510e15a3e9db83ee828843426fa",
    ),
    "4,2-time": (
        ["--L", "4", "--n", "2", "--rates", "1,2;3,5", "--seed", "5", "--time", "200"],
        "f663984e888255a5d0b2bd2b23932d08b96c392c9791acbf1a904a1ef0b6c9ad",
        "686522bcdffcca277a27106416a1e82e26a35dc37b02b82b2e510bb90aa3eb38",
        "56408b8377ca06a52105d63b5a296951432ad79b5e14b41299c20511f91fd61c",
    ),
    "6,1": (
        ["--L", "6", "--n", "1", "--rates", "2;1", "--seed", "3", "--events", "3000"],
        "30a911226ea85b6581521d7c0a63c22542a6f6383ed1be400df3c0c1a0c458df",
        "a9f2af8756bee0323b122dd46ad536f55fd83aa0b03be238c80fcf601c47c59b",
        "1a1e35e8dbb6f81906dbe8ac0a8b003fd187339cc3011c7ae089ec4e464a0aca",
    ),
    "10,5": (
        ["--L", "10", "--n", "5", "--rates", "1,3/2,2,5/4,1;1/2,1/4,1/3,1/5,1/2",
         "--seed", "7", "--events", "3000"],
        "1b7a79fad1b3a520fccd9dd74c4fb5c499d074196d63bcaa03e425144313c57b",
        "6e5ad0dc3d5e93044737c15a04593ec1946f55e764724f94544b448327eeb6af",
        "d252d0192abc03f3099004a1af86fa40086c6fad72b691436b00172bbf454dae",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
def test_simulate_outputs_match_golden_hash(case, tmp_path):
    import hashlib

    args, *digests = GOLDEN_SIMULATE[case]
    assert main(["simulate", *args, "--output", str(tmp_path)]) == 0
    for name, digest in zip(("manifest.json", "ledger.csv", "estimates.json"), digests):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the `stationary` table at (5,3) and of its --generator-out
# dump, taken before the solver moved to the rotation quotient; the exact
# law is unique, so no change of solver may move these bytes.
STATIONARY_ARGS = ["stationary", "--L", "5", "--n", "3", "--rates", "1,2,3;5,7,11"]
GOLDEN_STATIONARY = {
    "json": "aa5996dce136f8557e523f4ef6be704049d0f6349cf61510927ebc070ea994e4",
    "csv": "ce9143c6f92c19c6feb290ed9bc4bddcf5823fb34a4abbf654113283281496f4",
    "generator.csv": "17125a95d370c48157223beae94e6178c64d4c19f23b05c0fd328e2f852b66cd",
    "states.json": "503804f81d88511039507db7ee515646a1fb634ccb94ed20156ed8ff8f11a822",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stationary_output_matches_golden_hash(fmt, capsys):
    import hashlib

    code, out, _ = run(STATIONARY_ARGS + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STATIONARY[fmt]


def test_stationary_generator_dump_matches_golden_hash(tmp_path, capsys):
    import hashlib

    code, _, _ = run(STATIONARY_ARGS + ["--generator-out", str(tmp_path)], capsys)
    assert code == 0
    for name in ("generator.csv", "states.json"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_STATIONARY[name], name


# sha256 of the symbolic `verify` and `observables` JSON at (6,3), taken while
# every sum was still built by repeated `Polynomial` addition; accumulating
# the sums in place must leave these bytes untouched.
GOLDEN_SYMBOLIC_6_3 = {
    "verify": "ef888a78fe5cc89b73620c8d995f2f3b97fb30e6deedf039781e10b556b3f06e",
    "observables": "b9e3659ea3fa387e3c06a2cdead8b4f26a0c30fb1dec198bfdddc1747c049948",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SYMBOLIC_6_3))
def test_symbolic_output_at_6_3_matches_golden_hash(command, capsys):
    import hashlib

    code, out, _ = run([command, "--L", "6", "--n", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SYMBOLIC_6_3[command]


# sha256 of numeric outputs at a rate point whose denominators differ, so
# the numeric checks run at the scaled point D * r with D = 420; taken while
# every numeric sum was still built by repeated Fraction addition.
MIXED_RATES = "1/2,3/4,5/3;7/10,1,9/7"
GOLDEN_MIXED_DENOMINATOR = {
    "observables": (
        ["observables", "--L", "6", "--n", "3", "--format", "json"],
        "32980b823ef34afa418be4929e9e66bb7a8dce18510cf95ad545bf0d9d3f442f",
    ),
    "verify": (
        ["verify", "--L", "6", "--n", "3"],
        "d2406e3a031f303077c1f8727dae87877f6d224739cba16f492c3f7bf375dbf7",
    ),
    "stationary": (
        ["stationary", "--L", "5", "--n", "3", "--format", "json"],
        "f46d6216df36572fdb4a5664dbb1f69456dc3ac43d9572cecd32b023d730830a",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_MIXED_DENOMINATOR))
def test_numeric_output_at_mixed_denominators_matches_golden_hash(command, capsys):
    import hashlib

    args, digest = GOLDEN_MIXED_DENOMINATOR[command]
    code, out, _ = run(args + ["--rates", MIXED_RATES], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
