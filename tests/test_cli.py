import csv
import io
import json

import numpy as np
import pytest

from permsym import ci as cimod
from permsym import cli
from permsym.errors import NumericalIntegrityError


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def parse_csv(out):
    """Rows of a CSV artifact; the leading # lines echo the config."""
    comments = [l for l in out.splitlines() if l.startswith("#")]
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    assert any("command=" in c for c in comments)
    return list(csv.DictReader(io.StringIO(body)))


class TestTable:
    def test_json(self, capsys):
        data = run_json(capsys, "table", "--n", "3")
        assert data["config"]["command"] == "table"
        assert data["config"]["n"] == 3
        assert data["table"]["characters"]["E"] == [2, 0, -1]

    def test_n4(self, capsys):
        data = run_json(capsys, "table", "--n", "4")
        sizes = [c["size"] for c in data["table"]["classes"]]
        assert sizes == [1, 6, 8, 6, 3]


class TestSpectrum:
    def test_json_roundtrip(self, capsys):
        data = run_json(
            capsys, "spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "2"
        )
        assert data["config"]["xi"] == 0.1
        levels = data["levels"]
        assert levels[0]["energy"] == pytest.approx(1.4964059, abs=1e-6)
        assert [lv["degeneracy"] for lv in levels if lv["n_last"] == 0] == [1, 2, 3]

    def test_csv(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "1",
            "--format", "csv",
        )
        assert rc == 0
        rows = parse_csv(out)
        assert {"n_sym", "n_last", "energy", "degeneracy", "parity"} <= set(rows[0])
        assert len(rows) == 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "levels.json"
        rc, out, _ = run_cli(
            capsys,
            "spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "1",
            "--output", str(path),
        )
        assert rc == 0 and out == ""
        data = json.loads(path.read_text())
        assert data["config"]["output"] == str(path)

    def test_unbound_xi_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "spectrum", "--n", "3", "--xi", "2.0", "--max-quanta", "1"
        )
        assert rc == 1
        assert "window" in err

    def test_nine_significant_digits(self, capsys):
        data = run_json(
            capsys, "spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "0"
        )
        assert data["levels"][0]["energy"] == float("1.49640586")


class TestIrreps:
    def test_multiplicities_attached(self, capsys):
        data = run_json(
            capsys, "irreps", "--n", "4", "--xi", "0.1", "--max-quanta", "1"
        )
        by_key = {tuple(lv["quanta_key"]): lv for lv in data["levels"]}
        assert by_key[(1, 0)]["irrep_mults"] == {
            "A1": 0, "A2": 0, "E": 0, "T1": 0, "T2": 1
        }

    @pytest.mark.parametrize("n,max_quanta", [(3, 14), (4, 12), (3, 20), (4, 20)])
    def test_deep_cutoff_accounts_for_every_state(self, capsys, n, max_quanta):
        data = run_json(
            capsys, "irreps", "--n", str(n), "--xi", "0.1",
            "--max-quanta", str(max_quanta),
        )
        dims = {"A1": 1, "A2": 1, "E": 2, "T1": 3, "T2": 3}
        assert len(data["levels"]) == (max_quanta + 1) * (max_quanta + 2) // 2
        for lv in data["levels"]:
            content = sum(dims[lbl] * m for lbl, m in lv["irrep_mults"].items())
            assert content == lv["degeneracy"]

    def test_csv_flattens_mults(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "1",
            "--format", "csv",
        )
        rows = parse_csv(out)
        assert "mult_E" in rows[0]


class TestProject:
    def test_a2_vector(self, capsys):
        data = run_json(capsys, "project", "--n", "3", "--nsym", "3", "--irrep", "A2")
        assert data["copies"] == 1 and data["dimension"] == 1
        patterns = [tuple(p) for p in data["basis_patterns"]]
        vec = data["vectors"][0]
        comp = dict(zip(patterns, vec))
        # one-dimensional span of psi_30 - sqrt(3) psi_12 (normalized basis)
        ratio = comp[(3, 0)] / comp[(1, 2)]
        assert abs(ratio) == pytest.approx(3**-0.5, abs=1e-8)
        # sign convention: the first nonzero component is positive
        assert vec == pytest.approx([0.0, 3**0.5 / 2, 0.0, -0.5], abs=1e-8)

    def test_deep_level(self, capsys):
        data = run_json(capsys, "project", "--n", "3", "--nsym", "12", "--irrep", "E")
        vecs = np.array(data["vectors"])
        assert vecs.shape == (2 * data["copies"], 13)
        assert np.abs(vecs @ vecs.T - np.eye(len(vecs))).max() < 1e-8

    def test_unknown_irrep_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "project", "--n", "3", "--nsym", "3", "--irrep", "T1"
        )
        assert rc == 1


class TestAllowed:
    def test_character_route(self, capsys):
        data = run_json(capsys, "allowed", "--n", "3")
        assert data["allowed"]["A2"]["multiplets"] == ["quadruplet"]
        assert data["allowed"]["E"]["multiplets"] == ["doublet"]
        assert data["allowed"]["A1"] == {
            "allowed": False, "spins": [], "multiplets": []
        }
        assert data["multiplets"] == {"0.5": 2, "1.5": 1}

    def test_constructive_verification(self, capsys):
        data = run_json(capsys, "allowed", "--n", "3", "--verify", "constructive")
        assert data["routes_agree"] is True
        assert data["constructive"]["A2"] == [1.5]

    def test_n4(self, capsys):
        data = run_json(capsys, "allowed", "--n", "4")
        assert data["allowed"]["T1"]["spins"] == [1.0]
        assert data["allowed"]["T2"]["allowed"] is False


class TestCi:
    def test_states(self, capsys):
        data = run_json(
            capsys, "ci", "--n", "3", "--xi", "0.1", "--orbitals", "4",
            "--ms", "1/2",
        )
        assert data["basis_size"] == 24
        first = data["states"][0]
        assert first["energy"] == pytest.approx(2.4450894, abs=1e-6)
        assert first["S"] == 0.5 and first["Ms"] == 0.5

    def test_csv(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "ci", "--n", "3", "--xi", "0.1", "--orbitals", "3",
            "--format", "csv",
        )
        rows = parse_csv(out)
        assert set(rows[0]) == {"energy", "S", "Ms", "parity"}

    def test_infeasible_basis_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "ci", "--n", "3", "--xi", "0.1", "--orbitals", "1"
        )
        assert rc == 1


class TestCompare:
    def test_n3_experiment(self, capsys):
        data = run_json(
            capsys,
            "compare", "--n", "3", "--xi", "0.1", "--orbitals", "10",
            "--max-quanta", "4", "--tol", "1e-4",
        )
        missing_keys = [tuple(m["quanta_key"]) for m in data["missing"]]
        assert all(k[0] == 0 for k in missing_keys)
        assert (0, 0) in missing_keys
        assert data["spurious"] == []
        assert data["ok"] is True
        assert data["config"]["ms"] == "1/2"

    def test_exit_3_on_failed_verification(self, capsys, monkeypatch):
        real_compare = cimod.compare

        def doctored(*args, **kwargs):
            report = real_compare(*args, **kwargs)
            import dataclasses

            return dataclasses.replace(report, spurious=(1.23,))

        monkeypatch.setattr(cli.cimod, "compare", doctored)
        rc, out, _ = run_cli(
            capsys,
            "compare", "--n", "3", "--xi", "0.1", "--orbitals", "4",
            "--max-quanta", "2", "--tol", "1e-4",
        )
        assert rc == 3
        assert json.loads(out)["ok"] is False


class TestExitCodes:
    def test_unknown_command(self, capsys):
        rc, _, err = run_cli(capsys, "frobnicate")
        assert rc == 1
        assert "usage error" in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = run_cli(capsys, "spectrum", "--n", "3")
        assert rc == 1

    def test_bad_n_choice(self, capsys):
        rc, _, _ = run_cli(capsys, "table", "--n", "5")
        assert rc == 1

    def test_nonpositive_tol(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "compare", "--n", "3", "--xi", "0.1", "--orbitals", "4",
            "--max-quanta", "2", "--tol", "-1",
        )
        assert rc == 1

    def test_integrity_error_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalIntegrityError("injected")

        monkeypatch.setattr(cli.levelsym, "attach_multiplicities", boom)
        rc, _, err = run_cli(
            capsys, "irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "1"
        )
        assert rc == 2
        assert "integrity" in err


class TestConfigEcho:
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--n", "3"),
            ("allowed", "--n", "4"),
            ("spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "1"),
        ],
    )
    def test_echo_matches_flags(self, capsys, argv):
        data = run_json(capsys, *argv)
        config = data["config"]
        assert config["command"] == argv[0]
        assert config["n"] == int(argv[2])


class TestJsonRoundTrip:
    def test_table_rebuilds_character_table(self, capsys):
        from permsym import symgroup as sg

        data = run_json(capsys, "table", "--n", "4")
        t = data["table"]
        rebuilt = sg.CharacterTable(
            group_name=t["group_name"],
            n=t["n"],
            classes=tuple(
                sg.ConjClass(tuple(c["cycle_type"]), c["size"], c["order"])
                for c in t["classes"]
            ),
            class_labels=tuple(c["label"] for c in t["classes"]),
            irreps=tuple(
                sg.IrrepId(i["label"], i["dimension"]) for i in t["irreps"]
            ),
            chars=tuple(
                tuple(t["characters"][i["label"]]) for i in t["irreps"]
            ),
        )
        assert sg.validate_table(rebuilt) is None
        assert rebuilt == sg.character_table(4)

    def test_irreps_rebuilds_levels(self, capsys):
        from permsym import levelsym, oscillator, symgroup

        data = run_json(
            capsys, "irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "2"
        )
        model = oscillator.make_model(3, 0.1)
        table = symgroup.character_table(3)
        direct = [
            levelsym.attach_multiplicities(model, lv, table)
            for lv in oscillator.enumerate_levels(model, 2)
        ]
        assert len(data["levels"]) == len(direct)
        for row, lv in zip(data["levels"], direct):
            assert tuple(row["quanta_key"]) == lv.quanta_key
            assert row["degeneracy"] == lv.degeneracy
            assert row["parity"] == lv.parity
            assert row["irrep_mults"] == dict(lv.irrep_mults)
            assert row["energy"] == pytest.approx(lv.energy, abs=1e-8)

    def test_table_rejects_format_flag(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--n", "3", "--format", "csv")
        assert rc == 1


class TestOutputErrors:
    def test_unwritable_output_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "table", "--n", "3",
            "--output", "/nonexistent-dir/out.json",
        )
        assert rc == 1
        assert err
