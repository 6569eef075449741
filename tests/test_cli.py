import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from permsym import ci as cimod
from permsym import cli
from permsym import oscillator as osc
from permsym import spin
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

    def test_negative_xi_in_exponent_notation(self, capsys):
        """A bare -1e-05 is a value, not an option."""
        argv = ("spectrum", "--n", "3", "--max-quanta", "1")
        rc, out, err = run_cli(capsys, *argv, "--xi", "-1e-05")
        assert rc == 0, err
        assert out == run_cli(capsys, *argv, "--xi=-1e-05")[1]


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

    def test_routes_disagreeing_exit_2(self, capsys, monkeypatch):
        def wrong(n):
            amap = spin.allowed_spatial_irreps(n)
            return spin.AllowedIrrepMap(n, {**amap.spins, "A1": (0.5,)})

        monkeypatch.setattr(spin, "constructive_spatial_irreps", wrong)
        rc, out, err = run_cli(capsys, "allowed", "--n", "3", "--verify", "constructive")
        assert rc == 2 and out == ""
        assert "disagree" in err


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

    def test_negative_fraction_ms_with_equals(self, capsys):
        """A bare -1/2 is a value, as is --ms=-1/2."""
        argv = ("ci", "--n", "3", "--xi", "0.1", "--orbitals", "4")
        data = run_json(capsys, *argv, "--ms=-1/2")
        assert data["states"] == run_json(capsys, *argv, "--ms", "-1/2")["states"]
        assert data["states"] == run_json(capsys, *argv, "--ms", "-0.5")["states"]
        assert {row["Ms"] for row in data["states"]} == {-0.5}

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

    @pytest.mark.parametrize("n,xi,orbitals", [(3, 0.825, 10), (4, 0.9, 8)])
    def test_strong_coupling_all_ms(self, capsys, n, xi, orbitals):
        """Near the top of the bound window these exited 2 with "eigenvector
        mixes orbital parities" (the smallest M at which they did)."""
        data = run_json(
            capsys, "ci", "--n", str(n), "--xi", str(xi),
            "--orbitals", str(orbitals), "--ms", "all",
        )
        assert len(data["states"]) == data["basis_size"] == math.comb(2 * orbitals, n)
        assert {row["parity"] for row in data["states"]} == {-1, 1}


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

    @pytest.mark.parametrize(
        "n,xi,orbitals,max_quanta",
        [(3, 0.3, 12, 3), (3, -0.3, 12, 3), (4, 0.3, 8, 4), (4, 0.1, 8, 5)],
    )
    def test_unlisted_levels_are_not_spurious(
        self, capsys, n, xi, orbitals, max_quanta
    ):
        """CI states that reproduce levels above the cutoff were counted as
        spurious (exit 3); the horizon now stops tol below the lowest level
        of the cutoff+1 shell."""
        data = run_json(
            capsys,
            "compare", "--n", str(n), "--xi", str(xi), "--orbitals", str(orbitals),
            "--max-quanta", str(max_quanta), "--tol", "1e-4",
        )
        model = osc.make_model(n, xi)
        shell = max_quanta + 1
        unlisted = min(osc.level_energy(model, q, shell - q) for q in range(shell + 1))
        assert data["spurious"] == [] and data["ok"] is True
        assert data["horizon"] <= unlisted - 1e-4 + 1e-8

    @pytest.mark.filterwarnings("ignore:accidental energy coincidence")
    def test_exact_coincidences_pass(self, capsys):
        """At xi = 0 every shell is one degenerate cluster; matching a CI
        state to the nearest level credited one level of each cluster and
        reported the others missing (exit 3)."""
        data = run_json(
            capsys,
            "compare", "--n", "4", "--xi", "0.0", "--orbitals", "8",
            "--max-quanta", "4", "--tol", "1e-4",
        )
        assert data["ok"] is True and data["spurious"] == []

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


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGolden:
    """The CLI reproduces each committed artifact byte for byte."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("compare_n3_m10.json",
             "compare --n 3 --xi 0.1 --orbitals 10 --max-quanta 4 --tol 1e-4"),
            ("compare_n4_m8.json",
             "compare --n 4 --xi 0.1 --orbitals 8 --max-quanta 4 --tol 1e-4"),
            ("ci_n3_m6_xi0.45.json", "ci --n 3 --xi 0.45 --orbitals 6 --ms all"),
            ("ci_n4_m5_xi0.6.json", "ci --n 4 --xi 0.6 --orbitals 5 --ms all"),
            ("allowed_n3.json", "allowed --n 3 --verify constructive"),
            ("allowed_n4.json", "allowed --n 4 --verify constructive"),
        ],
    )
    def test_reproduces_artifact(self, capsys, name, argv):
        rc, out, err = run_cli(capsys, *argv.split())
        assert rc == 0, err
        assert out == (GOLDEN / name).read_text()


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["ci", "--n", "3", "--xi", "0.1", "--orbitals", "4", "--ms", "1/0"],
            ["project", "--n", "3", "--nsym", "-1", "--irrep", "E"],
            ["project", "--n", "3", "--nsym", "2", "--nlast", "-3", "--irrep", "E"],
            # refused before any of the C(80, 4) determinants is built
            ["ci", "--n", "4", "--xi", "0.1", "--orbitals", "40"],
        ],
        ids=["ms-zero-denominator", "negative-nsym", "negative-nlast", "too-wide"],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith(("error:", "usage error:"))

    @pytest.mark.parametrize(
        "argv,ms",
        [
            (["ci", "--n", "4", "--xi", "0.1", "--orbitals", "2", "--ms", "2"], "2"),
            (["compare", "--n", "4", "--xi", "0.1", "--orbitals", "4",
              "--max-quanta", "2", "--tol", "1e-4", "--ms", "1/2"], "1/2"),
            (["ci", "--n", "3", "--xi", "0.1", "--orbitals", "3",
              "--ms", "nan"], "nan"),
        ],
        ids=["ci-n4-ms2-m2", "compare-n4-ms1/2", "ci-ms-nan"],
    )
    def test_empty_ms_sector_is_a_usage_error(self, capsys, argv, ms):
        """No determinant has this M_s; the error says which sector of which
        basis came out empty."""
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert f"--ms {ms}" in err and "N=" in err and "orbitals" in err

    @pytest.mark.parametrize(
        "argv,spin,ms",
        [
            (["--n", "3", "--orbitals", "8", "--ms", "3/2"], "S=0.5", "1.5"),
            (["--n", "4", "--orbitals", "6", "--ms", "1"], "S=0", "1"),
            (["--n", "4", "--orbitals", "4", "--ms", "2"], "S=0", "2"),
        ],
        ids=["n3-ms3/2", "n4-ms1", "n4-ms2"],
    )
    def test_compare_sector_without_allowed_spin(self, capsys, argv, spin, ms):
        """An M_s sector above the smallest allowed spin verified nothing
        and still reported ok; it is a usage error naming both."""
        rc, out, err = run_cli(
            capsys, "compare", "--xi", "0.1", "--max-quanta", "3", "--tol", "1e-4",
            *argv,
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert spin in err and f"|M_s| >= {ms}" in err

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


def _fresh_import(module, names):
    """Run ``import module`` in a fresh interpreter on this source tree and
    return the sorted names of ``sys.modules`` that ``names`` selects."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if {names}))"
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def test_package_import_loads_nothing():
    """``import permsym`` loads no numpy and none of its own modules, so the
    CLI's PERMSYM_THREADS cap runs before BLAS loads."""
    loaded = "m.split('.')[0] == 'numpy' or m.startswith('permsym.')"
    assert _fresh_import("permsym", loaded) == "[]"


@pytest.mark.parametrize(
    "module", [f"permsym.{m}" for m in ("spin", "ci", "cli", "oscillator", "levelsym")]
)
def test_cli_import_needs_numpy_only(module):
    """The package declares numpy as its only dependency: importing any of
    these modules first, in a fresh interpreter, must succeed (no import
    cycle) and must not pull in scipy."""
    assert _fresh_import(module, "m.split('.')[0] == 'scipy'") == "[]"
