import csv
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from permsym import ci as cimod
from permsym import cli
from permsym import levelsym
from permsym import oscillator as osc
from permsym import spin, symgroup
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

    def test_nine_significant_digits(self, capsys):
        data = run_json(
            capsys, "spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "0"
        )
        assert data["levels"][0]["energy"] == float("1.49640586")

    def test_negative_xi_in_exponent_notation(self, capsys):
        """A bare -1e-05 is a value, not an option, and a coupling this close
        to zero prints strict JSON (no NaN or Infinity)."""
        argv = ("spectrum", "--n", "3", "--max-quanta", "1")
        rc, out, err = run_cli(capsys, *argv, "--xi", "-1e-05")
        assert rc == 0, err
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
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

    def test_each_n_sym_computed_once(self, capsys, monkeypatch):
        """A level's characters depend on (N, n_sym) alone: at Q = 30 the
        Molien series runs Q + 1 times per N, not once per level."""
        series = {3: 0, 4: 0}
        partitions = levelsym.partitions

        def counted(n):
            series[n] += 1
            return partitions(n)

        monkeypatch.setattr(levelsym, "partitions", counted)
        levelsym.level_characters.cache_clear()
        for n in (3, 4):
            rc, _, err = run_cli(
                capsys, "irreps", "--n", str(n), "--xi", "0.1", "--max-quanta", "30"
            )
            assert rc == 0, err
        assert series == {3: 31, 4: 31}


#: every irrep at every level (n_sym, 0) up to n_sym 6 (N=3) and 4 (N=4),
#: and at N=3 n_sym 68, 72 and 120, where a D(p) whose rounding compounds
#: with the degree fails the rank guard
PROJECT_CASES = [
    (n, n_sym, irrep)
    for n, degrees in ((3, [*range(7), 68, 72, 120]), (4, range(5)))
    for n_sym in degrees
    for irrep in symgroup.character_table(n).irreps
]


class TestProject:
    @pytest.mark.parametrize("n,n_sym,irrep", PROJECT_CASES)
    def test_copies_are_the_level_multiplicity(self, capsys, n, n_sym, irrep):
        """``copies`` is the irrep's multiplicity in the level as ``irreps``
        reports it, 0 included, and ``copies * dimension`` vectors are given
        over the level's basis."""
        levels = run_json(
            capsys, "irreps", "--n", str(n), "--xi", "0.1", "--max-quanta", str(n_sym)
        )["levels"]
        (mults,) = [lv["irrep_mults"] for lv in levels if lv["quanta_key"] == [n_sym, 0]]
        data = run_json(
            capsys, "project", "--n", str(n), "--nsym", str(n_sym), "--irrep", irrep
        )
        assert data["copies"] == mults[irrep]
        assert len(data["vectors"]) == data["copies"] * data["dimension"]
        assert all(len(v) == data["level"]["degeneracy"] for v in data["vectors"])
        vecs = np.array(data["vectors"]).reshape(-1, data["level"]["degeneracy"])
        assert np.abs(vecs @ vecs.T - np.eye(len(vecs))).max(initial=0.0) < 1e-8

    def test_a2_vector(self, capsys):
        data = run_json(capsys, "project", "--n", "3", "--nsym", "3", "--irrep", "A2")
        assert data["copies"] == 1 and data["dimension"] == 1
        patterns = [tuple(p) for p in data["basis_patterns"]]
        vec = data["vectors"][0]
        comp = dict(zip(patterns, vec))
        # one-dimensional span of psi_30 - sqrt(3) psi_12 (normalized basis)
        ratio = comp[(3, 0)] / comp[(1, 2)]
        assert abs(ratio) == pytest.approx(3**-0.5, abs=1e-8)
        # pivot convention: positive at the heaviest component
        assert vec == pytest.approx([0.0, 3**0.5 / 2, 0.0, -0.5], abs=1e-8)

    def test_deep_level(self, capsys):
        data = run_json(capsys, "project", "--n", "3", "--nsym", "12", "--irrep", "E")
        vecs = np.array(data["vectors"])
        assert vecs.shape == (2 * data["copies"], 13)
        assert np.abs(vecs @ vecs.T - np.eye(len(vecs))).max() < 1e-8

    @pytest.mark.parametrize("doctor", ["one vector short", "one vector over", "scaled"])
    def test_doctored_projector_exits_2(self, capsys, monkeypatch, doctor):
        """A projector of the wrong rank, or not a projector at all, fails
        salc's one check: NumericalIntegrityError, exit 2."""
        model = osc.make_model(4, 0.1)
        table = symgroup.character_table(4)
        level = osc.make_level(model, 3, 0)
        t2 = levelsym.salc(model, level, table, "T2")
        a1 = levelsym.salc(model, level, table, "A1")
        projector = levelsym.character_projector

        def doctored(*args):
            proj = projector(*args)
            if doctor == "one vector short":
                return proj - np.outer(t2[0], t2[0])
            if doctor == "one vector over":  # a unit vector outside the span
                return proj + np.outer(a1[0], a1[0])
            return 1.1 * proj

        monkeypatch.setattr(levelsym, "character_projector", doctored)
        with pytest.raises(NumericalIntegrityError, match="6 orthonormal vectors"):
            levelsym.salc(model, level, table, "T2")
        rc, out, err = run_cli(
            capsys, "project", "--n", "4", "--nsym", "3", "--irrep", "T2"
        )
        assert rc == 2 and out == ""
        assert err.startswith("numerical integrity error:")

    def test_unknown_irrep_exits_1(self, capsys):
        rc, _, err = run_cli(
            capsys, "project", "--n", "3", "--nsym", "3", "--irrep", "T1"
        )
        assert rc == 1
        assert err == "error: no irrep labelled 'T1'\n"


class TestAllowed:
    def test_routes_disagreeing_exit_2(self, capsys, monkeypatch):
        def wrong(n):
            return {**spin.allowed_spatial_irreps(n), "A1": (0.5,)}

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

    @pytest.mark.parametrize("n,xi,orbitals", [(3, -0.3, 5), (4, 0.6, 5)])
    def test_json_states_are_the_solved_rows(self, capsys, n, xi, orbitals):
        """``ci`` prints the rows ``ci_solve`` returns, keys in order, with
        only the floats rounded to 9 significant digits."""
        data = run_json(
            capsys, "ci", "--n", str(n), "--xi", str(xi), "--orbitals", str(orbitals)
        )
        rows = cimod.ci_solve(osc.make_model(n, xi), cimod.build_basis(n, orbitals))
        assert [list(row) for row in rows] == [["energy", "S", "Ms", "parity"]] * len(rows)
        assert data["states"] == cli._round9(rows)

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


def _no_ci(*args, **kwargs):
    raise AssertionError("CI basis built")


class TestCompare:
    @pytest.mark.parametrize(
        "n,xi,orbitals,max_quanta",
        [(3, 0.3, 12, 3), (3, -0.3, 12, 3), (4, 0.3, 8, 4), (4, 0.1, 8, 5),
         (4, -0.27, 8, 8)],
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
            return report._replace(spurious=(1.23,), ok=False)

        monkeypatch.setattr(cli.cimod, "compare", doctored)
        rc, out, _ = run_cli(
            capsys,
            "compare", "--n", "3", "--xi", "0.1", "--orbitals", "4",
            "--max-quanta", "2", "--tol", "1e-4",
        )
        assert rc == 3
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            "--n 3 --xi 0.1 --orbitals 8 --max-quanta 4 --tol 10",
            "--n 3 --xi 0.999 --orbitals 8 --max-quanta 4 --tol 1e-4",
            "--n 4 --xi -0.333 --orbitals 8 --max-quanta 4 --tol 1e-4",
            "--n 3 --xi 0.1 --orbitals 6 --max-quanta 3 --tol 1e-300",
            "--n 4 --xi -0.27 --orbitals 8 --max-quanta 4 --tol 1e-4",
        ],
    )
    def test_vacuous_comparison_is_a_usage_error(self, capsys, argv):
        """No allowed exact state below the horizon: nothing is verified,
        so the run exits 1 instead of reading as a pass.  Only where the
        horizon is the clip at tol below the first unlisted level can a
        smaller --tol or a larger --max-quanta help (at xi = -0.27 only the
        cutoff does: 8 passes above); where an unconverged block draws it
        at a listed level (xi = 0.999 and tol = 1e-300), a larger --tol can."""
        rc, out, err = run_cli(capsys, "compare", *argv.split())
        assert rc == 1 and out == ""
        assert "below the horizon" in err and "--orbitals" in err
        clipped = argv.endswith("--tol 10") or "-0.333" in argv or "-0.27" in argv
        assert ("smaller --tol" in err) == clipped
        assert ("larger --tol" in err) != clipped
        assert ("--max-quanta" in err) == clipped

    @pytest.mark.parametrize(
        "argv",
        [
            "--n 4 --xi 0.1 --orbitals 10 --max-quanta 1 --tol 1e-9",
            "--n 4 --xi 0.1 --orbitals 10 --max-quanta 0 --tol 1e-9",
            "--n 3 --xi 0.1 --orbitals 10 --max-quanta 0 --tol 1e-9",
        ],
    )
    def test_cutoff_without_allowed_level_names_max_quanta(
        self, capsys, monkeypatch, argv
    ):
        """The listed levels hold only forbidden irreps: no --orbitals or
        --tol can help, so the usage error names --max-quanta, before any CI."""
        monkeypatch.setattr(cli.cimod, "build_basis", _no_ci)
        rc, out, err = run_cli(capsys, "compare", *argv.split())
        assert rc == 1 and out == ""
        assert "--max-quanta" in err and "--orbitals" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "--n 4 --xi 0.1 --orbitals 10 --max-quanta 2 --tol 1e-9",
            "--n 3 --xi 0.1 --orbitals 10 --max-quanta 1 --tol 1e-9",
        ],
    )
    def test_first_allowed_level_reaches_ci(self, monkeypatch, argv):
        """From the first level that holds an allowed irrep (the E of n_sym
        = 2 for N=4, of n_sym = 1 for N=3) the run goes on to the CI."""
        monkeypatch.setattr(cli.cimod, "build_basis", _no_ci)
        with pytest.raises(AssertionError, match="CI basis built"):
            cli.main(["compare", *argv.split()])

    @pytest.mark.parametrize(
        "q, message",
        [("-1", "max_total_quanta must be >= 0"), ("201", "cutoff 201 gives 20503")],
    )
    def test_bad_cutoff_refused_before_ci(self, capsys, monkeypatch, q, message):
        """enumerate_levels' refusal comes before the allowed-level check
        and before any CI."""
        monkeypatch.setattr(cli.cimod, "build_basis", _no_ci)
        argv = f"--n 4 --xi 0.1 --orbitals 8 --max-quanta {q} --tol 1e-4"
        rc, out, err = run_cli(capsys, "compare", *argv.split())
        assert rc == 1 and out == "" and err.startswith(f"error: {message}"), err

    def test_report_is_the_printed_json(self, capsys, model3, ci3_m10):
        """The JSON that compare prints, past its config, is the report's
        fields as they stand, at 9 significant digits."""
        argv = "--n 3 --xi 0.1 --orbitals 10 --max-quanta 4 --tol 1e-4"
        data = run_json(capsys, "compare", *argv.split())
        del data["config"]
        report = cimod.compare(model3, ci3_m10, 4, spin.allowed_spatial_irreps(3), 1e-4)
        assert data == json.loads(json.dumps(cli._round9(report._asdict())))
        assert data["matched"] and data["missing"]


GOLDEN = pathlib.Path(__file__).parent / "golden"
#: the reference invocations: argv, exit code, and either the file of the
#: expected stdout or, with stdout empty, the start of the expected stderr
INVOCATIONS = json.loads((GOLDEN / "invocations.json").read_text())


@pytest.mark.parametrize("entry", INVOCATIONS, ids=lambda e: " ".join(e["argv"]))
def test_reference_invocation(capsys, entry):
    """The CLI reproduces each pinned output byte for byte.  Vectors of
    ``project`` depend on the projector alone, so they hold to the entry's
    float_tol (their last printed digit) on any numpy build; every other
    field is exact."""
    rc, out, err = run_cli(capsys, *entry["argv"])
    assert rc == entry["exit"], err
    if "stderr" in entry:
        assert out == "" and err.startswith(entry["stderr"]), err
    elif "float_tol" in entry:
        expected = json.loads((GOLDEN / entry["stdout"]).read_text())
        assert same_within(json.loads(out), expected, entry["float_tol"])
    else:  # CSV rows end in \r\n
        assert out == (GOLDEN / entry["stdout"]).read_bytes().decode()


def test_every_golden_is_one_invocation():
    """Each file in tests/golden/ is the stdout of exactly one entry, each
    entry pins stdout or stderr, and no argv is listed twice."""
    fields = {"argv", "exit", "stdout", "stderr", "float_tol", "note"}
    assert all(set(e) <= fields and ("stdout" in e) != ("stderr" in e) for e in INVOCATIONS)
    named = sorted(e["stdout"] for e in INVOCATIONS if "stdout" in e)
    assert named == sorted(p.name for p in GOLDEN.iterdir() if p.name != "invocations.json")
    argvs = [tuple(e["argv"]) for e in INVOCATIONS]
    assert len(set(argvs)) == len(argvs)


def same_within(a, b, tol):
    """Equal JSON values, floats within tol, keys in the same order."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tol
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same_within(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_within(x, y, tol) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class TestExitCodes:
    def test_unknown_command(self, capsys):
        rc, _, err = run_cli(capsys, "frobnicate")
        assert rc == 1
        assert "usage error" in err

    def test_missing_required_flag(self, capsys):
        rc, _, err = run_cli(capsys, "spectrum", "--n", "3")
        assert rc == 1

    def test_nonpositive_tol(self, capsys):
        for tol in ("-1", "inf"):
            rc, _, err = run_cli(
                capsys,
                "compare", "--n", "3", "--xi", "0.1", "--orbitals", "4",
                "--max-quanta", "2", "--tol", tol,
            )
            assert rc == 1, tol

    @pytest.mark.parametrize(
        "argv",
        [
            ["ci", "--n", "3", "--xi", "0.1", "--orbitals", "4", "--ms", "abc"],
            ["ci", "--n", "3", "--xi", "0.1", "--orbitals", "4", "--ms", "1/2/3"],
            ["project", "--n", "3", "--nsym", "-1", "--irrep", "E"],
            ["project", "--n", "3", "--nsym", "2", "--nlast", "-3", "--irrep", "E"],
        ],
        ids=["ms-not-a-number", "ms-two-slashes", "negative-nsym", "negative-nlast"],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith(("error:", "usage error:"))
        if "--ms" in argv:
            assert err.startswith(f"usage error: --ms {argv[-1]}: ")

    @pytest.mark.parametrize(
        "argv,ms",
        [
            (["ci", "--n", "4", "--xi", "0.1", "--orbitals", "2", "--ms", "2"], "2"),
            (["ci", "--n", "3", "--xi", "0.1", "--orbitals", "3",
              "--ms", "nan"], "nan"),
        ],
        ids=["ci-n4-ms2-m2", "ci-ms-nan"],
    )
    def test_empty_ms_sector_is_a_usage_error(self, capsys, argv, ms):
        """No determinant has this M_s; the error says which sector of which
        basis came out empty."""
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert f"--ms {ms}" in err and "N=" in err and "orbitals" in err

    def test_integrity_error_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalIntegrityError("injected")

        monkeypatch.setattr(cli.levelsym, "attach_multiplicities", boom)
        rc, _, err = run_cli(
            capsys, "irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "1"
        )
        assert rc == 2
        assert "integrity" in err

    def test_key_error_is_a_defect_not_a_usage_error(self, monkeypatch):
        """Bad labels raise ValueError; a KeyError keeps its traceback."""
        def boom(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_cmd_table", boom)
        with pytest.raises(KeyError, match="x"):
            cli.main(["table", "--n", "3"])


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

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (("table", "--n", "3"), [("command", "table"), ("n", 3), ("format", "json")]),
            (
                ("spectrum", "--n", "3", "--xi", "0.1", "--max-quanta", "1"),
                [("command", "spectrum"), ("n", 3), ("xi", 0.1), ("max_quanta", 1),
                 ("format", "json")],
            ),
            (
                ("irreps", "--n", "4", "--xi", "0.1", "--max-quanta", "2"),
                [("command", "irreps"), ("n", 4), ("xi", 0.1), ("max_quanta", 2),
                 ("format", "json")],
            ),
            (
                ("project", "--n", "3", "--nsym", "3", "--irrep", "A2"),
                [("command", "project"), ("n", 3), ("xi", 0.1), ("n_sym", 3),
                 ("n_last", 0), ("irrep", "A2"), ("format", "json")],
            ),
            (("allowed", "--n", "4"), [("command", "allowed"), ("n", 4), ("format", "json")]),
            (
                ("allowed", "--n", "3", "--verify", "constructive"),
                [("command", "allowed"), ("n", 3), ("verify", "constructive"),
                 ("format", "json")],
            ),
            (
                ("ci", "--n", "3", "--xi", "0.2", "--orbitals", "4", "--ms", "-1/2"),
                [("command", "ci"), ("n", 3), ("xi", 0.2), ("orbitals", 4),
                 ("ms", "-1/2"), ("format", "json")],
            ),
            (
                ("compare", "--n", "4", "--xi", "0.1", "--orbitals", "6",
                 "--max-quanta", "3", "--tol", "1e-3"),
                [("command", "compare"), ("n", 4), ("xi", 0.1), ("orbitals", 6),
                 ("max_quanta", 3), ("ms", "0"), ("tol", 0.001), ("format", "json")],
            ),
        ],
        ids=["table", "spectrum", "irreps", "project", "allowed", "allowed_verify",
             "ci", "compare"],
    )
    def test_whole_echo_in_order(self, capsys, argv, echo):
        """The echo lists the resolved values in one fixed key order and
        leaves out the unset ones; compare echoes its default M_s sector."""
        assert list(run_json(capsys, *argv)["config"].items()) == echo

    def test_csv_echo_lines(self, capsys):
        rc, out, err = run_cli(
            capsys, "spectrum", "--n", "4", "--xi", "-0.2", "--max-quanta", "1",
            "--format", "csv",
        )
        assert rc == 0, err
        assert out.splitlines()[:5] == [
            "# command=spectrum", "# n=4", "# xi=-0.2", "# max_quanta=1", "# format=csv",
        ]
        assert not out.splitlines()[5].startswith("#")

    def test_output_file_echo(self, capsys, tmp_path):
        path = tmp_path / "levels.json"
        rc, out, err = run_cli(
            capsys, "irreps", "--n", "3", "--xi", "0.3", "--max-quanta", "1",
            "--output", str(path),
        )
        assert (rc, out) == (0, "")
        assert list(json.loads(path.read_text())["config"].items()) == [
            ("command", "irreps"), ("n", 3), ("xi", 0.3), ("max_quanta", 1),
            ("format", "json"), ("output", str(path)),
        ]


class TestJsonRoundTrip:
    def test_table_rebuilds_character_table(self, capsys):
        from permsym import symgroup as sg

        data = run_json(capsys, "table", "--n", "4")
        t = data["table"]
        rebuilt = sg.CharacterTable(
            group_name=t["group_name"],
            n=t["n"],
            classes=tuple(tuple(c["cycle_type"]) for c in t["classes"]),
            class_labels=tuple(c["label"] for c in t["classes"]),
            irreps=tuple(i["label"] for i in t["irreps"]),
            chars=tuple(
                tuple(t["characters"][i["label"]]) for i in t["irreps"]
            ),
        )
        assert sg.validate_table(rebuilt) is None
        assert rebuilt == sg.character_table(4)
        assert [(c["size"], c["order"]) for c in t["classes"]] == [
            (sg.class_size(ct), sg.element_order(ct)) for ct in rebuilt.classes
        ]

    def test_irreps_rebuilds_levels(self, capsys):
        from permsym import levelsym, oscillator

        data = run_json(
            capsys, "irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "2"
        )
        model = oscillator.make_model(3, 0.1)
        direct = [
            levelsym.attach_multiplicities(model, lv)
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


def _fresh(probe, *argv, env=os.environ, python=sys.executable):
    """Run the Python source ``probe`` with ``argv`` in a fresh ``python`` on
    this source tree, in ``env`` with the tree put on PYTHONPATH."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [python, "-c", probe, *argv],
        env=dict(env, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


def _fresh_import(module, names):
    """Run ``import module`` in a fresh interpreter on this source tree and
    return the sorted names of ``sys.modules`` that ``names`` selects."""
    run = _fresh(f"import sys, {module}; print(sorted(m for m in sys.modules if {names}))")
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_package_import_loads_nothing():
    """``import permsym`` loads no numpy and none of its own modules.  Numpy
    loads only with ``ci`` or a float function, after the CLI's
    PERMSYM_THREADS cap (see ``test_thread_cap_precedes_numpy``)."""
    loaded = "m.split('.')[0] == 'numpy' or m.startswith('permsym.')"
    assert _fresh_import("permsym", loaded) == "[]"


#: runs the CLI on ``argv[2:]`` with the comma-separated modules of ``argv[1]``
#: blocked, as ``import`` of a name mapped to None in ``sys.modules`` fails
_CLI_PROBE = """
import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from permsym import cli
sys.exit(cli.main(sys.argv[2:]))
"""

#: prefixed to a probe: numpy cannot be found, as where it is not installed
_NO_NUMPY = """
import sys
assert "numpy" not in sys.modules
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, NoNumpy())
"""

#: the modules the CLI binds lazily, and those each command never runs
_CLI_MODULES = ("ci", "levelsym", "oscillator", "spin", "symgroup")
_UNUSED_MODULES = {
    "table": ("ci", "spin", "levelsym", "oscillator"),
    "spectrum": ("ci", "spin", "levelsym"),
    "irreps": ("ci", "spin"),
    "allowed": ("ci",),
    "project": ("ci", "spin"),
    "ci": ("levelsym", "spin"),
    "compare": (),
}
#: a run of each command that computes with floats, and so needs numpy
_FLOAT_ARGVS = [
    ["project", "--n", "3", "--nsym", "3", "--irrep", "E"],
    ["ci", "--n", "3", "--xi", "0.1", "--orbitals", "4"],
    ["compare", "--n", "3", "--xi", "0.1", "--orbitals", "6", "--max-quanta", "3",
     "--tol", "1e-3"],
]
_FLOAT_COMMANDS = {argv[0] for argv in _FLOAT_ARGVS}


def _assert_names_numpy(run):
    """The run failed on numpy's absence, and said so."""
    assert run.returncode != 0
    assert "No module named 'numpy'" in run.stderr
    assert "cannot import name" not in run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "3"],
        ["table", "--n", "4"],
        ["spectrum", "--n", "4", "--xi", "0.1", "--max-quanta", "6"],
        ["irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "20"],
        ["irreps", "--n", "4", "--xi", "0.1", "--max-quanta", "10"],
        ["irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "11", "--format", "csv"],
        ["allowed", "--n", "3"],
        ["allowed", "--n", "4"],
        ["allowed", "--n", "3", "--verify", "constructive"],
        ["allowed", "--n", "4", "--verify", "constructive"],
        *_FLOAT_ARGVS,
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_integer_commands_load_no_numpy(argv):
    """The integer commands never touch numpy, ``dataclasses`` or ``inspect``,
    nor the package modules they do not call: with numpy unfindable and the
    rest blocked they exit 0 and print, byte for byte, what they print
    without the block.  The float commands then fail naming numpy, not with
    an import error that hides it."""
    unused = (f"permsym.{m}" for m in _UNUSED_MODULES[argv[0]])
    names = ",".join(["dataclasses", "inspect", *unused])
    blocked = _fresh(_NO_NUMPY + _CLI_PROBE, names, *argv)
    if argv[0] in _FLOAT_COMMANDS:
        _assert_names_numpy(blocked)
        return
    free = _fresh(_CLI_PROBE, "", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout
    assert (free.returncode, free.stdout) == (0, blocked.stdout)


def test_cli_import_runs_no_package_module():
    """``import permsym.cli`` and its parser run none of the modules the CLI
    binds: with all of them blocked, ``--help`` still exits 0."""
    run = _fresh(_CLI_PROBE, ",".join(f"permsym.{m}" for m in _CLI_MODULES), "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: permsym")


#: imports the CLI, then ``permsym.ci``, then runs ``allowed --n 3`` with
#: spin's multiplet table patched through the CLI's lazy binding of spin
_BINDING_PROBE = """
import sys
import pytest
from permsym import cli
import permsym.ci
assert permsym.ci is sys.modules["permsym.ci"] is cli.cimod
assert callable(permsym.ci.ci_solve)
with pytest.MonkeyPatch.context() as mp:
    mp.setattr(cli.spin, "multiplet_table", lambda n: {0.5: 99})
    sys.exit(cli.main(["allowed", "--n", "3"]))
"""


def test_lazily_bound_modules_are_the_imported_ones():
    """A lazily bound module is the one ``import`` gives, bound on the
    package as ``import`` binds it, and a patch on it reaches the handlers."""
    run = _fresh(_BINDING_PROBE)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["multiplets"] == {"0.5": 99}


def _first_exact_entries():
    """The first reference invocation of each command pinning stdout exactly
    (``project`` pins its vectors to a tolerance only, so it has none)."""
    firsts = {}
    for entry in INVOCATIONS:
        if "stdout" in entry and "float_tol" not in entry:
            firsts.setdefault(entry["argv"][0], entry)
    return list(firsts.values())


@pytest.mark.parametrize("entry", _first_exact_entries(), ids=lambda e: " ".join(e["argv"]))
def test_reference_invocation_in_fresh_interpreter(entry):
    """Each command reproduces its pinned output where the CLI runs its
    modules lazily: in-process, the test modules have imported them all."""
    run = _fresh(_CLI_PROBE, "", *entry["argv"])
    assert run.returncode == entry["exit"], run.stderr
    assert run.stdout == (GOLDEN / entry["stdout"]).read_text()


def _other_pythons():
    """The CPythons 3.10 to 3.13 that pyenv holds besides this one, by version."""
    pyenv = shutil.which("pyenv")
    root = pyenv and subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout
    if not root:
        return {}
    own = "{}.{}.{}".format(*sys.version_info)
    found = sorted(pathlib.Path(root.strip()).glob("versions/3.1[0-3].*/bin/python3"))
    return {p.parts[-3]: str(p) for p in found if p.parts[-3] != own}


_OTHER_PYTHONS = _other_pythons()


@pytest.mark.parametrize(
    "version",
    sorted(_OTHER_PYTHONS)
    or [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython 3.10-3.13"))],
)
def test_integer_goldens_on_other_pythons(version):
    """Every reference invocation of ``table``, ``spectrum``, ``irreps`` and
    ``allowed`` holds, with numpy unfindable, on each other CPython from
    3.10 to 3.13, and the float commands fail naming numpy: before 3.13, an
    error raised while a lazily bound module runs can surface as an
    unrelated ImportError."""
    python, probe = _OTHER_PYTHONS[version], _NO_NUMPY + _CLI_PROBE
    for argv in _FLOAT_ARGVS:
        _assert_names_numpy(_fresh(probe, "", *argv, python=python))
    for entry in INVOCATIONS:
        if entry["argv"][0] in _FLOAT_COMMANDS:
            continue
        run = _fresh(probe, "", *entry["argv"], python=python)
        assert run.returncode == entry["exit"], run.stderr
        if "stderr" in entry:
            assert run.stdout == "" and run.stderr.startswith(entry["stderr"]), run.stderr
        else:
            assert run.stdout == (GOLDEN / entry["stdout"]).read_text(), entry["argv"]


#: prefixed to a probe: the package is imported from the directory
#: ``argv[1]``, popped from argv, so the probe reads its arguments as before
_FROM_DIR = """
import sys
sys.path.insert(0, sys.argv.pop(1))
"""


def _each_python():
    """This CPython and the other ones of ``_OTHER_PYTHONS``, by version; on
    those before 3.13 a package module's error can be masked (item 16)."""
    own = {"{}.{}.{}".format(*sys.version_info): sys.executable}
    masked = pytest.mark.xfail(
        strict=True, reason="ROADMAP item 16: before 3.13 an import via a CLI stub hides it"
    )
    for version in sorted({**own, **_OTHER_PYTHONS}):
        before_313 = tuple(map(int, version.split(".")[:2])) < (3, 13)
        yield pytest.param(version, marks=masked if before_313 else ())


@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("version", _each_python())
def test_module_error_is_not_masked(tmp_path, version, at):
    """A package module that raises while it runs shows its own error: in a
    copy of the package whose ``levelsym`` raises right after its
    ``__future__`` import, or at its end, ``allowed --n 3`` exits nonzero
    with that RuntimeError."""
    copy = tmp_path / "permsym"
    shutil.copytree(
        pathlib.Path(cli.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    future, boom = "from __future__ import annotations\n", "raise RuntimeError('levelsym')\n"
    source = (copy / "levelsym.py").read_text()
    assert future in source
    source = source.replace(future, future + boom) if at == "first" else source + boom
    (copy / "levelsym.py").write_text(source)
    probe, python = _FROM_DIR + _CLI_PROBE, _OTHER_PYTHONS.get(version, sys.executable)
    run = _fresh(probe, str(tmp_path), "", "allowed", "--n", "3", python=python)
    assert run.returncode != 0, run.stdout
    assert "RuntimeError: levelsym" in run.stderr, run.stderr


def test_ci_runs_no_level_symmetry():
    """``ci`` solves without the level and spin analysis that only
    ``compare`` needs: with ``permsym.levelsym`` and ``permsym.spin`` blocked
    it prints its pinned output."""
    (entry,) = [e for e in _first_exact_entries() if e["argv"][0] == "ci"]
    run = _fresh(_CLI_PROBE, "permsym.levelsym,permsym.spin", *entry["argv"])
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / entry["stdout"]).read_text()


#: imports numpy first when ``argv[1]`` is "1", then the CLI, then solves
_SOLVE_PROBE = """
import json, os, sys
if sys.argv[1] == "1":
    import numpy
import permsym.cli
from permsym import ci, oscillator
print(json.dumps(["numpy.linalg" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]))
states = ci.ci_solve(oscillator.make_model(3, 0.1), ci.build_basis(3, 6))
print(json.dumps([st["energy"] for st in states]))
"""


def test_thread_cap_precedes_numpy():
    """``import permsym.cli`` sets the BLAS thread cap and has not loaded
    numpy's linear algebra yet; numpy then loads with ``permsym.ci``, which
    runs on first use, and solves as it does when imported before the
    package (every test module's case)."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PERMSYM_THREADS"] = "1"
    lazy, eager = (_fresh(_SOLVE_PROBE, flag, env=env) for flag in ("0", "1"))
    assert lazy.returncode == 0, lazy.stderr
    assert eager.returncode == 0, eager.stderr
    lazy_state, lazy_values = map(json.loads, lazy.stdout.splitlines())
    eager_state, eager_values = map(json.loads, eager.stdout.splitlines())
    assert lazy_state == [False, "1"]
    assert eager_state[0]  # the control really loaded numpy first
    assert len(lazy_values) == math.comb(12, 3)
    np.testing.assert_allclose(lazy_values, eager_values, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "module", [f"permsym.{m}" for m in ("spin", "ci", "cli", "oscillator", "levelsym")]
)
def test_cli_import_needs_numpy_only(module):
    """The package declares numpy as its only dependency: importing any of
    these modules first, in a fresh interpreter, must succeed (no import
    cycle) and must not pull in scipy."""
    assert _fresh_import(module, "m.split('.')[0] == 'scipy'") == "[]"


#: runs the CLI on ``argv[1:]`` with at most 1 GiB of address space, so an
#: oversized CI fails in allocation instead of running for long
_CAPPED_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from permsym import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["compare", "--n", "4", "--xi", "0.1", "--orbitals", "24",
          "--max-quanta", "4", "--tol", "1e-4"], 13728),
        (["ci", "--n", "4", "--xi", "0.1", "--orbitals", "31", "--ms", "2"], 15680),
        (["ci", "--n", "4", "--xi", "0.1", "--orbitals", "31", "--ms", "all"], 38320),
    ],
    ids=["compare_m24", "ci_m31_ms2", "ci_m31_all"],
)
def test_oversized_ci_is_a_usage_error(argv, dim):
    """A CSF block above ci.MAX_CSF_BLOCK is refused (exit 1) with its dim and
    dense size, before any H entry is built: the refusal fits in 1 GiB,
    where the dense block alone would not."""
    env = dict(os.environ, PERMSYM_THREADS="1")
    run = _fresh(_CAPPED_PROBE, *argv, env=env)
    assert run.returncode == cli.EXIT_USAGE, run.stderr
    gib = 8 * dim * dim / 2**30
    assert f"CSF block has dim {dim} ({gib:.2f} GiB dense)" in run.stderr
    assert dim > cimod.MAX_CSF_BLOCK


def test_oversized_project_is_a_usage_error():
    """A level above levelsym.MAX_SALC_DEGENERACY is refused (exit 1) with
    its degeneracy and the dense size of its N! representation matrices,
    before any is built: the refusal fits in 1 GiB, where the 24 matrices
    of degeneracy 5151 would take 4.74 GiB."""
    env = dict(os.environ, PERMSYM_THREADS="1")
    argv = ["project", "--n", "4", "--nsym", "100", "--irrep", "E"]
    run = _fresh(_CAPPED_PROBE, *argv, env=env)
    assert run.returncode == cli.EXIT_USAGE, run.stderr
    assert "level (100, 0) has degeneracy 5151" in run.stderr
    assert "24 representation matrices take 4.74 GiB dense" in run.stderr
    assert 5151 > levelsym.MAX_SALC_DEGENERACY


def test_oversized_cutoff_is_a_usage_error():
    """A --max-quanta above oscillator.MAX_TOTAL_QUANTA is refused (exit 1)
    with its level count before any level is built: the refusal fits in
    1 GiB, where the 5,000,150,001 levels of cutoff 100000 would not."""
    argv = ["spectrum", "--n", "4", "--xi", "0.1", "--max-quanta", "100000"]
    run = _fresh(_CAPPED_PROBE, *argv)
    assert run.returncode == cli.EXIT_USAGE, run.stderr
    assert run.stdout == ""
    assert "cutoff 100000 gives 5000150001 levels" in run.stderr
    assert 100000 > osc.MAX_TOTAL_QUANTA
