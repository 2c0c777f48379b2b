"""End-to-end tests of the qubokit command-line interface."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import qubokit.cli as cli
from qubokit import (
    NumericError,
    QuboInstance,
    brute_force_min,
    load_instance,
    save_instance,
    tree_dp_min,
)
from qubokit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_instance_and_reports(self, tmp_path, capsys):
        path = tmp_path / "inst.qubo"
        code, out, _ = run_cli(
            capsys, "gen", "--class", "random", "--n", "20", "--p", "0.2",
            "--seed", "3", "-o", str(path),
        )
        assert code == 0
        q = load_instance(path.read_text(encoding="utf-8"))
        assert q.n == 20
        nnz = int(np.count_nonzero(q.h)) + q.num_couplings
        assert out == f"n=20 nnz={nnz} seed=3\n"

    def test_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.qubo", tmp_path / "b.qubo"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "gen", "--class", "maxcut", "--n", "15", "--p", "0.3",
                "--seed", "7", "-o", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mis_on_complete_graph(self, tmp_path, capsys):
        # p=1.0 yields the complete graph; its maximum independent set is a
        # single vertex, so the verified minimum energy is -1
        path = tmp_path / "mis.qubo"
        code, _, _ = run_cli(
            capsys, "gen", "--class", "mis", "--n", "5", "--p", "1.0",
            "-o", str(path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["min_energy"] == -1.0
        assert report["argmin"].count("1") == 1

    def test_invalid_density_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--class", "random", "--n", "5", "--p", "1.5",
            "-o", str(tmp_path / "x.qubo"),
        )
        assert code == 1
        assert "p" in err


@pytest.fixture()
def instance_path(tmp_path, capsys):
    path = tmp_path / "er.qubo"
    assert main(["gen", "--class", "random", "--n", "18", "--p", "0.2",
                 "--seed", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestSolve:
    def test_summary_fields(self, instance_path, capsys):
        code, out, _ = run_cli(
            capsys, "solve", instance_path, "--algo", "sa", "-R", "8",
            "--steps", "20", "--seed", "4",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["algo"] == "sa"
        assert summary["n"] == 18
        assert summary["replicas"] == 8
        assert summary["budget"] == 20 * 18
        assert summary["spin_updates"] >= summary["budget"]
        assert set(summary["best_assignment"]) <= {"0", "1"}
        assert len(summary["best_assignment"]) == 18
        q = load_instance(open(instance_path, encoding="utf-8").read())
        x = np.array([int(c) for c in summary["best_assignment"]], dtype=np.uint8)
        from qubokit import energy

        assert energy(q, x) == pytest.approx(summary["best_energy"], abs=1e-9)

    def test_summary_to_file(self, instance_path, tmp_path, capsys):
        spath = tmp_path / "s.json"
        code, out, _ = run_cli(
            capsys, "solve", instance_path, "-R", "4", "--steps", "10",
            "--summary", str(spath),
        )
        assert code == 0
        assert out == ""
        assert json.loads(spath.read_text(encoding="utf-8"))["algo"] == "ibp"

    def test_csv_format(self, instance_path, tmp_path, capsys):
        cpath = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys, "solve", instance_path, "--algo", "sa", "-R", "4",
            "--steps", "10", "--csv", str(cpath),
        )
        assert code == 0
        text = cpath.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "spin_updates,best,median,p01"
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0"
        for token in first[1:]:
            float(token)  # repr floats parse back
        ups = [int(line.split(",", 1)[0]) for line in lines[1:]]
        assert ups == sorted(ups)

    def test_identical_seeds_identical_csv(self, instance_path, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "solve", instance_path, "-R", "8", "--steps", "15",
                "--seed", "2", "--csv", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_budget_zero_initial_checkpoint_only(self, instance_path, tmp_path, capsys):
        cpath = tmp_path / "z.csv"
        code, _, _ = run_cli(
            capsys, "solve", instance_path, "--budget", "0", "--csv", str(cpath),
        )
        assert code == 0
        lines = cpath.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_checkpoint_count_is_close_to_target(self, instance_path, tmp_path, capsys):
        cpath = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys, "solve", instance_path, "--algo", "sa", "-R", "4",
            "--steps", "50", "--checkpoints", "10", "--csv", str(cpath),
        )
        assert code == 0
        rows = len(cpath.read_text(encoding="utf-8").splitlines()) - 1
        assert 10 <= rows <= 13  # initial point plus one per crossing


class TestGoldenCsv:
    # sha256 of the checkpoint CSV of one seeded run per solver: any change
    # to a seeded trajectory or to the CSV bytes changes them.  Looked up by
    # algo, so that the test ids do not change when a digest is re-recorded.
    DIGESTS = {
        "sa": "6ffe49bdd7bf8a70ed58c90810d314016aa9addd971f8c31c54ddd5751412206",
        "ibp": "c8a6fb8bb066e1b2ba947f13679d22cc67ada71641e590b476087779a1c1133c",
    }

    @pytest.mark.parametrize("algo", ["sa", "ibp"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_checkpoint_csv_digest(self, tmp_path, capsys, algo, threads):
        path = tmp_path / "r40.qubo"
        assert main(["gen", "--class", "random", "--n", "40", "--p", "0.1",
                     "--seed", "7", "-o", str(path)]) == 0
        cpath = tmp_path / "cp.csv"
        code, _, _ = run_cli(
            capsys, "solve", str(path), "--algo", algo, "-R", "70", "--steps", "30",
            "--seed", "3", "--checkpoints", "40", "--threads", threads,
            "--csv", str(cpath),
        )
        assert code == 0
        assert hashlib.sha256(cpath.read_bytes()).hexdigest() == self.DIGESTS[algo]


class TestBench:
    def test_csv_has_both_algorithms(self, instance_path, tmp_path, capsys):
        cpath = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", instance_path, "-R", "8", "--steps", "25",
            "--csv", str(cpath),
        )
        assert code == 0
        lines = cpath.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "algo,spin_updates,best,median,p01"
        algos = {line.split(",")[0] for line in lines[1:]}
        assert algos == {"ibp", "sa"}

    def test_budgets_are_equalized(self, instance_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", instance_path, "-R", "4", "--steps", "30",
        )
        assert code == 0
        lines = out.splitlines()
        budget = 30 * 18
        final = {}
        for line in lines[1:]:
            algo, ups, _rest = line.split(",", 2)
            final[algo] = int(ups)
        for algo, ups in final.items():
            assert budget <= ups < budget + 18  # overshoot below one step

    def test_stdout_when_no_csv_path(self, instance_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", instance_path, "-R", "2", "--steps", "5",
        )
        assert code == 0
        assert out.startswith("algo,spin_updates,best,median,p01\n")


class TestVerify:
    def test_matches_oracles(self, tmp_path, capsys):
        path = tmp_path / "v.qubo"
        assert main(["gen", "--class", "random", "--n", "10", "--p", "0.25",
                     "--seed", "5", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        q = load_instance(path.read_text(encoding="utf-8"))
        x, e = brute_force_min(q)
        assert report["min_energy"] == e
        assert report["argmin"] == "".join(str(int(b)) for b in x)
        assert report["n"] == 10

    def test_forest_min_on_tree_instance(self, tmp_path, capsys):
        path = tmp_path / "tree.qubo"
        # sparse enough to be a forest with overwhelming probability at n=8
        assert main(["gen", "--class", "random", "--n", "8", "--p", "0.1",
                     "--seed", "2", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        q = load_instance(path.read_text(encoding="utf-8"))
        try:
            want = tree_dp_min(q)
        except ValueError:
            want = None
        assert report["forest_min"] == want
        if want is not None:
            assert report["forest_min"] == pytest.approx(report["min_energy"])


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent/path.qubo")
        assert code == 2
        assert "qubokit" in err

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qubo"
        bad.write_text("qubo 3 1\n0 zero -1.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["verify", "solve", "bench"])
    def test_parse_error_names_its_line_and_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.qubo"
        bad.write_text("# c\nqubo 3 1\n0 1 -1.0\n\n1 2 1.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2
        assert err == "qubokit: parse error: line 5: extra record '1 2 1.0'; header declared 1\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "solve", "bench"])
    def test_unallocatable_instance_exits_1(self, tmp_path, capsys, command):
        # numpy refuses the 728 TiB field array at once; nothing is filled
        huge = tmp_path / "huge.qubo"
        huge.write_text("qubo 100000000000000 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(huge))
        assert code == 1
        assert err.startswith("qubokit: out of memory: ")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_non_finite_penalty_exits_1(self, tmp_path, capsys, penalty):
        path = tmp_path / "bad.qubo"
        code, out, err = run_cli(
            capsys, "gen", "--class", "mis", "--n", "5", "--p", "0.5",
            "--penalty", penalty, "-o", str(path),
        )
        assert code == 1
        assert "penalty" in err
        assert out == ""
        assert not path.exists()

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "x.qubo", "--frobnicate")
        assert code == 1

    def test_missing_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_numeric_failure_exits_3(self, instance_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("non-finite message")

        monkeypatch.setattr(cli, "ibp_run", boom)
        code, _, err = run_cli(capsys, "solve", instance_path, "--algo", "ibp")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("algo", ["ibp", "sa", "verify"])
    def test_overflowing_energies_exit_3(self, tmp_path, capsys, algo):
        # finite coefficients whose energies overflow: every command must
        # fail loudly rather than report a NaN median or an infinite minimum
        q = QuboInstance(3, h=[-1e308] * 3, couplings={(0, 1): 1e308, (1, 2): 1e308})
        path = tmp_path / "huge.qubo"
        path.write_text(save_instance(q), encoding="utf-8")
        if algo == "verify":
            argv = ["verify", str(path)]
        else:
            argv = ["solve", str(path), "--algo", algo, "-R", "4", "--steps", "5"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "numeric failure" in err
        assert out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_upward_field_exits_3(self, tmp_path, capsys):
        # finite energies, but -beta*h overflows in the IBP upward sweep
        q = QuboInstance(3, h=[-1e307] * 3, couplings={(0, 1): 1.0, (1, 2): 1.0})
        path = tmp_path / "field.qubo"
        path.write_text(save_instance(q), encoding="utf-8")
        # the warnings filter "always" and a fresh record show any numpy
        # RuntimeWarning that would reach stderr outside the test
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "solve", str(path), "--algo", "ibp",
                "--beta-start", "20", "--beta-end", "20", "-R", "2",
            )
        assert code == 3
        assert err == "qubokit: numeric failure: non-finite upward field\n"
        assert [str(w.message) for w in caught] == []
        assert out == ""

    def test_negative_budget_exits_1(self, instance_path, capsys):
        code, out, err = run_cli(capsys, "solve", instance_path, "--budget", "-1")
        assert code == 1
        assert err == "qubokit: budget must be >= 0, got -1\n"
        assert out == ""

    def test_infinite_beta_exits_1_without_warning(self, instance_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve", instance_path, "--beta-end", "inf")
        assert code == 1
        assert err == "qubokit: beta must be finite and > 0, got inf\n"
        assert [str(w.message) for w in caught] == []
        assert out == ""

    @pytest.mark.parametrize(
        "algo, text",
        [
            # the SA kernel's -beta*d overflows to -inf on the 1e307 uphill
            ("sa", "qubo 3 3\n0 0 -1.0\n0 1 1e307\n1 2 -1e307\n"),
            # beta*w overflows to inf in the IBP draw
            ("ibp", "qubo 2 3\n0 0 -1.0\n0 1 1e307\n1 1 -1.0\n"),
        ],
    )
    def test_overflowing_coupling_solves_without_warning(self, tmp_path, capsys, algo, text):
        path = tmp_path / "huge.qubo"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "solve", str(path), "--algo", algo,
                "--beta-start", "20", "--beta-end", "20", "--steps", "3", "-R", "2",
            )
        assert code == 0
        assert err == ""
        assert [str(w.message) for w in caught] == []
        assert json.loads(out)["best_energy"] <= -1.0

    @pytest.mark.parametrize("algo", ["ibp", "sa"])
    def test_zero_threads_exits_1(self, instance_path, capsys, algo):
        code, out, err = run_cli(capsys, "solve", instance_path, "--algo", algo,
                                 "--threads", "0")
        assert code == 1
        assert "thread count" in err
        assert out == ""

    def test_bad_replica_count_exits_1(self, instance_path, capsys):
        code, _, _ = run_cli(capsys, "solve", instance_path, "-R", "0")
        assert code == 1
