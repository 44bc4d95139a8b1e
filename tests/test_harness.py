import json

import pytest

from stabilitylab.harness import main, random_az_trivial_words, read_config
from stabilitylab.marked import az_oracle


class TestTrivialWordGenerator:
    def test_words_die_in_the_limit(self):
        oracle = az_oracle()
        for word in random_az_trivial_words(30, seed=11):
            assert oracle.word_is_identity(word)

    def test_deterministic(self):
        assert random_az_trivial_words(10, seed=3) == random_az_trivial_words(10, seed=3)


class TestCLI:
    def test_alt_convergence(self, tmp_path):
        assert main(["alt-convergence", "--r-max", "4", "--nu-radius", "5",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "alt_convergence.csv").read_text().splitlines()
        assert lines[0].startswith("#") and lines[1] == "n,nu,saturated,distance"
        assert len(lines) == 5

    def test_neumann(self, tmp_path):
        assert main(["neumann", "--words", "4", "--length", "4",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "neumann_tail_defects.csv").read_text().splitlines()
        assert len(lines) == 6
        for line in lines[2:]:
            assert line.split(",")[1] == "1"  # all generated words die in the limit

    def test_vershik_single_sample(self, tmp_path):
        assert main(["vershik", "--ns", "3", "--samples", "1", "--window", "4",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "vershik_alt_3.jsonl").read_text().splitlines()
        entries = [json.loads(r) for r in rows]
        assert sum(e["mass"] for e in entries) == pytest.approx(1.0)
        assert all(e["n_samples"] == 1 for e in entries)

    def test_subshift_kr(self, tmp_path):
        assert main(["subshift-kr", "--substitution", "thue-morse",
                     "--seeds", "a,ab", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "kr_a.json").exists()
        lines = (tmp_path / "kr_checks.csv").read_text().splitlines()
        assert all(line.endswith(",1") for line in lines[2:])

    def test_fullgroup_irs_identical_levels(self, tmp_path):
        assert main(["fullgroup-irs", "--levels", "aa,aa",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "fullgroup_tv.csv").read_text().splitlines()
        tv_row = [r for r in rows if r.startswith("aa,aa")][0]
        assert float(tv_row.split(",")[2]) == 0.0

    @pytest.mark.parametrize("argv", [
        ["dgen", "--instances", "4", "--size", "5"], ["subshift-kr"],
        ["fullgroup-embed"], ["fullgroup-irs", "--k", "2"]],
        ids=["dgen", "subshift-kr", "fullgroup-embed", "fullgroup-irs-k2"])
    def test_reproducible_outputs(self, argv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names and names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("instances=3\nsize=4\nseed=2\n")
        assert main(["dgen", "--config", str(cfg), "--size", "5",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "dgen.csv").read_text()
        assert "size=5" in text  # the flag beat the config file
        assert len(text.splitlines()) == 5

    @pytest.mark.parametrize("command", ["alt-convergence", "subshift-kr",
                                         "fullgroup-embed", "fullgroup-irs"])
    def test_unused_seed_option_is_rejected(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_option_prefix_is_not_expanded(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vershik", "--sample", "10", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--sample" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["subshift-kr", "fullgroup-irs"])
    def test_tolerance_is_not_an_option(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tolerance", "1e-9", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tolerance=1e-9\n")
        with pytest.raises(SystemExit, match="unknown config field 'tolerance'"):
            main([command, "--config", str(cfg), "--out", str(tmp_path)])

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(SystemExit, match="bogus"):
            main(["dgen", "--config", str(cfg), "--out", str(tmp_path)])

    def test_config_value_of_wrong_type(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("size=abc\n")
        with pytest.raises(SystemExit, match="'abc' for config field 'size'"):
            main(["dgen", "--config", str(cfg), "--out", str(tmp_path)])

    @pytest.mark.parametrize("argv, message", [
        (["dgen", "--size", "0"], "at least one point"),
        (["fullgroup-irs", "--levels", ","], "at least one partition level")],
        ids=["dgen-empty-actions", "fullgroup-irs-no-levels"])
    def test_empty_input_exits_with_a_message(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--restarts", "-3"], "restarts must be >= 1, got -3"),
        (["--restarts", "0"], "restarts must be >= 1, got 0"),
        (["--instances", "0"], "instances must be >= 1, got 0")],
        ids=["negative-restarts", "no-restarts", "no-instances"])
    def test_dgen_rejects_bad_counts(self, argv, message, tmp_path, capsys):
        assert main(["dgen", *argv, "--out", str(tmp_path)]) == 1
        assert f"error in dgen: {message}" in capsys.readouterr().err
        assert not (tmp_path / "dgen.csv").exists()

    def test_module_error_returns_nonzero(self, tmp_path, capsys):
        code = main(["subshift-kr", "--seeds", "bb", "--out", str(tmp_path)])
        assert code == 1
        assert "subshift-kr" in capsys.readouterr().err

    def test_repeated_substitution_rule_exits_with_a_message(self, tmp_path, capsys):
        code = main(["subshift-kr", "--substitution", "a->ab;b->a;a->aab",
                     "--out", str(tmp_path)])
        assert code == 1
        assert ("error in subshift-kr: letter 'a' has more than one rule"
                in capsys.readouterr().err)

    def test_read_config_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a config line\n")
        with pytest.raises(SystemExit):
            read_config(str(cfg))
