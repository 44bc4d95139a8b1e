import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabilitylab
from stabilitylab.harness import main, random_az_trivial_words, read_config
from stabilitylab.marked import az_oracle

# CLI runs and the sha256 of every file they write.  Embedding reports hold
# no atom images, but the fullgroup-irs fingerprints are read off them; the
# vershik files carry each fingerprint's standard error; the scaled vershik run's
# three colors give two bit planes, and its samples end 3 rows past a draw
# block; the scaled dgen run agrees with the exhaustive minimum on 7 of 20
# pairs, so its descent works hard.  CI runs this test against the installed
# package, so these runs also cover the console script's outputs
PINNED_RUNS = {
    **{f"embed-{name}": ["fullgroup-embed", "--substitution", name, "--radii", "1,2,3"]
       for name in ("fibonacci", "thue-morse", "chacon")},
    "embed": ["fullgroup-embed"],
    "irs-k2": ["fullgroup-irs", "--k", "2"],
    "irs-k4": ["fullgroup-irs", "--k", "4", "--radius", "1"],
    "neumann": ["neumann"],
    "neumann-scaled": ["neumann", "--offset", "2", "--length", "4", "--words", "30",
                       "--seed", "3"],
    "alt-convergence": ["alt-convergence"],
    "alt-convergence-scaled": ["alt-convergence", "--nu-radius", "10"],
    "vershik": ["vershik", "--samples", "2000"],
    "vershik-20000": ["vershik", "--samples", "20000"],
    "vershik-scaled": ["vershik", "--alpha", "1/5,3/10,1/2", "--samples", "4099",
                       "--seed", "3"],
    "dgen": ["dgen"],
    "dgen-20": ["dgen", "--instances", "20"],
    "dgen-scaled": ["dgen", "--size", "8", "--instances", "20", "--restarts", "5",
                    "--seed", "3"],
    "subshift-kr": ["subshift-kr"],
    **{f"subshift-kr-{name}": ["subshift-kr", "--substitution", name, "--seeds", "a,ab,aab"]
       for name in ("thue-morse", "chacon")},
}
PINNED_DIGESTS = {
    "embed-fibonacci/embed_radius_1.json":
        "41b4ea2c0bbbb89ecec15e9bde32005d1b12af00f937cbca7e8dc9cc157f08e6",
    "embed-fibonacci/embed_radius_2.json":
        "2af87d39a8e39641a24de2017693b6ace9e517328efc8bb8a585df43522caee9",
    "embed-fibonacci/embed_radius_3.json":
        "ea0b40b1e918f151a2ecc638718266484c9947e7ab4ed9acdda29e6ec3e92397",
    "embed-fibonacci/embed_summary.csv":
        "ee6410dc3324f0e218e3836b8e0ae20f8f7b277ae37be7c93a1fb255edf78065",
    "embed-thue-morse/embed_radius_1.json":
        "b5d6013fffd251266d9c0eaf15ee7642cc87dd2096b72b588eacb6b11f40c62c",
    "embed-thue-morse/embed_radius_2.json":
        "1195fac64b5ccba7c0786cb9ff5f8ce2f0289cc0e78a1c38511c79cd5b8b7a90",
    "embed-thue-morse/embed_radius_3.json":
        "0f51236d2aa50cce3666896dd8c809c0eb7df93ef28a6e7884a79c95a2a8f1e4",
    "embed-thue-morse/embed_summary.csv":
        "28db497cfff06382cce59528eb307c2e8612c97940f99be43c52f1c03cf334e4",
    "embed-chacon/embed_radius_1.json":
        "05bdda17c98fa16d146699ce59abb4be615a5fc8e9e9d91c0b160281b72d7294",
    "embed-chacon/embed_radius_2.json":
        "513efd6e805c9892050d3c0a6455323a7d309b2a356281aeb42fac88da829a57",
    "embed-chacon/embed_radius_3.json":
        "aec3318132063394c37489f8c35535bf2ace120359898a5fd6c08eee93a455e8",
    "embed-chacon/embed_summary.csv":
        "f6021173f419c449bbc154947f613eb9dbb55de44036d89cdb884b805768da3f",
    "embed/embed_radius_1.json":
        "41b4ea2c0bbbb89ecec15e9bde32005d1b12af00f937cbca7e8dc9cc157f08e6",
    "embed/embed_radius_2.json":
        "2af87d39a8e39641a24de2017693b6ace9e517328efc8bb8a585df43522caee9",
    "embed/embed_summary.csv":
        "56fea0beca328bdb625fab5117ad7459c955569124d08396d2c6853e62ac8bbb",
    "irs-k2/fullgroup_irs_aa.jsonl":
        "31b779cdeb100bfc9af9971eaf6e4a628880140a8f74fcdbfc5edb49b630bbba",
    "irs-k2/fullgroup_irs_ab.jsonl":
        "0577a41aa2dc8a5dfef28ddf236b51086be8fadf1eaa53f21ef735166c1dbe16",
    "irs-k2/fullgroup_tv.csv":
        "37fe9faa81da37dc49f75164e5b1df9002d4623f3f825af5a7f6330629343c0b",
    "irs-k4/fullgroup_irs_aa.jsonl":
        "12a0e40ec2dc9f8c5eeea205c3c21182be95768869d235d6068260ddd6f742d9",
    "irs-k4/fullgroup_irs_ab.jsonl":
        "394a6a01c766452a385c65af27e1e27a92a8cca0c651e18cd655efc512e4f86b",
    "irs-k4/fullgroup_tv.csv":
        "acdbbd62ffb06753a00706ced97b665d95e96f9b4de9e250b975a971a128dded",
    "neumann/neumann_tail_defects.csv":
        "f614262a448aa20e405f994b3ce2c86947e21a06b7b1dfa5d8657db6659bfcfd",
    "neumann-scaled/neumann_tail_defects.csv":
        "fa951f7d39f3789dfdfeef369cb849af1d1dafe79792a588a2e0104831a45b82",
    "alt-convergence/alt_convergence.csv":
        "338aed39a955b2ecc8260429e17226ec029ab8a465fe0b748528f1fe2d073d39",
    "alt-convergence-scaled/alt_convergence.csv":
        "3522c997e1b94deda3d09b9b94b0d88157d0be488d2e626b91916c73440e4130",
    "vershik/vershik_alt_20.jsonl":
        "18ed7ddfba6c3a649d1656e3b01be0e252f7a2f51aa473a63ba4931eb193dd0e",
    "vershik/vershik_alt_40.jsonl":
        "49c5e7e12195e2098e8ce2cde9be7a6660f4749eb2d4a082d146dd008ea80369",
    "vershik/vershik_alt_80.jsonl":
        "12b58f2dabb5cf067d7e4c7d53fb3329e8bf1eb97eb9b98d21ff18236a8e0dbe",
    "vershik/vershik_tv.csv":
        "225d5e6273348aa1237b592ec540d7a7ef016d14c7b5b290b86b1f0dcc6e549e",
    "vershik/vershik_window_limit.jsonl":
        "1119f388526cfc2da62aa065eb30776c9826e2f4e4fe50463c37dfc1ad6334c1",
    "vershik-20000/vershik_alt_20.jsonl":
        "9586596f69ee9e2c259b700b03e8880850917055475596b29e6a62381f801d02",
    "vershik-20000/vershik_alt_40.jsonl":
        "b6b902447455aef48e1c7508663b2ee7989ef84d0a819a710ff3ba1aac543aae",
    "vershik-20000/vershik_alt_80.jsonl":
        "82ba44715535cdd6de24571653c3f16360fcc825a6d0628d2eaefe8a070a7996",
    "vershik-20000/vershik_tv.csv":
        "e6cd78f1164a44af923ab72f0d68611cc65d94d187b2322412870ad3815f106b",
    "vershik-20000/vershik_window_limit.jsonl":
        "b1e1b0ff952e93b94543069944ebb9bc6a0e9b6dcb124599be508975ea9772cf",
    "vershik-scaled/vershik_alt_20.jsonl":
        "cbda945021dc839fc9063fb6ec9ac1c740674901e6ad347993cf32ad3368a753",
    "vershik-scaled/vershik_alt_40.jsonl":
        "227322528569caf27fd1982b405cecd4dd4dae9ec03a2850c9f6f3f4960dffd3",
    "vershik-scaled/vershik_alt_80.jsonl":
        "af246a022595a43684a2d53d738a32d7cac53f325abd5aef7f010a39c7a09bed",
    "vershik-scaled/vershik_tv.csv":
        "b0524198f778daffba77fad9c9655fda7037619de6a3960ca1f0ceaf5b52cf77",
    "vershik-scaled/vershik_window_limit.jsonl":
        "f2e4ef9823ba3f5378d82b95304503156574ed5b39559e31953a678f9e2a5cb2",
    "dgen/dgen.csv":
        "572ebbd63994d1ec08af6cdd280edc5721bc4bbead7862a050a1271c3200e94c",
    "dgen-20/dgen.csv":
        "0c2c55c2c47708fe40acc5e75b7964fd37b1db149086e4a83863b0198ff9c494",
    "dgen-scaled/dgen.csv":
        "3bdf1cbf5fa36c009f937762f142ada66a00336c27156d8fb90c2a6a7d301909",
    "subshift-kr/kr_a.json":
        "07aca8631be944ad0ccf396274a10de5af2094434ee546e6de8e090449b0510f",
    "subshift-kr/kr_ab.json":
        "c10a3f5fa4ed3d426bab4e1b8bd5eb91858aaededefd5c24a03bdeadcb0c48f9",
    "subshift-kr/kr_b.json":
        "448727b33a189b87c86aecabeeb3f7ee3f6d6f4c2bc24666a2c2b88b66fd51c7",
    "subshift-kr/kr_checks.csv":
        "2bf3a18a8b199d08dcf97b5e18c7c702e3f21ff25d19856762a37f046d740853",
    "subshift-kr-thue-morse/kr_a.json":
        "667b6bb675a3ad8481f3c716e8e0dad7e0a05386de89c984860881bc78793895",
    "subshift-kr-thue-morse/kr_aab.json":
        "58a717a7f057f45bd595549a9e4cdfe963daaa5ccbc7e9af693f75345b565eab",
    "subshift-kr-thue-morse/kr_ab.json":
        "0402600541bdaf8a7b5f278c9a60309762bca4c91f725726baeb72f7943e280a",
    "subshift-kr-thue-morse/kr_checks.csv":
        "bff40c8028f2ff7d9e4a2c281cae78057757b317cc929400081beb0e5fd20783",
    "subshift-kr-chacon/kr_a.json":
        "e9db521343423c0846e8b64a1f8f82e2b71160221a320bada3a1b0278667e51a",
    "subshift-kr-chacon/kr_aab.json":
        "425c76ec89af78c6b34b193c8e542f62c0d722773fe40e677601d2e3c644c4ba",
    "subshift-kr-chacon/kr_ab.json":
        "f98ced33c9a6de365dba87c5fc1b4eb5a00911c81e66c5d5793478ef5ac11276",
    "subshift-kr-chacon/kr_checks.csv":
        "b2dda3ca73c202f7a58083217d8e3c2b587067388b41c32a4bf37c45b5d4ae81",
}


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

    @pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
    def test_cli_outputs_match_pinned_digests(self, hash_seed, tmp_path):
        # string hashing is seeded per interpreter, so each seed gets its own
        runs = [argv + ["--out", str(tmp_path / name)] for name, argv in PINNED_RUNS.items()]
        src = str(Path(stabilitylab.__file__).parents[1])
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c",
                        "import json, sys; from stabilitylab.harness import main; "
                        "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))",
                        json.dumps(runs)], env=env, check=True)
        digests = {path.relative_to(tmp_path).as_posix():
                   hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.rglob("*") if path.is_file()}
        assert digests == PINNED_DIGESTS

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
        (["fullgroup-irs", "--levels", ","], "at least one partition level"),
        (["vershik", "--samples", "-5"], "need n_samples >= 1, got -5"),
        (["vershik", "--alpha", "1/0,1"], "error in vershik: zero denominator in '1/0,1'")],
        ids=["dgen-empty-actions", "fullgroup-irs-no-levels", "vershik-negative-samples",
             "vershik-zero-denominator"])
    def test_empty_input_exits_with_a_message(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["dgen", "--restarts", "-3"], "restarts must be >= 1, got -3"),
        (["dgen", "--restarts", "0"], "restarts must be >= 1, got 0"),
        (["dgen", "--instances", "0"], "instances must be >= 1, got 0"),
        (["neumann", "--words", "-3"], "words must be >= 1, got -3"),
        (["alt-convergence", "--r-min", "5", "--r-max", "3"],
         "r_min must be <= r_max, got 5 > 3"),
        (["subshift-kr", "--seeds", ","], "need at least one seed word, got ','"),
        (["subshift-kr", "--seeds", "a,bb"], "word 'bb' is not admissible"),
        (["vershik", "--ns", "0", "--samples", "10"], "need n >= 1"),
        (["vershik", "--ns", "20,0", "--samples", "10"], "need n >= 1"),
        (["fullgroup-embed", "--radii", "1,-1"], "need rank >= 1 and radius >= 0")],
        ids=["negative-restarts", "no-restarts", "no-instances", "neumann-negative-words",
             "alt-convergence-empty-range", "subshift-kr-no-seeds",
             "subshift-kr-inadmissible-second-seed", "vershik-zero-n",
             "vershik-zero-n-after-valid", "fullgroup-embed-negative-second-radius"])
    def test_dgen_rejects_bad_counts(self, argv, message, tmp_path, capsys):
        # a rejected count writes no file
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert f"error in {argv[0]}: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
