import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import anisowave as aw
from anisowave import formats
from anisowave.cli import main
from anisowave.seqcore import CoefSeq, max_abs_diff

XI1_JSON = "[[3,-1],[0,2]]"


def raw_grid_bytes(origin, data):
    """A grid container packed by hand, so it may hold what the writer refuses."""
    head = b"ANI1" + struct.pack("<I", data.ndim)
    head += struct.pack(f"<{data.ndim}q", *origin)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    return head + np.ascontiguousarray(data, dtype="<f8").tobytes()


class TestCanonicalJson:
    def test_float_17_digits(self):
        assert formats.dumps(1.0 / 3.0) == format(1.0 / 3.0, ".17g")

    def test_sorted_keys_and_determinism(self):
        a = formats.dumps({"b": 1, "a": [1.5, 2]})
        b = formats.dumps({"a": [1.5, 2], "b": 1})
        assert a == b == '{"a":[1.5,2],"b":1}'

    def test_floats_roundtrip_exactly(self):
        rng = np.random.RandomState(0)
        vals = rng.randn(50).tolist()
        back = json.loads(formats.dumps(vals))
        assert back == vals

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            formats.dumps(float("nan"))


class TestGridFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.RandomState(1)
        c = CoefSeq((-3, 5), rng.randn(7, 4))
        path = str(tmp_path / "x.grid")
        formats.write_grid(path, c)
        back = formats.read_grid(path)
        assert back.origin == c.origin
        assert np.array_equal(back.data, c.data)

    def test_magic_check(self, tmp_path):
        path = str(tmp_path / "bad.grid")
        with open(path, "wb") as fh:
            fh.write(b"JUNKxxxx")
        with pytest.raises(ValueError):
            formats.read_grid(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        data = np.ones((3, 4))
        data[1, 2] = bad
        path = str(tmp_path / "poisoned.grid")
        with open(path, "wb") as fh:
            fh.write(raw_grid_bytes((0, 0), data))
        with pytest.raises(ValueError, match="poisoned.grid.*non-finite"):
            formats.read_grid(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_non_finite(self, tmp_path, bad):
        data = np.ones((3, 4))
        data[1, 2] = bad
        path = str(tmp_path / "poisoned.grid")
        with pytest.raises(ValueError, match="non-finite"):
            formats.write_grid(path, CoefSeq((0, 0), data))
        assert not os.listdir(tmp_path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "long.grid")
        blob = formats.grid_to_bytes(CoefSeq((0, 0), np.ones((3, 4))))
        with open(path, "wb") as fh:
            fh.write(blob + b"\0" * 8)
        with pytest.raises(ValueError, match="long.grid.*payload"):
            formats.read_grid(path)

    @pytest.mark.parametrize("keep", [6, 20, 40, -8])
    def test_rejects_cut_file(self, tmp_path, keep):
        # inside the dimension field, inside the header, at the payload start
        # and one sample short of the end
        path = str(tmp_path / "cut.grid")
        blob = formats.grid_to_bytes(CoefSeq((0, 0), np.ones((3, 4))))
        with open(path, "wb") as fh:
            fh.write(blob[:keep])
        with pytest.raises(ValueError, match="cut.grid"):
            formats.read_grid(path)

    def test_sampled_roundtrip(self, tmp_path, bank0):
        sf = aw.cascade(aw.SubdivisionOp(bank0.xi, bank0.lowpass), 3)
        base = str(tmp_path / "phi")
        formats.write_sampled(base, sf)
        back = formats.read_sampled(base)
        assert back.level == sf.level
        assert back.xi_total == sf.xi_total
        assert np.array_equal(back.values, sf.values)


class TestBankJson:
    def test_roundtrip(self, tmp_path, bank1):
        path = str(tmp_path / "bank.json")
        formats.write_bank(path, bank1)
        back = formats.read_bank(path)
        assert back.xi == bank1.xi
        assert back.sigma == bank1.sigma
        for eta in bank1.indices():
            assert max_abs_diff(back.filters[eta], bank1.filters[eta]) == 0.0

    def test_byte_identical_rewrites(self, tmp_path, bank0):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        formats.write_bank(p1, bank0)
        formats.write_bank(p2, bank0)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestPgm:
    @pytest.mark.parametrize("bits", [8, 16])
    def test_roundtrip(self, tmp_path, bits):
        rng = np.random.RandomState(2)
        values = rng.rand(9, 13)
        path = str(tmp_path / "img.pgm")
        vmin, vmax = formats.write_pgm(path, values, bits=bits)
        back = formats.read_pgm(path)
        restored = back * (vmax - vmin) + vmin
        assert restored.shape == values.shape
        assert np.abs(restored - values).max() <= 1.0 / ((1 << bits) - 1)

    def test_ascii_variant(self, tmp_path):
        path = str(tmp_path / "p2.pgm")
        with open(path, "w") as fh:
            fh.write("P2\n# comment\n2 2\n255\n0 128 255 64\n")
        img = formats.read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 1] == pytest.approx(128 / 255)

    @pytest.mark.parametrize("blob", [
        b"P5\n2 2\n0\n\0\0\0\0",
        b"P5\n2 2\n70000\n" + b"\0" * 8,
        b"P5\n0 2\n255\n",
        b"P5\n2 2\n255\n\0\0\0",
        b"P5\n2 2\n65535\n" + b"\0" * 7,
        b"P5\n2 2",
        b"P5\n2 x\n255\n\0\0\0\0",
        b"P2\n2 2\n255\n0 128 255",
        b"P2\n2 2\n255\n0 128 255 300",
    ], ids=["maxval-0", "maxval-17-bit", "empty-axis", "short-payload", "cut-sample",
            "cut-header", "non-integer-field", "short-ascii-payload", "above-maxval"])
    def test_rejects_malformed(self, tmp_path, blob):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match="bad.pgm"):
            formats.read_pgm(path)


class TestCliSmith:
    def test_worked_example(self, capsys):
        assert main(["smith", "[[3,0,0],[0,2,0],[0,0,2]]"]) == 0
        out = capsys.readouterr().out
        assert "diag(1, 2, 6)" in out
        assert "reconstruction exact: True" in out

    def test_target(self, tmp_path, capsys):
        report = str(tmp_path / "r.json")
        assert main(["smith", XI1_JSON, "--target", "3,2", "--json", report]) == 0
        data = json.loads(open(report).read())
        assert data["theta1"]["rows"] == [[1, 1], [0, 1]]
        assert data["theta2"]["rows"] == [[1, -1], [0, 1]]

    def test_incompatible_target_exit_2(self):
        assert main(["smith", "[[3,0],[0,2]]", "--target", "1,5"]) == 2

    def test_non_square_exit_1(self):
        assert main(["smith", "[[1,2,3],[4,5,6]]"]) == 1

    def test_usage_error_exit_1(self):
        assert main(["smith"]) == 1


@pytest.fixture()
def bank_file(tmp_path):
    path = str(tmp_path / "bank0.json")
    assert main(["bank", "build", "--xi", "[[3,0],[0,2]]", "--sigma", "3,2",
                 "--families", "cl3,db2", "-o", path]) == 0
    return path


class TestCliBank:
    def test_verify_ok(self, bank_file, capsys):
        assert main(["bank", "verify", bank_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "moment orders" in out

    def test_verify_corrupted_names_pair(self, bank_file, tmp_path, capsys):
        data = json.load(open(bank_file))
        data["filters"]["0,0"]["data"][3] += 1e-3
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        assert main(["bank", "verify", bad]) == 2
        err = capsys.readouterr().err
        assert "pair" in err

    def test_build_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        for p in (p1, p2):
            assert main(["bank", "build", "--xi", XI1_JSON, "--sigma", "3,2",
                         "--families", "cl3,db2", "-o", p]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_malformed_bank_exit_1(self, bank_file, tmp_path, capsys):
        data = json.load(open(bank_file))
        del data["theta1"]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        assert main(["bank", "verify", bad]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_unknown_family_exit_1(self, tmp_path):
        assert main(["bank", "build", "--xi", XI1_JSON, "--sigma", "3,2",
                     "--families", "nope,db2",
                     "-o", str(tmp_path / "z.json")]) == 1


class TestCliCascade:
    def test_renders_all(self, bank_file, tmp_path):
        out = str(tmp_path / "grids")
        assert main(["cascade", bank_file, "-r", "4", "-o", out,
                     "--pgm", "8"]) == 0
        names = sorted(os.listdir(out))
        assert "phi.grid" in names and "psi_5.pgm" in names
        assert len([n for n in names if n.endswith(".grid")]) == 6
        side = json.load(open(os.path.join(out, "phi.json")))
        assert side["level"] == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("pgm", [[], ["--pgm", "8"]])
    def test_divergent_bank_exit_1_writes_nothing(self, bank_file, tmp_path, pgm):
        data = json.load(open(bank_file))
        lowpass = data["filters"]["0,0"]
        lowpass["data"] = [x * 1e200 for x in lowpass["data"]]
        bad = str(tmp_path / "divergent.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "grids")
        assert main(["cascade", bad, "-r", "3", "-o", out] + pgm) == 1
        assert os.listdir(out) == []

    def test_cell_cap_exit_3(self, bank_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ANISO_CELL_CAP", "500")
        assert main(["cascade", bank_file, "-r", "6",
                     "-o", str(tmp_path / "big")]) == 3


@pytest.fixture()
def config_file(tmp_path):
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump({"sigma1": 3, "sigma2": 2, "s": 2, "signs": [0],
                   "families": ["cl3", "db2"], "depth": 2}, fh)
    return path


@pytest.fixture()
def signal_file(tmp_path):
    rng = np.random.RandomState(3)
    path = str(tmp_path / "sig.grid")
    formats.write_grid(path, CoefSeq((0, 0), rng.randn(60, 60)))
    return path


class TestCliTransform:
    def test_full_tree_roundtrip(self, config_file, signal_file, tmp_path, capsys):
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree]) == 0
        manifest = json.load(open(os.path.join(tree, "manifest.json")))
        assert len(manifest["nodes"]) == 7
        out = str(tmp_path / "rec.grid")
        assert main(["transform", "reconstruct", tree, "-o", out,
                     "--check", signal_file]) == 0
        text = capsys.readouterr().out
        assert "max roundtrip error" in text
        rec = formats.read_grid(out)
        sig = formats.read_grid(signal_file)
        assert max_abs_diff(rec, sig) <= 1e-9 * sig.linf()

    def test_path_mode(self, config_file, signal_file, tmp_path):
        tree = str(tmp_path / "chain")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--path", "0,1"]) == 0
        manifest = json.load(open(os.path.join(tree, "manifest.json")))
        assert manifest["mode"] == "path"
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid"),
                     "--check", signal_file]) == 0

    def test_check_exit_codes(self, config_file, signal_file, tmp_path, capsys):
        tree = str(tmp_path / "chain")
        out = str(tmp_path / "r.grid")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--path", "1,0"]) == 0
        assert main(["transform", "reconstruct", tree, "-o", out,
                     "--check", signal_file]) == 0
        assert "(ok," in capsys.readouterr().out
        # a hand-edited detail grid still reconstructs, but fails the check
        manifest = json.load(open(os.path.join(tree, "manifest.json")))
        node = next(n for n in manifest["nodes"] if n["details"])
        path = os.path.join(tree, next(iter(node["details"].values())))
        detail = formats.read_grid(path)
        data = detail.data.copy()
        data.flat[data.size // 2] += 1.0
        formats.write_grid(path, CoefSeq(detail.origin, data))
        assert main(["transform", "reconstruct", tree, "-o", out,
                     "--check", signal_file]) == 2
        assert "EXCEEDS tolerance" in capsys.readouterr().out

    def test_edited_manifest_families_exit_2(self, config_file, signal_file, tmp_path,
                                             capsys):
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree]) == 0
        path = os.path.join(tree, "manifest.json")
        manifest = json.load(open(path))
        manifest["config"]["families"] = ["cl3", "haar"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 2
        assert "config" in capsys.readouterr().err

    def test_malformed_signal_exit_1(self, config_file, tmp_path, capsys):
        signal = str(tmp_path / "nan.grid")
        with open(signal, "wb") as fh:
            fh.write(raw_grid_bytes((0, 0), np.full((60, 60), np.nan)))
        assert main(["transform", "decompose", config_file, signal,
                     "-o", str(tmp_path / "tree")]) == 1
        assert "nan.grid" in capsys.readouterr().err

    def test_config_without_families_exit_1(self, tmp_path, signal_file, capsys):
        config = str(tmp_path / "nofam.json")
        with open(config, "w") as fh:
            json.dump({"sigma1": 3, "sigma2": 2, "s": 2, "depth": 1}, fh)
        assert main(["transform", "decompose", config, signal_file,
                     "-o", str(tmp_path / "tree")]) == 1
        assert "nofam.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["no_signal_window", "integer_file_name"])
    def test_malformed_manifest_exit_1(self, config_file, signal_file, tmp_path,
                                       capsys, edit):
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree]) == 0
        path = os.path.join(tree, "manifest.json")
        manifest = json.load(open(path))
        if edit == "no_signal_window":
            del manifest["signal_window"]
        else:
            node = next(n for n in manifest["nodes"] if n["details"])
            node["details"][next(iter(node["details"]))] = 7
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_path_manifest_without_approx_exit_2(self, config_file, signal_file,
                                                  tmp_path, capsys):
        tree = str(tmp_path / "chain")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--path", "0,1"]) == 0
        path = os.path.join(tree, "manifest.json")
        manifest = json.load(open(path))
        for node in manifest["nodes"]:
            node["approx"] = None
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 2
        assert "approximation" in capsys.readouterr().err

    def test_cut_tree_grid_exit_1(self, config_file, signal_file, tmp_path, capsys):
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--path", "0,1"]) == 0
        manifest = json.load(open(os.path.join(tree, "manifest.json")))
        leaf = next(n for n in manifest["nodes"] if n["approx"])
        path = os.path.join(tree, leaf["approx"])
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 1
        assert leaf["approx"] in capsys.readouterr().err

    def test_roundtrip_without_scipy(self, config_file, signal_file, tmp_path):
        # the library needs only numpy: block scipy, then import and run the CLI
        script = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "import anisowave",
            "from anisowave.cli import main",
            "config, signal, tree, out = sys.argv[1:]",
            "assert main(['transform', 'decompose', config, signal, '-o', tree]) == 0",
            "sys.exit(main(['transform', 'reconstruct', tree, '-o', out,",
            "                '--check', signal]))",
        ])
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", script, config_file, signal_file,
             str(tmp_path / "tree"), str(tmp_path / "r.grid")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "(ok," in proc.stdout

    def test_pgm_signal(self, config_file, tmp_path):
        rng = np.random.RandomState(4)
        img = str(tmp_path / "img.pgm")
        formats.write_pgm(img, rng.rand(48, 48), bits=8)
        tree = str(tmp_path / "ptree")
        assert main(["transform", "decompose", config_file, img,
                     "-o", tree, "--path", "0,1"]) == 0
        out = str(tmp_path / "back.grid")
        assert main(["transform", "reconstruct", tree, "-o", out]) == 0
        rec = formats.read_grid(out)
        original = CoefSeq((0, 0), formats.read_pgm(img))
        assert max_abs_diff(rec, original) <= 1e-10

    def test_decompose_deterministic(self, config_file, signal_file, tmp_path):
        t1, t2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        for t in (t1, t2):
            assert main(["transform", "decompose", config_file, signal_file,
                         "-o", t, "--depth", "1"]) == 0
        m1 = open(os.path.join(t1, "manifest.json"), "rb").read()
        m2 = open(os.path.join(t2, "manifest.json"), "rb").read()
        assert m1 == m2
        for name in os.listdir(t1):
            if name.endswith(".grid"):
                assert (open(os.path.join(t1, name), "rb").read()
                        == open(os.path.join(t2, name), "rb").read())


class TestCliSlope:
    def test_half_target(self, capsys):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--dim", "2",
                     "--w", "0", "--w2", "0.5", "--delta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "length : 11" in out
        assert "xi_eps" in out

    def test_trivial(self, capsys):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--dim", "2",
                     "--w", "0", "--w2", "0", "--delta", "0.1"]) == 0
        assert "digits : 0" in capsys.readouterr().out

    def test_all_ones(self, capsys):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--dim", "2",
                     "--w", "0", "--w2", "1", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "digits : 1,1,1,1,1,1" in out and "length : 6" in out

    def test_out_of_simplex_exit_2(self):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--dim", "2",
                     "--w", "0", "--w2", "1.5", "--delta", "0.01"]) == 2


class TestRationalMatrixJson:
    def test_roundtrip(self, family):
        inv = aw.xi_inverse_closed_form(family, (1, 0, 1))
        back = formats.rat_matrix_from_json(
            json.loads(formats.dumps(formats.rat_matrix_to_json(inv))))
        assert back.entries == inv.entries


class TestCustomFamilyFile:
    def test_bank_build_from_json_set(self, tmp_path):
        custom = str(tmp_path / "myhaar.json")
        with open(custom, "w") as fh:
            fh.write(formats.dumps(
                formats.univariate_set_to_json(aw.haar())))
        out = str(tmp_path / "bank.json")
        assert main(["bank", "build", "--xi", "[[2,0],[0,2]]", "--sigma", "2,2",
                     "--families", f"{custom},haar", "-o", out]) == 0
        bank = formats.read_bank(out)
        assert len(bank.filters) == 4
        assert max(bank.residual_matrix().values()) <= 1e-12


class TestCascadeTupleFilter:
    def test_eta_tuple(self, bank_file, tmp_path):
        out = str(tmp_path / "one")
        assert main(["cascade", bank_file, "--filter", "2,1", "-r", "3",
                     "-o", out]) == 0
        assert sorted(os.listdir(out)) == ["psi_5.grid", "psi_5.json"]

    def test_unknown_tuple_exit_1(self, bank_file, tmp_path):
        assert main(["cascade", bank_file, "--filter", "9,9", "-r", "3",
                     "-o", str(tmp_path / "x")]) == 1
