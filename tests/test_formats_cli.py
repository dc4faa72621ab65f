import dataclasses
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import anisowave as aw
from anisowave import cli, formats
from anisowave.cli import main
from anisowave.seqcore import CoefSeq, max_abs_diff, polyphase_subdivision

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

    def test_negative_zero_keeps_its_sign(self):
        assert formats.dumps([-0.0, 0.0]) == "[-0.0,0]"
        back = json.loads(formats.dumps(-0.0))
        assert isinstance(back, float) and math.copysign(1.0, back) < 0

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

    def test_roundtrip_keeps_negative_zeros(self, tmp_path, bank0):
        # the cl3/db2 bank on diag(3, 2) holds -0.0 taps
        assert any(np.signbit(f.data[f.data == 0]).any() for f in bank0.filters.values())
        path = str(tmp_path / "bank.json")
        formats.write_bank(path, bank0)
        back = formats.read_bank(path)
        for eta, f in bank0.filters.items():
            assert back.filters[eta].origin == f.origin
            assert back.filters[eta].data.tobytes() == f.data.tobytes()

    def test_byte_identical_rewrites(self, tmp_path, bank0):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        formats.write_bank(p1, bank0)
        formats.write_bank(p2, bank0)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestBankSets:
    """The univariate sets a bank file carries, kept only if they rebuild it."""

    @pytest.fixture()
    def doc(self, tmp_path, bank1):
        path = str(tmp_path / "bank.json")
        formats.write_bank(path, bank1)
        return json.load(open(path))

    def load(self, tmp_path, doc):
        path = str(tmp_path / "edited.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return formats.read_bank(path)

    def test_round_trip_keeps_sets(self, tmp_path, bank0, bank1):
        for bank in (bank0, bank1):
            path = str(tmp_path / "bank.json")
            formats.write_bank(path, bank)
            back = formats.read_bank(path)
            assert back.sets is not None and len(back.sets) == len(bank.sets)
            for got, want in zip(back.sets, bank.sets):
                assert got.scale == want.scale
                for g, w in zip(got.filters, want.filters):
                    assert g.origin == w.origin and np.array_equal(g.data, w.data)
            # the read bank renders exactly as the built one
            for eta in bank.indices():
                a = aw.wavelet_samples(back, eta, 3)
                b = aw.wavelet_samples(bank, eta, 3)
                assert a.window == b.window and np.array_equal(a.values, b.values)

    def test_edited_filter_drops_sets(self, tmp_path, doc, bank1):
        doc["filters"]["1,1"]["data"][0] += 1e-3
        back = self.load(tmp_path, doc)
        assert back.sets is None
        # the edited filter is what gets rendered
        sf = aw.wavelet_samples(back, (1, 1), 2)
        expect = polyphase_subdivision([back.filters[(1, 1)]], back.xi, [back.lowpass])
        assert sf.window == expect.window and np.array_equal(sf.values, expect.data)
        assert not np.array_equal(sf.values, aw.wavelet_samples(bank1, (1, 1), 2).values)

    def test_edited_set_drops_sets(self, tmp_path, doc):
        doc["sets"][1]["filters"][0]["data"][0] += 1e-3
        assert self.load(tmp_path, doc).sets is None

    def test_set_of_wrong_scale_drops_sets(self, tmp_path, doc):
        doc["sets"].reverse()
        assert self.load(tmp_path, doc).sets is None

    def test_file_without_sets_loads(self, tmp_path, doc, bank1):
        del doc["sets"]
        back = self.load(tmp_path, doc)
        assert back.sets is None
        for eta in bank1.indices():
            assert max_abs_diff(back.filters[eta], bank1.filters[eta]) == 0.0


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

    @pytest.mark.parametrize("matrix", ['{"x":1}', "5", "[[1e400]]"])
    def test_malformed_inline_matrix_exit_1(self, matrix, capsys):
        assert main(["smith", matrix]) == 1
        assert "error: cannot parse matrix: " in capsys.readouterr().err

    def test_malformed_matrix_file_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            fh.write('{"x":1}')
        assert main(["smith", path]) == 1
        err = capsys.readouterr().err
        assert "error: cannot parse matrix: " in err and "m.json" in err


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

    @pytest.mark.parametrize("key", ["2,1", "1,0"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_filter_exit_1(self, tmp_path, capsys, key, token):
        path = str(tmp_path / "bank1.json")
        assert main(["bank", "build", "--xi", "[[3,-1],[0,2]]", "--sigma", "3,2",
                     "--families", "cl3,db2", "-o", path]) == 0
        data = json.load(open(path))
        data["filters"][key]["data"][3] = float(token.replace("Infinity", "inf"))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        assert token in open(bad).read()
        capsys.readouterr()
        assert main(["bank", "verify", bad]) == 1
        captured = capsys.readouterr()
        assert "bad.json" in captured.err and "non-finite" in captured.err
        assert "OK" not in captured.out

    def test_non_finite_family_file_exit_1(self, tmp_path, capsys):
        family = formats.univariate_set_to_json(aw.daubechies2())
        family["filters"][1]["data"][2] = float("nan")
        custom = str(tmp_path / "nan_db2.json")
        with open(custom, "w") as fh:
            json.dump(family, fh)
        out = str(tmp_path / "z.json")
        assert main(["bank", "build", "--xi", XI1_JSON, "--sigma", "3,2",
                     "--families", f"cl3,{custom}", "-o", out]) == 1
        err = capsys.readouterr().err
        assert custom in err and "non-finite" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("edit", ["no-lowpass", "extra-index", "long-index",
                                      "1-d-filter", "singular"])
    @pytest.mark.parametrize("command", ["verify", "cascade"])
    def test_wrong_filter_set_exit_1(self, tmp_path, capsys, edit, command):
        """A bank file whose filters are not indexed by exactly
        Z_3 x Z_2, or hold a filter of another dimension, is malformed, and
        so is a singular dilation with its zero diagonal."""
        path = str(tmp_path / "bank1.json")
        assert main(["bank", "build", "--xi", XI1_JSON, "--sigma", "3,2",
                     "--families", "cl3,db2", "-o", path]) == 0
        data = json.load(open(path))
        filters = data["filters"]
        if edit == "no-lowpass":
            del filters["0,0"]
        elif edit == "extra-index":
            filters["5,5"] = filters["1,1"]
        elif edit == "long-index":
            filters["1,1,1"] = filters["1,1"]
        elif edit == "singular":
            zero, eye = [[0, 0], [0, 0]], [[1, 0], [0, 1]]
            data.update(xi={"dim": 2, "rows": zero}, sigma=[0, 0], filters={},
                        theta1={"dim": 2, "rows": eye}, theta2={"dim": 2, "rows": eye})
        else:
            filters["1,1"] = formats.coefseq_to_json(CoefSeq((0,), np.array([0.5, 0.5])))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        out = str(tmp_path / "grids")
        args = (["bank", "verify", bad] if command == "verify"
                else ["cascade", bad, "-r", "2", "-o", out])
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "bad.json" in captured.err and "Traceback" not in captured.err
        assert "OK" not in captured.out
        assert not os.path.exists(out) or os.listdir(out) == []

    def test_nan_filter_in_memory_fails_verify(self, bank_file, monkeypatch, capsys):
        """A NaN that reaches the residuals, not first in their order, fails."""
        bank = formats.read_bank(bank_file)
        filters = dict(bank.filters)
        poisoned = filters[(2, 1)].data.copy()
        poisoned[3, 0] = np.nan
        filters[(2, 1)] = CoefSeq(filters[(2, 1)].origin, poisoned)
        nan_bank = aw.AnisoFilterBank(bank.xi, bank.fact, bank.sigma, filters, None)
        monkeypatch.setattr(formats, "read_bank", lambda path: nan_bank)
        assert main(["bank", "verify", bank_file]) == 2
        captured = capsys.readouterr()
        assert "FAIL: worst residual nan" in captured.err
        assert "OK" not in captured.out

    @pytest.fixture()
    def pulse_pair_bank(self, tmp_path):
        """cl3 with the 2-band pulse pair [sqrt 2, 0] / [0, sqrt 2] on
        diag(3, 2): an orthonormal bank whose highpass has no vanishing
        moment, so it passes QMF and fails reproduction."""
        r2 = math.sqrt(2.0)
        pair = aw.UnivariateQMFSet(2, (CoefSeq((0,), np.array([r2, 0.0])),
                                       CoefSeq((0,), np.array([0.0, r2]))))
        family = str(tmp_path / "pulse_pair.json")
        with open(family, "w") as fh:
            json.dump(formats.univariate_set_to_json(pair), fh)
        path = str(tmp_path / "bank.json")
        assert main(["bank", "build", "--xi", "[[3,0],[0,2]]", "--sigma", "3,2",
                     "--families", f"cl3,{family}", "-o", path]) == 0
        return path

    def test_reproduction_failure_names_its_check(self, pulse_pair_bank, capsys):
        capsys.readouterr()
        assert main(["bank", "verify", pulse_pair_bank]) == 2
        captured = capsys.readouterr()
        assert "max detail 7.07e-01" in captured.out
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL: reproduction max detail 7.071e-01 "
                         "exceeds --tol-moments 1e-10"]
        assert "worst residual" not in captured.err and "OK" not in captured.out

    def test_ok_line_gives_both_margins(self, pulse_pair_bank, capsys):
        capsys.readouterr()
        assert main(["bank", "verify", pulse_pair_bank, "--tol-moments", "1"]) == 0
        ok = capsys.readouterr().out.splitlines()[-1]
        assert ok.startswith("OK: max cross-QMF residual ")
        assert ok.endswith("<= 1e-12, max detail 7.071e-01 <= 1")

    def test_both_checks_fail_on_two_lines(self, pulse_pair_bank, capsys):
        capsys.readouterr()
        assert main(["bank", "verify", pulse_pair_bank, "--tol-qmf", "0"]) == 2
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL")]
        assert len(fails) == 2
        assert fails[0].startswith("FAIL: worst residual ")
        assert fails[0].endswith("exceeds --tol-qmf 0")
        assert fails[1].startswith("FAIL: reproduction max detail ")

    def test_nan_detail_fails_reproduction(self, bank_file, monkeypatch, capsys):
        real = cli.reproduction_check

        def nan_detail(*args):
            report = real(*args)
            row = dataclasses.replace(report.rows[0], detail_max=float("nan"))
            return dataclasses.replace(report, rows=(row,) + report.rows[1:])

        monkeypatch.setattr(cli, "reproduction_check", nan_detail)
        assert main(["bank", "verify", bank_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "FAIL: reproduction max detail nan exceeds --tol-moments 1e-10"]
        assert "OK" not in captured.out

    def test_malformed_xi_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "z.json")
        assert main(["bank", "build", "--xi", "5", "--sigma", "3,2",
                     "--families", "cl3,db2", "-o", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_unknown_family_exit_1(self, tmp_path):
        assert main(["bank", "build", "--xi", XI1_JSON, "--sigma", "3,2",
                     "--families", "nope,db2",
                     "-o", str(tmp_path / "z.json")]) == 1


#: (xi, sigma, families, window) of a theta1 = I bank, the similarity bank
#: Xi_1 and a composed-branch bank (theta2 != theta1^-1)
TAMPER_BANKS = {
    "identity": ("[[2,2],[0,2]]", "2,2", "db2,db2", "24"),
    "similarity": (XI1_JSON, "3,2", "cl3,db2", "24"),
    "composed": ("[[2,-2,-2],[-3,5,2],[0,2,2]]", "2,3,2", "db2,cl3,db2", "35"),
}


class TestCliBankTaps:
    """``bank verify`` checks the stored taps however it pulls them back."""

    @pytest.mark.parametrize("kind", sorted(TAMPER_BANKS))
    @pytest.mark.parametrize("which", ["lowpass", "highpass"])
    def test_one_tap_edit_exit_2(self, tmp_path, capsys, kind, which):
        xi, sigma, families, window = TAMPER_BANKS[kind]
        path = str(tmp_path / "bank.json")
        assert main(["bank", "build", "--xi", xi, "--sigma", sigma,
                     "--families", families, "-o", path]) == 0
        assert main(["bank", "verify", path, "--window", window]) == 0
        assert "max sum-rule gap" in capsys.readouterr().out
        data = json.load(open(path))
        keys = sorted(data["filters"])
        values = data["filters"][keys[0] if which == "lowpass" else keys[-1]]["data"]
        values[int(np.argmax(np.abs(values)))] += 1e-6
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(data, fh)
        assert main(["bank", "verify", bad, "--window", window]) == 2
        assert "OK" not in capsys.readouterr().out

    def test_composed_branch_example_verifies(self, tmp_path, capsys):
        path = str(tmp_path / "composed.json")
        assert main(["bank", "build", "--xi", "[[3,-3,0],[-2,4,-2],[-2,4,0]]",
                     "--sigma", "3,2,2", "--families", "cl3,db2,db2", "-o", path]) == 0
        assert main(["bank", "verify", path, "--window", "90"]) == 0
        assert "OK" in capsys.readouterr().out


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

    @pytest.mark.parametrize("cap", ["1e8", "-5", "abc", "0", ""])
    def test_bad_cell_cap_exit_1(self, bank_file, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("ANISO_CELL_CAP", cap)
        assert main(["cascade", bank_file, "-r", "3", "-o", str(tmp_path / "g")]) == 1
        assert "ANISO_CELL_CAP" in capsys.readouterr().err

    def test_cell_cap_written_out(self, bank_file, tmp_path, monkeypatch):
        # the default as the README writes it
        monkeypatch.setenv("ANISO_CELL_CAP", "100000000")
        assert main(["cascade", bank_file, "-r", "3", "-o", str(tmp_path / "g")]) == 0

    def test_single_filter_writes_only_its_files(self, bank_file, tmp_path):
        out = str(tmp_path / "phi")
        assert main(["cascade", bank_file, "--filter", "0", "-r", "3", "-o", out]) == 0
        assert sorted(os.listdir(out)) == ["phi.grid", "phi.json"]

    @pytest.mark.parametrize("option, message", [
        (["--filter", "99"], "filter index 99 out of range"),
        (["--filter", "9,9"], "no filter with index (9, 9)"),
        (["--pgm", "8"], "PGM export needs a 2-D bank"),
        (["-r", "0"], "wavelet sampling needs r >= 1"),
    ])
    def test_refusal_creates_no_output(self, bank_file, tmp_path, capsys, option,
                                       message):
        bank = bank_file
        if option[0] == "--pgm":
            bank = str(tmp_path / "bank3.json")
            assert main(["bank", "build", "--xi", "[[3,0,0],[0,2,0],[0,0,2]]",
                         "--sigma", "3,2,2", "--families", "cl3,db2,db2",
                         "-o", bank]) == 0
        out = str(tmp_path / "grids")
        assert main(["cascade", bank, "-r", "3", "-o", out] + option) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


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

    def test_path_digit_out_of_range_exit_1(self, config_file, signal_file, tmp_path,
                                            capsys):
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", str(tmp_path / "tree"), "--path", "5,0"]) == 1
        assert "digits outside range(0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["absolute", "parent", "subdirectory"])
    @pytest.mark.parametrize("field", ["detail", "approx"])
    def test_grid_name_outside_tree_exit_1(self, config_file, tmp_path, capsys, kind,
                                           field):
        for k, name in enumerate(["treeA", "treeB"]):
            signal = str(tmp_path / f"{name}.grid")
            rng = np.random.RandomState(20 + k)
            formats.write_grid(signal, CoefSeq((0, 0), rng.randn(48, 48)))
            assert main(["transform", "decompose", config_file, signal,
                         "-o", str(tmp_path / name), "--path", "1,0"]) == 0
        path = str(tmp_path / "treeA" / "manifest.json")
        manifest = json.load(open(path))
        leaf = next(n for n in manifest["nodes"] if n["approx"])
        key = next(iter(leaf["details"]))
        fname = leaf[field] if field == "approx" else leaf["details"][key]
        if kind == "absolute":
            name = str(tmp_path / "treeB" / fname)
        elif kind == "parent":
            name = os.path.join(os.pardir, "treeB", fname)
        else:
            # a real grid in a folder of the tree is still not a tree file
            os.makedirs(tmp_path / "treeA" / "sub")
            name = os.path.join("sub", "x.grid")
            formats.write_grid(str(tmp_path / "treeA" / name),
                               formats.read_grid(str(tmp_path / "treeB" / fname)))
        if field == "approx":
            leaf["approx"] = name
        else:
            leaf["details"][key] = name
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert main(["transform", "reconstruct", str(tmp_path / "treeA"),
                     "-o", str(tmp_path / "r.grid"),
                     "--check", str(tmp_path / "treeA.grid")]) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "is not a file in the tree" in err
        assert "Traceback" not in err

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


def tree_files(tree):
    return {name: open(os.path.join(tree, name), "rb").read()
            for name in sorted(os.listdir(tree))}


class TestCliReuse:
    """Repeated in-process calls share one parser and the banks of a config."""

    def test_edited_family_file_exit_2(self, signal_file, tmp_path, capsys):
        custom = str(tmp_path / "mydb2.json")
        family = {"scale": 2,
                  "filters": [formats.coefseq_to_json(f) for f in aw.daubechies2().filters]}
        with open(custom, "w") as fh:
            fh.write(formats.dumps(family))
        config = str(tmp_path / "config.json")
        with open(config, "w") as fh:
            json.dump({"sigma1": 3, "sigma2": 2, "s": 2,
                       "families": ["cl3", custom], "depth": 1}, fh)
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config, signal_file, "-o", tree]) == 0
        # same file name, one filter value changed: the banks must be rebuilt
        family["filters"][1]["data"][0] += 1e-3
        with open(custom, "w") as fh:
            fh.write(formats.dumps(family))
        capsys.readouterr()
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 2
        assert "config" in capsys.readouterr().err

    def test_signs_change_the_digest(self, config_file, signal_file, tmp_path):
        digests = []
        for signs in ([0], [1]):
            config = str(tmp_path / f"config{signs[0]}.json")
            with open(config, "w") as fh:
                json.dump({"sigma1": 3, "sigma2": 2, "s": 2, "signs": signs,
                           "families": ["cl3", "db2"], "depth": 1}, fh)
            tree = str(tmp_path / f"tree{signs[0]}")
            assert main(["transform", "decompose", config, signal_file, "-o", tree]) == 0
            manifest = json.load(open(os.path.join(tree, "manifest.json")))
            digests.append(manifest["config_digest"])
        assert digests[0] != digests[1]

    def test_cached_banks_are_read_only(self, config_file, signal_file, tmp_path):
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", str(tmp_path / "tree"), "--depth", "1"]) == 0
        obj = json.load(open(config_file))
        config, again = cli._config_from_json(obj), cli._config_from_json(obj, depth=1)
        assert again.banks is config.banks and (config.depth, again.depth) == (2, 1)
        for bank in config.banks:
            with pytest.raises(ValueError):
                bank.lowpass.data[(0,) * bank.dim] = 1.0
        # the library itself stays uncached and hands out writable banks
        fresh = aw.build_config(3, 2, 2, [0], (aw.chui_lian_ternary(), aw.daubechies2()))
        assert fresh.banks[0].lowpass.data.flags.writeable

    def test_warm_calls_write_the_same_bytes(self, config_file, signal_file, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(cli, "_last_config", None)
        runs, cached = [], []
        for name in ("cold", "warm"):
            tree, out = str(tmp_path / name), str(tmp_path / f"{name}.grid")
            assert main(["transform", "decompose", config_file, signal_file,
                         "-o", tree, "--path", "1,0"]) == 0
            assert main(["transform", "reconstruct", tree, "-o", out]) == 0
            runs.append((tree_files(tree), open(out, "rb").read()))
            cached.append(cli._last_config)
        assert cached[0] is cached[1] is not None
        assert runs[0] == runs[1]

    def test_options_do_not_carry_over(self, config_file, signal_file, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        tree, out = str(tmp_path / "tree"), str(tmp_path / "r.grid")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--depth", "1"]) == 0
        capsys.readouterr()
        assert main(["transform", "reconstruct", tree, "-o", out,
                     "--check", signal_file]) == 0
        assert "roundtrip" in capsys.readouterr().out
        assert main(["transform", "reconstruct", tree, "-o", out]) == 0
        assert "roundtrip" not in capsys.readouterr().out

    def test_exit_codes_after_other_calls(self, config_file, signal_file, tmp_path):
        tree = str(tmp_path / "tree")
        assert main(["transform", "decompose", config_file, signal_file,
                     "-o", tree, "--depth", "1"]) == 0
        assert main(["transform", "decompose", config_file]) == 1
        assert main(["smith", XI1_JSON, "--target", "3,2"]) == 0
        assert main(["transform", "reconstruct", tree,
                     "-o", str(tmp_path / "r.grid")]) == 0
        assert main(["smith", "[[3,0],[0,2]]", "--target", "1,5"]) == 2
        assert main(["slope", "--sigma1", "3", "--sigma2", "2",
                     "--w", "0", "--w2", "1.5", "--delta", "0.01"]) == 2
        assert main(["transform", "reconstruct", tree]) == 1
        assert main(["slope", "--sigma1", "3", "--sigma2", "2",
                     "--w", "0", "--w2", "0.5", "--delta", "0.01"]) == 0
        assert main(["smith"]) == 1


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

    def test_tolerance_below_float_range(self, capsys):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--w", "0",
                     "--w2", "0.5", "--delta", "1e-400"]) == 0
        out = capsys.readouterr().out
        assert "length : 2271" in out and "error  : 0.000000e+00" in out

    def test_non_termination_names_exact_tolerance(self, capsys):
        # 1e-400 is below the float range: float() of it would print 0.0
        assert main(["slope", "--sigma1", "5", "--sigma2", "2", "--w", "0",
                     "--w2", "0.55", "--delta", "1e-400"]) == 1
        err = capsys.readouterr().err
        assert "reached tolerance 1E-400" in err

    def test_out_of_simplex_exit_2(self):
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--dim", "2",
                     "--w", "0", "--w2", "1.5", "--delta", "0.01"]) == 2

    @pytest.mark.parametrize("delta", ["0", "-0.5"])
    def test_non_positive_tolerance_exit_1(self, capsys, delta):
        # a bad tolerance is a usage error; exit 2 is kept for failed checks
        assert main(["slope", "--sigma1", "3", "--sigma2", "2", "--w", "0",
                     "--w2", "0.5", "--delta", delta]) == 1
        assert "tolerance must be positive" in capsys.readouterr().err


class TestCustomFamilyFile:
    def test_bank_build_from_json_set(self, tmp_path):
        custom = str(tmp_path / "myhaar.json")
        with open(custom, "w") as fh:
            fh.write(formats.dumps(
                {"scale": 2,
                 "filters": [formats.coefseq_to_json(f) for f in aw.haar().filters]}))
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
