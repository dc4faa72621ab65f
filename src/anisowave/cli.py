"""Command-line interface.

Subcommands::

    aniso smith MATRIX [--target 3,2]        exact Smith factorization
    aniso bank build --xi M --sigma 3,2 --families cl3,db2 -o bank.json
    aniso bank verify bank.json              QMF / moment / reproduction report
    aniso cascade bank.json -r 6 -o DIR      limit-function grids (optional PGM)
    aniso transform decompose CONFIG SIGNAL -o DIR [--depth L | --path 0,1]
    aniso transform reconstruct DIR -o out.grid [--check SIGNAL]
    aniso slope --sigma1 3 --sigma2 2 --dim 2 --w 0 --w2 0.5 --delta 0.01

Exit codes: 0 success, 1 usage or parse error, 2 verification failure,
3 resource cap exceeded.  ANISO_CELL_CAP sets the refinement grid cell
cap (a positive integer, default 100000000).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import formats, mmra
from .dictionary import (
    build_bank,
    moment_order_nd,
    reproduction_check,
    univariate_sets_from_names,
)
from .errors import (
    AnisoError,
    GridTooLargeError,
    IncompatibleDiagonalError,
    IncompleteTreeError,
    InconsistentTreeError,
    OutOfSimplexError,
)
from .lattice import (
    IntMatrix,
    dilation_family,
    is_unimodular,
    smith_normal_form,
    smith_with_target,
    xi_product,
)
from .seqcore import CoefSeq, Window, max_abs_diff
from .subdivision import wavelet_samples


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _matrix_from_json(obj) -> IntMatrix:
    if isinstance(obj, dict):
        return formats.matrix_from_json(obj)
    return IntMatrix.from_rows(obj)


def _parse_matrix(text: str) -> IntMatrix:
    """Inline JSON rows or a JSON file; a malformed matrix is a ValueError."""
    if os.path.isfile(text):
        return formats.read_json(text, _matrix_from_json)
    return formats.parse_json(text, _matrix_from_json)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p != "")


def _print_matrix(label: str, m: IntMatrix):
    print(f"{label} =")
    for row in m.entries:
        print("   [" + "  ".join(f"{x:4d}" for x in row) + "]")


# -- smith -------------------------------------------------------------------

def cmd_smith(args) -> int:
    try:
        m = _parse_matrix(args.matrix)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse matrix: {exc}", file=sys.stderr)
        return 1
    target = _parse_ints(args.target) if args.target else None
    fact = smith_with_target(m, target) if target else smith_normal_form(m)

    recon_ok = fact.reconstruct() == m
    _print_matrix("theta1", fact.theta1)
    print(f"sigma  = diag{fact.sigma}")
    _print_matrix("theta2", fact.theta2)
    print(f"reconstruction exact: {recon_ok}")
    print(f"theta1 unimodular: {is_unimodular(fact.theta1)}   "
          f"theta2 unimodular: {is_unimodular(fact.theta2)}")
    if args.json:
        report = {
            "input": formats.matrix_to_json(m),
            "theta1": formats.matrix_to_json(fact.theta1),
            "sigma": list(fact.sigma),
            "theta2": formats.matrix_to_json(fact.theta2),
            "reconstruction_ok": recon_ok,
        }
        formats.atomic_write_text(args.json, formats.dumps(report) + "\n")
    return 0 if recon_ok else 2


# -- bank --------------------------------------------------------------------

def cmd_bank_build(args) -> int:
    xi = _parse_matrix(args.xi)
    sigma = _parse_ints(args.sigma)
    sets = univariate_sets_from_names(args.families.split(","))
    bank = build_bank(xi, sigma, sets)
    formats.write_bank(args.out, bank)
    print(f"wrote bank with {len(bank.filters)} filters "
          f"(|det xi| = {bank.det}) to {args.out}")
    return 0


def cmd_bank_verify(args) -> int:
    bank = formats.read_bank(args.bank)
    residuals = bank.residual_matrix()
    indices = bank.indices()
    # np.argmax picks the first NaN, so a NaN residual fails the check
    pairs = list(residuals)
    worst_pair = pairs[int(np.argmax([residuals[pair] for pair in pairs]))]
    worst = residuals[worst_pair]

    print(f"dilation det = {bank.det}, {len(indices)} filters")
    print("cross-QMF residuals (rows/cols in index order "
          + ", ".join(map(str, indices)) + "):")
    for eta in indices:
        print("   " + "  ".join(f"{residuals[(eta, eta2)]:9.2e}"
                                for eta2 in indices))
    orders = {eta: moment_order_nd(bank.filters[eta]) for eta in indices}
    print("moment orders: " + ", ".join(f"{eta}:{orders[eta]}" for eta in indices))

    degree = 0 if min(orders[e] for e in bank.highpass_indices()) < 2 else 1
    n = args.window
    report = reproduction_check(bank, degree, Window((0,) * bank.dim,
                                                     (n - 1,) * bank.dim))
    print(f"reproduction (degree {degree}): max detail {report.max_detail:.2e}, "
          f"max sum-rule gap {report.max_sum_rule_gap:.2e}")

    # one FAIL line per failed check; a NaN compares False, so it fails
    qmf_ok = worst <= args.tol_qmf
    detail_ok = report.max_detail <= args.tol_moments
    if not qmf_ok:
        print(f"FAIL: worst residual {worst:.3e} at pair {worst_pair} "
              f"exceeds --tol-qmf {args.tol_qmf:g}", file=sys.stderr)
    if not detail_ok:
        print(f"FAIL: reproduction max detail {report.max_detail:.3e} "
              f"exceeds --tol-moments {args.tol_moments:g}", file=sys.stderr)
    if not (qmf_ok and detail_ok):
        return 2
    print(f"OK: max cross-QMF residual {worst:.3e} <= {args.tol_qmf:g}, "
          f"max detail {report.max_detail:.3e} <= {args.tol_moments:g}")
    return 0


# -- cascade -----------------------------------------------------------------

def cmd_cascade(args) -> int:
    bank = formats.read_bank(args.bank)
    indices = bank.indices()
    if args.filter == "all":
        wanted = list(range(len(indices)))
    elif "," in args.filter:
        eta = _parse_ints(args.filter)
        if eta not in indices:
            print(f"error: no filter with index {eta}", file=sys.stderr)
            return 1
        wanted = [indices.index(eta)]
    else:
        wanted = [int(args.filter)]
        if not 0 <= wanted[0] < len(indices):
            print(f"error: filter index {wanted[0]} out of range", file=sys.stderr)
            return 1
    if args.pgm and bank.dim != 2:
        print("error: PGM export needs a 2-D bank", file=sys.stderr)
        return 1
    if args.levels < 1:
        print("error: wavelet sampling needs r >= 1", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    for k in wanted:
        eta = indices[k]
        sf = wavelet_samples(bank, eta, args.levels)
        name = "phi" if k == 0 else f"psi_{k}"
        base = os.path.join(args.out, name)
        extra = {"filter_index": list(eta), "name": name}
        if args.pgm:
            vmin, vmax = formats.write_pgm(base + ".pgm", sf.values, bits=args.pgm)
            extra["pgm_scale"] = {"vmin": vmin, "vmax": vmax, "bits": args.pgm}
        formats.write_sampled(base, sf, extra)
        print(f"{name}: level {sf.level}, window {sf.window.lo}..{sf.window.hi}")
    return 0


# -- transform ---------------------------------------------------------------

#: key and config of the last transform config built
_last_config: tuple[tuple, mmra.MMRAConfig] | None = None


def _config_from_json(obj: dict, depth=None, path=None) -> mmra.MMRAConfig:
    """The config of a JSON document, its banks reused while its content holds.

    The key is everything the family and banks are built from: the
    scales, the signs (None reads as all zeros, and repr keeps 1, 1.0
    and true apart as the digest does) and every resolved filter's
    origin and bytes, so an edited custom family file misses.  depth
    and path belong to the call.
    """
    global _last_config
    sets = univariate_sets_from_names(obj["families"])
    depth = depth if depth is not None else obj.get("depth")
    path = path if path is not None else obj.get("path")
    sigma1, sigma2, s = int(obj["sigma1"]), int(obj["sigma2"]), int(obj["s"])
    signs = obj.get("signs")
    key = (sigma1, sigma2, s,
           repr((0,) * (s - 1) if signs is None else tuple(signs)),
           tuple((u.scale, tuple((f.origin, f.data.tobytes()) for f in u.filters))
                 for u in sets))
    last = _last_config
    if last is not None and last[0] == key:
        config = last[1]
    else:
        config = mmra.build_config(sigma1, sigma2, s, signs, sets)
        for bank in config.banks:
            for f in bank.filters.values():
                f.data.flags.writeable = False
        _last_config = key, config
    return dataclasses.replace(config, depth=depth,
                               path=None if path is None else tuple(path))


def _load_signal(path: str) -> CoefSeq:
    if path.endswith(".pgm"):
        return CoefSeq((0, 0), formats.read_pgm(path))
    return formats.read_grid(path)


def _node_key(path: tuple[int, ...]) -> str:
    return "root" if not path else "-".join(map(str, path))


def cmd_transform_decompose(args) -> int:
    path = _parse_ints(args.path) if args.path else None
    config_obj, config = formats.read_json(
        args.config, lambda obj: (obj, _config_from_json(obj, args.depth, path)))
    signal = _load_signal(args.signal)
    tree = mmra.decompose(config, signal)

    os.makedirs(args.out, exist_ok=True)
    nodes = []
    for node_path in tree.paths():
        node = tree.nodes[node_path]
        key = _node_key(node_path)
        entry: dict = {"path": list(node_path), "details": {}, "approx": None}
        for eta in sorted(node.details):
            fname = f"node_{key}.detail_{'-'.join(map(str, eta))}.grid"
            formats.write_grid(os.path.join(args.out, fname), node.details[eta])
            entry["details"][",".join(map(str, eta))] = fname
        if node.approx is not None:
            fname = f"node_{key}.approx.grid"
            formats.write_grid(os.path.join(args.out, fname), node.approx)
            entry["approx"] = fname
        nodes.append(entry)
    manifest = {
        "config": config_obj,
        "mode": tree.mode,
        "depth": tree.depth,
        "m": tree.m,
        "config_digest": tree.config_digest,
        "signal_window": {"lo": list(tree.signal_window.lo),
                          "hi": list(tree.signal_window.hi)},
        "nodes": nodes,
    }
    formats.atomic_write_text(os.path.join(args.out, "manifest.json"),
                              formats.dumps(manifest) + "\n")
    details = sum(len(n["details"]) for n in nodes)
    approxes = sum(1 for n in nodes if n["approx"])
    print(f"decomposed into {len(nodes)} nodes, {details} detail arrays, "
          f"{approxes} approximations -> {args.out}")
    return 0


def cmd_transform_reconstruct(args) -> int:
    def grid(name: str) -> CoefSeq:
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError(f"grid name {name!r} is not a file in the tree")
        return formats.read_grid(os.path.join(args.tree, name))

    def parse(manifest: dict):
        nodes = {}
        for entry in manifest["nodes"]:
            details = {tuple(int(x) for x in key.split(",")): grid(fname)
                       for key, fname in entry["details"].items()}
            approx = grid(entry["approx"]) if entry["approx"] else None
            nodes[tuple(int(d) for d in entry["path"])] = mmra.TreeNode(details, approx)
        window = Window(tuple(manifest["signal_window"]["lo"]),
                        tuple(manifest["signal_window"]["hi"]))
        tree = mmra.DecompositionTree(manifest["mode"], int(manifest["depth"]),
                                      int(manifest["m"]), nodes, window,
                                      manifest["config_digest"])
        return _config_from_json(manifest["config"]), tree

    config, tree = formats.read_json(os.path.join(args.tree, "manifest.json"), parse)
    out = mmra.reconstruct(config, tree)
    formats.write_grid(args.out, out)
    print(f"reconstructed signal -> {args.out}")
    if args.check:
        original = _load_signal(args.check)
        err = max_abs_diff(out, original)
        scale = max(1.0, original.linf())
        ok = err <= args.tol_pr * scale
        print(f"max roundtrip error vs {args.check}: {err:.3e} "
              f"({'ok' if ok else 'EXCEEDS tolerance'}, tol {args.tol_pr:g} relative)")
        if not ok:
            return 2
    return 0


# -- slope -------------------------------------------------------------------

def cmd_slope(args) -> int:
    signs = _parse_ints(args.signs) if args.signs else None
    family = dilation_family(args.sigma1, args.sigma2, args.dim, signs)
    w = tuple(Fraction(p) for p in args.w.split(","))
    w2 = tuple(Fraction(p) for p in args.w2.split(","))
    result = mmra.slope_digits(family, w, w2, Fraction(args.delta))
    print(f"digits : {','.join(map(str, result.eps))}")
    print(f"length : {result.n}")
    print(f"error  : {result.achieved_error:.6e}  (tolerance {args.delta})")
    _print_matrix("xi_eps", xi_product(family, result.eps))
    return 0


# -- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="aniso",
                     description="anisotropic wavelet filterbank toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("smith", help="Smith factorization of an integer matrix")
    p.add_argument("matrix", help="inline JSON rows or a JSON file path")
    p.add_argument("--target", help="comma-separated diagonal to factor through")
    p.add_argument("--json", help="also write a JSON report to this path")
    p.set_defaults(func=cmd_smith)

    bank = sub.add_parser("bank", help="build or verify filterbanks")
    bank_sub = bank.add_subparsers(dest="bank_command", required=True,
                                   parser_class=_Parser)
    p = bank_sub.add_parser("build", help="construct a bank from univariate sets")
    p.add_argument("--xi", required=True, help="dilation matrix (JSON or file)")
    p.add_argument("--sigma", required=True, help="diagonal, e.g. 3,2")
    p.add_argument("--families", required=True,
                   help="comma-separated names (haar, db2, cl3) or JSON files")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_bank_build)
    p = bank_sub.add_parser("verify", help="check QMF identities and moments")
    p.add_argument("bank")
    p.add_argument("--tol-qmf", type=float, default=1e-12)
    p.add_argument("--tol-moments", type=float, default=1e-10)
    p.add_argument("--window", type=int, default=24,
                   help="side length of the window whose boundary-free analysis "
                        "lags the polynomial details are evaluated at")
    p.set_defaults(func=cmd_bank_verify)

    p = sub.add_parser("cascade", help="render limit functions on refined grids")
    p.add_argument("bank")
    p.add_argument("--filter", default="all",
                   help="'all', a flat filter index, or an index tuple like 2,1")
    p.add_argument("-r", "--levels", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--pgm", type=int, choices=(8, 16), default=None,
                   help="also write PGM heatmaps at this bit depth")
    p.set_defaults(func=cmd_cascade)

    tr = sub.add_parser("transform", help="tree decomposition / reconstruction")
    tr_sub = tr.add_subparsers(dest="transform_command", required=True,
                               parser_class=_Parser)
    p = tr_sub.add_parser("decompose")
    p.add_argument("config", help="JSON config with sigma1, sigma2, s, families")
    p.add_argument("signal", help="input .grid or .pgm file")
    p.add_argument("-o", "--out", required=True, help="output tree directory")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--path", default=None, help="fixed digit path, e.g. 0,1")
    p.set_defaults(func=cmd_transform_decompose)
    p = tr_sub.add_parser("reconstruct")
    p.add_argument("tree", help="tree directory with manifest.json")
    p.add_argument("-o", "--out", required=True, help="output .grid file")
    p.add_argument("--check", default=None,
                   help="signal file to compare the reconstruction against")
    p.add_argument("--tol-pr", type=float, default=1e-10,
                   help="relative roundtrip tolerance reported by --check")
    p.set_defaults(func=cmd_transform_reconstruct)

    p = sub.add_parser("slope", help="directional digit extraction")
    p.add_argument("--sigma1", type=int, required=True)
    p.add_argument("--sigma2", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--signs", default=None, help="orthant signs, e.g. 1 or 1,0")
    p.add_argument("--w", required=True, help="reference slope components")
    p.add_argument("--w2", required=True, help="target slope components")
    p.add_argument("--delta", required=True, help="tolerance")
    p.set_defaults(func=cmd_slope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IncompatibleDiagonalError, OutOfSimplexError,
            InconsistentTreeError, IncompleteTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AnisoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
