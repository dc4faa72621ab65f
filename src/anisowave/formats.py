"""On-disk formats: canonical JSON, the binary grid format, and PGM images.

JSON output is deterministic (sorted keys, floats rendered with 17
significant digits) so identical inputs produce byte-identical files.
Grids use a little-endian float64 container with magic ``ANI1``; PGM
covers 8- and 16-bit image interchange with the affine value scaling
recorded in a JSON sidecar.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import Any

import numpy as np

from .dictionary import AnisoFilterBank, UnivariateQMFSet, tensor_filters
from .errors import ScaleMismatchError
from .lattice import IntMatrix, SmithFactorization, _as_int
from .seqcore import CoefSeq, Window
from .subdivision import SampledFunction

GRID_MAGIC = b"ANI1"


# -- canonical JSON ----------------------------------------------------------

def dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, 17-significant-digit floats."""
    return _render(obj)


def _render(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("cannot serialize non-finite float")
        if x == 0 and math.copysign(1.0, x) < 0:
            return "-0.0"  # "-0" would read back as the integer 0
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(str(k))}:{_render(v)}"
                              for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write_text(path: str, text: str):
    _atomic_write(path, text.encode())


def atomic_write_bytes(path: str, blob: bytes):
    _atomic_write(path, blob)


def _atomic_write(path: str, blob: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".aniso-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- matrices ----------------------------------------------------------------

def matrix_to_json(m: IntMatrix) -> dict:
    return {"dim": m.dim, "rows": [list(r) for r in m.entries]}

def matrix_from_json(obj: dict) -> IntMatrix:
    m = IntMatrix.from_rows(obj["rows"])
    if m.dim != obj.get("dim", m.dim):
        raise ValueError("matrix dim field disagrees with rows")
    return m


# -- coefficient sequences ---------------------------------------------------

def coefseq_to_json(c: CoefSeq) -> dict:
    return {"dim": c.dim, "origin": list(c.origin), "shape": list(c.shape),
            "data": [float(x) for x in c.data.reshape(-1)]}


def coefseq_from_json(obj: dict) -> CoefSeq:
    """The sequence of a document; NaN or infinite values (which ``json``
    reads) make it malformed, like a value of the wrong type."""
    shape = tuple(int(n) for n in obj["shape"])
    data = np.array(obj["data"], dtype=np.float64).reshape(shape)
    if not np.isfinite(data).all():
        raise ValueError("sequence data holds non-finite values")
    return CoefSeq(tuple(int(o) for o in obj["origin"]), data)


# -- binary grid container ---------------------------------------------------

def grid_to_bytes(c: CoefSeq) -> bytes:
    """Pack a grid container; non-finite values, which no reader accepts, raise."""
    if not np.isfinite(c.data).all():
        raise ValueError("refusing to write a grid holding non-finite values")
    head = GRID_MAGIC + struct.pack("<I", c.dim)
    head += struct.pack(f"<{c.dim}q", *c.origin)
    head += struct.pack(f"<{c.dim}Q", *c.shape)
    return head + np.ascontiguousarray(c.data, dtype="<f8").tobytes()


def grid_from_bytes(blob: bytes) -> CoefSeq:
    """Parse a grid container: the payload must fill the shape exactly and be finite."""
    if blob[:4] != GRID_MAGIC:
        raise ValueError("not a grid file (bad magic)")
    if len(blob) < 8:
        raise ValueError("grid header is cut short")
    (dim,) = struct.unpack_from("<I", blob, 4)
    off = 8 + 16 * dim
    if dim == 0:
        raise ValueError("grid has dimension 0")
    if len(blob) < off:
        raise ValueError("grid header is cut short")
    origin = struct.unpack_from(f"<{dim}q", blob, 8)
    shape = struct.unpack_from(f"<{dim}Q", blob, 8 + 8 * dim)
    count = math.prod(shape)
    if not count:
        raise ValueError(f"grid shape {shape} has an empty axis")
    if len(blob) != off + 8 * count:
        raise ValueError(f"grid payload has {len(blob) - off} bytes, "
                         f"shape {shape} needs {8 * count}")
    data = np.frombuffer(blob, dtype="<f8", offset=off).reshape(shape)
    if not np.isfinite(data).all():
        raise ValueError("grid payload holds non-finite values")
    return CoefSeq(origin, data.copy())


def write_grid(path: str, c: CoefSeq):
    atomic_write_bytes(path, grid_to_bytes(c))


def _parse_file(path: str, parse):
    """parse(bytes of the file); a ValueError names the file."""
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        return parse(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_grid(path: str) -> CoefSeq:
    return _parse_file(path, grid_from_bytes)


def parse_json(text: str | bytes, parse):
    """parse(the JSON document in text); a malformed document is a ValueError.

    A missing key, a value of the wrong type, a list too short or a
    number too large for an integer is a ``ValueError``, like a syntax
    error.
    """
    try:
        return parse(json.loads(text))
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise ValueError(
            f"malformed document ({type(exc).__name__}: {exc})") from None


def read_json(path: str, parse):
    """parse_json of the file's contents; a malformed document names the file."""
    return _parse_file(path, lambda blob: parse_json(blob, parse))


# -- sampled limit functions -------------------------------------------------

def sampled_sidecar(sf: SampledFunction, extra: dict | None = None) -> dict:
    obj = {"level": sf.level, "xi_total": matrix_to_json(sf.xi_total),
           "window": {"lo": list(sf.window.lo), "hi": list(sf.window.hi)}}
    if extra:
        obj.update(extra)
    return obj


def write_sampled(base_path: str, sf: SampledFunction, extra: dict | None = None):
    """Write base_path.grid plus the base_path.json sidecar."""
    write_grid(base_path + ".grid", sf.as_seq())
    atomic_write_text(base_path + ".json", dumps(sampled_sidecar(sf, extra)) + "\n")


def read_sampled(base_path: str) -> SampledFunction:
    seq = read_grid(base_path + ".grid")

    def parse(side: dict) -> SampledFunction:
        window = Window(tuple(side["window"]["lo"]), tuple(side["window"]["hi"]))
        if window.lo != seq.origin or window.shape != seq.shape:
            raise ValueError("sidecar window disagrees with grid")
        return SampledFunction(int(side["level"]), matrix_from_json(side["xi_total"]),
                               window, seq.data)
    return read_json(base_path + ".json", parse)


# -- univariate sets and banks -----------------------------------------------

def univariate_set_to_json(uset: UnivariateQMFSet) -> dict:
    return {"scale": uset.scale, "filters": [coefseq_to_json(f) for f in uset.filters]}


def univariate_set_from_json(obj: dict) -> UnivariateQMFSet:
    return UnivariateQMFSet(int(obj["scale"]),
                            tuple(coefseq_from_json(f) for f in obj["filters"]))


def _eta_key(eta: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in eta)


def _eta_from_key(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split(","))


def bank_to_json(bank: AnisoFilterBank) -> dict:
    return {
        "xi": matrix_to_json(bank.xi),
        "sigma": list(bank.sigma),
        "theta1": matrix_to_json(bank.fact.theta1),
        "theta2": matrix_to_json(bank.fact.theta2),
        "filters": {_eta_key(eta): coefseq_to_json(f)
                    for eta, f in bank.filters.items()},
        "sets": None if bank.sets is None else [univariate_set_to_json(u)
                                                for u in bank.sets],
    }


def bank_from_json(obj: dict) -> AnisoFilterBank:
    """The bank of a document; its univariate sets are kept only if they
    rebuild every stored filter, so an edited filter keeps its edit."""
    xi = matrix_from_json(obj["xi"])
    sigma = tuple(_as_int(x) for x in obj["sigma"])
    if any(s < 1 for s in sigma):
        raise ValueError(f"bank sigma entries must be >= 1, got {sigma}")
    fact = SmithFactorization(matrix_from_json(obj["theta1"]), sigma,
                              matrix_from_json(obj["theta2"]))
    if fact.reconstruct() != xi:
        raise ValueError("bank factorization does not reproduce its dilation")
    filters = {_eta_from_key(k): coefseq_from_json(v)
               for k, v in obj["filters"].items()}
    if filters.keys() != set(np.ndindex(*sigma)):
        raise ValueError(f"bank filter indices must be exactly 0 <= eta < sigma = {sigma}")
    if any(f.dim != xi.dim for f in filters.values()):
        raise ValueError(f"bank filters must have dimension {xi.dim}")
    sets = obj.get("sets")
    if sets is not None:
        sets = _rebuilding_sets(fact, sets, filters)
    return AnisoFilterBank(xi, fact, sigma, filters, sets)


def _rebuilding_sets(fact: SmithFactorization, docs: list,
                     filters: dict[tuple[int, ...], CoefSeq]):
    """The univariate sets in docs if they build exactly the given filters, else None.

    Exactly means the same boxes and values equal under ==, which also
    accepts files written before -0.0 kept its sign: they hold 0 where
    the rebuilt filter holds -0.0.
    """
    try:
        sets = tuple(univariate_set_from_json(u) for u in docs)
        rebuilt = tensor_filters(fact, sets)
    except ScaleMismatchError:
        return None
    same = rebuilt.keys() == filters.keys() and all(
        g.origin == filters[eta].origin and np.array_equal(g.data, filters[eta].data)
        for eta, g in rebuilt.items())
    return sets if same else None


def write_bank(path: str, bank: AnisoFilterBank):
    atomic_write_text(path, dumps(bank_to_json(bank)) + "\n")


def read_bank(path: str) -> AnisoFilterBank:
    return read_json(path, bank_from_json)


# -- PGM images ----------------------------------------------------------------

def read_pgm(path: str) -> np.ndarray:
    """Read an 8- or 16-bit PGM (binary P5 or ascii P2) as floats in [0, 1]."""
    return _parse_file(path, _pgm_from_bytes)


def _pgm_from_bytes(blob: bytes) -> np.ndarray:
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos == len(blob):
            raise ValueError("PGM header is cut short")
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"unsupported PGM magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"PGM header fields {tokens[1:]} are not all integers")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"PGM header needs positive sizes and 1 <= maxval <= 65535, "
                         f"got {width}x{height} with maxval {maxval}")
    count = width * height
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        if len(blob) - pos < count * dtype.itemsize:
            raise ValueError(f"PGM payload is cut short: {width}x{height} samples "
                             f"need {count * dtype.itemsize} bytes")
        data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    else:
        words = blob[pos:].split()[:count]
        if len(words) < count or not all(w.isdigit() for w in words):
            raise ValueError(f"PGM payload needs {count} integer samples")
        data = np.array([int(w) for w in words])
    if data.max() > maxval:
        raise ValueError(f"PGM sample {int(data.max())} exceeds maxval {maxval}")
    return (data.astype(np.float64) / maxval).reshape(height, width)


def write_pgm(path: str, values: np.ndarray, bits: int = 8) -> tuple[float, float]:
    """Write values as PGM with affine scaling; returns (vmin, vmax) used."""
    if bits not in (8, 16):
        raise ValueError("PGM depth must be 8 or 16 bits")
    if values.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    if not np.isfinite(values).all():
        raise ValueError("PGM export needs finite values")
    vmin = float(values.min())
    vmax = float(values.max())
    spread = vmax - vmin if vmax > vmin else 1.0
    maxval = (1 << bits) - 1
    scaled = np.round((values - vmin) / spread * maxval)
    raw = scaled.astype(">u2" if bits == 16 else "u1")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n{maxval}\n".encode()
    atomic_write_bytes(path, header + raw.tobytes())
    return vmin, vmax
