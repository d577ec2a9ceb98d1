"""Self-describing array container used for model files, network checkpoints,
and pose libraries.

Binary layout: magic ``HKC1``, a little-endian uint32 header length, a JSON
header (metadata plus an array manifest of name/dtype/shape), then the raw
array payloads in manifest order.  Floats are stored as little-endian float32,
index arrays as little-endian int32.

The text variant (magic line ``HKCT1``) carries the same schema in printable
form so small test models can be versioned and inspected directly.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError

_BIN_MAGIC = b"HKC1"
_TEXT_MAGIC = "HKCT1"

_DTYPES = {"f4": np.dtype("<f4"), "i4": np.dtype("<i4")}

ContainerError = InputError


def _dtype_code(arr: np.ndarray) -> str:
    if np.issubdtype(arr.dtype, np.floating):
        return "f4"
    if np.issubdtype(arr.dtype, np.integer):
        return "i4"
    raise InputError(f"unsupported array dtype {arr.dtype}")


def write_container(path, header: dict, arrays: dict[str, np.ndarray],
                    text: bool = False) -> None:
    """Write ``arrays`` with ``header`` metadata to ``path``.

    Array insertion order is preserved; header must be JSON-serializable.
    Raises NumericError for a float array that is not finite in float32.
    """
    path = Path(path)
    manifest = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _dtype_code(arr)
        manifest.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        payloads.append(np.ascontiguousarray(arr, dtype=_DTYPES[code]))
        if code == "f4" and not np.isfinite(payloads[-1]).all():
            raise NumericError(f"{path}: array {name!r} is not finite in float32")

    full_header = dict(header)
    full_header["arrays"] = manifest

    if text:
        lines = [_TEXT_MAGIC, json.dumps(full_header, sort_keys=True)]
        for spec, arr in zip(manifest, payloads):
            lines.append(f"array {spec['name']}")
            flat = arr.reshape(-1)
            if spec["dtype"] == "i4":
                lines.append(" ".join(str(int(v)) for v in flat))
            else:
                lines.append(" ".join(format(float(v), ".9g") for v in flat))
        path.write_text("\n".join(lines) + "\n")
        return

    blob = bytearray()
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    blob += _BIN_MAGIC
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for arr in payloads:
        blob += arr.tobytes()
    path.write_bytes(bytes(blob))


def read_container(path, kind: str | None = None
                   ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by :func:`write_container` (either variant).

    Raises InputError when the file is malformed (header, manifest, payload
    sizes, trailing bytes), when a float payload is not finite, or when
    ``kind`` is given and the header declares another kind.  Looking up an
    array the file does not hold raises InputError naming it.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] == _BIN_MAGIC:
        header, arrays = _read_binary(raw, path)
    else:
        header, arrays = _read_text(
            raw.decode("utf-8", errors="replace").splitlines(), path)
    if kind is not None and header.get("kind") != kind:
        raise InputError(f"{path}: not a {kind} container")
    for name, arr in arrays.items():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise InputError(f"{path}: non-finite values in array {name!r}")
    return header, arrays


class _Arrays(dict):
    """Name -> array; looking up an absent name raises InputError naming it."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise InputError(f"{self.path}: missing array {name!r}")


def _read_header(blob, path: Path) -> tuple[dict, list[tuple]]:
    """JSON header -> (metadata, [(name, dtype, shape, count), ...])."""
    try:
        header = json.loads(blob)
    except ValueError as exc:
        raise InputError(f"{path}: bad header ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise InputError(f"{path}: header must be an object with an array list")
    specs = []
    for spec in header.pop("arrays", []):
        try:
            name, dtype, shape = spec["name"], _DTYPES[spec["dtype"]], tuple(spec["shape"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: bad array entry {spec!r}") from exc
        if not isinstance(name, str) or not all(
                isinstance(n, int) and n >= 0 for n in shape):
            raise InputError(f"{path}: bad array entry {spec!r}")
        specs.append((name, dtype, shape, math.prod(shape)))
    return header, specs


def _read_binary(raw: bytes, path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    hlen = struct.unpack("<I", raw[4:8])[0] if len(raw) >= 8 else len(raw)
    if len(raw) < 8 + hlen:
        raise InputError(f"{path}: truncated header")
    header, specs = _read_header(raw[8:8 + hlen], path)
    offset = 8 + hlen
    arrays = _Arrays(path)
    for name, dtype, shape, count in specs:
        if offset + count * dtype.itemsize > len(raw):
            raise InputError(f"{path}: truncated array {name}")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        arrays[name] = arr.reshape(shape).copy()
        offset += count * dtype.itemsize
    if offset != len(raw):
        raise InputError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, arrays


def _read_text(lines: list[str], path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    if not lines or lines[0].strip() != _TEXT_MAGIC:
        raise InputError(f"{path}: unrecognized container format")
    header, specs = _read_header(lines[1] if len(lines) > 1 else "", path)
    payload = {}  # name -> value tokens, from "array <name>" + value line pairs
    body = (line.strip() for line in lines[2:])
    for line in body:
        if line and not line.startswith("array "):
            raise InputError(f"{path}: unexpected line {line!r}")
        if line:
            payload[line[6:].strip()] = next(body, "").split()
    arrays = _Arrays(path)
    for name, dtype, shape, count in specs:
        values = payload.pop(name, [])
        if len(values) != count:
            raise InputError(f"{path}: array {name!r} has {len(values)} values, "
                             f"expected {count}")
        try:
            with np.errstate(over="ignore"):  # out-of-range floats become inf
                arrays[name] = np.array(values, dtype=dtype).reshape(shape)
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad values in array {name!r}") from exc
    if payload:
        raise InputError(f"{path}: arrays missing from manifest: {sorted(payload)}")
    return header, arrays
