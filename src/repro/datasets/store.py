"""On-disk instance store: a compact ``.npz``-based columnar format.

Parsed datasets (real graphs, set cover instances) are expensive to
re-ingest — text parsing dominates load time by orders of magnitude.  The
store serialises the *columns* of a :class:`~repro.graphs.Graph` or
:class:`~repro.setcover.SetCoverInstance` into an **uncompressed** ``.npz``
archive so that converted datasets load in milliseconds:

* ``edge_u`` / ``edge_v`` / ``edge_w`` for graphs (canonical ``u < v``
  orientation, exactly the arrays the :class:`Graph` holds);
* ``set_indptr`` / ``set_indices`` / ``set_weights`` for set cover
  instances (the primal CSR incidence index).

A JSON header member (``__header__``) carries a **schema version**, the
object kind, shape metadata, and a **SHA-256 checksum per column**.
:func:`load_dataset` validates the magic/version/checksums before handing
the object back, so silent corruption is impossible.

Because ``np.savez`` stores members with ``ZIP_STORED`` (no compression),
each column is a contiguous byte range of the archive; :func:`load_dataset`
exploits this to **memory-map** the columns (``mmap=True``, the default)
instead of copying them through the zip layer.  The reconstructed objects
use the trusted fast paths :meth:`Graph.from_arrays` /
:meth:`SetCoverInstance.from_csr`, so loading does no re-validation and no
re-canonicalisation work.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import zipfile
from typing import Any, Mapping

import numpy as np

from ..graphs.graph import Graph
from ..setcover.instance import SetCoverInstance

__all__ = [
    "ChecksumError",
    "DatasetError",
    "DatasetFormatError",
    "MAGIC",
    "SCHEMA_VERSION",
    "load_dataset",
    "read_header",
    "save_dataset",
]

#: Identifies files written by this store (stored in the header member).
MAGIC = "repro-dataset"

#: Bumped whenever the column layout or header contract changes.
SCHEMA_VERSION = 1

#: Columns per kind, in canonical archive order.
_GRAPH_COLUMNS = ("edge_u", "edge_v", "edge_w")
_SETCOVER_COLUMNS = ("set_indptr", "set_indices", "set_weights")

_HEADER_MEMBER = "__header__"


class DatasetError(ValueError):
    """Base class for store/ingestion failures."""


class DatasetFormatError(DatasetError):
    """The file is not a valid stored dataset (bad magic, schema, layout)."""


class ChecksumError(DatasetError):
    """A column's bytes do not match the checksum recorded at save time."""


def _column_digest(array: np.ndarray) -> str:
    """SHA-256 over the column's raw little-endian C-order bytes."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _graph_columns(graph: Graph) -> dict[str, np.ndarray]:
    return {
        "edge_u": np.ascontiguousarray(graph.edge_u, dtype=np.int64),
        "edge_v": np.ascontiguousarray(graph.edge_v, dtype=np.int64),
        "edge_w": np.ascontiguousarray(graph.weights, dtype=np.float64),
    }


def _setcover_columns(instance: SetCoverInstance) -> dict[str, np.ndarray]:
    indptr, indices = instance.set_incidence()
    return {
        "set_indptr": np.ascontiguousarray(indptr, dtype=np.int64),
        "set_indices": np.ascontiguousarray(indices, dtype=np.int64),
        "set_weights": np.ascontiguousarray(instance.weights, dtype=np.float64),
    }


def save_dataset(
    path: str | os.PathLike[str],
    obj: Graph | SetCoverInstance,
    *,
    name: str | None = None,
    source: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Write ``obj`` to ``path`` as a stored dataset; returns the header.

    ``name`` / ``source`` / ``extra`` are free-form provenance recorded in
    the header (``extra`` must be JSON-serialisable).
    """
    if isinstance(obj, Graph):
        kind = "graph"
        columns = _graph_columns(obj)
        shape: dict[str, Any] = {
            "num_vertices": int(obj.num_vertices),
            "num_edges": int(obj.num_edges),
        }
    elif isinstance(obj, SetCoverInstance):
        kind = "setcover"
        columns = _setcover_columns(obj)
        shape = {
            "num_sets": int(obj.num_sets),
            "num_elements": int(obj.num_elements),
            "total_size": int(obj.total_size),
        }
    else:
        raise DatasetError(
            f"can only store Graph or SetCoverInstance objects, not {type(obj).__name__}"
        )
    header: dict[str, Any] = {
        "magic": MAGIC,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        **shape,
        "checksums": {key: _column_digest(array) for key, array in columns.items()},
        "dtypes": {key: str(array.dtype) for key, array in columns.items()},
    }
    if name is not None:
        header["name"] = str(name)
    if source is not None:
        header["source"] = str(source)
    if extra:
        # Ingestion boundary: arbitrary caller-supplied extras are coerced
        # to JSON here, *before* the header bytes are fingerprinted — the
        # checksum covers the coerced form, so the round-trip is stable.
        header["extra"] = json.loads(json.dumps(dict(extra), default=str))  # repro-lint: disable=WIRE001
    header_bytes = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    # np.savez writes ZIP_STORED members, which is what makes mmap loading
    # work.  Write through an open handle so the archive lands at *exactly*
    # the requested path (np.savez appends '.npz' to bare path strings).
    with open(path, "wb") as fh:
        np.savez(fh, **{_HEADER_MEMBER: header_bytes}, **columns)
    return header


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #
def _member_data_offset(fh, info: zipfile.ZipInfo) -> int:
    """Absolute offset of a ZIP member's payload (after its local header)."""
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise DatasetFormatError("corrupt archive: bad local file header")
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    return info.header_offset + 30 + name_len + extra_len


def _mmap_member(path: str, fh, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one uncompressed ``.npy`` member of the archive.

    Parses the npy header in place (magic, version, header dict) and maps
    the payload bytes directly, so no data is copied through the zip layer.
    """
    data_offset = _member_data_offset(fh, info)
    fh.seek(data_offset)
    magic = fh.read(8)
    if magic[:6] != b"\x93NUMPY":
        raise DatasetFormatError(f"member {info.filename!r} is not a .npy array")
    major = magic[6]
    if major == 1:
        header_len = int.from_bytes(fh.read(2), "little")
        prefix = 10
    else:
        header_len = int.from_bytes(fh.read(4), "little")
        prefix = 12
    try:
        spec = ast.literal_eval(fh.read(header_len).decode("latin1"))
        dtype = np.dtype(spec["descr"])
        fortran = bool(spec["fortran_order"])
        array_shape = tuple(spec["shape"])
    except Exception as exc:
        raise DatasetFormatError(f"member {info.filename!r} has a corrupt npy header") from exc
    count = int(np.prod(array_shape, dtype=np.int64)) if array_shape else 1
    if count == 0:
        return np.empty(array_shape, dtype=dtype)
    array_offset = data_offset + prefix + header_len
    out = np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=array_offset,
        shape=array_shape,
        order="F" if fortran else "C",
    )
    return out


def _read_members(
    path: str | os.PathLike[str], names: tuple[str, ...], *, mmap: bool
) -> dict[str, np.ndarray]:
    path = os.fspath(path)
    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as fh:
        for name in names:
            member = name + ".npy"
            try:
                info = archive.getinfo(member)
            except KeyError:
                raise DatasetFormatError(f"stored dataset is missing column {name!r}") from None
            if mmap and info.compress_type == zipfile.ZIP_STORED:
                out[name] = _mmap_member(path, fh, info)
            else:
                with archive.open(member) as stream:
                    out[name] = np.lib.format.read_array(stream, allow_pickle=False)
    return out


def read_header(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and validate a stored dataset's header (cheap: no column I/O)."""
    path = os.fspath(path)
    if not zipfile.is_zipfile(path):
        raise DatasetFormatError(f"{path!r} is not a stored dataset (.npz archive)")
    try:
        raw = _read_members(path, (_HEADER_MEMBER,), mmap=False)[_HEADER_MEMBER]
        header = json.loads(bytes(np.asarray(raw, dtype=np.uint8)).decode("utf-8"))
    except DatasetFormatError:
        raise DatasetFormatError(
            f"{path!r} has no {_HEADER_MEMBER!r} member — not written by this store"
        ) from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"{path!r} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise DatasetFormatError(f"{path!r} is not a {MAGIC} file")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"{path!r} has schema version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    if header.get("kind") not in ("graph", "setcover"):
        raise DatasetFormatError(f"{path!r} has unknown kind {header.get('kind')!r}")
    return header


def _verify_columns(header: Mapping[str, Any], columns: Mapping[str, np.ndarray]) -> None:
    checksums = header.get("checksums", {})
    for name, array in columns.items():
        expected = checksums.get(name)
        if expected is None:
            raise DatasetFormatError(f"header records no checksum for column {name!r}")
        actual = _column_digest(array)
        if actual != expected:
            raise ChecksumError(
                f"column {name!r} is corrupt: stored checksum {expected[:12]}…, "
                f"recomputed {actual[:12]}…"
            )


def load_dataset(
    path: str | os.PathLike[str],
    *,
    mmap: bool = True,
    verify: bool = True,
) -> Graph | SetCoverInstance:
    """Load a stored dataset back into its in-memory object.

    ``mmap=True`` (default) memory-maps the columns straight out of the
    archive; ``verify=True`` (default) recomputes every column checksum
    against the header.  The returned object is reconstructed through the
    zero-copy trusted constructors, so a load round-trip is bitwise
    identical to the object that was saved.
    """
    header = read_header(path)
    if header["kind"] == "graph":
        columns = _read_members(path, _GRAPH_COLUMNS, mmap=mmap)
        if verify:
            _verify_columns(header, columns)
        u, v, w = columns["edge_u"], columns["edge_v"], columns["edge_w"]
        if not (len(u) == len(v) == len(w) == int(header["num_edges"])):
            raise DatasetFormatError("edge column lengths disagree with the header")
        return Graph.from_arrays(int(header["num_vertices"]), u, v, w)
    columns = _read_members(path, _SETCOVER_COLUMNS, mmap=mmap)
    if verify:
        _verify_columns(header, columns)
    indptr = columns["set_indptr"]
    if len(indptr) != int(header["num_sets"]) + 1:
        raise DatasetFormatError("set_indptr length disagrees with the header")
    return SetCoverInstance.from_csr(
        indptr,
        columns["set_indices"],
        columns["set_weights"],
        num_elements=int(header["num_elements"]),
    )
