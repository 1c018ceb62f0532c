"""Lineage manifests → checkpoint/resume (north rule).

A KG job keeps two kinds of resumable state under its out dir:

- **Fragment partials** — the resume unit of the annotate work.  Each input
  fragment (a parquet file; a textdir/jsonl input is one unit) has its
  distinct ``(conv_id, hpo_id)`` partial in ``_partials/<unit>.parquet``
  and its manifest beside it in ``_partials/<unit>.json``: the input
  paths, the spec, the input fingerprint, and the partial's row count and
  mention total.
- **Output shards** — ``shard=K/*.parquet`` with ``_MANIFEST/shard-K.json``
  (input paths, spec, fingerprint, row count, order-insensitive content
  hash of the triples).

Resume = skip every unit and shard whose manifest exists and matches the
current input fingerprint (the reference's implicit skip-existing-files
idempotence, SURVEY.md §4, formalized).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

PARTIALS_DIR = "_partials"


def _fingerprint(paths: list[str], spec: str = "") -> str:
    # size alone is not enough: an input modified in place with identical
    # byte length must invalidate the shard, so fold in mtime_ns too
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    h.update(spec.encode())
    return h.hexdigest()[:16]


def _write_json(path: str, payload: dict) -> None:
    # atomic write: a manifest appears only after the data it describes
    # is in place
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, path)


def _load(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


def manifest_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, "_MANIFEST", f"shard-{shard}.json")


def shard_done(out_dir: str, shard: int, input_paths: list[str], spec: str = "") -> bool:
    m = _load(manifest_path(out_dir, shard))
    if m is None or m.get("input_fingerprint") != _fingerprint(input_paths, spec):
        return False
    # a manifest without its data directory is a lost partition, not a
    # finished shard — skipping it would silently drop rows
    return (m.get("row_count") == 0
            or os.path.isdir(os.path.join(out_dir, f"shard={shard}")))


def write_manifest(
    out_dir: str,
    shard: int,
    input_paths: list[str],
    row_count: int,
    content_hash: str,
    spec: str = "",
    metrics: dict | None = None,
) -> None:
    os.makedirs(os.path.join(out_dir, "_MANIFEST"), exist_ok=True)
    _write_json(manifest_path(out_dir, shard), {
        "shard": shard,
        "input_paths": sorted(input_paths),
        "spec": spec,
        "input_fingerprint": _fingerprint(input_paths, spec),
        "row_count": row_count,
        "content_hash": content_hash,
        "metrics": metrics or {},
    })


def prune_stale_shards(out_dir: str, num_shards: int) -> int:
    """Delete shard output dirs and manifests whose index is outside the
    CURRENT spec list (e.g. a re-run with fewer --shards), so readers of
    ``out_dir`` / ``read_manifests`` never see stale triples alongside
    fresh ones.  Returns the number of stale shards removed."""
    import re
    import shutil

    removed = 0
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            m = re.fullmatch(r"shard=(\d+)", name)
            if m and int(m.group(1)) >= num_shards:
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
                removed += 1
    mdir = os.path.join(out_dir, "_MANIFEST")
    if os.path.isdir(mdir):
        for name in os.listdir(mdir):
            m = re.fullmatch(r"shard-(\d+)\.json", name)
            if m and int(m.group(1)) >= num_shards:
                os.remove(os.path.join(mdir, name))
    return removed


def read_manifests(out_dir: str) -> list[dict]:
    mdir = os.path.join(out_dir, "_MANIFEST")
    if not os.path.isdir(mdir):
        return []
    out = []
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                out.append(json.load(f))
    return out


# ------------------------------------------------------ fragment partials


def unit_name(input_paths: list[str]) -> str:
    """File stem of a resume unit's partial: a process-stable digest of its
    input paths, so a unit keeps its name when other fragments are added
    or removed around it."""
    h = hashlib.sha256("\n".join(sorted(input_paths)).encode())
    return f"unit-{h.hexdigest()[:16]}"


def partial_path(out_dir: str, unit: str) -> str:
    return os.path.join(out_dir, PARTIALS_DIR, f"{unit}.parquet")


def partial_key(input_paths: list[str], spec: str) -> str:
    """The identity a unit's partial is kept under: its input fingerprint
    (path, size, mtime) folded with the job spec."""
    return _fingerprint(input_paths, spec)


def partial_done(out_dir: str, unit: str, key: str) -> bool:
    m = _load(os.path.join(out_dir, PARTIALS_DIR, f"{unit}.json"))
    return (m is not None and m.get("input_fingerprint") == key
            and os.path.isfile(partial_path(out_dir, unit)))


def write_partial_manifest(out_dir: str, unit: str, input_paths: list[str],
                           spec: str, key: str, row_count: int,
                           n_mentions: int) -> None:
    """``unit``'s manifest, written after its partial is in place.  ``key``
    is the :func:`partial_key` taken before the unit was read, so an input
    edited mid-run is not recorded as done."""
    _write_json(os.path.join(out_dir, PARTIALS_DIR, f"{unit}.json"), {
        "unit": unit,
        "input_paths": sorted(input_paths),
        "spec": spec,
        "input_fingerprint": key,
        "row_count": row_count,
        "n_mentions": n_mentions,
    })


def read_partial_manifests(out_dir: str) -> list[dict]:
    d = os.path.join(out_dir, PARTIALS_DIR)
    if not os.path.isdir(d):
        return []
    ms = (_load(os.path.join(d, n)) for n in sorted(os.listdir(d))
          if n.endswith(".json"))
    return [m for m in ms if m is not None]


def prune_stale_partials(out_dir: str, units: set[str]) -> None:
    """Delete the partials and manifests of units no longer in the input."""
    d = os.path.join(out_dir, PARTIALS_DIR)
    if os.path.isdir(d):
        for n in os.listdir(d):
            if n.split(".", 1)[0] not in units:
                os.remove(os.path.join(d, n))
