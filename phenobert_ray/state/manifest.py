"""Per-partition lineage manifests → checkpoint/resume (north rule).

The resumable unit is an *input shard* (a group of parquet fragments).  Each
completed shard writes ``out_dir/shard=K/*.parquet`` plus
``out_dir/_MANIFEST/shard-K.json`` recording the input fragment list, row
counts and a content hash of the shard's triples.  Resume = skip shards whose
manifest exists and matches the input fingerprint (the reference's implicit
skip-existing-files idempotence, SURVEY.md §4, formalized).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def _fingerprint(paths: list[str], spec: str = "") -> str:
    # size alone is not enough: an input modified in place with identical
    # byte length must invalidate the shard, so fold in mtime_ns too
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    h.update(spec.encode())
    return h.hexdigest()[:16]


def manifest_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, "_MANIFEST", f"shard-{shard}.json")


def shard_done(out_dir: str, shard: int, input_paths: list[str], spec: str = "") -> bool:
    mp = manifest_path(out_dir, shard)
    if not os.path.exists(mp):
        return False
    try:
        with open(mp) as f:
            m = json.load(f)
        if m.get("input_fingerprint") != _fingerprint(input_paths, spec):
            return False
        # a manifest without its data directory is a lost partition, not a
        # finished shard — skipping it would silently drop rows
        return (m.get("row_count") == 0
                or os.path.isdir(os.path.join(out_dir, f"shard={shard}")))
    except (json.JSONDecodeError, OSError):
        return False


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
    payload = {
        "shard": shard,
        "input_paths": sorted(input_paths),
        "spec": spec,
        "input_fingerprint": _fingerprint(input_paths, spec),
        "row_count": row_count,
        "content_hash": content_hash,
        "metrics": metrics or {},
    }
    # atomic write: manifest appears only after the shard's data is durable
    fd, tmp = tempfile.mkstemp(dir=os.path.join(out_dir, "_MANIFEST"))
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, manifest_path(out_dir, shard))


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
