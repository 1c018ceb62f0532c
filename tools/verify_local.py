"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf and compare with the oracle_sql() DuckDB result
(row count + schema + order-insensitive value hash).  Usage:

    python tools/verify_local.py [sf_dir] [query ...]

With query names given, only those queries are checked.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd
import ray
import ray.data  # configures the "ray.data" logger main() hooks

# the table the oracles read (the turns are synthesized from it in SQL,
# see phenobert_ray/transcripts.py)
TABLES = ["documents"]


def to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas") and not hasattr(res, "schema_"):
        import pyarrow as pa

        if isinstance(res, pa.Table):
            return res.to_pandas()
        df = res.to_pandas()
        if not len(df) and not len(df.columns):
            # Ray's to_pandas drops the columns of ANY zero-row Dataset,
            # even a schema-carrying one (_guard_empty's); rebuild the typed
            # empty frame from the dataset schema so a legitimately-empty
            # result (zero co-occurring pairs) compares against its
            # oracle on columns, not on a column-less frame
            sch = res.schema()
            base = getattr(sch, "base_schema", None)
            if isinstance(base, pa.Schema):
                return base.empty_table().to_pandas()
            names = getattr(base, "names", None)
            types = getattr(base, "types", None)
            if names:  # PandasBlockSchema (pandas-block datasets)
                return pd.DataFrame(
                    {n: pd.Series([], dtype=t)
                     for n, t in zip(names, types or ["object"] * len(names))}
                )
        return df
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if col.dtype.kind == "f":
            col = col.round(6)
        h.update(pd.util.hash_pandas_object(col, index=False).values.tobytes())
    return h.hexdigest()[:16]


def connect(sf_dir: str) -> duckdb.DuckDBPyConnection:
    """DuckDB connection with every table the oracles read registered as
    a view over ``sf_dir``.  A table may be ONE file or a DIRECTORY of
    fragments (the 100 TB layout, exercised by make_adversarial_sf.py
    --fragments)."""
    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        src = f"{p}/*.parquet" if os.path.isdir(p) else p
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{src}')"
        )
    return con


def compare(mine: pd.DataFrame, oracle: pd.DataFrame) -> bool:
    """Row count, column names and order-insensitive value hash agree
    (both frames already passed through ``canon``)."""
    return (
        len(mine) == len(oracle)
        and list(mine.columns) == list(oracle.columns)
        and value_hash(mine) == value_hash(oracle)
    )


class _SchemaWarnings(logging.Handler):
    """Counts Ray Data's "different schema" warnings: a block whose schema
    differs from its operator's previous one."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        self.n += "different schema" in record.getMessage()


def main(sf_dir: str, only: list[str] | None = None) -> int:
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    schema_warnings = _SchemaWarnings()
    logging.getLogger("ray.data").addHandler(schema_warnings)
    t_start = time.time()
    passes = 0
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as E

    con = connect(sf_dir)
    qs, os_ = E.queries(), E.oracle_sql()
    if only:
        unknown = [k for k in only if k not in qs]
        if unknown:
            # a typo must not produce a green zero-query run
            print(f"ERROR: unknown query name(s): {unknown}; "
                  f"known: {sorted(qs)}")
            return 1
        qs = {k: v for k, v in qs.items() if k in only}
    failures = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            mine = canon(to_df(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in os_:
            print(f"ok?   {name}: rows={len(mine)} (rows-only, no oracle) "
                  f"[{time.time()-t0:.1f}s]")
            continue
        try:
            oracle = canon(con.execute(os_[name]).df())
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL  {name}: oracle raised {exc}")
            failures += 1
            continue
        if compare(mine, oracle):
            print(f"PASS  {name}: rows={len(mine)} hash={value_hash(mine)} "
                  f"[{time.time()-t0:.1f}s]")
            passes += 1
            continue
        failures += 1
        print(
            f"FAIL  {name}: rows {len(mine)}/{len(oracle)} cols "
            f"{list(mine.columns)}/{list(oracle.columns)}"
        )
        if len(mine) == len(oracle) and list(mine.columns) == list(oracle.columns):
            # value_hash is dtype-sensitive on purpose (mirrors the
            # driver); distinguish a genuine value diff from a
            # float32-vs-float64 / Int64-vs-int64 representation diff
            m64, o64 = mine.copy(), oracle.copy()
            for c in m64.columns:
                if m64[c].dtype.kind in "fiu" or o64[c].dtype.kind in "fiu":
                    m64[c] = m64[c].astype("float64")
                    o64[c] = o64[c].astype("float64")
            if value_hash(m64) == value_hash(o64):
                print("  (values EQUAL after dtype normalization — "
                      "dtype-only mismatch; align the Ray output dtype "
                      "with the oracle)")
            neq = (mine != oracle) & ~(mine.isna() & oracle.isna())
            bad = neq.any(axis=1)
            print(mine[bad].head(5))
            print(oracle[bad].head(5))
    print(f"{passes} PASS / {failures} FAIL in {time.time() - t_start:.1f} s, "
          f"{schema_warnings.n} schema-mismatch warnings")
    logging.getLogger("ray.data").removeHandler(schema_warnings)
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sys.exit(
        main(
            sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
            sys.argv[2:] or None,
        )
    )
