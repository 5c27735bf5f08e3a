"""Per-partition lineage manifests — the resume/checkpoint story (§4.5).

Replaces the reference's Postgres state machine
(pending→completed/failed rows in ``scraping_logs`` — db_utils.py:125-170
mark-pending, db_utils.py:251-295 commit, db_utils.py:76-123
skip-if-completed, main.py:598-606 pending drain). Two mechanisms:

**Commit groups (physical resume unit).** The input FILE list is split
deterministically into G groups (``split_file_groups``); each group is
one branch of the run's single streaming execution, writing
``out/group-<g>/...``, and gets one atomic commit record
``_manifest/part-<g>.json`` (tmp+rename) carrying the group's input
files and the associative session counters (main.py:30-44), written
once the group's counted rows match its input files' Parquet footers.
On restart: committed groups are skipped entirely at
the read (their input files never leave storage), uncommitted group
dirs are deleted (partial output without its commit record is garbage
— replay is idempotent because the group→files mapping is
deterministic). This is the only layout whose output-file count scales
with DATA SIZE, not tasks×partitions — a partitioned-column write was
measured at 12,800 files / 52 s where plain block writes cost 5 s.

**part_id column (logical url shard).** Every row also gets
``part_id = hash64(url) % P`` — the stable url-keyed shard for
dedup/anti-join ops (J2) and per-shard counters. Logical sharding and
physical commit grouping are deliberately decoupled: the first is a
property of the ROW, the second of the RUN.

Scale note: the committed-set is O(G) integers — trivially
broadcastable at any corpus size; manifests are one small JSON per
group, not a central lock (§4.2: no driver-side bottleneck).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Set

import pyarrow as pa

PART_COL = "part_id"


def hash64(s: str) -> int:
    """Stable 64-bit key hash (md5-derived; no PYTHONHASHSEED dependence)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def assign_part_id(batch: pa.Table, num_partitions: int,
                   key: str = "url") -> pa.Table:
    """Vectorized-enough part assignment (one md5 per row, ~1 µs)."""
    keys = batch.column(key).to_pylist()
    parts = [hash64(k) % num_partitions for k in keys]
    return batch.append_column(PART_COL, pa.array(parts, pa.int64()))


def manifest_dir(output_dir: str, dirname: str = "_manifest") -> str:
    return os.path.join(output_dir, dirname)


def manifest_path(output_dir: str, part_id: int,
                  dirname: str = "_manifest") -> str:
    return os.path.join(manifest_dir(output_dir, dirname), f"part-{part_id:05d}.json")


def committed_parts(output_dir: str, dirname: str = "_manifest") -> Set[int]:
    """Scan commit records → set of finished partitions (S4/J2 analog)."""
    mdir = manifest_dir(output_dir, dirname)
    done: Set[int] = set()
    if not os.path.isdir(mdir):
        return done
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            try:
                done.add(int(name[len("part-"):-len(".json")]))
            except ValueError:
                continue
    return done


def commit_partition(output_dir: str, part_id: int, stats: Dict,
                     dirname: str = "_manifest") -> str:
    """Atomic commit record — the `update_scraping_log_status('completed')`
    analog (db_utils.py:251-295). Data files MUST be fully written first."""
    mdir = manifest_dir(output_dir, dirname)
    os.makedirs(mdir, exist_ok=True)
    path = manifest_path(output_dir, part_id, dirname)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump({"part_id": part_id, **stats}, f, ensure_ascii=False, indent=2)
    os.replace(tmp, path)
    return path


def read_manifests(output_dir: str, dirname: str = "_manifest") -> List[Dict]:
    mdir = manifest_dir(output_dir, dirname)
    out: List[Dict] = []
    if not os.path.isdir(mdir):
        return out
    for name in sorted(os.listdir(mdir)):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name), encoding="utf-8") as f:
                out.append(json.load(f))
    return out


GROUP_DIR_PREFIX = "group-"


def group_dir(output_dir: str, group_id: int) -> str:
    return os.path.join(output_dir, f"{GROUP_DIR_PREFIX}{group_id:05d}")


def split_file_groups(paths: List[str], n_groups: int) -> List[List[str]]:
    """Deterministic round-robin assignment of input files to commit
    groups (sorted first so the grouping is stable across runs — the
    resume correctness hinges on group g always meaning the same input
    files)."""
    ordered = sorted(paths)
    n_groups = max(1, min(n_groups, len(ordered)))
    groups: List[List[str]] = [[] for _ in range(n_groups)]
    for i, p in enumerate(ordered):
        groups[i % n_groups].append(p)
    return groups


def clean_uncommitted(output_dir: str, committed: Set[int]) -> List[str]:
    """Delete commit-group dirs that have data but no commit record —
    partial output from a crashed run; replay is idempotent because a
    group's input file set is deterministic (split_file_groups)."""
    removed: List[str] = []
    if not os.path.isdir(output_dir):
        return removed
    for name in os.listdir(output_dir):
        if not name.startswith(GROUP_DIR_PREFIX):
            continue
        try:
            gid = int(name[len(GROUP_DIR_PREFIX):])
        except ValueError:
            continue
        if gid not in committed:
            full = os.path.join(output_dir, name)
            shutil.rmtree(full, ignore_errors=True)
            removed.append(full)
    return removed


def filter_uncommitted_batch(batch: pa.Table, committed: Set[int]) -> pa.Table:
    """Broadcast-set anti-join filter (J2) — vectorized isin over part_id."""
    import pyarrow.compute as pc

    if not committed:
        return batch
    mask = pc.is_in(
        batch.column(PART_COL),
        value_set=pa.array(sorted(committed), pa.int64()),
    )
    return batch.filter(pc.invert(mask))
