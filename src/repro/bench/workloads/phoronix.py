"""The Phoronix Disk test suite driver (§6.3-A, Figure 5).

Runs every suite member on a pair of environments (qemu-blk and
vmsh-blk) and reports the relative slowdown per row, reproducing the
structure of Figure 5: fio's direct-IO rows are the slow outliers,
metadata/page-cache heavy rows sit near 1.0x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import BenchEnv, Measurement, make_env
from repro.bench.workloads import compilebench, dbench, fsmark, ior, postmark, sqlite
from repro.bench.workloads.fio import FioJob, run_fio
from repro.units import KiB, MiB


def _fio_rows() -> List[Tuple[str, Callable[[BenchEnv], Measurement]]]:
    rows = []
    for pattern in ("rand", "seq"):
        for direction in ("read", "write"):
            for bs, label in ((4 * KiB, "4KB"), (2 * MiB, "2MB")):
                job = FioJob(
                    block_size=bs,
                    total_bytes=max(4 * MiB, bs * 4),
                    pattern=pattern,
                    direction=direction,
                    direct=True,
                    name=f"Fio: {pattern.capitalize()} {direction}, {label}",
                )
                rows.append((job.name, lambda env, job=job: run_fio(env, job)))
    return rows


def suite_rows() -> List[Tuple[str, Callable[[BenchEnv], Measurement]]]:
    """All Figure 5 rows, in the paper's grouping."""
    rows: List[Tuple[str, Callable[[BenchEnv], Measurement]]] = []
    rows.append(("Compile Bench: Compile", compilebench.run_compile))
    rows.append(("Compile Bench: Create", compilebench.run_create))
    rows.append(("Compile Bench: Read tree", compilebench.run_read_tree))
    for clients in (1, 12):
        rows.append(
            (f"Dbench: {clients} Clients",
             lambda env, c=clients: dbench.run_dbench(env, c))
        )
    for config in fsmark.CONFIGS:
        rows.append(
            (config.label, lambda env, cfg=config: fsmark.run_fsmark(env, cfg))
        )
    rows.extend(_fio_rows())
    for block_mb in ior.BLOCK_SIZES_MB:
        rows.append(
            (f"IOR: {block_mb}MB", lambda env, b=block_mb: ior.run_ior(env, b))
        )
    rows.append(("PostMark: Disk transactions", postmark.run_postmark))
    for threads in sqlite.THREAD_VARIANTS:
        rows.append(
            (f"Sqlite: {threads} Threads",
             lambda env, t=threads: sqlite.run_sqlite(env, t))
        )
    return rows


@dataclass
class PhoronixRow:
    """One Figure 5 bar: relative vmsh-blk time vs qemu-blk."""

    name: str
    qemu_elapsed_ns: int
    vmsh_elapsed_ns: int

    @property
    def relative(self) -> float:
        """>1.0 means vmsh-blk is slower (the figure's x axis)."""
        if self.qemu_elapsed_ns == 0:
            return 1.0
        return self.vmsh_elapsed_ns / self.qemu_elapsed_ns


def _run_suite_on(env: BenchEnv) -> Dict[str, Measurement]:
    results: Dict[str, Measurement] = {}
    # Compile Bench phases share state and must run in tree order.
    ordered = suite_rows()
    ordered_names = [name for name, _ in ordered]
    assert ordered_names.index("Compile Bench: Create") < ordered_names.index(
        "Compile Bench: Read tree"
    )
    by_name = dict(ordered)
    create = by_name.pop("Compile Bench: Create")
    read_tree = by_name.pop("Compile Bench: Read tree")
    compile_ = by_name.pop("Compile Bench: Compile")
    results["Compile Bench: Create"] = create(env)
    results["Compile Bench: Read tree"] = read_tree(env)
    results["Compile Bench: Compile"] = compile_(env)
    for name, runner in by_name.items():
        env.drop_caches()
        results[name] = runner(env)
    return results


def run_phoronix() -> List[PhoronixRow]:
    """Figure 5: the full suite on qemu-blk vs vmsh-blk (ioregionfd),
    each on a 256 MiB disk."""
    qemu_env = make_env("qemu-blk", disk_size=256 * MiB)
    qemu_results = _run_suite_on(qemu_env)
    vmsh_env = make_env("vmsh-blk-ioregionfd", disk_size=256 * MiB)
    vmsh_results = _run_suite_on(vmsh_env)
    rows = []
    for name in qemu_results:
        rows.append(
            PhoronixRow(
                name=name,
                qemu_elapsed_ns=qemu_results[name].elapsed_ns,
                vmsh_elapsed_ns=vmsh_results[name].elapsed_ns,
            )
        )
    return rows


def average_slowdown(rows: List[PhoronixRow]) -> Tuple[float, float]:
    """Mean and population-stddev of the relative slowdowns."""
    values = [row.relative for row in rows]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var ** 0.5
