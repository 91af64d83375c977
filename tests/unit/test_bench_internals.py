"""Benchmark-infrastructure units: harness, workloads, xfstests, latency."""

import pytest

from repro.bench.harness import (
    ENV_NAMES,
    make_env,
    ops_per_second,
    throughput_mb_s,
)
from repro.bench.workloads.fio import FioJob, file_io_job, iops_job, run_fio, throughput_job
from repro.bench.xfstests import EXPECTED_TEST_COUNT, build_suite
from repro.units import KiB, MiB, SEC


def test_metric_helpers():
    assert throughput_mb_s(1024 * 1024, SEC) == pytest.approx(1.0)
    assert ops_per_second(500, SEC // 2) == pytest.approx(1000.0)
    assert throughput_mb_s(1, 0) == float("inf")


def test_every_environment_constructs():
    for name in ENV_NAMES:
        env = make_env(name, disk_size=32 * MiB)
        env.vfs.write_file(f"{env.mountpoint}/probe", b"probe")
        assert env.vfs.read_file(f"{env.mountpoint}/probe") == b"probe"


def test_unknown_environment_rejected():
    with pytest.raises(ValueError):
        make_env("bochs")


def test_fio_job_naming():
    job = FioJob(block_size=4 * KiB, total_bytes=1 * MiB, pattern="rand",
                 direction="write", direct=True)
    assert job.name == "fio rand write 4KB (Direct IO)"
    assert throughput_job("read").block_size == 256 * KiB
    assert iops_job("read").block_size == 4 * KiB
    assert not file_io_job("read").direct


def test_fio_measures_only_the_io_phase():
    env = make_env("native", disk_size=64 * MiB)
    result = run_fio(env, FioJob(block_size=4 * KiB, total_bytes=256 * KiB,
                                 pattern="seq", direction="read", direct=True))
    assert result.detail["ops"] == 64
    assert result.detail["bytes"] == 256 * KiB
    assert result.elapsed_ns > 0


def test_fio_rand_covers_every_block_once():
    from repro.bench.workloads.fio import _offsets

    job = FioJob(block_size=4 * KiB, total_bytes=64 * KiB, pattern="rand",
                 direction="read", direct=True)
    offsets = _offsets(job)
    assert sorted(offsets) == [i * 4 * KiB for i in range(16)]
    assert offsets != sorted(offsets)          # actually shuffled


def test_fio_deterministic_offsets():
    from repro.bench.workloads.fio import _offsets

    job = FioJob(block_size=4 * KiB, total_bytes=64 * KiB, pattern="rand",
                 direction="read", direct=True)
    assert _offsets(job) == _offsets(job)


def test_workloads_leave_filesystem_clean():
    """Each workload must clean up so the suite fits the disk."""
    from repro.bench.workloads import compilebench, dbench, postmark, sqlite

    env = make_env("native", disk_size=64 * MiB)
    free_before = env.vfs.statfs("/")["bfree"]
    compilebench.run_all(env)
    dbench.run_dbench(env, 1)
    postmark.run_postmark(env)
    sqlite.run_sqlite(env, 1)
    env.fs.sync_all()
    free_after = env.vfs.statfs("/")["bfree"]
    assert free_after >= free_before - 16     # only metadata residue


def test_xfstests_suite_is_exactly_619():
    suite = build_suite()
    assert len(suite) == EXPECTED_TEST_COUNT == 619
    ids = [t.test_id for t in suite]
    assert len(set(ids)) == len(ids)           # unique ids
    assert sum(1 for i in ids if i.startswith("xfs/")) >= 10


def test_xfstests_deterministic():
    a = [t.test_id for t in build_suite()]
    b = [t.test_id for t in build_suite()]
    assert a == b


def test_xfstests_quota_reports_are_three():
    suite = build_suite()
    quota_reports = [t for t in suite if "quota-report" in t.test_id]
    assert len(quota_reports) == 3


def test_latency_native_floor():
    from repro.bench.latency import measure_native
    from repro.testbed import Testbed

    tb = Testbed()
    result = measure_native(tb, rounds=8)
    assert len(result.samples_ns) == 8
    # tty turnaround + shell exec at minimum.
    assert result.mean_ns >= tb.costs.p.tty_layer_ns + tb.costs.p.shell_exec_ns


def test_phoronix_row_relative():
    from repro.bench.workloads.phoronix import PhoronixRow

    row = PhoronixRow("x", qemu_elapsed_ns=100, vmsh_elapsed_ns=150)
    assert row.relative == pytest.approx(1.5)
    assert PhoronixRow("y", 0, 50).relative == 1.0


def test_phoronix_suite_rows_cover_figure5():
    from repro.bench.workloads.phoronix import suite_rows

    names = [name for name, _ in suite_rows()]
    assert len(names) == 32                     # the Figure 5 row count
    for expected in (
        "Compile Bench: Compile", "Dbench: 12 Clients",
        "FS-Mark: 4k Files, 32 Dirs", "Fio: Rand read, 4KB",
        "IOR: 1025MB", "PostMark: Disk transactions",
        "Sqlite: 128 Threads",
    ):
        assert expected in names


def test_boundary_hook_forwards_errors_to_the_wrapped_attach():
    """An error the inline driver throws at a yield reaches the wrapped
    generator, so its rollback handler runs before the error escapes."""
    from repro.bench.fleet_obs import _at_boundary
    from repro.sim.clock import Clock
    from repro.sim.sched import Completion, SchedulerError, run_inline

    fired, rolled_back = [], []

    def attach():
        try:
            yield "load_library"
            yield Completion()          # a wait nothing inline can meet
        except SchedulerError:
            rolled_back.append(True)
            raise

    with pytest.raises(SchedulerError, match="pending waitable"):
        run_inline(_at_boundary(attach(), "load_library",
                                lambda: fired.append(True)), Clock())
    assert fired == [True]
    assert rolled_back == [True]
