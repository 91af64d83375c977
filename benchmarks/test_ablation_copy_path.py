"""Ablation (§5): the mmap + process_vm copy-path optimisation.

"We optimise the performance by mapping the block device as a file
into memory and use the process_vm_readv()/process_vm_writev() system
calls to copy data ... This doubles the performance in Phoronix
benchmarks."  We re-run a write-heavy slice on vmsh-blk with the
optimised accessor and with the unoptimised staged-copy accessor.
"""

from conftest import write_report

from repro.bench.harness import make_env
from repro.bench.workloads.fio import FioJob, run_fio
from repro.image.builder import build_admin_image
from repro.testbed import Testbed
from repro.units import KiB, MiB


def _vmsh_env(unoptimised: bool):
    testbed = Testbed()
    hv = testbed.launch_qemu()
    session = testbed.vmsh().attach(
        hv.pid,
        image=build_admin_image(extra_space=64 * MiB),
        copy_path="staged" if unoptimised else "vectored",
    )
    from repro.bench.harness import BenchEnv

    overlay = hv.guest.vmsh_overlay
    vfs = overlay.overlay.vfs
    vfs.makedirs("/bench")
    return BenchEnv(
        f"vmsh-blk-{'staged' if unoptimised else 'procvm'}",
        testbed, vfs, "/bench", overlay.overlay.namespace.root_mount().fs,
        device=hv.guest.vmsh_block, session=session, hypervisor=hv,
    )


def _measure(unoptimised: bool) -> float:
    env = _vmsh_env(unoptimised)
    job = FioJob(block_size=256 * KiB, total_bytes=8 * MiB, pattern="seq",
                 direction="write", direct=True, name="ablation-write")
    return run_fio(env, job).value


def test_ablation_copy_path(benchmark, results_dir):
    def run():
        return _measure(False), _measure(True)

    optimised, staged = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = optimised / staged
    write_report(results_dir, "ablation_copy_path", [
        "Ablation: vmsh-blk copy path (§5)",
        "",
        f"optimised (mmap + process_vm):  {optimised:9.1f} MB/s",
        f"unoptimised (staged copies):    {staged:9.1f} MB/s",
        f"speedup: {speedup:.2f}x   (paper: 'doubles the performance')",
    ])
    assert 1.6 <= speedup <= 3.2
    benchmark.extra_info["speedup"] = round(speedup, 2)
