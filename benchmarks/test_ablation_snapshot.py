"""Ablation: serverless cold starts with and without the snapshot pool.

The PR 6 headline: a pool-served "cold" invocation restores a baked
snapshot (``faas_snapshot_restore_ns`` + routing) instead of booting a
microVM (``faas_cold_start_ns`` + routing), so the 125 ms cold-start
tax drops to ~21 ms — at least 5x cheaper.  The run churns a function
through repeated scale-to-zero cycles and measures, on the virtual
clock:

* the true cold path (boot + bake) vs the pool-restore path,
* the pool hit rate across the churn,
* capture/clone/migrate costs at the VM layer,

and checks the restore mechanism stays byte-invisible: a capture +
in-place restore of a live VM leaves the metrics registry untouched.
"""

from conftest import write_report

from repro.core.snapshot import VmSnapshot
from repro.testbed import Testbed
from repro.units import MSEC, SEC
from repro.usecases.serverless import VHivePlatform

CHURN_CYCLES = 8


def _churn(snapshot_pool: bool) -> dict:
    """Scale-to-zero churn: every invocation after the first is served
    cold (no pool) or from the snapshot pool."""
    tb = Testbed()
    platform = VHivePlatform(tb, snapshot_pool=snapshot_pool)
    platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
    latencies = []
    for cycle in range(CHURN_CYCLES):
        t0 = tb.clock.now
        assert platform.invoke("resize", {"width": cycle}) == {"ok": cycle * 2}
        latencies.append(tb.clock.now - t0)
        tb.clock.advance(3 * SEC)           # idle past the scale-down bar
        platform.scale_down()
    costs = tb.costs
    return {
        "first_ns": latencies[0],
        "steady_ns": latencies[1:],
        "cold_starts": costs.count("faas_cold_start"),
        "restores": costs.count("faas_snapshot_restore"),
        "pool_hits": costs.count("faas_pool_hit"),
        "pool_misses": costs.count("faas_pool_miss"),
        "params": costs.p,
    }


def _vm_layer() -> dict:
    """Capture/clone/migrate timings plus restore invisibility."""
    tb = Testbed()
    hv = tb.launch_qemu()
    t0 = tb.clock.now
    snap = tb.snapshot(hv)
    capture_ns = tb.clock.now - t0
    t1 = tb.clock.now
    clone = tb.clone(snap)
    clone_ns = tb.clock.now - t1
    t2 = tb.clock.now
    result = tb.migrate(clone)
    migrate_ns = tb.clock.now - t2

    # Invisibility check: a silent capture + restore of a VM with a
    # live attached session must not move the metrics registry.
    tb2 = Testbed()
    hv2 = tb2.launch_qemu()
    session = tb2.vmsh().attach(hv2.pid)
    metrics_before = tb2.obs.metrics_json()
    silent = VmSnapshot.capture(hv2, session=session)
    silent.restore_into(hv2, session=session)
    roundtrip_invisible = tb2.obs.metrics_json() == metrics_before
    console_alive = "guest" in session.console.run_command(
        "cat /var/lib/vmsh/etc/hostname"
    ).output
    session.detach()
    return {
        "capture_ns": capture_ns,
        "clone_ns": clone_ns,
        "migrate_ns": migrate_ns,
        "migrated_ok": result.hypervisor.host is not tb.host,
        "pages": snap.pages,
        "roundtrip_invisible": roundtrip_invisible,
        "console_alive": console_alive,
    }


def test_ablation_snapshot_pool(benchmark, results_dir):
    def run():
        return _churn(snapshot_pool=False), _churn(snapshot_pool=True), _vm_layer()

    cold, pooled, vm = benchmark.pedantic(run, rounds=1, iterations=1)

    p = pooled["params"]
    cold_steady = sum(cold["steady_ns"]) / len(cold["steady_ns"])
    pool_steady = sum(pooled["steady_ns"]) / len(pooled["steady_ns"])
    speedup = cold_steady / pool_steady
    hit_rate = pooled["pool_hits"] / (
        pooled["pool_hits"] + pooled["pool_misses"]
    )
    lines = [
        "Ablation: serverless cold start vs snapshot-pool restore",
        f"({CHURN_CYCLES} scale-to-zero cycles of one function)",
        "",
        f"cold-start path (boot):      {cold_steady / MSEC:8.2f} ms/invocation",
        f"pool path (restore):         {pool_steady / MSEC:8.2f} ms/invocation",
        f"speedup:                     {speedup:8.2f}x  (bar: >= 5x)",
        f"pool hit rate:               {hit_rate:8.1%}  "
        f"({pooled['pool_hits']} hits / {pooled['pool_misses']} miss)",
        f"first invocation (cold+bake):{pooled['first_ns'] / MSEC:8.2f} ms",
        "",
        "VM layer:",
        f"  capture:                   {vm['capture_ns'] / MSEC:8.2f} ms "
        f"({vm['pages']} pages)",
        f"  clone:                     {vm['clone_ns'] / MSEC:8.2f} ms",
        f"  migrate (incl. new host):  {vm['migrate_ns'] / MSEC:8.2f} ms",
        f"  silent round trip invisible: {vm['roundtrip_invisible']}",
        f"  console alive after restore: {vm['console_alive']}",
    ]
    write_report(results_dir, "ablation_snapshot", lines)

    # The acceptance bar: a pool-served cold invocation is >= 5x
    # cheaper than the cold-start cost parameter (and the real path).
    assert pool_steady * 5 <= p.faas_cold_start_ns
    assert speedup >= 5.0
    # The mechanism: every steady-state invocation was a pool hit —
    # exactly one boot (the bake), the rest restores.
    assert pooled["cold_starts"] == 1
    assert pooled["restores"] == CHURN_CYCLES - 1
    assert hit_rate == (CHURN_CYCLES - 1) / CHURN_CYCLES
    # Without the pool, every cycle pays the full boot.
    assert cold["cold_starts"] == CHURN_CYCLES
    assert cold["restores"] == 0
    # Restore is byte-invisible and the session survives it.
    assert vm["roundtrip_invisible"]
    assert vm["console_alive"]
    assert vm["migrated_ok"]
