"""Use-case units: rescue, scanner, serverless (E8-E10 components)."""

import gc
import weakref

import pytest

from repro.errors import VmshError
from repro.testbed import Testbed
from repro.units import SEC
from repro.usecases.rescue import RescueService, verify_password_reset
from repro.usecases.scanner import (
    DEFAULT_SECDB,
    SecurityScanner,
    alpine_installed_db,
    parse_installed_db,
    version_less,
)
from repro.usecases.serverless import ServerlessDebugger, VHivePlatform


# -- scanner helpers -------------------------------------------------------------

def test_installed_db_roundtrip():
    packages = {"openssl": "1.1.1k-r0", "musl": "1.2.2-r3"}
    assert parse_installed_db(alpine_installed_db(packages)) == packages


def test_version_comparison():
    assert version_less("1.1.1k-r0", "1.1.1l-r0")
    assert not version_less("1.1.1l-r0", "1.1.1l-r0")
    assert version_less("1.34.1-r2", "1.34.1-r3")
    assert not version_less("1.34.1-r5", "1.34.1-r3")
    assert version_less("1.2.1-r9", "1.2.2-r0")
    assert version_less("2.12.5-r0", "2.12.6-r0")


def test_match_flags_only_vulnerable():
    installed = {"openssl": "1.1.1k-r0", "busybox": "1.34.1-r5", "unknown-pkg": "1.0"}
    report = SecurityScanner.match(installed, DEFAULT_SECDB)
    assert report.packages_scanned == 3
    assert report.vulnerable_packages == ["openssl"]
    assert {v.cve for v in report.vulnerabilities} == {
        "CVE-2021-3711", "CVE-2021-3712",
    }


def test_scanner_on_non_alpine_guest_fails():
    tb = Testbed()
    hv = tb.launch_qemu()  # no apk database
    with pytest.raises(VmshError, match="apk"):
        SecurityScanner(tb.vmsh()).scan(hv)


# -- rescue ---------------------------------------------------------------------------

def test_rescue_resets_password_without_reboot():
    tb = Testbed()
    hv = tb.launch_qemu()
    boot_count_before = len(hv.guest.klog)
    report = RescueService(tb.vmsh()).reset_password(hv, "root", "s3cret")
    assert verify_password_reset(report, "root")
    # Same boot: klog grew (vmsh messages) but was never reset.
    assert len(hv.guest.klog) > boot_count_before
    assert any("booted" in line for line in hv.guest.klog[:3])


def test_rescue_unknown_user():
    tb = Testbed()
    hv = tb.launch_qemu()
    report = RescueService(tb.vmsh()).reset_password(hv, "ghost", "pw")
    assert "not found" in report.shell_output
    assert not verify_password_reset(report, "ghost")


# -- serverless -----------------------------------------------------------------------

def _platform():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
    return tb, platform


def test_invoke_success_and_logs():
    tb, platform = _platform()
    assert platform.invoke("resize", {"width": 4}) == {"ok": 8}
    assert any("invoke ok" in l.message for l in platform.logs)


def test_invoke_error_logged_not_raised():
    tb, platform = _platform()
    assert platform.invoke("resize", {"wrong": 1}) is None
    errors = [l for l in platform.logs if l.level == "ERROR"]
    assert len(errors) == 1
    assert "KeyError" in errors[0].message


def test_undeployed_function_rejected():
    tb, platform = _platform()
    with pytest.raises(VmshError):
        platform.invoke("nope", {})


def test_instances_are_reused_when_warm():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    platform.invoke("resize", {"width": 2})
    assert len(platform.live_instances()) == 1


def test_scale_down_after_idle():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    assert platform.scale_down() == []          # still warm
    tb.clock.advance(3 * SEC)
    assert len(platform.scale_down()) == 1
    assert platform.live_instances() == []


def test_scale_down_releases_the_vm_graph():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    (instance,) = platform.live_instances()
    hypervisor = weakref.ref(instance.hypervisor)
    tb.clock.advance(3 * SEC)
    assert len(platform.scale_down()) == 1
    del instance
    gc.collect()
    # Nothing in the host, KVM or the platform still reaches the VM.
    assert hypervisor() is None
    assert tb.kvm.vms == []


def test_debugger_requires_an_error():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    debugger = ServerlessDebugger(platform)
    with pytest.raises(VmshError, match="no lambda errors"):
        debugger.debug_shell()


def test_debug_shell_pins_against_scale_down():
    tb, platform = _platform()
    platform.invoke("resize", {"bad": 1})
    debugger = ServerlessDebugger(platform)
    session = debugger.debug_shell()
    tb.clock.advance(10 * SEC)
    assert platform.scale_down() == []          # pinned
    assert not session.instance.terminated
    out = session.session.console.run_command("cat /etc/motd")
    assert "debug shell" in out.output
    session.close()
    assert len(platform.scale_down()) == 1      # released


def test_debug_shell_never_builds_the_admin_image(monkeypatch):
    """The debugger attaches with its own image, so its Vmsh never
    builds the 8 MiB default admin image; a Vmsh that needs it builds
    it once, on first use."""
    import repro.core.vmsh as vmsh_module

    built = []
    real = vmsh_module.build_admin_image

    def counting_build():
        built.append(1)
        return real()

    monkeypatch.setattr(vmsh_module, "build_admin_image", counting_build)
    tb, platform = _platform()
    platform.invoke("resize", {"bad": 1})
    session = ServerlessDebugger(platform).debug_shell()
    session.close()
    assert built == []
    vmsh = tb.vmsh()
    assert built == []
    assert vmsh.image == vmsh.image
    assert built == [1]


def test_every_vmsh_shares_one_admin_image(monkeypatch):
    """The admin image is built once and shared read-only: the Vmsh of
    another testbed gets the same view, and a session's writes stay in
    its own backend."""
    import hashlib

    from repro.image import builder

    built = []
    real = builder.build_image

    def counting_build(spec, extra_space):
        built.append(extra_space)
        return real(spec, extra_space=extra_space)

    monkeypatch.setattr(builder, "build_image", counting_build)
    monkeypatch.setattr(builder, "_CANNED", {})
    first, second = Testbed(), Testbed()
    image = first.vmsh().image
    assert image is second.vmsh().image
    digest = hashlib.sha256(image).digest()
    for tb in (first, second, first):
        hv = tb.launch_qemu()
        session = tb.vmsh().attach(hv.pid)
        disk = hv.guest.vmsh_block
        disk.write_sectors(disk.capacity_sectors - 8, b"\xee" * 4096)
        session.detach()
    assert len(built) == 1
    assert hashlib.sha256(image).digest() == digest


def test_debug_shell_too_late_after_scale_down():
    tb, platform = _platform()
    platform.invoke("resize", {"bad": 1})
    tb.clock.advance(10 * SEC)
    platform.scale_down()
    with pytest.raises(VmshError, match="scaled down"):
        ServerlessDebugger(platform).debug_shell()


# -- warm vs cold invocation cost -------------------------------------------------


def test_cold_invoke_charges_cold_start():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    assert tb.costs.count("faas_cold_start") == 1
    assert tb.costs.count("faas_route") == 1


def test_warm_invoke_skips_cold_start():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    t_warm = tb.clock.now
    platform.invoke("resize", {"width": 2})
    warm_latency = tb.clock.now - t_warm
    assert tb.costs.count("faas_cold_start") == 1   # only the first
    assert tb.costs.count("faas_route") == 2
    # A warm hit is routing-only — far cheaper than the cold path.
    assert warm_latency < tb.costs.p.faas_cold_start_ns
    assert warm_latency >= tb.costs.p.faas_route_ns


def test_cold_invoke_is_slower_than_warm():
    tb, platform = _platform()
    t0 = tb.clock.now
    platform.invoke("resize", {"width": 1})
    cold_latency = tb.clock.now - t0
    t1 = tb.clock.now
    platform.invoke("resize", {"width": 2})
    warm_latency = tb.clock.now - t1
    assert cold_latency > warm_latency
    assert cold_latency >= tb.costs.p.faas_cold_start_ns


def test_scale_down_then_invoke_pays_cold_start_again():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    platform.invoke("resize", {"width": 2})
    assert tb.costs.count("faas_cold_start") == 2


# -- scheduler-driven fleet -------------------------------------------------------


def test_invoke_task_matches_sync_costs():
    tb, platform = _platform()
    results = []

    def storm():
        first = yield from platform.invoke_task("resize", {"width": 1})
        results.append(first)
        second = yield from platform.invoke_task("resize", {"width": 2})
        results.append(second)

    tb.scheduler.spawn(storm())
    tb.scheduler.run_until_idle()
    assert results == [{"ok": 2}, {"ok": 4}]
    assert tb.costs.count("faas_cold_start") == 1
    assert tb.costs.count("faas_route") == 2


def test_autoscaler_timer_scales_down_idle_instance():
    tb, platform = _platform()
    platform.invoke("resize", {"width": 1})
    platform.start_autoscaler(tb.scheduler, period_ns=SEC)
    tb.scheduler.run_until(tb.clock.now + 5 * SEC)
    assert platform.live_instances() == []
    assert any("scaled down" in l.message for l in platform.logs)
    platform.stop_autoscaler()


def test_autoscaler_rejects_double_start():
    tb, platform = _platform()
    platform.start_autoscaler(tb.scheduler)
    with pytest.raises(VmshError, match="already running"):
        platform.start_autoscaler(tb.scheduler)
    platform.stop_autoscaler()
    platform.start_autoscaler(tb.scheduler)  # restart after stop is fine
    platform.stop_autoscaler()


def test_debug_shell_task_races_autoscaler_and_wins():
    tb, platform = _platform()
    platform.invoke("resize", {"bad": 1})
    platform.start_autoscaler(tb.scheduler, period_ns=SEC)
    debugger = ServerlessDebugger(platform)
    task = tb.scheduler.spawn(debugger.debug_shell_task(), label="debug-shell")
    # Let the attach interleave with several scale-down ticks.
    tb.scheduler.run_until(tb.clock.now + 10 * SEC)
    (session,) = tb.scheduler.run(task)
    assert not session.instance.terminated      # pinned before first yield
    out = session.session.console.run_command("cat /etc/motd")
    assert "debug shell" in out.output
    platform.stop_autoscaler()
    session.close()
