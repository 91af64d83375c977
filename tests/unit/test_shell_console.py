"""Guest shell built-ins and the tty layer."""

import pytest

from repro.guestos.console import GuestShell, GuestTty
from repro.guestos.fs import Filesystem
from repro.guestos.process import Credentials, GuestProcess
from repro.guestos.vfs import MountNamespace, Vfs
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.testbed import Testbed


@pytest.fixture()
def shell():
    costs = CostModel(Clock())
    ns = MountNamespace()
    vfs = Vfs(ns)
    vfs.mount(Filesystem("ext4", costs=costs), "/")
    vfs.makedirs("/bin")
    vfs.makedirs("/etc")
    vfs.write_file("/bin/tool", b"#!SIMELF:shell\n")
    vfs.write_file("/etc/shadow", b"root:$5$oldhash:1::\nalice:$5$x:1::\n")
    process = GuestProcess("sh", ns, creds=Credentials(uid=7, gid=8))
    return GuestShell(process, costs=costs)


def test_echo(shell):
    assert shell.execute("echo one two") == "one two"


def test_empty_line(shell):
    assert shell.execute("   ") == ""


def test_unknown_command(shell):
    assert shell.execute("frobnicate") == "sh: frobnicate: not found"


def test_external_lookup_in_path(shell):
    assert "executed from /bin/tool" in shell.execute("tool")


def test_cat_and_ls(shell):
    shell.process.vfs.write_file("/etc/motd", b"welcome\n")
    assert shell.execute("cat /etc/motd") == "welcome"
    assert "etc" in shell.execute("ls /")


def test_cat_missing_file_reports_error(shell):
    out = shell.execute("cat /no/such")
    assert out.startswith("cat: ENOENT")


def test_id_reflects_credentials(shell):
    assert shell.execute("id") == "uid=7 gid=8"


def test_mount_lists_namespace(shell):
    out = shell.execute("mount")
    assert "ext4 on / type ext4" in out


def test_chpasswd_updates_shadow(shell):
    out = shell.execute("chpasswd alice:newpw")
    assert "updated" in out
    shadow = shell.process.vfs.read_file("/etc/shadow").decode()
    alice = [l for l in shadow.splitlines() if l.startswith("alice:")][0]
    assert "$5$x" not in alice


def test_chpasswd_unknown_user(shell):
    assert "not found" in shell.execute("chpasswd bob:pw")


def test_chpasswd_bad_syntax(shell):
    assert "expected" in shell.execute("chpasswd nope")


def test_sha256sum(shell):
    shell.process.vfs.write_file("/data", b"abc")
    out = shell.execute("sha256sum /data")
    assert out.startswith(
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_history_records(shell):
    shell.execute("echo a")
    shell.execute("echo b")
    assert shell.history == ["echo a", "echo b"]


def test_ps_needs_kernel(shell):
    assert shell.execute("ps") == "ps: no kernel access"


def test_ps_lists_guest_processes():
    tb = Testbed()
    hv = tb.launch_qemu()
    guest = hv.guest
    process = GuestProcess("monitor-sh", guest.root_ns)
    shell = GuestShell(process, kernel=guest, costs=guest.costs)
    out = shell.execute("ps")
    assert "init" in out
    assert "PID" in out


def test_tty_line_buffering():
    outputs = []
    costs = CostModel(Clock())
    tty = GuestTty(costs, write_out=outputs.append)
    ns = MountNamespace()
    vfs = Vfs(ns)
    vfs.mount(Filesystem("ext4", costs=costs), "/")
    shell = GuestShell(GuestProcess("sh", ns), costs=costs)
    tty.connect_shell(shell)
    tty.input_bytes(b"echo par")
    assert outputs == []                 # no newline yet
    tty.input_bytes(b"tial\n")
    assert outputs == [b"partial\n"]


def test_tty_multiple_lines_in_one_write():
    outputs = []
    costs = CostModel(Clock())
    tty = GuestTty(costs, write_out=outputs.append)
    ns = MountNamespace()
    vfs = Vfs(ns)
    vfs.mount(Filesystem("ext4", costs=costs), "/")
    tty.connect_shell(GuestShell(GuestProcess("sh", ns), costs=costs))
    tty.input_bytes(b"echo a\necho b\n")
    assert outputs == [b"a\n", b"b\n"]


def test_df(shell):
    out = shell.execute("df /")
    assert "blocks used" in out
