"""Use-case #3: package security scanner for Alpine guests (§6.5).

"We write a scanner that checks the installed packages in Alpine
Linux-based virtual machines against an online database of known
security vulnerabilities and report them."

The scanner runs from a VMSH overlay: it reads the guest's apk
database through ``/var/lib/vmsh`` (no agent in the guest) and matches
it against an Alpine ``secdb``-style vulnerability list carried inside
the scanner image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.vmsh import Vmsh
from repro.errors import VmshError
from repro.hypervisors.base import Hypervisor
from repro.image.builder import build_scanner_image


# A small curated slice of the Alpine security database [3]; versions
# below "fixed" are vulnerable.
DEFAULT_SECDB: Dict[str, List[Dict[str, str]]] = {
    "openssl": [
        {"cve": "CVE-2021-3711", "fixed": "1.1.1l-r0"},
        {"cve": "CVE-2021-3712", "fixed": "1.1.1l-r0"},
    ],
    "busybox": [
        {"cve": "CVE-2021-42378", "fixed": "1.34.1-r3"},
        {"cve": "CVE-2021-42386", "fixed": "1.34.1-r3"},
    ],
    "apk-tools": [{"cve": "CVE-2021-36159", "fixed": "2.12.6-r0"}],
    "musl": [{"cve": "CVE-2020-28928", "fixed": "1.2.2-r0"}],
    "zlib": [{"cve": "CVE-2018-25032", "fixed": "1.2.12-r0"}],
}


@dataclass(frozen=True)
class Vulnerability:
    package: str
    installed: str
    fixed: str
    cve: str


@dataclass
class ScanReport:
    packages_scanned: int
    vulnerabilities: List[Vulnerability] = field(default_factory=list)

    @property
    def vulnerable_packages(self) -> List[str]:
        return sorted({v.package for v in self.vulnerabilities})


def alpine_installed_db(packages: Dict[str, str]) -> bytes:
    """Render an apk 'installed' database (P:/V: stanza format)."""
    stanzas = []
    for name in sorted(packages):
        stanzas.append(f"P:{name}\nV:{packages[name]}\n")
    return "\n".join(stanzas).encode()


def parse_installed_db(content: bytes) -> Dict[str, str]:
    packages: Dict[str, str] = {}
    name: Optional[str] = None
    for line in content.decode(errors="replace").splitlines():
        if line.startswith("P:"):
            name = line[2:].strip()
        elif line.startswith("V:") and name is not None:
            packages[name] = line[2:].strip()
            name = None
    return packages


def version_less(a: str, b: str) -> bool:
    """Alpine-ish version comparison (numeric fields, then -rN)."""
    return _version_key(a) < _version_key(b)


def _version_key(version: str) -> Tuple:
    release = 0
    if "-r" in version:
        version, _, rel = version.rpartition("-r")
        try:
            release = int(rel)
        except ValueError:
            release = 0
    parts: List = []
    for token in version.split("."):
        digits = ""
        for char in token:
            if char.isdigit():
                digits += char
            else:
                break
        parts.append((int(digits) if digits else 0, token[len(digits):]))
    return (parts, release)


class SecurityScanner:
    """Agent-less package vulnerability scanning via VMSH."""

    def __init__(self, vmsh: Vmsh):
        self.vmsh = vmsh

    def scan(self, hypervisor: Hypervisor) -> ScanReport:
        """Attach, read the guest's apk db through the overlay, match."""
        if hypervisor.guest is None:
            raise VmshError("hypervisor has no running guest")
        image = build_scanner_image(secdb=json.dumps(DEFAULT_SECDB).encode())
        session = self.vmsh.attach(hypervisor.pid, image=image)
        try:
            db_raw = session.console.run_command(
                "cat /var/lib/vmsh/lib/apk/db/installed"
            )
            secdb_raw = session.console.run_command(
                "cat /var/lib/secdb/alpine.json"
            )
        finally:
            session.detach()
        if "ENOENT" in db_raw.output or not db_raw.output.strip():
            raise VmshError("guest has no apk database (not an Alpine guest?)")
        installed = parse_installed_db(db_raw.output.encode())
        secdb = json.loads(secdb_raw.output)
        return self.match(installed, secdb)

    @staticmethod
    def match(installed: Dict[str, str], secdb: Dict) -> ScanReport:
        report = ScanReport(packages_scanned=len(installed))
        for package, version in installed.items():
            for advisory in secdb.get(package, []):
                if version_less(version, advisory["fixed"]):
                    report.vulnerabilities.append(
                        Vulnerability(
                            package=package,
                            installed=version,
                            fixed=advisory["fixed"],
                            cve=advisory["cve"],
                        )
                    )
        report.vulnerabilities.sort(key=lambda v: (v.package, v.cve))
        return report
