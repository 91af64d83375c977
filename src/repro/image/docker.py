"""The top-40 official Docker Hub images (§6.4 dataset).

The paper measures the 40 most-downloaded official images.  We encode
each image as a manifest: its real-world ballpark size, and a file
inventory split into groups (application essentials vs. the package
managers, coreutils, shells, docs and locales that VMSH makes
removable).  Three images — traefik, registry, consul — ship a single
statically linked Go binary and have almost nothing to strip, exactly
the three <10% outliers the paper reports.

Sizes are in bytes and reflect the published compressed-image
magnitudes; file *contents* in the simulated rootfs are small markers
(the tracer only needs paths; sizes come from the manifest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.rng import stream
from repro.units import KiB, MiB

# Removable groups and their typical share of a dynamic image.
REMOVABLE_GROUPS = (
    "package-manager",
    "coreutils",
    "shell",
    "docs",
    "locales",
    "devtools",
)

ESSENTIAL_GROUPS = ("app", "runtime", "libs", "config", "data")


@dataclass(frozen=True)
class ManifestFile:
    path: str
    size: int
    group: str

    @property
    def essential(self) -> bool:
        return self.group in ESSENTIAL_GROUPS


@dataclass
class DockerImage:
    """One official image and its file inventory."""

    name: str
    total_size: int
    static_go: bool
    files: List[ManifestFile] = field(default_factory=list)

    @property
    def essential_size(self) -> int:
        return sum(f.size for f in self.files if f.essential)

    @property
    def removable_size(self) -> int:
        return sum(f.size for f in self.files if not f.essential)


# (name, size_mb, essential_fraction, static_go)
# essential_fraction calibrated to the published spread: reductions of
# 50-97% for dynamic images, <10% for the static-Go three, mean ~60%.
_CATALOG: List[Tuple[str, int, float, bool]] = [
    ("nginx", 133, 0.30, False),
    ("mysql", 448, 0.45, False),
    ("redis", 105, 0.25, False),
    ("postgres", 314, 0.42, False),
    ("ubuntu", 73, 0.08, False),
    ("alpine", 6, 0.30, False),
    ("node", 332, 0.48, False),
    ("mongo", 413, 0.44, False),
    ("httpd", 138, 0.28, False),
    ("rabbitmq", 220, 0.40, False),
    ("python", 125, 0.42, False),
    ("memcached", 82, 0.18, False),
    ("mariadb", 387, 0.43, False),
    ("traefik", 92, 0.95, True),
    ("docker", 216, 0.35, False),
    ("golang", 301, 0.30, False),
    ("registry", 24, 0.93, True),
    ("wordpress", 550, 0.47, False),
    ("php", 142, 0.40, False),
    ("elasticsearch", 774, 0.50, False),
    ("influxdb", 168, 0.38, False),
    ("consul", 118, 0.94, True),
    ("busybox", 5, 0.35, False),
    ("openjdk", 471, 0.45, False),
    ("tomcat", 249, 0.42, False),
    ("debian", 124, 0.05, False),
    ("centos", 204, 0.06, False),
    ("cassandra", 402, 0.44, False),
    ("sonarqube", 480, 0.48, False),
    ("haproxy", 103, 0.22, False),
    ("ruby", 222, 0.40, False),
    ("jenkins", 441, 0.46, False),
    ("ghost", 392, 0.45, False),
    ("maven", 320, 0.41, False),
    ("vault", 131, 0.50, False),
    ("telegraf", 107, 0.35, False),
    ("amazonlinux", 163, 0.07, False),
    ("nextcloud", 448, 0.46, False),
    ("solr", 528, 0.47, False),
    ("kibana", 758, 0.49, False),
]


def _inventory(name: str, total: int, essential_fraction: float, static_go: bool) -> List[ManifestFile]:
    rng = stream(f"docker:{name}")
    files: List[ManifestFile] = []
    essential_budget = int(total * essential_fraction)
    removable_budget = total - essential_budget

    if static_go:
        files.append(ManifestFile(f"/usr/local/bin/{name}", essential_budget, "app"))
        # A static image still carries certs and a couple of configs.
        files.append(ManifestFile("/etc/ssl/certs/ca-certificates.crt", 256 * KiB, "config"))
        files.append(ManifestFile(f"/etc/{name}/{name}.toml", 4 * KiB, "config"))
    else:
        files.append(ManifestFile(f"/usr/sbin/{name}", max(1, essential_budget // 4), "app"))
        lib_budget = essential_budget - essential_budget // 4 - 64 * KiB
        nlibs = max(3, min(24, lib_budget // (2 * MiB) or 3))
        for i in range(nlibs):
            files.append(
                ManifestFile(
                    f"/usr/lib/x86_64-linux-gnu/lib{name}{i}.so",
                    lib_budget // nlibs,
                    "libs",
                )
            )
        files.append(ManifestFile(f"/etc/{name}/{name}.conf", 32 * KiB, "config"))
        files.append(ManifestFile(f"/var/lib/{name}/seed.dat", 32 * KiB, "data"))

    # Removable payload, split across the groups with deterministic jitter.
    weights = {
        "package-manager": 0.22,
        "coreutils": 0.24,
        "shell": 0.10,
        "docs": 0.18,
        "locales": 0.16,
        "devtools": 0.10,
    }
    group_paths = {
        "package-manager": ["/usr/bin/apt", "/usr/bin/dpkg", "/var/lib/apt/lists/index"],
        "coreutils": ["/bin/ls", "/bin/cp", "/bin/tar", "/usr/bin/find", "/usr/bin/awk"],
        "shell": ["/bin/bash", "/bin/dash"],
        "docs": ["/usr/share/doc/bundle", "/usr/share/man/man1/pages"],
        "locales": ["/usr/lib/locale/locale-archive"],
        "devtools": ["/usr/bin/perl", "/usr/bin/gcc-stub"],
    }
    for group, weight in weights.items():
        budget = int(removable_budget * weight * (0.9 + 0.2 * rng.random()))
        paths = group_paths[group]
        for i, path in enumerate(paths):
            share = budget // len(paths)
            if share > 0:
                files.append(ManifestFile(path, share, group))
    return files


def top40_images() -> List[DockerImage]:
    """The dataset of §6.4."""
    images = []
    for name, size_mb, essential_fraction, static_go in _CATALOG:
        total = size_mb * MiB
        images.append(
            DockerImage(
                name=name,
                total_size=total,
                static_go=static_go,
                files=_inventory(name, total, essential_fraction, static_go),
            )
        )
    return images
