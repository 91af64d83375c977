"""File-system images: format, builders, Docker dataset, debloating."""

from repro.image.builder import (
    build_admin_image,
    build_rescue_image,
    build_scanner_image,
    build_serverless_debug_image,
)
from repro.image.fsimage import (
    ImageEntry,
    ImageSpec,
    build_image,
    mount_image,
    parse_toc,
)

__all__ = [
    "ImageSpec",
    "ImageEntry",
    "build_image",
    "mount_image",
    "parse_toc",
    "build_admin_image",
    "build_rescue_image",
    "build_scanner_image",
    "build_serverless_debug_image",
]
