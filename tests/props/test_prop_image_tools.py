"""Property tests: the image builders' tool bodies are byte-identical to
the per-byte generator they were first written as."""

from hypothesis import given, settings, strategies as st

from repro.image import builder
from repro.image.builder import _tool

#: every tool name the canned image builders pack
BUILDER_TOOLS = (
    "ls", "cat", "echo", "ps", "mount", "df", "id", "sha256sum",
    "strace", "tcpdump", "lsof", "gdb", "vim", "htop", "curl",
    "fsck", "mkfs", "chpasswd", "vuln-scan", "py-spy", "node-inspect", "tail",
)


def _reference_tool(name: str, size: int = 8192) -> bytes:
    header = builder._SHELL
    body = bytes((b * 131 + i) & 0xFF for i, b in enumerate(name.encode() * (size // len(name) + 1)))
    return header + body[: size - len(header)]


def test_every_builder_tool_matches_the_generator():
    for name in BUILDER_TOOLS:
        assert _tool(name) == _reference_tool(name), name


def test_builder_tool_list_is_complete(monkeypatch):
    packed = set()
    original = builder._tool

    def recording(name, size=8192):
        packed.add(name)
        return original(name, size)

    monkeypatch.setattr(builder, "_tool", recording)
    builder.build_rescue_image()
    builder.build_scanner_image()
    builder.build_serverless_debug_image()
    builder.build_admin_image(extra_space=0)
    assert packed == set(BUILDER_TOOLS)


@settings(max_examples=200, deadline=None)
@given(name=st.text(min_size=1, max_size=24),
       size=st.integers(min_value=-16, max_value=20_000))
def test_tool_matches_the_generator_for_any_name_and_size(name, size):
    assert _tool(name, size) == _reference_tool(name, size)
