"""Compile Bench — "IO workload of a Linux kernel build process" (§6.3).

Three phases, as in the Phoronix Disk suite: *create* a kernel-like
source tree of many small files, *read tree*, and *compile* (read
sources, write object files).  The workload is metadata- and
page-cache-heavy, which is why it shows essentially no vmsh-blk
overhead in Figure 5.
"""

from __future__ import annotations

from repro.bench.harness import BenchEnv, Measurement, throughput_mb_s
from repro.sim.rng import stream

DIRS = 12
FILES_PER_DIR = 24
SOURCE_SIZE = 6 * 1024          # small .c files
OBJECT_SIZE = 14 * 1024         # .o files are bigger


def _tree_paths(root: str):
    for d in range(DIRS):
        for f in range(FILES_PER_DIR):
            yield f"{root}/dir{d:02d}", f"{root}/dir{d:02d}/file{f:03d}.c"


def run_create(env: BenchEnv) -> Measurement:
    root = f"{env.mountpoint}/compilebench"
    rng = stream("compilebench")
    nbytes = 0
    with env.elapsed() as timer:
        env.vfs.makedirs(root)
        made = set()
        for dirpath, filepath in _tree_paths(root):
            if dirpath not in made:
                env.vfs.mkdir(dirpath)
                made.add(dirpath)
            content = bytes([rng.randrange(256)]) * SOURCE_SIZE
            env.vfs.write_file(filepath, content)
            nbytes += SOURCE_SIZE
    # Writeback happens asynchronously, outside the measured window.
    env.fs.sync_all()
    return Measurement(env.name, "Compile Bench: Create", "MB/s",
                       throughput_mb_s(nbytes, timer.elapsed), timer.elapsed)


def run_read_tree(env: BenchEnv) -> Measurement:
    root = f"{env.mountpoint}/compilebench"
    nbytes = 0
    with env.elapsed() as timer:
        for dirpath, filepath in _tree_paths(root):
            nbytes += len(env.vfs.read_file(filepath))
    return Measurement(env.name, "Compile Bench: Read tree", "MB/s",
                       throughput_mb_s(nbytes, timer.elapsed), timer.elapsed)


def run_compile(env: BenchEnv) -> Measurement:
    root = f"{env.mountpoint}/compilebench"
    nbytes = 0
    with env.elapsed() as timer:
        for dirpath, filepath in _tree_paths(root):
            source = env.vfs.read_file(filepath)
            nbytes += len(source)
            obj = filepath.replace(".c", ".o")
            env.vfs.write_file(obj, source * (OBJECT_SIZE // SOURCE_SIZE))
            nbytes += OBJECT_SIZE
    env.fs.sync_all()
    return Measurement(env.name, "Compile Bench: Compile", "MB/s",
                       throughput_mb_s(nbytes, timer.elapsed), timer.elapsed)


def cleanup(env: BenchEnv) -> None:
    root = f"{env.mountpoint}/compilebench"
    if env.vfs.exists(root):
        env.vfs.rmtree(root)


def run_all(env: BenchEnv):
    create = run_create(env)
    read_tree = run_read_tree(env)
    compile_ = run_compile(env)
    cleanup(env)
    return [compile_, create, read_tree]
