#!/usr/bin/env python3
"""Build the program and the benchmark from source.

    python3 perfbench/build.py

Compiles the repository's `src/main/scala` together with `perfbench/src`
into `<build dir>/perfbench/classes`, using the Scala compiler and the
Spark jars of the Spark installation (`$SPARK_HOME`, default
`/opt/spark`). The build dir is `$CARGO_TARGET_DIR` if set, else
`.bench_build` at the repository root. A build is skipped when no source
file changed since the last one.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path


def repo_root():
    return Path(__file__).resolve().parent.parent


def build_dir(root):
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else root / d


def spark_jars():
    jars = Path(os.environ.get("SPARK_HOME") or "/opt/spark") / "jars"
    if not jars.is_dir():
        raise SystemExit(f"no Spark jars directory at {jars}")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def digest(files, root):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build(root):
    """Compile if needed; return (classes dir, digest of the program sources)."""
    program = sorted((root / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise SystemExit(f"no program sources under {root / 'src' / 'main' / 'scala'}")
    bench = sorted((root / "perfbench" / "src").rglob("*.scala"))
    out = build_dir(root) / "perfbench"
    classes, stamp = out / "classes", out / "stamp"
    want = digest(program + bench, root)
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == want:
        return classes, digest(program, root)

    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = out / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in program + bench) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={out}",
           "-cp", str(spark_jars() / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    print(f"perfbench: compiling {len(program)} program and {len(bench)} benchmark sources",
          file=sys.stderr)
    if subprocess.run(cmd, cwd=root).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(want)
    return classes, digest(program, root)


if __name__ == "__main__":
    print(build(repo_root())[0])
