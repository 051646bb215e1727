"""Print a digest manifest of every CLI output, to check byte identity.

Usage: python tools/output_manifest.py ROOT

Imports bsvielab from ROOT/src and the benchmark workloads from
ROOT/perfbench, then runs each of the six commands through
``bsvielab.cli.main`` on the five bundled configs and on every workload's
``config_text(1)``.  For each run it prints the exit code and the sha256 of
the captured stdout, then the sha256 of every file the run wrote.  Two
checkouts produce the same bytes exactly when their manifests are equal:

    python tools/output_manifest.py OLD > old.txt
    python tools/output_manifest.py NEW > new.txt
    diff old.txt new.txt

The full sweep takes about a minute on a 2-vCPU host.  It is a tool, not
a test: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

COMMANDS = ("resolvent", "solve", "compare", "girsanov-check", "z-surface",
            "norms")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def configs(root: str) -> list[tuple[str, str]]:
    """(label, config text): the bundled configs, then the workloads."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    bundled = os.path.join(root, "src", "bsvielab", "configs")
    out = []
    for name in sorted(os.listdir(bundled)):
        with open(os.path.join(bundled, name), encoding="utf-8") as fh:
            out.append((name, fh.read()))
    for name, wl in workloads.WORKLOADS.items():
        out.append((name, wl.config_text(1)))
    return out


def manifest(root: str) -> list[str]:
    cases = configs(root)
    from bsvielab.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in cases:
            cfg = os.path.join(tmp, label + ".cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command in COMMANDS:
                out = os.path.join(tmp, label, command)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([command, "--config", cfg, "--out", out])
                lines.append(f"{label} {command} exit={code} "
                             f"stdout={sha256(buf.getvalue().encode())}")
                for name in sorted(os.listdir(out)):
                    with open(os.path.join(out, name), "rb") as fh:
                        lines.append(f"{label} {command} {name} "
                                     f"{sha256(fh.read())}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print("\n".join(manifest(os.path.abspath(sys.argv[1]))))
