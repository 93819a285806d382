"""Replay a recorded list of command lines through ``foursquares.cli.run``.

Each argv runs in this one process, first in the recorded order and then in
reverse, so every table and cache is met both cold and warm.  For each argv
the script prints the SHA-256 of its exit code, stdout and stderr with the
exit code and the argv, and at the end one digest over every line of both
passes.  Two trees whose overall digests agree gave the same bytes on every
argv; ``--show`` prints the outputs themselves, for a diff of two runs.

``--argvs`` reads either a pin file, whose ``pins`` lists ``{"argv", "code",
"sha256"}`` entries, or a benchmark record such as ``BENCH_20.json``, whose
``outputs.argvs`` lists bare argvs.  With a pin file each argv must exit with
its pinned code, and each entry that carries a ``sha256`` must give that
digest; every entry that differs is printed as ``pin differs:`` with the
digest and code it gave and the ones pinned.  The default,
``tools/argv_pins.json``, pins every argv whose bytes the package prints, so
the bare command is the byte gate; the argvs whose text argparse prints
(usage errors and ``--help``), which changes between Python versions, pin
their exit code only.

The argv ``{bad}`` stands for a golden directory whose phi.txt has
coefficient 5 replaced by 7/3, made in a temporary directory; its path is
written back as ``{bad}`` before hashing, so digests do not depend on it.

    PYTHONPATH=src python tools/replay_argvs.py [--argvs tools/argv_pins.json] [--show]
                                                [--expect DIGEST]

Exit code 1 if any argv gives different bytes in the two passes or differs
from its pin, or if ``--expect`` names an overall digest other than the one
the run gives: for a record without pins, the digest of a known-good tree,
given as ``--expect``, makes the byte check one command.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from foursquares import cli

ROOT = Path(__file__).resolve().parent.parent


def bad_golden(into: Path) -> Path:
    """A copy of golden/ with phi's coefficient 5 replaced by 7/3."""
    bad = into / "bad"
    shutil.copytree(ROOT / "golden", bad)
    phi = bad / "phi.txt"
    phi.write_text("".join("5: 7/3\n" if line.startswith("5:") else line
                           for line in phi.read_text().splitlines(keepends=True)))
    return bad


def replay(argv: list[str], bad: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([bad if a == "{bad}" else a for a in argv], out, err)
    return code, out.getvalue().replace(bad, "{bad}"), err.getvalue().replace(bad, "{bad}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--argvs", type=Path, default=ROOT / "tools" / "argv_pins.json",
                        help="JSON file whose outputs.argvs, or whose pins, list the command lines")
    parser.add_argument("--show", action="store_true", help="print each argv's stdout and stderr")
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the overall digest is DIGEST")
    args = parser.parse_args(argv)
    record = json.loads(args.argvs.read_text())
    pins = record.get("pins")
    argvs = [pin["argv"] for pin in pins] if pins is not None else record["outputs"]["argvs"]
    print(f"# foursquares from {Path(cli.__file__).parent}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        bad = str(bad_golden(Path(tmp)))
        order = list(range(len(argvs)))
        passes = {}
        for name, indices in (("forward", order), ("reversed", order[::-1])):
            passes[name] = {i: replay(argvs[i], bad) for i in indices}

    overall, changed, unpinned = hashlib.sha256(), 0, 0
    for name in ("forward", "reversed"):
        for i in order:
            code, out, err = passes[name][i]
            digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
            overall.update(f"{name} {i} {digest}\n".encode())
            if name == "forward":
                print(f"{digest}  {code}  {shlex.join(argvs[i])}")
                if args.show:
                    print("".join(f"    | {line}\n" for line in (out + err).splitlines()), end="")
                pin = pins and pins[i]
                if pin and (code, digest) != (pin["code"], pin.get("sha256", digest)):
                    unpinned += 1
                    print(f"pin differs: {digest}  {code}  {shlex.join(argvs[i])}"
                          f"  (pinned {pin.get('sha256', 'exit code only')}  {pin['code']})")
            elif passes[name][i] != passes["forward"][i]:
                changed += 1
                print(f"reversed pass differs: {digest}  {code}  {shlex.join(argvs[i])}")
    total = overall.hexdigest()
    print(f"overall {total}  ({len(argvs)} argvs, 2 passes)")
    if args.expect is not None and args.expect != total:
        print(f"overall digest differs from the expected {args.expect}")
        return 1
    return 1 if changed or unpinned else 0


if __name__ == "__main__":
    sys.exit(main())
