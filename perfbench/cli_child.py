"""Traced cli_session child: runs the CLI entry point with every public function wrapped.

usage: cli_child.py SPANS_JSON OP_ID CLI_ARGS...

Writes the recorded spans as a JSON list when the CLI exits; the exit code
and standard output are the CLI's own.
"""

import json
import sys
from pathlib import Path

import tracer

import hslaplace.cli

out, op_id = Path(sys.argv[1]), sys.argv[2]
sys.argv = [sys.argv[0], *sys.argv[3:]]
t = tracer.Tracer()
t.op = op_id
t.install()
try:
    hslaplace.cli.main_entry()
finally:
    t.uninstall()
    out.write_text(json.dumps(t.take()), encoding="ascii")
