"""Text and JSON reporters.

The JSON schema (version 2) is a stable contract asserted by
``tests/lintkit/test_reporters.py`` — CI uploads the payload as an
artifact, so downstream tooling may rely on every key below::

    {
      "version": 2,
      "tool": "repro.lintkit",
      "findings": [
        {"code": "...", "path": "...", "line": N, "col": N,
         "message": "..."}
      ],
      "summary": {
        "files": N, "total": N, "new": N,
        "by_code": {"RPL001": N, ...}
      }
    }

Version 2 dropped the baseline fields of version 1 (``fingerprint``,
``summary.baselined``, ``stale_baseline``): every finding is new.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from .context import Finding

JSON_SCHEMA_VERSION = 2


def render_text(findings: Sequence[Finding], *, files: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = [f"{f.location()}: {f.code} {f.message}" for f in findings]
    by_code = Counter(f.code for f in findings)
    summary = f"{len(findings)} finding(s) in {files} file(s)"
    if by_code:
        summary += " [" + ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        ) + "]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *, files: int) -> str:
    """The stable machine-readable report (see module docstring)."""
    by_code: Dict[str, int] = dict(
        sorted(Counter(f.code for f in findings).items())
    )
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro.lintkit",
        "findings": [
            {
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in findings
        ],
        "summary": {
            "files": files,
            "total": len(findings),
            "new": len(findings),
            "by_code": by_code,
        },
    }
    return json.dumps(payload, indent=2)
