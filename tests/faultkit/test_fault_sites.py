"""``repro.faultkit.schedule.SITES`` is the one fault-site registry.

A chaos schedule is only worth running if its site globs match real
``fault_point(...)`` calls.  A typo'd glob (``"executor.attempt.strat"``)
arms, fires nothing, and the test that relies on it passes while
testing nothing; the schedule machinery cannot tell "never matched"
from "never reached".  These tests close that gap statically:

* every ``fault_point(...)`` site in ``src/repro`` is a string literal;
* the set of those literals equals ``SITES``, and ``WORKER_SITES`` and
  ``FILE_SITES`` are subsets of it;
* every literal ``FaultSpec(site=...)`` glob and every inline-JSON
  schedule glob in :data:`SCHEDULE_DIRS`, and every ``--fault-schedule``
  JSON in the CI workflow, matches at least one site.

``tests/faultkit`` (unit tests of the schedule machinery, which use
synthetic sites on purpose) and ``tests/lintkit/fixtures`` are exempt
from the glob check.  The helpers are plain functions so the fixture
twins under ``tests/lintkit/fixtures/proj/src/repro/chaos`` can prove
they catch each defect.
"""

import ast
import json
import re
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Tuple

from repro.faultkit.schedule import FILE_SITES, SITES, WORKER_SITES

REPO = Path(__file__).resolve().parents[2]

#: Trees whose FaultSpec / JSON schedule globs must match a site.
SCHEDULE_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

#: Repo-relative prefixes exempt from the glob check.
EXEMPT = ("tests/faultkit", "tests/lintkit/fixtures")

CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

#: A ``--fault-schedule '<json>'`` argument in a shell script.
_CI_SCHEDULE = re.compile(r"--fault-schedule\s+'([^']*)'")

#: (repo-relative path, line, message)
Defect = Tuple[str, int, str]


def python_files(*roots: Path) -> List[Path]:
    """Every ``.py`` file under ``roots``, minus caches and hidden dirs."""
    files: List[Path] = []
    for root in roots:
        candidates = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in candidates:
            parts = path.relative_to(root).parts if path != root else ()
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            files.append(path)
    return files


def _rel(path: Path, root: Path) -> str:
    return path.resolve().relative_to(root.resolve()).as_posix()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def _string(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def fault_point_sites(
    files: Iterable[Path], root: Path
) -> Tuple[Set[str], List[Defect]]:
    """``(literal sites, non-literal-site defects)`` over every
    ``fault_point(...)`` call in ``files``."""
    sites: Set[str] = set()
    defects: List[Defect] = []
    for path in files:
        for node in ast.walk(_parse(path)):
            if not (
                isinstance(node, ast.Call)
                and _called_name(node) == "fault_point"
                and node.args
            ):
                continue
            if _string(node.args[0]):
                sites.add(node.args[0].value)
            else:
                defects.append((
                    _rel(path, root), node.lineno,
                    "fault_point() site must be a string literal",
                ))
    return sites, defects


def json_schedule_globs(text: str) -> List[str]:
    """Site globs of an inline JSON schedule (``[]`` if ``text`` is not one)."""
    stripped = text.strip()
    if '"site"' not in stripped or not stripped.startswith(("[", "{")):
        return []
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError:
        return []
    specs = payload if isinstance(payload, list) else [payload]
    return [
        spec["site"]
        for spec in specs
        if isinstance(spec, dict) and isinstance(spec.get("site"), str)
    ]


def schedule_globs(
    files: Iterable[Path], root: Path
) -> List[Tuple[str, int, str]]:
    """``(path, line, glob)`` for every literal ``FaultSpec`` site and
    inline JSON schedule site in ``files``."""
    found: List[Tuple[str, int, str]] = []
    for path in files:
        rel = _rel(path, root)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and _called_name(node) == "FaultSpec":
                site = next(
                    (kw.value for kw in node.keywords if kw.arg == "site"),
                    node.args[0] if node.args else None,
                )
                if site is not None and _string(site):
                    found.append((rel, node.lineno, site.value))
            elif _string(node):
                for glob in json_schedule_globs(node.value):
                    found.append((rel, node.lineno, glob))
    return found


def ci_schedule_globs(path: Path, root: Path) -> List[Tuple[str, int, str]]:
    """``(path, line, glob)`` for every ``--fault-schedule '<json>'`` in
    a workflow file; a schedule that is not valid JSON yields no glob."""
    rel = _rel(path, root)
    found: List[Tuple[str, int, str]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        for match in _CI_SCHEDULE.finditer(line):
            found += [(rel, number, g) for g in json_schedule_globs(match.group(1))]
    return found


def unmatched(
    globs: Iterable[Tuple[str, int, str]], sites: Iterable[str]
) -> List[Defect]:
    """Globs that match no site: each would arm and test nothing."""
    known = sorted(sites)
    return [
        (path, line, f"schedule glob '{glob}' matches no fault site")
        for path, line, glob in globs
        if not any(fnmatchcase(site, glob) for site in known)
    ]


def site_defects(files: Sequence[Path], root: Path) -> List[Defect]:
    """Non-literal sites plus globs matching none of the literal sites
    collected from the same ``files``, sorted by location."""
    sites, defects = fault_point_sites(files, root)
    defects += unmatched(schedule_globs(files, root), sites)
    return sorted(defects)


def _schedule_files() -> List[Path]:
    files = python_files(*(REPO / d for d in SCHEDULE_DIRS if (REPO / d).exists()))
    return [
        f for f in files
        if not any(
            _rel(f, REPO) == p or _rel(f, REPO).startswith(p + "/")
            for p in EXEMPT
        )
    ]


class TestRegistry:
    def test_every_site_is_a_literal(self):
        _, defects = fault_point_sites(python_files(REPO / "src" / "repro"), REPO)
        assert defects == []

    def test_literal_sites_equal_sites_tuple(self):
        sites, _ = fault_point_sites(python_files(REPO / "src" / "repro"), REPO)
        assert len(SITES) == len(set(SITES))
        assert sites == set(SITES)

    def test_worker_and_file_sites_are_registered(self):
        assert set(WORKER_SITES) <= set(SITES)
        assert set(FILE_SITES) <= set(SITES)


class TestScheduleGlobs:
    def test_python_schedule_globs_match_a_site(self):
        globs = schedule_globs(_schedule_files(), REPO)
        # The chaos suites carry schedules; an empty census would mean
        # the collector is broken, not that every glob is fine.
        assert {"tests/runner/test_chaos.py", "tests/test_cli.py"} <= {
            path for path, _, _ in globs
        }
        assert unmatched(globs, SITES) == []

    def test_ci_fault_schedules_match_a_site(self):
        globs = ci_schedule_globs(CI_WORKFLOW, REPO)
        # Every --fault-schedule argument parsed to at least one glob.
        schedules = _CI_SCHEDULE.findall(CI_WORKFLOW.read_text(encoding="utf-8"))
        assert schedules
        assert len({line for _, line, _ in globs}) == len(schedules)
        assert unmatched(globs, SITES) == []
