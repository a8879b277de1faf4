"""RPL006 — no swallowed exceptions in the recovery layer.

The runner and faultkit packages *are* the error-handling layer: when
they catch something broad, the failure must go somewhere a human or a
metric can see it.  A ``except Exception: pass`` in a recovery path
turns a worker death, a torn checkpoint, or an injected fault into
silent data loss — precisely the failure mode the chaos suite exists
to rule out.

Inside ``repro.runner`` and ``repro.faultkit`` this rule flags:

* a bare ``except:`` whose body does not re-raise — bare excepts catch
  ``KeyboardInterrupt``/``SystemExit``, so anything short of an
  unconditional hand-back is a hang or a swallowed shutdown;
* ``except Exception`` / ``except BaseException`` handlers that neither
  re-raise, nor return a value (converting the failure into data the
  caller must handle), nor record it through an approved channel (an
  obs counter such as ``inc``/``observe``, a journal ``add``/
  ``append``/``record``, a pipe ``send``/``send_bytes``, or a logger
  ``warning``/``error``/``exception``).

Narrow handlers (``except OSError``, ``except CheckpointError``) are
not flagged: catching a *specific* failure is a decision, not a
dragnet.  Survivors with a documented reason carry a justified
``# noqa: RPL006``, like every other rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext, Finding
from ..registry import Rule, register

#: Packages whose except-handlers are recovery paths.
SCOPED_PACKAGES = ("repro.runner", "repro.faultkit")

#: Exception names that count as a broad catch.
BROAD_NAMES = ("Exception", "BaseException")

#: Call names (function or method) that count as recording the failure.
RECORDING_CALLS = frozenset(
    {
        # obs counters / measurements
        "inc",
        "gauge",
        "observe",
        # journal / collection recording
        "add",
        "append",
        "record",
        # shipping the failure across a process boundary
        "send",
        "send_bytes",
        "put",
        # logging
        "warn",
        "warning",
        "error",
        "exception",
        "log",
    }
)


def _is_broad(expr: ast.expr) -> bool:
    """Whether an ``except <expr>`` clause catches Exception-or-wider."""
    if isinstance(expr, ast.Name):
        return expr.id in BROAD_NAMES
    if isinstance(expr, ast.Attribute):
        return expr.attr in BROAD_NAMES
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(item) for item in expr.elts)
    return False


def _is_recording_call(call: ast.Call) -> bool:
    """Whether a call looks like it records the caught failure.

    Matches the bare name (``inc``, ``warning``) and also wrapper
    helpers named after one (``_obs_inc``, ``journal_record``) — the
    repo's guarded-publish idiom (RPL005) forces obs access through
    such wrappers.
    """
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return False
    if name in RECORDING_CALLS:
        return True
    return name.rsplit("_", 1)[-1] in RECORDING_CALLS


def _handler_surfaces(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises, returns a value, or records."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Return) and node.value is not None:
            return True
        if isinstance(node, ast.Call) and _is_recording_call(node):
            return True
    return False


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register
class SwallowRule(Rule):
    code = "RPL006"
    name = "no-swallow"
    description = (
        "Recovery paths (repro.runner, repro.faultkit) must not swallow "
        "exceptions: a bare 'except:' must re-raise, and a broad "
        "'except Exception/BaseException' must re-raise, return a value, "
        "or record the failure (obs counter, journal, pipe, or logger)."
    )
    example_trigger = (
        "try:\n"
        "    attempt(point)\n"
        "except Exception:\n"
        "    pass                    # failure vanishes from the journal"
    )
    example_avoid = (
        "except Exception as exc:\n"
        "    inc('executor.attempt.failed')\n"
        "    journal.record_failure(point, exc)\n"
        "    raise"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree is None or not ctx.in_module(*SCOPED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    if not _handler_reraises(handler):
                        yield ctx.finding(
                            handler,
                            self.code,
                            "bare 'except:' without re-raise swallows "
                            "KeyboardInterrupt/SystemExit; catch a "
                            "specific exception or re-raise",
                        )
                elif _is_broad(handler.type) and not _handler_surfaces(handler):
                    yield ctx.finding(
                        handler,
                        self.code,
                        "broad except handler swallows the failure; "
                        "re-raise, return a value the caller must "
                        "handle, or record it (obs counter, journal, "
                        "pipe, logger)",
                    )
