"""Run a workload's invocations in one fresh interpreter via ``mixlap.cli.main``.

Usage: ``python3 perfbench/inprocess.py PLAN.json RESULT.json``

The plan holds ``trace`` (bool), ``spans`` (path of the spans file) and
``invocations`` (a list of ``{"label", "argv"}``). With ``trace`` set, the
tracer from ``tracer.py`` wraps the package before the first invocation;
without it the same invocations run unwrapped, which gives the untraced
in-process wall time that the trace overhead is measured against.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import mixlap
import mixlap.cli
from tracer import Tracer


def _s_bytes(args, kwargs, result):
    # S is a dense float64 ndof x ndof matrix.
    return {"S_bytes": 8 * result.shape[0] * result.shape[1]}


def _bisection_iters(args, kwargs, result):
    return {"bisection_iters": result.iterations}


HOOKS = {
    "assembly.assemble_gagliardo": _s_bytes,
    "spectrum.alpha_threshold": _bisection_iters,
}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer, installed = None, []
    if plan["trace"]:
        tracer = Tracer(HOOKS)
        installed = tracer.install(mixlap)
    walls, exit_codes = [], []
    for i, inv in enumerate(plan["invocations"]):
        if tracer is not None:
            tracer.invocation = i
        start = perf_counter()
        try:
            code = mixlap.cli.main(inv["argv"])
        except Exception:
            # An invocation that raises counts as failed; the others still run.
            traceback.print_exc()
            code = 1
        walls.append(perf_counter() - start)
        exit_codes.append(code)
    result = {"walls": walls, "exit_codes": exit_codes}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(Path(plan["spans"]))
        by_inv = tracer.self_by_invocation()
        result.update(
            {
                "calls": dict(tracer.calls),
                "self_s": dict(tracer.self_s),
                "total_s": dict(tracer.total_s),
                "layer_self_s": tracer.layer_self_s(),
                "counters": dict(tracer.counters),
                "installed": installed,
                "spans": len(tracer.spans),
                "self_sum_by_invocation": [by_inv.get(i, 0.0) for i in range(len(walls))],
                "calls_by_invocation": _calls_by_invocation(tracer, len(walls)),
            }
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


def _calls_by_invocation(tracer: Tracer, count: int) -> list[dict]:
    per = [dict() for _ in range(count)]
    for _, _, invocation, name, _, _ in tracer.spans:
        per[invocation][name] = per[invocation].get(name, 0) + 1
    return per


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
