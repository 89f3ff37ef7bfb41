"""Structured check reports and their JSON/CSV serialization.

JSON reports are arrays of flat objects with the exact field names
check_name, params, lhs, rhs, abs_err, rel_err, tol, pass, runtime_ms.
Numbers are written with 17 significant digits (lossless double round-trip),
params keys are sorted, and files are written atomically, so identical
results serialize to identical bytes (runtime_ms is wall-clock data and is
the one field that varies between runs).
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

__all__ = ["CheckReport", "make_check", "to_json", "from_json", "to_csv",
           "write_atomic", "all_passed"]

Number = float | int
Values = Number | list


@dataclass
class CheckReport:
    check_name: str
    params: dict
    lhs: Values
    rhs: Values
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    runtime_ms: int


def make_check(
    name: str,
    params: dict,
    lhs: float,
    rhs: float,
    tol: float,
    mode: str = "abs",
    runtime_ms: int = 0,
) -> CheckReport:
    """Build a report; ``mode`` declares whether tol applies to abs or rel error."""
    if mode not in ("abs", "rel"):
        raise ValueError("mode must be 'abs' or 'rel'")
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0.0 else 0.0
    passed = (abs_err <= tol) if mode == "abs" else (rel_err <= tol)
    return CheckReport(
        check_name=name,
        params={**params, "mode": mode},
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        tol=tol,
        passed=passed,
        runtime_ms=runtime_ms,
    )


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _fmt_value(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_number(x) for x in v) + "]"
    return _fmt_number(v)


def to_json(reports: list[CheckReport]) -> str:
    items = []
    for r in reports:
        params = ", ".join(
            f"{json.dumps(str(k))}: {_fmt_value(r.params[k])}" for k in sorted(r.params)
        )
        items.append(
            "{"
            + f'"check_name": {json.dumps(r.check_name)}, '
            + f'"params": {{{params}}}, '
            + f'"lhs": {_fmt_value(r.lhs)}, '
            + f'"rhs": {_fmt_value(r.rhs)}, '
            + f'"abs_err": {_fmt_number(float(r.abs_err))}, '
            + f'"rel_err": {_fmt_number(float(r.rel_err))}, '
            + f'"tol": {_fmt_number(float(r.tol))}, '
            + f'"pass": {_fmt_number(bool(r.passed))}, '
            + f'"runtime_ms": {int(r.runtime_ms)}'
            + "}"
        )
    if not items:
        return "[]\n"
    return "[\n  " + ",\n  ".join(items) + "\n]\n"


def from_json(text: str) -> list[CheckReport]:
    raw = json.loads(text)
    return [
        CheckReport(
            check_name=item["check_name"],
            params=item["params"],
            lhs=item["lhs"],
            rhs=item["rhs"],
            abs_err=item["abs_err"],
            rel_err=item["rel_err"],
            tol=item["tol"],
            passed=item["pass"],
            runtime_ms=item["runtime_ms"],
        )
        for item in raw
    ]


def _param_summary(params: dict) -> str:
    parts = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, (list, tuple)):
            text = "/".join(_fmt_number(x) for x in v)
        elif isinstance(v, (int, float, bool)):
            text = _fmt_number(v)
        else:
            text = str(v)
        parts.append(f"{k}={text}")
    return ";".join(parts)


def _csv_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt_number(x) for x in v)
    return _fmt_number(v)


def to_csv(reports: list[CheckReport]) -> str:
    lines = ["check_name,param_summary,lhs,rhs,abs_err,rel_err,tol,pass,runtime_ms"]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.check_name,
                    _param_summary(r.params),
                    _csv_value(r.lhs),
                    _csv_value(r.rhs),
                    _fmt_number(float(r.abs_err)),
                    _fmt_number(float(r.rel_err)),
                    _fmt_number(float(r.tol)),
                    "true" if r.passed else "false",
                    str(int(r.runtime_ms)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def all_passed(reports: list[CheckReport]) -> bool:
    return all(r.passed for r in reports)
