"""Cases, passes and the canonical form of outcomes.

A workload is a fixed list of cases.  Each case has a timed ``run``
that calls into ``ttw`` and an untimed ``check`` that turns the result
(or the exception raised) into a canonical outcome and compares it with
the expectation the benchmark holds itself.  One pass runs every case
once, in order, as a closed loop with a single client.

A pass digests every outcome into two fingerprints: ``fixed`` over the
cases whose inputs do not depend on the seed, and ``full`` over every
case.  Known-defect cases are left out of both, so fixing a defect does
not change them; their own expectation checks them instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import reference


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of a case whose run raised."""

    exc: BaseException

    @property
    def kind(self) -> str:
        return type(self.exc).__name__

    def outcome(self) -> dict:
        out = {"raised": self.kind, "message": str(self.exc)}
        for key in ("cap_name", "limit", "actual"):
            if hasattr(self.exc, key):
                out[key] = getattr(self.exc, key)
        return out


    def signature(self) -> str:
        """The error's kind and, for a cap, the cap's name."""
        cap = getattr(self.exc, "cap_name", None)
        return f"{self.kind}:{cap}" if cap else self.kind


@dataclass
class Checked:
    outcome: Any
    problem: str | None = None
    sizes: dict = field(default_factory=dict)
    # what a failing case failed with; raised errors fill it in themselves
    signature: str | None = None


@dataclass(frozen=True)
class Case:
    cid: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    seeded: bool = False     # whether its inputs come from the seed


def canon(value):
    """A JSON-able, hash-order-free form of a verdict or witness."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in sorted(value.items(),
                                                    key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canon(v) for v in value), key=json.dumps)
    if dataclasses.is_dataclass(value) and hasattr(value, "holds"):
        return report(value)
    return type(value).__name__


def report(prop) -> dict:
    """Canonical outcome of a ``PropertyReport``."""
    return {"holds": prop.holds, "witness": canon(prop.witness),
            "details": canon(prop.details)}


def unexpected(result) -> str | None:
    """The problem to report when a case raised but should not have."""
    if isinstance(result, Raised):
        return f"{result.kind}: {result.exc}"
    return None


def expect_holds(result, holds: bool = True, **extra) -> Checked:
    """For runs returning a PropertyReport with a known verdict; ``extra``
    pins entries of its details."""
    if isinstance(result, Raised):
        return Checked(result.outcome(), unexpected(result))
    out = report(result)
    problem = None
    if result.holds != holds:
        problem = f"verdict {result.holds}, expected {holds}"
    for key, want in extra.items():
        if result.details.get(key) != want:
            problem = f"{key} = {result.details.get(key)!r}, expected {want!r}"
    return Checked(out, problem)


def expect_equal(result, summarise: Callable[[Any], Any], want,
                 sizes: Callable[[Any], dict] | None = None) -> Checked:
    """For runs whose summary must equal a value the benchmark computed."""
    if isinstance(result, Raised):
        return Checked(result.outcome(), unexpected(result))
    got = canon(summarise(result))
    want = canon(want)
    problem = None if got == want else f"got {got!r}, expected {want!r}"
    return Checked(got, problem, sizes(result) if sizes else {})


def expect_ok(result, summarise: Callable[[Any], Any] = lambda r: None,
              sizes: Callable[[Any], dict] | None = None) -> Checked:
    """For runs that verify their own laws and must simply return."""
    if isinstance(result, Raised):
        return Checked(result.outcome(), unexpected(result))
    return Checked(canon(summarise(result)), None, sizes(result) if sizes else {})


@dataclass
class PassResult:
    wall_s: float
    samples: list[float]
    refs: list[float]                      # reference kernel before each case
    failures: list[tuple[str, str, str]]   # (case id, problem, signature)
    fingerprint: dict                      # "fixed" and "full" digests
    sizes: Counter
    attempted: int


def run_pass(cases: list[Case], skip_fingerprint=(), recorder=None) -> PassResult:
    """Run every case once, each after one timing of the reference
    kernel; ``skip_fingerprint`` names the cases left out of the
    fingerprints."""
    samples = []
    refs = []
    failures = []
    sizes: Counter = Counter()
    fixed, full = hashlib.sha256(), hashlib.sha256()
    for case in cases:
        refs.append(reference.sample())
        if recorder is not None:
            recorder.begin_case(case.cid)
        start = perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # every failure is an outcome to check
            result = Raised(exc)
        end = perf_counter()
        samples.append(end - start)
        if recorder is not None:
            recorder.end_case(start, end)
        checked = case.check(result)
        if isinstance(result, Raised) and result.kind == "CapExceededError":
            sizes["caps.exceeded"] += 1
        sizes.update(checked.sizes)
        if checked.problem is not None:
            signature = checked.signature or (
                result.signature() if isinstance(result, Raised) else "wrong")
            failures.append((case.cid, checked.problem, signature))
        if case.cid in skip_fingerprint:
            continue
        line = json.dumps([case.cid, checked.outcome], sort_keys=True).encode()
        full.update(line + b"\n")
        if not case.seeded:
            fixed.update(line + b"\n")
    return PassResult(sum(samples), samples, refs, failures,
                      {"fixed": fixed.hexdigest(), "full": full.hexdigest()},
                      sizes, len(cases))
