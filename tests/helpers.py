"""Shared builders and oracles for randomized symbolic test suites."""

from __future__ import annotations

import numpy as np

from midconv import (Convoluter, EigDivisor, GroupElement, GroupMode, MonodromyVector,
                     check_conventions, defect, kappa)
from midconv.errors import MaxStepsExceeded, ModeMismatch
from midconv.katz import NoneffectiveReport, fresh_names


def random_partition(rng, r, max_part=None):
    cap = max_part or r
    parts = []
    left = r
    while left > 0:
        p = int(rng.integers(1, min(cap, left) + 1))
        parts.append(p)
        left -= p
    return sorted(parts, reverse=True)


def random_vector(rng, mode, r, n, tag, max_part=None):
    divisors = []
    for i in range(n):
        patt = random_partition(rng, r, max_part)
        entries = [(GroupElement.generator(f"{tag}e{i}_{j}", mode), m)
                   for j, m in enumerate(patt)]
        divisors.append(EigDivisor(mode, entries))
    return MonodromyVector(divisors)


def random_beta(rng, vector, aim, v_policy, tag):
    """aim: 'fresh' (independent twist), 'maxmult' (rank-reducing), or
    'support' (inverse of a random support element)."""
    if aim == "fresh":
        h = [GroupElement.generator(f"{tag}h{i}", vector.mode)
             for i in range(vector.n)]
    elif aim == "maxmult":
        h = [g.max_multiplicity()[0].invert() for g in vector]
    elif aim == "support":
        h = [g.support()[int(rng.integers(0, len(g.support())))].invert()
             for g in vector]
    else:
        raise ValueError(aim)
    if v_policy == "same":
        return Convoluter(h)
    return Convoluter.with_fresh_v(h, [f"{tag}s{i}" for i in range(vector.n - 1)])


def naive_kappa_local(beta, vector, i):
    """Literal transcription of the local transform formula, kept
    independent of the library code path: returns the coefficient list
    [(element, coefficient)] without canonicalization."""
    n, r = vector.n, vector.rank
    d = (n - 2) * r - sum(g.multiplicity(h.invert())
                          for g, h in zip(vector, beta.h))
    g = vector[i]
    out = [(beta.v[i], g.multiplicity(beta.h[i].invert()) + d)]
    for a, m in g.entries:
        if not a.combine(beta.h[i]).is_identity():
            out.append((a.combine(beta.u[i]), m))
    return out


def reference_run(vector, max_steps=None, v_policy="same"):
    """The reduction loop on ``GroupElement`` objects, step by step as
    ``kappa`` transforms, returning the answer ``AlgorithmTrace.to_json``
    gives: the oracle for ``run_algorithm``'s integer rows."""
    if vector.mode is GroupMode.CIRCLE:
        raise ModeMismatch("the reduction loop runs in multiplicative or additive mode")
    if max_steps is None:
        max_steps = vector.rank
    steps, inputs, current = [], [], vector

    def answer(status, **extra):
        return {"status": status, "ranks": [v.rank for v in (*inputs, current)],
                "steps": steps, "final": current.to_json(), **extra}

    for step in range(max_steps + 1):
        if current.is_all_diagonal():
            return answer("AllDiagonal")
        h = [g.max_multiplicity()[0].invert() for g in current]
        if v_policy == "same":
            beta = Convoluter(h)
        else:
            taken = {x for g in current for a in g.support() for x in a.expr.generators()}
            beta = Convoluter.with_fresh_v(h, fresh_names(current.n - 1, taken, f"_s{step}_"))
        d = defect(current, beta)
        if d >= 0:
            return answer("PositiveDefect")
        report = check_conventions(beta, current)
        if not report.ok:
            return answer("ConventionFailure", convention_report=report.to_json(),
                          failed_side="forward")
        out = kappa(beta, current, check=False)
        if isinstance(out, NoneffectiveReport):
            return answer("EmptyNoneffective", certificate=out.certificate.to_json())
        assert out.rank == current.rank + d
        inputs.append(current)
        steps.append({"input": current.to_json(), "convoluter": beta.to_json(),
                      "defect": d, "output": out.to_json()})
        current = out
    raise MaxStepsExceeded(f"no terminal state after {max_steps} steps")
