"""Seeded request generators for the three benchmark workloads.

Each generator writes its input files into a work directory and returns the
request sequence for one pass: a list of ``{"cmd", "argv", "expect"}`` dicts.
``argv`` is what ``effectaudit.cli.main`` receives; ``expect`` holds what the
response checker needs, computed here independently of the program.

The mix of request kinds and their sizes is stratified (fixed counts and
size grids, shuffled by the seed), so every seed asks for the same amount
of work and only the data values and the order differ.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

WORKLOADS = ("simulate", "ingest", "screen")

# Full sizes, and the tiny sizes the smoke tests use.
SIZES = {
    False: {
        "simulate": {"n": 2000, "p_audit": 20, "p_sphere": 5, "trials": 5000},
        "ingest": {"n": 20000, "p": 50, "trials": 200, "alphabet": 8, "vars": 6},
        "screen": {"requests": 1000, "n": 200, "trials": 1000},
    },
    True: {
        "simulate": {"n": 60, "p_audit": 4, "p_sphere": 3, "trials": 1000},
        "ingest": {"n": 200, "p": 5, "trials": 50, "alphabet": 3, "vars": 3},
        "screen": {"requests": 40, "n": 40, "trials": 200},
    },
}

# Closed-form verdicts are only trusted away from the boundary, where
# rounding in the program cannot flip them.
_MARGIN = 1e-6


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _request_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def write_dataset_csv(path: str, n: int, p: int, rng: np.random.Generator) -> None:
    """Predictors sharing one latent factor plus an outcome built from them."""
    factor = rng.standard_normal(n)
    loadings = rng.uniform(0.0, 0.9, size=p)
    x = loadings * factor[:, None] + rng.standard_normal((n, p))
    y = x @ rng.uniform(-0.5, 0.5, size=p) + rng.standard_normal(n)
    header = ",".join([f"x{j}" for j in range(p)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), fmt="%.6f", delimiter=",",
               header=header, comments="")


def write_equicorrelation_csv(path: str, p: int, rho: str) -> None:
    header = ",".join(f"v{j}" for j in range(p))
    rows = [",".join("1" if i == j else rho for j in range(p)) for i in range(p)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(rows) + "\n")


def write_joint_json(path: str, sizes: tuple[int, ...], outcome: int,
                     rng: np.random.Generator, sparsity: float = 0.0) -> None:
    """A random joint pmf.

    Probabilities are integer weights over their total, so they sum to 1 far
    inside the program's 1e-12 mass tolerance.
    """
    cells = math.prod(sizes)
    weights = rng.integers(1, 1000, size=cells)
    if sparsity > 0.0:
        weights[rng.random(cells) < sparsity] = 0
        if weights.sum() == 0:
            weights[0] = 1
    probs = weights / weights.sum()
    atoms = [
        '{"tuple":[%s],"prob":%r}' % (",".join(map(str, idx)), float(prob))
        for idx, w, prob in zip(itertools.product(*(range(s) for s in sizes)), weights, probs)
        if w > 0
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"alphabet_sizes":[%s],"outcome_index":%d,"atoms":[%s]}\n'
                 % (",".join(map(str, sizes)), outcome, ",".join(atoms)))


def _audit(path: str, n: int, p: int, trials: int, seed: int) -> dict:
    return {
        "cmd": "audit",
        "argv": ["audit", path, "--outcome", "y", "--trials", str(trials),
                 "--seed", str(seed), "--format", "json"],
        "expect": {"n": n, "p": p},
    }


def _sphere(n: int, p: int, trials: int, seed: int) -> dict:
    return {
        "cmd": "simulate-sphere",
        "argv": ["simulate-sphere", "--n", str(n), "--p", str(p), "--trials", str(trials),
                 "--seed", str(seed), "--format", "json"],
        "expect": {"n": n, "p": p},
    }


def _mi(path: str, units: str = "nats") -> dict:
    return {"cmd": "mi-check", "argv": ["mi-check", path, "--units", units, "--format", "json"],
            "expect": {}}


def simulate(workdir: str, seed: int, tiny: bool = False) -> list[dict]:
    """audit, simulate-sphere, audit: the Monte Carlo and KS steps dominate."""
    s = SIZES[tiny]["simulate"]
    rng = _rng("simulate", seed)
    paths = [os.path.join(workdir, f"sim{k}.csv") for k in range(2)]
    for path in paths:
        write_dataset_csv(path, s["n"], s["p_audit"], rng)
    return [
        _audit(paths[0], s["n"], s["p_audit"], s["trials"], _request_seed(rng)),
        _sphere(s["n"], s["p_sphere"], s["trials"], _request_seed(rng)),
        _audit(paths[1], s["n"], s["p_audit"], s["trials"], _request_seed(rng)),
    ]


def ingest(workdir: str, seed: int, tiny: bool = False) -> list[dict]:
    """audit of a large CSV, mi-check of a large joint, audit again: parsing dominates."""
    s = SIZES[tiny]["ingest"]
    rng = _rng("ingest", seed)
    csv_path = os.path.join(workdir, "ingest.csv")
    joint_path = os.path.join(workdir, "ingest_joint.json")
    write_dataset_csv(csv_path, s["n"], s["p"], rng)
    write_joint_json(joint_path, (s["alphabet"],) * s["vars"],
                     int(rng.integers(0, s["vars"])), rng)
    return [
        _audit(csv_path, s["n"], s["p"], s["trials"], _request_seed(rng)),
        _mi(joint_path),
        _audit(csv_path, s["n"], s["p"], s["trials"], _request_seed(rng)),
    ]


def claims_expectation(p: int, tau: float, rho: float | None, eps: float | None) -> bool | None:
    """Closed-form check-claims verdict, or None when a side is within the margin.

    Without a cross matrix the claims force cross mass p (tau^2 p - 1) (with
    tau - sqrt(2 eps) in place of tau when eps is given and not degenerate),
    which is feasible when it is at most the largest possible mass p (p - 1).
    With an equicorrelated cross matrix (off-diagonal rho) the sum bound
    compares p tau with sqrt(p + p (p - 1) rho), the spectral bound compares
    p tau^2 with lambda_max = 1 + (p - 1) rho, and the multi-outcome bound
    compares the forced mass with the actual mass p (p - 1) rho.
    """
    degenerate = eps is not None and tau < math.sqrt(2.0 * eps)
    t = tau - math.sqrt(2.0 * eps) if eps is not None and not degenerate else tau
    forced = p * (t * t * p - 1.0)
    if rho is None:
        pairs = [(forced, p * (p - 1.0))] if p > 1 and not degenerate else []
    else:
        pairs = [(p * tau, math.sqrt(p + p * (p - 1) * rho)),
                 (p * tau * tau, 1.0 + (p - 1) * rho)]
        if eps is not None and not degenerate:
            pairs.append((forced, p * (p - 1) * rho))
    if any(abs(lhs - rhs) <= _MARGIN * max(1.0, abs(rhs)) for lhs, rhs in pairs):
        return None
    return all(lhs <= rhs for lhs, rhs in pairs)


def _claims(workdir: str, k: int, with_cross: bool, with_eps: bool, p: int,
            rng: np.random.Generator) -> dict:
    while True:
        tau = round(float(rng.uniform(0.05, 0.95)), 3)
        rho = round(float(rng.uniform(0.0, 0.9)), 3) if with_cross else None
        eps = round(float(rng.uniform(0.0, 0.02)), 4) if with_eps else None
        feasible = claims_expectation(p, tau, rho, eps)
        if feasible is not None:
            break
    argv = ["check-claims", "--tau", repr(tau), "--p", str(p)]
    if with_cross:
        path = os.path.join(workdir, f"cross{k}.csv")
        write_equicorrelation_csv(path, p, repr(rho))
        argv += ["--cross", path]
    if with_eps:
        argv += ["--eps", repr(eps)]
    return {"cmd": "check-claims", "argv": argv + ["--format", "json"],
            "expect": {"feasible": feasible}}


def _grid(lo: int, hi: int, count: int, rng: np.random.Generator) -> list[int]:
    """``count`` values cycling evenly through lo..hi, shuffled."""
    values = [lo + k % (hi - lo + 1) for k in range(count)]
    rng.shuffle(values)
    return values


def screen(workdir: str, seed: int, tiny: bool = False) -> list[dict]:
    """Many small mixed requests, as in a meta-study screening many claim sets."""
    s = SIZES[tiny]["screen"]
    total, n = s["requests"], s["n"]
    rng = _rng("screen", seed)
    n_audit = round(0.40 * total)
    n_claims = round(0.25 * total)
    n_mi = round(0.15 * total)
    n_rest = total - n_audit - n_claims - n_mi
    requests = []

    for k, p in enumerate(_grid(2, min(20, n // 3), n_audit, rng)):
        path = os.path.join(workdir, f"screen{k}.csv")
        write_dataset_csv(path, n, p, rng)
        requests.append(_audit(path, n, p, s["trials"], _request_seed(rng)))

    half = n_claims // 2
    for k, p in enumerate(_grid(2, 50, half, rng)):
        requests.append(_claims(workdir, k, True, True, p, rng))
    for k, p in enumerate(_grid(1, 200, n_claims - half, rng)):
        requests.append(_claims(workdir, k, False, k % 2 == 0, p, rng))

    for k in range(n_mi):
        num_vars = 2 + k % 4
        sizes = tuple(2 + (k // 4 + j) % 3 for j in range(num_vars))
        path = os.path.join(workdir, f"joint{k}.json")
        write_joint_json(path, sizes, int(rng.integers(0, num_vars)), rng, sparsity=0.2)
        requests.append(_mi(path, "bits" if k % 2 else "nats"))

    for k in range(n_rest):
        kind = k % 3
        if kind == 0:
            p = int(round(math.exp(rng.uniform(math.log(2), math.log(10_000)))))
            tau = round(float(rng.uniform(0.05, 0.95)), 3)
            argv = ["tightness", "--p", str(p), "--tau", repr(tau)]
        elif kind == 1:
            argv = ["aggregate", "--count", str(int(rng.integers(1, 500))),
                    "--multiplier", repr(round(float(rng.uniform(0.5, 3.0)), 3)),
                    "--activation-prob", repr(round(float(rng.uniform(0.05, 0.95)), 3))]
        else:
            argv = ["aggregate-logistic", "--count", str(int(rng.integers(1, 100))),
                    "--delta", repr(round(float(rng.uniform(-2.0, 2.0)), 3))]
        requests.append({"cmd": argv[0], "argv": argv + ["--format", "json"], "expect": {}})

    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


GENERATORS = {"simulate": simulate, "ingest": ingest, "screen": screen}
