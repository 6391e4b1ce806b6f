"""The benchmark's three workloads: jobs, their inputs and their correctness checks.

A workload's ``setup`` takes the freshly imported package, the seed, the
checkout root and a scratch directory, and returns the round: a fixed
list of jobs that the runner repeats.  A job is ``run`` (the timed call
into the package) and ``check`` (applied to run's result), which
returns None or a description of what was wrong.

Outputs are checked three ways.  Phase tables and CLI stdout are hashed
and compared against ``digests.json``, recorded from the package at the
commit that introduced the benchmark, wherever a digest exists: always
for the fixtures and matrices, and for generated inputs at the seeds
listed there.  Generated inputs are also checked at every seed against
the independent table model in ``reference.py`` or, for classify,
against the congruence classes the generator built.  Verify jobs check
identities that hold for every calibrated hypergraph, so each must
return True.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import gen
import reference

DIGESTS = Path(__file__).resolve().parent / "digests.json"


class Job(NamedTuple):
    id: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(phases) -> str:
    return sha256(",".join(map(str, phases)))


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _compare(problems: list[str], what: str, got, want) -> None:
    if want is not None and got != want:
        problems.append(f"{what}: got {got!r}, recorded {want!r}")


# -- build ------------------------------------------------------------------------------

def setup_build(hq, seed: int, root: Path, workdir: Path, digests: dict) -> list[Job]:
    """Phase tables at q^l of 3125..6561; each job parses its document afresh."""
    recorded = digests.get("build", {}).get(str(seed), {})
    jobs = []
    for job_id, doc in gen.build_inputs(seed):
        ring = hq.named_ring(doc["ring"]["name"])
        for e in ring.elements:  # warm the ring's power and cyclicity caches
            hq.index_period(e)
        text = json.dumps(doc)

        def run(text=text):
            return hq.build_state(hq.hypergraph_from_json(json.loads(text), "calibrated")).phases

        def check(phases, doc=doc, want=recorded.get(job_id)):
            problems: list[str] = []
            _compare(problems, "digest", table_digest(phases), want)
            if not np.array_equal(np.asarray(phases), reference.document_phase_table(doc)):
                problems.append("phase table differs from the reference model")
            return "; ".join(problems) or None

        jobs.append(Job(f"build:{job_id}", run, check))
    return jobs


# -- verify -----------------------------------------------------------------------------

def _is_true(result) -> str | None:
    return None if result is True else f"identity returned {result!r}"


def setup_verify(hq, seed: int, root: Path, workdir: Path, digests: dict) -> list[Job]:
    """Operators, exact inner products and dense cross-checks on cached states."""
    rng = random.Random(f"verify-jobs/{seed}")
    partner_rng = random.Random(f"verify-partners/{seed}")
    jobs: list[Job] = []
    for job_id, doc in gen.verify_inputs(seed):
        hg = hq.hypergraph_from_json(doc, "calibrated")
        psi = hq.build_state(hg)  # caches the phase table
        ring, l = hg.ring, hg.l
        n = ring.q ** l

        def label(nonzero=False, ring=ring, l=l):
            while True:
                a = tuple(rng.choice(ring.elements) for _ in range(l))
                if not nonzero or any(not e.is_zero() for e in a):
                    return a

        perm = list(range(l))
        rng.shuffle(perm)
        permutation = hq.OrdinalMorphism(l, l, tuple(perm))
        collapse = None
        if l >= 2:  # merge two vertices: a surjection [l] -> [l - 1]
            u, v = sorted(rng.sample(range(l), 2))
            values = [w - (w > v) for w in range(l)]
            values[v] = u
            collapse = hq.OrdinalMorphism(l, l - 1, tuple(values))

        for k in range(2):
            a = label()
            jobs.append(Job(f"stabilizer:{job_id}:{k}",
                            lambda hg=hg, a=a, psi=psi: hq.stabilizer_apply(hg, a, psi) == psi,
                            _is_true))

        a, b = label(), label(nonzero=True)

        def pauli(a=a, b=b, psi=psi):
            phi = hq.apply_pauli_x(a, psi)
            return hq.is_orthogonal(phi, hq.apply_pauli_z(b, phi))
        jobs.append(Job(f"pauli:{job_id}", pauli, _is_true))

        for name, f in (("perm", permutation), ("collapse", collapse)):
            if f is not None:
                jobs.append(Job(f"covariance-{name}:{job_id}",
                                lambda hg=hg, f=f: hq.check_covariance(hg, f), _is_true))

        if n * ring.q <= 729:  # tensor with a one-vertex partner; product cached here
            partner_doc = gen.calibrated_document(partner_rng, doc["ring"]["name"], 1, 1, 2,
                                                  gen.DENSE)
            partner = hq.hypergraph_from_json(partner_doc, "calibrated")
            chi = hq.build_state(partner)
            product = hq.build_state(hq.monadic_product(hg, partner))
            jobs.append(Job(f"tensor:{job_id}",
                            lambda psi=psi, chi=chi, product=product:
                            hq.tensor(psi, chi) == product,
                            _is_true))

        if n <= 125:
            jobs.append(Job(f"lme-orthonormal:{job_id}",
                            lambda hg=hg: hq.lme_orthonormal(hg), _is_true))
        if n <= 64:
            jobs.append(Job(f"lme-check:{job_id}", lambda hg=hg: hq.lme_check(hg), _is_true))
            f = collapse or permutation
            jobs.append(Job(f"pushforward:{job_id}",
                            lambda hg=hg, f=f: hq.check_stabilizer_pushforward(hg, f), _is_true))
    return jobs


# -- cli --------------------------------------------------------------------------------

RING_FIXTURES = ["f2", "f3", "f4", "f5", "gr42", "gr43", "z4"]
FIELD_FIXTURES = ["f2", "f3", "f4", "f5"]
CALIBRATED_FIXTURES = ["bell_00", "bell_01", "bell_10", "bell_11",
                       "qutrit_a", "qutrit_b", "qutrit_c", "qutrit_d", "qutrit_e"]
MARKED_FIXTURES = ["marked_qutrit_a", "marked_qutrit_b", "marked_qutrit_c",
                   "marked_qutrit_d", "marked_qutrit_e"]


def fixture_invocations(fixtures: Path) -> list[tuple[str, list[str]]]:
    """Every fixture with each subcommand that accepts it, as (job id, argv)."""
    def path(name: str) -> str:
        return str(fixtures / f"{name}.json")

    out = []
    for f in RING_FIXTURES:
        out += [(f"ring-info:{f}", ["ring", "info", path(f)]),
                (f"json-ring-info:{f}", ["--json", "ring", "info", path(f)])]
    for f in FIELD_FIXTURES:
        out += [(f"matrices:{f}", ["matrices", path(f)]),
                (f"json-matrices:{f}", ["--json", "matrices", path(f)])]
    for f in CALIBRATED_FIXTURES:
        out += [(f"state-build:{f}", ["state", "build", path(f)]),
                (f"json-state-build:{f}", ["--json", "state", "build", path(f)]),
                (f"state-verify:{f}", ["state", "verify", path(f)]),
                (f"reduce:{f}", ["reduce", path(f)])]
    for f in MARKED_FIXTURES:
        out.append((f"convert-marked:{f}", ["convert", path(f), "--from", "marked"]))
    out += [("convert-poly:poly_f3_square", ["convert", path("poly_f3_square"), "--from", "poly"]),
            ("convert-weighted:weighted_f3_pair",
             ["convert", path("weighted_f3_pair"), "--from", "weighted"])]
    return out


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _classify_check(classes: list[list[str]]):
    want = sorted(sorted(c) for c in classes)

    def check(stdout: str) -> str | None:
        got = sorted(sorted(c["members"]) for c in json.loads(stdout)["classes"])
        return None if got == want else f"classes {got} differ from the generated {want}"
    return check


def _converted_check(doc: dict, x_star: int):
    def check(stdout: str) -> str | None:
        got = reference.document_phase_table(json.loads(stdout))
        if np.array_equal(got, reference.marked_phase_table(doc, x_star)):
            return None
        return "converted state differs from the marked state"
    return check


def _state_check(doc: dict):
    def check(stdout: str) -> str | None:
        got = np.asarray(json.loads(stdout)["phases"])
        if np.array_equal(got, reference.document_phase_table(doc)):
            return None
        return "phases differ from the reference model"
    return check


def setup_cli(hq, seed: int, root: Path, workdir: Path, digests: dict) -> list[Job]:
    """In-process CLI calls: fixtures plus generated documents, cold rings every call."""
    import hyperqudit.cli as cli

    recorded = dict(digests.get("cli", {}).get("fixed", {}))
    recorded.update(digests.get("cli", {}).get(str(seed), {}))
    inputs = gen.cli_inputs(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    specs: list[tuple[str, list[str], Callable | None]] = []
    for job_id, argv in fixture_invocations(root / "fixtures"):
        specs.append((f"fixture:{job_id}", argv, None))

    for job_id, docs, classes in inputs["classify"]:
        directory = workdir / f"classify-{job_id}"
        directory.mkdir(exist_ok=True)
        for name, doc in docs.items():
            _write(directory / name, doc)
        specs.append((f"gen:classify:{job_id}", ["classify", str(directory)],
                      _classify_check(classes)))
    for k, (job_id, doc) in enumerate(inputs["marked"]):
        path = _write(workdir / f"marked-{k}.json", doc)
        p = reference.RING_SPECS[job_id.split("-")[0]][0]
        x_star = 1 if k % 2 else p - 1
        argv = ["convert", path, "--from", "marked"] + (["--xstar", str(x_star)] if k % 2 else [])
        specs.append((f"gen:convert-marked:{job_id}", argv, _converted_check(doc, x_star)))
    for k, (job_id, doc) in enumerate(inputs["states"]):
        path = _write(workdir / f"state-{k}.json", doc)
        specs.append((f"gen:json-state-build:{job_id}", ["--json", "state", "build", path],
                      _state_check(doc)))
    for name, desc in inputs["rings"]:
        path = _write(workdir / f"ring-{name}.json", desc)
        specs.append((f"gen:json-matrices:{name}", ["--json", "matrices", path], None))

    jobs = []
    for job_id, argv, semantic in specs:
        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()

        def check(result, want=recorded.get(job_id), semantic=semantic):
            code, stdout = result
            problems: list[str] = []
            _compare(problems, "exit code", code, want[1] if want else 0)
            _compare(problems, "stdout digest", sha256(stdout), want[0] if want else None)
            if semantic is not None and code == 0:
                problems.append(semantic(stdout) or "")
            return "; ".join(p for p in problems if p) or None

        jobs.append(Job(job_id, run, check))
    return jobs


WORKLOADS = {"build": setup_build, "verify": setup_verify, "cli": setup_cli}

# The highest percentile with ten jobs beyond it in rounds of 76 and 75
# jobs; a round of 10 build jobs has none, so build reports p90.
TAIL_PERCENTILE = {"build": 90.0, "verify": 86.0, "cli": 86.0}
