"""Jobs that the benchmark runs in their own Python process.

``python3 perfbench/jobs.py <job> [args]`` with ``src`` on the path:

- ``brackets GRADE2 WINDOW SEED``: locality orders and the direct
  bracket against its expansion, on the super construction of sl2 at
  level 1, for the pairs of G and L in an order drawn from the seed.
- ``session SEED PASSES``: ``cli.main`` over PASSES shuffled passes of
  the short-job pool, in one process.
- ``setup WORKLOAD GRADE2``: import and build what the workload needs,
  print ``ready``, then the basis size per grade.
- ``micro SEED``: nanoseconds per scalar multiply and add.

Each job prints JSON on stdout; the benchmark checks it.
"""

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

# Short CLI jobs of the session pool; AXIOMS stands for the three
# axioms jobs, whose --seed comes from the benchmark seed.
POOL = [
    ["sugawara", "--algebra", "sl2", "--level", "1", "--depth", "1"],
    "AXIOMS",
    ["module", "--algebra", "sl2", "--level", "1", "--spin", "1/2",
     "--depth", "1"],
    ["gram", "--module", '{"type":"affine","algebra":"sl2","level":1}',
     "--level", "2"],
    ["nullvec", "--module", '{"type":"ns_verma","c":"7/10","h":"1/10"}',
     "--level", "3"],
    ["ope", "--module", '{"type":"fermion","colors":1}',
     "--field-a", '{"gen":"psi"}', "--field-b", '{"gen":"psi"}',
     "--depth", "2"],
    ["brackets", "--module", '{"type":"ns_verma","c":"7/10","h":"1/10"}',
     "--field-a", '{"gen":"G"}', "--field-b", '{"gen":"L"}', "--depth", "1"],
    # the NS vacuum module at c = 1/2 has a ghost by grade 3: exit 1
    ["ghosts", "--c", "1/2", "--h", "0", "--depth", "6"],
    ["cocycle", "--nmax", "12"],
    ["validate", "--algebra", "sl2"],
]
AXIOM_SEEDS = (1, 2, 3, 5, 7, 11, 13, 17)
CONSTRUCTIONS = ("fermion", "g-fermion", "super")


def session_calls(seed: int, passes: int) -> list:
    """The CLI argv lists of a session, in order, made from the seed."""
    rng = random.Random(seed)
    calls = []
    for _ in range(passes):
        axioms_seed = str(rng.choice(AXIOM_SEEDS))
        batch = []
        for job in POOL:
            if job == "AXIOMS":
                batch += [["axioms", "--construction", c, "--depth", "1/2",
                           "--seed", axioms_seed] for c in CONSTRUCTIONS]
            else:
                batch.append(list(job))
        rng.shuffle(batch)
        calls += batch
    return calls


def all_session_calls() -> list:
    """Every distinct argv a session can run, for the reference."""
    calls = [list(job) for job in POOL if job != "AXIOMS"]
    calls += [["axioms", "--construction", c, "--depth", "1/2",
               "--seed", str(s)] for c in CONSTRUCTIONS for s in AXIOM_SEEDS]
    return calls


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_session(seed: int, passes: int) -> dict:
    from nsvertex import cli
    per_pass = len(POOL) - 1 + len(CONSTRUCTIONS)
    calls = []
    rss_mb = []
    for k, argv in enumerate(session_calls(seed, passes)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        calls.append({"argv": argv, "exit": code,
                      "sha256": digest(out.getvalue())})
        if (k + 1) % per_pass == 0:
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rss_mb.append(round(maxrss / 1024, 1))
    return {"calls": calls, "rss_mb_per_pass": rss_mb}


BRACKET_PAIRS = ("G,G", "G,L", "L,L")


def run_brackets(grade2: int, window: int, seed: int) -> dict:
    from nsvertex.constructions import super_construction
    from nsvertex.fields import (bracket_from_ope, commutator_direct,
                                 locality_order, state_field)
    from nsvertex.liealg import sl2
    cons = super_construction(sl2(), 1)
    module = cons.module
    named = {"G": cons.fields["G"], "L": state_field(module, cons.omega)}
    states = [s for g2 in range(grade2 + 1) for s in module.level_basis(g2)]
    # the order changes how the caches grow, not the result
    pairs = list(BRACKET_PAIRS)
    random.Random(seed).shuffle(pairs)
    out = {}
    for pair in pairs:
        A, B = (named[x] for x in pair.split(","))
        order = locality_order(A, B, module, depth2=grade2, window=window,
                               max_order=8)["order"]
        checked = mismatches = 0
        for m in range(-window, window + 1):
            for n in range(-window, window + 1):
                for state in states:
                    checked += 1
                    if commutator_direct(A, m, B, n, module, state) != \
                            bracket_from_ope(A, m, B, n, order, module, state):
                        mismatches += 1
        out[pair] = {"order": order, "checked": checked,
                     "mismatches": mismatches}
    return {"grade2": grade2, "window": window, "pairs": out}


def setup(workload: str, grade2: int) -> dict:
    import nsvertex.cli  # noqa: F401  (what every CLI call imports)
    from nsvertex.constructions import super_construction
    from nsvertex.liealg import sl2
    from nsvertex.modules import VermaModule
    from nsvertex.scalars import Scalar
    module = None
    if workload in ("susy", "brackets"):
        module = super_construction(sl2(), 1).module
    elif workload == "ghosts":
        module = VermaModule("ns", Scalar.of(Fraction(7, 10)),
                             Scalar.of(Fraction(1, 10)))
    print("ready", flush=True)
    dims = module.dims(grade2) if module is not None else []
    return {"basis_dims": dims}


# radicands of the super construction and their i-multiples
RADICANDS = (1, 2, 3, 6, -1, -2, -3, -6)


def micro(seed: int, pairs: int = 400, rounds: int = 9) -> dict:
    """Untraced per-operation times of Scalar multiply and add."""
    from nsvertex.scalars import Scalar
    rng = random.Random(seed)

    def operand():
        rads = rng.sample(RADICANDS, rng.randint(1, 3))
        return Scalar({r: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.randint(1, 6)) for r in rads})

    operands = [(operand(), operand()) for _ in range(pairs)]
    mul, add = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for a, b in operands:
            a * b
        t1 = time.perf_counter()
        for a, b in operands:
            a + b
        t2 = time.perf_counter()
        mul.append((t1 - t0) / pairs * 1e9)
        add.append((t2 - t1) / pairs * 1e9)
    return {"mul_ns": statistics.median(mul), "add_ns": statistics.median(add)}


def main(argv) -> int:
    job, args = argv[0], argv[1:]
    if job == "brackets":
        result = run_brackets(int(args[0]), int(args[1]), int(args[2]))
    elif job == "session":
        result = run_session(int(args[0]), int(args[1]))
    elif job == "setup":
        result = setup(args[0], int(args[1]))
    elif job == "micro":
        result = micro(int(args[0]))
    else:
        print(f"unknown job {job!r}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
