"""The four benchmark workloads: inputs, units, output checks and CLI commands.

Every input is generated here from the benchmark seed with the benchmark's
own random stream; the program only receives the finished inputs (degrees,
dimensions, polynomials, vectors, partitions and per-call seeds). A workload
is a list of *rounds*, each a fixed composition of units, so that runs with
different seeds measure the same mix of work.

Each unit is run by ``run_unit`` (the timed call into the program) and then
checked by ``check_unit`` (untimed), which returns the number of ops the unit
completed or raises ``CheckFailed``. The checks never use
``oapoly.reports.residual``: they recompute what they compare and require
every compared value to be finite.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# complete partitions by number of parts and by target, kept here so that the
# inputs do not depend on the program's own enumeration
COMPLETE_BY_TARGET = {
    2: [(1, 1)],
    3: [(1, 1, 1), (2, 1)],
    4: [(1, 1, 1, 1), (2, 1, 1)],
}
COMPLETE_BY_PARTS = {
    2: [(1, 1), (2, 1)],
    3: [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1)],
}


class CheckFailed(Exception):
    """A program output disagreed with what the benchmark expects."""


def finite(values, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{what} is not finite: {arr.tolist()}")
    return arr


def residual(lhs, rhs, switch: float = 1.0) -> float:
    """Largest componentwise deviation, relative where the scale exceeds ``switch``.

    Same policy as the program's tolerance model, but every component counts
    and a non-finite side is a failed check rather than a residual.
    """
    L, R = finite(lhs, "left side"), finite(rhs, "right side")
    if L.shape != R.shape:
        raise CheckFailed(f"shape mismatch {L.shape} vs {R.shape}")
    diff = np.abs(L - R)
    scale = np.maximum(np.abs(L), np.abs(R))
    rel = np.where(scale > switch, diff / np.where(scale > switch, scale, 1.0), diff)
    return float(np.max(rel))


def poly_payload(s: int, n: int, terms: dict) -> dict:
    """A polynomial in the CLI's JSON term-map format."""
    return {
        "s": s,
        "n": n,
        "d": 1,
        "terms": [{"key": list(k), "coeff": [float(c)]} for k, c in sorted(terms.items())],
    }


@dataclass
class Plan:
    """Everything a run needs, generated in set-up."""

    rounds: list
    warmup: list
    cli: dict
    distinct_keys: int | None = None  # polynomial keys the inputs hold, for the manifest


class Workload:
    name = ""
    required_layers: tuple = ()
    trace_rounds = 1

    def plan(self, prog, rng: np.random.Generator) -> Plan:
        raise NotImplementedError

    def run_unit(self, prog, unit):
        raise NotImplementedError

    def check_unit(self, prog, unit, out) -> int:
        raise NotImplementedError

    def nominal_ops(self, unit) -> int:
        return 1

    def digest_item(self, unit, out) -> str:
        raise NotImplementedError

    def cli_argv(self, plan: Plan, workdir) -> list:
        raise NotImplementedError

    def check_cli(self, prog, plan: Plan, stdout: bytes) -> None:
        raise NotImplementedError


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"CLI output is not JSON: {exc}") from None


# -- sweep ---------------------------------------------------------------------


@dataclass
class SweepUnit:
    claim: str
    s: int
    n: int
    d: int
    trials: int
    seed: int
    poly: object = None  # a fixed polynomial instead of random additive ones


class Sweep(Workload):
    """verify_claim blocks for all eight claims on random additive polynomials."""

    name = "sweep"
    required_layers = ("theorems.verify_claim", "reports.report", "cli.main")
    trace_rounds = 2
    CLAIMS = ("RMP", "GM", "SCHUR", "ORTHO", "HM", "GEOS", "WGM", "CROSS_TERMS")
    TRIALS = 40
    POOL = 96

    def plan(self, prog, rng):
        rounds = []
        for r in range(self.POOL):
            units = []
            for slot, (claim, s) in enumerate(itertools.product(self.CLAIMS, (2, 3, 4, 5))):
                units.append(SweepUnit(
                    claim, s, n=2 + (slot + r) % 7, d=1 + (slot + r) % 3,
                    trials=self.TRIALS, seed=int(rng.integers(0, 2**31)),
                ))
            rounds.append(units)
        warmup = [u for u in rounds[0] if u.s == 2]
        cli = {"seed": int(rng.integers(0, 2**31))}
        return Plan(rounds, warmup, cli)

    def run_unit(self, prog, u):
        extra = {} if u.poly is None else {"poly": u.poly}
        return prog.pkg.verify_claim(
            u.claim, s=u.s, n=u.n, d=u.d, trials=u.trials, seed=u.seed, **extra
        )

    def nominal_ops(self, u):
        return u.trials

    @staticmethod
    def _check_report(rep, claim, trials):
        if rep.claim_id != claim or rep.trials != trials:
            raise CheckFailed(f"report for {rep.claim_id}/{rep.trials}, expected {claim}/{trials}")
        worst = float(finite(rep.max_residual, f"{claim} max_residual")[0])
        if not rep.passed:
            raise CheckFailed(f"{claim} failed: max_residual={worst!r}")
        if rep.counterexample is not None or not worst <= rep.tolerance:
            raise CheckFailed(f"{claim} passed with residual {worst!r} over {rep.tolerance!r}")

    def check_unit(self, prog, u, rep):
        self._check_report(rep, u.claim, u.trials)
        return u.trials

    def digest_item(self, u, rep):
        return f"{u.claim}|{u.s}|{u.n}|{u.d}|{u.seed}|{rep.trials}|{rep.max_residual!r}"

    def cli_argv(self, plan, workdir):
        return ["verify", "all", "--s", "3", "--n", "4", "--d", "1", "--trials", "30",
                "--seed", str(plan.cli["seed"])]

    def check_cli(self, prog, plan, stdout):
        payload = _json(stdout)
        reports = payload.get("reports", [])
        if payload.get("all_passed") is not True or len(reports) != len(self.CLAIMS):
            raise CheckFailed("verify all did not pass every claim")
        for rep in reports:
            worst = float(finite(rep["max_residual"], "max_residual")[0])
            if rep["passed"] is not True or worst > rep["tolerance"] or rep["trials"] != 30:
                raise CheckFailed(f"verify all report failed: {rep}")


# -- falsify -------------------------------------------------------------------


@dataclass
class FalsifyUnit:
    band: str  # "strong" or "weak"
    claim: str
    poly: object
    partition: object  # CompletePartition or None
    seed: int
    budget: int


def replay_sides(prog, claim, P, fs, cp):
    """Both sides of a claim, recomputed from the public API on given inputs."""
    oa = prog.pkg
    form = P.multilinear
    s = P.degree
    if claim == "RMP":
        return P(oa.root_mean_power(s, fs)), sum(P(f) for f in fs)
    if claim == "GM":
        return P(oa.geometric_mean(fs)), form(*fs)
    if claim == "HM":
        eta = oa.harmonic_mean(fs)
        rhs = sum(form(*(fs[:j] + [eta] + fs[j + 1:])) for j in range(s))
        return form(*fs) * s, rhs
    if claim == "WGM":
        repeated = [f for r, f in zip(cp.parts, fs) for _ in range(r)]
        return P(oa.weighted_geometric_mean(oa.weights(cp), fs)), form(*repeated)
    f, g = fs
    return P(f + g), P(f) + P(g)


def check_witness(prog, claim, P, cp, witness) -> float:
    """Replay a falsification witness; its residual must exceed the threshold."""
    threshold = prog.pkg.DEFAULT_TOLERANCES.falsify_threshold
    if witness is None:
        raise CheckFailed(f"{claim}: a passed search carries no witness")
    reported = float(finite(witness["residual"], "witness residual")[0])
    fs = [prog.pkg.PositiveVector(finite(v, "witness input")) for v in witness["inputs"]]
    if claim == "WGM" and cp is None:
        cp = prog.pkg.CompletePartition((1,) * P.degree, P.degree)
    lhs, rhs = replay_sides(prog, claim, P, fs, cp)
    replayed = residual(lhs, rhs, prog.pkg.DEFAULT_TOLERANCES.relative_switch)
    if not (replayed > threshold and reported > threshold):
        raise CheckFailed(f"{claim}: witness replays to {replayed!r} (reported {reported!r})")
    return replayed


class Falsify(Workload):
    """Converse searches on non-additive polynomials, in a strong and a weak band.

    Strong band: mixed mass 0.1-0.6 as in acceptance criterion 7, on keys
    that touch exactly coordinates 0 and 1, all five claims; the searches end
    in the structured phase, after the exhaustive precondition. Weak band:
    one mixed key over ``s`` distinct indices, which the two-coordinate
    structured family cannot see, with mixed mass 1e-8-3e-8. At that mass
    CROSS_TERMS would need thousands of random trials, so each weak search
    spends its whole budget on P(f+g) against P(f) + P(g) and ends
    inconclusive. HM, GM and WGM find a witness at their first random trial
    whatever the mass, and RMP's count varies by orders of magnitude, so the
    weak band runs CROSS_TERMS only and its searches cost about the same.
    """

    name = "falsify"
    required_layers = ("theorems.falsify", "polynomials.poa", "cli.main")
    trace_rounds = 2
    CLAIMS = ("HM", "WGM", "RMP", "GM", "CROSS_TERMS")
    WEAK_CLAIMS = ("CROSS_TERMS",)
    STRONG_SLOTS = ((2, 3), (3, 5), (4, 6))
    WEAK_SLOTS = ((4, 6), (4, 6))
    STRONG_BUDGET = 10_000
    WEAK_BUDGET = 600
    POOL = 12

    @staticmethod
    def _signed(rng, size):
        return rng.uniform(0.1, 2.0, size) * rng.choice([-1.0, 1.0], size)

    def _strong_terms(self, rng, s, n):
        """Up to two mixed keys on coordinates 0 and 1, so the first pair of the
        structured family finds a witness, and diagonal terms elsewhere."""
        terms = {}
        for i in rng.choice(n, size=min(n, 3), replace=False):
            terms[(int(i),) * s] = float(self._signed(rng, 1)[0])
        diag_mass = sum(abs(c) for c in terms.values())
        mixed = {}
        for zeros in rng.choice(np.arange(1, s), size=min(2, s - 1), replace=False):
            mixed[(0,) * int(zeros) + (1,) * (s - int(zeros))] = float(self._signed(rng, 1)[0])
        mass = rng.uniform(0.1, 0.6)
        scale = mass * diag_mass / ((1.0 - mass) * sum(abs(c) for c in mixed.values()))
        terms.update({k: c * scale for k, c in mixed.items()})
        return terms

    def _weak_terms(self, rng, s, n):
        terms = {(i,) * s: float(rng.uniform(0.5, 2.0)) for i in range(n)}
        key = tuple(sorted(int(i) for i in rng.choice(n, size=s, replace=False)))
        terms[key] = float(np.exp(rng.uniform(math.log(1e-8), math.log(3e-8)))) * sum(terms.values())
        return terms

    def _poly(self, prog, rng, s, n, make):
        """A polynomial meeting falsify's documented precondition: it fails the
        exhaustive additivity check under the seed its searches will use."""
        for _ in range(100):
            terms = make(rng, s, n)
            seed = int(rng.integers(0, 2**31))
            P = prog.pkg.HomogeneousPolynomial(s, n, 1, {k: [c] for k, c in terms.items()})
            if not prog.pkg.is_positively_orthogonally_additive(
                P, trials=2**n, seed=seed, exhaustive=True
            ).passed:
                return P, seed, terms
        raise RuntimeError(f"no polynomial of degree {s} on {n} coordinates met the precondition")

    def plan(self, prog, rng):
        rounds = []
        cli = None
        for _ in range(self.POOL):
            units = []
            for s, n in self.STRONG_SLOTS:
                P, seed, terms = self._poly(prog, rng, s, n, self._strong_terms)
                if cli is None:
                    cli = {"poly": poly_payload(s, n, terms), "seed": seed, "P": P}
                parts = COMPLETE_BY_TARGET[s][int(rng.integers(0, len(COMPLETE_BY_TARGET[s])))]
                cp = prog.pkg.CompletePartition(parts, s)
                for claim in self.CLAIMS:
                    units.append(FalsifyUnit("strong", claim, P, cp if claim == "WGM" else None,
                                             seed, self.STRONG_BUDGET))
            for s, n in self.WEAK_SLOTS:
                P, seed, _ = self._poly(prog, rng, s, n, self._weak_terms)
                for claim in self.WEAK_CLAIMS:
                    units.append(FalsifyUnit("weak", claim, P, None, seed, self.WEAK_BUDGET))
            rounds.append(units)
        warmup = [u for u in rounds[0] if u.band == "strong"]
        keys = {k for units in rounds for u in units for k in u.poly.terms}
        return Plan(rounds, warmup, cli, len(keys))

    def run_unit(self, prog, u):
        return prog.pkg.falsify(u.poly, u.claim, budget=u.budget, seed=u.seed, partition=u.partition)

    def check_unit(self, prog, u, rep):
        if rep.kind != "falsify" or rep.claim_id != u.claim or not 1 <= rep.trials <= u.budget:
            raise CheckFailed(f"malformed falsification report {rep.claim_id}/{rep.trials}")
        if rep.passed:
            check_witness(prog, u.claim, u.poly, u.partition, rep.counterexample)
        elif u.band == "strong":
            raise CheckFailed(f"strong-band {u.claim} search found no witness")
        elif not (rep.inconclusive and rep.trials == u.budget):
            raise CheckFailed(f"weak-band {u.claim} search ended early without a witness")
        return rep.trials

    def digest_item(self, u, rep):
        return f"{u.band}|{u.claim}|{u.seed}|{rep.trials}|{bool(rep.passed)}|{rep.max_residual!r}"

    def cli_argv(self, plan, workdir):
        path = workdir / "falsify_poly.json"
        path.write_text(json.dumps(plan.cli["poly"]))
        return ["verify", "falsify", "--claim", "hm", "--poly", str(path),
                "--budget", str(self.STRONG_BUDGET), "--seed", str(plan.cli["seed"])]

    def check_cli(self, prog, plan, stdout):
        rep = _json(stdout)
        if rep.get("passed") is not True or rep.get("claim_id") != "HM":
            raise CheckFailed("verify falsify found no witness on a strong-band polynomial")
        check_witness(prog, "HM", plan.cli["P"], None, rep["counterexample"])


# -- forms ---------------------------------------------------------------------


@dataclass
class FormsUnit:
    s: int
    n: int
    poly: object
    fs: list
    f: object


class Forms(Workload):
    """Dense polynomials: direct form, black-box polarization and P(f) = form(f,..,f).

    The classes' keys together exceed the program's 4096-entry arrangement
    cache, and the classes are visited in turn.
    """

    name = "forms"
    required_layers = ("polynomials.eval", "polynomials.form", "polynomials.polarize", "cli.main")
    trace_rounds = 2
    # seven classes, so the median unit falls inside the fourth-cheapest; the
    # two dearest cost about the same, so the tail falls inside those two
    CLASSES = ((2, 10), (3, 8), (4, 6), (2, 30), (5, 6), (3, 24), (4, 12))
    CLI_CLASS = (4, 12)
    POLYS_PER_CLASS = 2
    POOL = 48

    def plan(self, prog, rng):
        PV = prog.pkg.PositiveVector
        polys = {}
        for s, n in self.CLASSES:
            keys = list(itertools.combinations_with_replacement(range(n), s))
            polys[s, n] = []
            for _ in range(self.POLYS_PER_CLASS):
                terms = dict(zip(keys, rng.uniform(0.1, 2.0, len(keys)).tolist()))
                P = prog.pkg.HomogeneousPolynomial(s, n, 1, {k: [c] for k, c in terms.items()})
                polys[s, n].append((P, terms))
        rounds = []
        for r in range(self.POOL):
            units = []
            for s, n in self.CLASSES:
                P, _ = polys[s, n][r % self.POLYS_PER_CLASS]
                fs = [PV(rng.uniform(0.5, 2.0, n)) for _ in range(s)]
                units.append(FormsUnit(s, n, P, fs, PV(rng.uniform(0.5, 2.0, n))))
            rounds.append(units)
        s, n = self.CLI_CLASS
        P, terms = polys[s, n][0]
        fs = [rng.uniform(0.5, 2.0, n).tolist() for _ in range(s)]
        cli = {"poly": poly_payload(s, n, terms), "inputs": fs, "P": P}
        warmup = [u for u in rounds[0] if len(u.poly.terms) < 300]
        keys = {(s, k) for (s, n), entries in polys.items() for P, _ in entries for k in P.terms}
        return Plan(rounds, warmup, cli, len(keys))

    def run_unit(self, prog, u):
        P = u.poly
        direct = P.multilinear(*u.fs)
        black = prog.pkg.polarize_blackbox(P, u.fs)
        return direct, black, P(u.f), P.multilinear(*([u.f] * u.s))

    def check_unit(self, prog, u, out):
        tol = prog.pkg.DEFAULT_TOLERANCES
        direct, black, value, diagonal = out
        if residual(black, direct, tol.relative_switch) > tol.polarization_rel:
            raise CheckFailed(f"polarization disagrees with the form at (s, n) = ({u.s}, {u.n})")
        if residual(value, diagonal, tol.relative_switch) > tol.identity_rel:
            raise CheckFailed(f"P(f) != form(f, .., f) at (s, n) = ({u.s}, {u.n})")
        return 1

    def digest_item(self, u, out):
        return "|".join(repr(float(np.asarray(v).ravel()[0])) for v in out)

    def cli_argv(self, plan, workdir):
        poly, inputs = workdir / "forms_poly.json", workdir / "forms_inputs.json"
        poly.write_text(json.dumps(plan.cli["poly"]))
        inputs.write_text(json.dumps(plan.cli["inputs"]))
        return ["poly", "multilinear", "--poly", str(poly), "--inputs", str(inputs)]

    def check_cli(self, prog, plan, stdout):
        value = _json(stdout).get("value")
        fs = [prog.pkg.PositiveVector(v) for v in plan.cli["inputs"]]
        expect = plan.cli["P"].multilinear(*fs)
        tol = prog.pkg.DEFAULT_TOLERANCES
        if residual(value, expect, tol.relative_switch) > tol.polarization_rel:
            raise CheckFailed(f"poly multilinear printed {value}, expected {expect.tolist()}")


# -- routes --------------------------------------------------------------------


@dataclass
class RoutesUnit:
    fs: list
    partitions: list


LADDER = (8, 16, 32, 64, 128)
LOG_WIDTH = 0.5


def check_routes(closed, lagrange, grids) -> None:
    """Closed form vs Lagrange to 1e-9, and the grid ladder's three properties."""
    c = finite(closed, "closed form")
    if np.any(np.abs(finite(lagrange, "lagrange value") - c) > 1e-9 * np.abs(c)):
        raise CheckFailed("lagrange route disagrees with the closed form")
    prev = None
    for m, (value, bound) in zip(LADDER, grids):
        g = finite(value, f"grid value at m={m}")
        b = float(finite(bound, f"grid bound at m={m}")[0])
        if np.any(g < c * (1 - 1e-12)):
            raise CheckFailed(f"grid value below the closed form at m={m}")
        if np.any(g - c > b + 1e-12 * c):
            raise CheckFailed(f"grid value outside its reported bound at m={m}")
        if prev is not None and np.any(g > prev * (1 + 1e-14)):
            raise CheckFailed(f"grid value rose when m doubled to {m}")
        prev = g


class Routes(Workload):
    """Harmonic and weighted-geometric means through every route."""

    name = "routes"
    required_layers = ("means.closed", "means.lagrange", "means.grid", "partitions", "cli.main")
    trace_rounds = 24
    SLOTS = ((2, 3), (3, 2), (3, 4))  # (arity, dimension)
    POOL = 1200

    def plan(self, prog, rng):
        PV = prog.pkg.PositiveVector
        cps = {k: [prog.pkg.CompletePartition(p, sum(p)) for p in parts]
               for k, parts in COMPLETE_BY_PARTS.items()}
        rounds = [
            [RoutesUnit([PV(rng.uniform(0.9, 1.3, n)) for _ in range(k)], cps[k])
             for k, n in self.SLOTS]
            for _ in range(self.POOL)
        ]
        cli = {"inputs": [rng.uniform(0.9, 1.3, 4).tolist() for _ in range(3)], "parts": (2, 1, 1)}
        return Plan(rounds, rounds[0], cli)

    def run_unit(self, prog, u):
        oa = prog.pkg
        k = len(u.fs)
        closed = oa.harmonic_mean(u.fs)
        lag = oa.harmonic_mean_via_infimum(u.fs, oa.InfimumSpec("harmonic", arity=k), "lagrange")
        grids = [oa.harmonic_mean_via_infimum(
            u.fs, oa.InfimumSpec("harmonic", arity=k, resolution=m), "grid") for m in LADDER]
        out = [(closed, lag, grids)]
        for cp in u.partitions:
            w = oa.weights(cp)
            closed = oa.weighted_geometric_mean(w, u.fs)
            lag = oa.wgm_via_infimum(w, u.fs, oa.InfimumSpec("weighted_geometric", weights=w),
                                     "lagrange")
            grids = [oa.wgm_via_infimum(
                w, u.fs, oa.InfimumSpec("weighted_geometric", weights=w, resolution=m,
                                        log_width=LOG_WIDTH), "grid") for m in LADDER]
            out.append((closed, lag, grids))
        return out

    def nominal_ops(self, u):
        return (1 + len(u.partitions)) * (2 + len(LADDER))

    def check_unit(self, prog, u, out):
        for closed, lag, grids in out:
            check_routes(closed.to_array(), lag.value.to_array(),
                         [(g.value.to_array(), g.residual_bound) for g in grids])
        return self.nominal_ops(u)

    def digest_item(self, u, out):
        return "|".join(repr(float(g.value.to_array()[0])) for _, _, grids in out for g in grids)

    def cli_argv(self, plan, workdir):
        path = workdir / "routes_inputs.json"
        path.write_text(json.dumps(plan.cli["inputs"]))
        parts = ",".join(str(p) for p in plan.cli["parts"])
        return ["means", "eval", "--mean", "wgm", "--weights", parts, "--method", "grid",
                "--resolution", str(LADDER[-1]), "--log-width", str(LOG_WIDTH),
                "--inputs", str(path)]

    def check_cli(self, prog, plan, stdout):
        payload = _json(stdout)
        oa = prog.pkg
        parts = plan.cli["parts"]
        w = oa.weights(oa.CompletePartition(parts, sum(parts)))
        closed = oa.weighted_geometric_mean(w, [oa.PositiveVector(v) for v in plan.cli["inputs"]])
        c = closed.to_array()
        g = finite(payload.get("value"), "CLI grid value")
        b = float(finite(payload.get("residual_bound"), "CLI grid bound")[0])
        if payload.get("method") != "grid" or np.any(g < c * (1 - 1e-12)) or np.any(g - c > b + 1e-12 * c):
            raise CheckFailed(f"means eval printed {payload}, closed form {c.tolist()}")


WORKLOADS = {w.name: w for w in (Sweep(), Falsify(), Forms(), Routes())}
