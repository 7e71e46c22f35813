"""The benchmark's workloads: seeded inputs, execution and output checks.

Every workload is a closed loop with one client: it sends the next request
when the previous one has returned.  Requests come in rounds with a fixed
mix of kinds; round ``r`` draws its inputs from a generator seeded by the
workload name, the run's seed and ``r``, so a seed fixes every input.

* ``cli-cold`` -- ``steinmult.cli.main`` in-process, one fresh group per
  request as a CLI call builds: ``homology`` on the three GL(4) worked
  examples and on seeded coweights in B2, G2, A3 and B3, ``factors`` on a
  seeded twist in A3, B3 and A4, and two seeded ``kl`` pairs each in A4
  and D4.  The work sits in ``steinberg_jh``, ``kl`` and
  ``WeylGroup.multiply``, and no request shares state with another.
* ``structure-large`` -- ``omega``, ``complex``, ``yspace`` and
  ``double-layout`` through the CLI on A4, D4, A5 and F4 with seeded
  coweights and subsets, plus ``omega`` on the whole index set of F4.  Enumeration, canonical words, coset
  representatives, ``act_coweight`` and output formatting do the work;
  ``kl`` and ``steinberg_jh`` are never called.
* ``library-sweep`` -- ``steinmult.homology_bounds`` on one ``WeylGroup``
  per type, held across the run, for a stream of seeded coweights (two
  each in A3, G2 and B2 and one in B3 per round).  The layers are those of
  ``cli-cold``, but memos, interned elements and twists repeat across
  requests, so a cross-request cache helps here and not there.

``homology`` in A4, D4, F4 and A5 is left out: one A4 request alone takes
about 30 s.  C3 is left out because it costs and behaves like B3.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import steinmult
from steinmult import cli
from steinmult import (
    Coweight,
    WeylGroup,
    build_root_datum,
    cartan_type,
    fundamental_coweights,
    jh_multiplicity_oracle,
    kl_by_inversion,
)

from expected import GL4_HOMOLOGY
from reference import Reference, format_word, subsets_by_size


@dataclass
class Request:
    kind: str
    label: str
    argv: tuple[str, ...] = ()
    #: Simple-coroot coordinates, or the GL(4) tuple of a worked example.
    mu: tuple = ()
    subset: frozenset[int] = frozenset()
    #: The twist of ``factors``, or ``(x, w)`` of ``kl``, as canonical words.
    words: tuple[tuple[int, ...], ...] = ()
    output: object = None
    #: Latency as measured, and scaled to the reference machine speed.
    seconds: float = 0.0
    reference_seconds: float = 0.0
    failed: bool = False


def fresh_group(label: str) -> WeylGroup:
    return WeylGroup(build_root_datum(cartan_type(label)))


def seeded_mu(rng: random.Random, basis) -> tuple[Fraction, ...]:
    """A strictly dominant coweight: seeded positive rational combination of ``basis``."""
    coeffs = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in basis]
    return tuple(
        sum((c * b.coords[k] for c, b in zip(coeffs, basis)), Fraction(0))
        for k in range(len(basis))
    )


def mu_arg(mu) -> str:
    return ",".join(str(c) for c in mu)


def fail(req: Request, reason: str) -> None:
    req.failed = True
    print(f"check failed: {req.kind} {' '.join(req.argv) or req.label}: {reason}",
          file=sys.stderr)


class Workload:
    name = ""
    #: Rounds a ``--trace 1`` run replays, untraced, traced and untraced.
    traced_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.undetermined = 0
        self.homology_requests = 0

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{round_index}")

    def round_requests(self, round_index: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request) -> None:
        """Run one CLI request in-process, capturing its output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        req.output = out.getvalue()
        if code != 0:
            fail(req, f"exit code {code}: {err.getvalue().strip()}")

    def reset(self) -> None:
        """Return to the state right after set-up."""

    def digest(self, requests: list[Request], round_index: int) -> None:
        """Cheap checks and counts right after a round, outside its timing."""

    def final_check(self) -> None:
        """Expensive sampled checks after the measured rounds."""


def _homology_rows(req: Request):
    try:
        report = json.loads(req.output)
        return [(block["degree"], row) for block in report["degrees"]
                for row in block["factors"]]
    except (ValueError, KeyError, TypeError) as exc:
        fail(req, f"unreadable homology JSON ({exc})")
        return []


def _indices(names: list[str]) -> tuple[int, ...]:
    return tuple(int(name[1:]) for name in names)


_FACTOR_ROW = re.compile(r"^\[(\S+), \{([^}]*)\}, \{([^}]*)\}, (-?\d+)\]$")


def _parse_word(text: str) -> tuple[int, ...]:
    return () if text in ("1", "e") else tuple(int(t[1:]) for t in text.split("*"))


def _parse_set(text: str) -> frozenset[int]:
    return frozenset(int(t.strip()[1:]) for t in text.split(",") if t.strip())


class CliCold(Workload):
    name = "cli-cold"
    HOMOLOGY = ("B2", "G2", "A3", "B3")
    FACTORS = ("A3", "B3", "A4")
    KL = ("A4", "A4", "D4", "D4")
    #: Length of the ``w`` of a ``kl`` pair; ``x`` is a two-letter subword.
    KL_LENGTH = 8
    #: Rows re-checked against the oracle per sampled ``factors`` request,
    #: taken from the table and from the pairs the table leaves out.
    ORACLE_ROWS = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # A3 also serves the GL(4) examples, whose published lists name some
        # elements by non-canonical words.
        self.refs = {label: Reference(cartan_type(label).matrix)
                     for label in {"A3", *self.FACTORS, *self.KL}}
        canonical = self.refs["A3"].canonical
        self.gl4 = {
            gl: {degree: {(canonical(_parse_word(v)), levi, smooth)
                          for v, levi, smooth in rows}
                 for degree, rows in by_degree.items()}
            for gl, by_degree in GL4_HOMOLOGY.items()
        }
        self.bases = {label: fundamental_coweights(build_root_datum(cartan_type(label)))
                      for label in self.HOMOLOGY}
        self.sampled: list[Request] = []

    def round_requests(self, round_index: int) -> list[Request]:
        rng = self.rng(round_index)
        reqs = [
            Request("homology-gl4", "A3",
                    ("homology", "--gln", "4", "--mu", mu_arg(gl), "--json"), mu=gl)
            for gl in GL4_HOMOLOGY
        ]
        for label in self.HOMOLOGY:
            mu = seeded_mu(rng, self.bases[label])
            reqs.append(Request("homology", label,
                                ("homology", "--cartan", label, "--mu", mu_arg(mu), "--json"),
                                mu=mu))
        for label in self.FACTORS:
            twist = rng.choice(self.refs[label].words)
            reqs.append(Request("factors", label,
                                ("factors", "--cartan", label, "--w", format_word(twist)),
                                words=(twist,)))
        for label in self.KL:
            ref = self.refs[label]
            w = rng.choice([word for word in ref.words if len(word) == self.KL_LENGTH])
            i, j = sorted(rng.sample(range(len(w)), 2))
            x = ref.canonical((w[i], w[j]))
            reqs.append(Request("kl", label,
                                ("kl", "--cartan", label, "--x", format_word(x),
                                 "--w", format_word(w)),
                                words=(x, w)))
        return reqs

    def digest(self, requests: list[Request], round_index: int) -> None:
        for req in requests:
            if req.failed:
                continue
            if req.kind == "homology-gl4":
                self._check_gl4(req)
            elif req.kind == "homology":
                self._count_undetermined(req)
            elif req.kind == "factors":
                self._check_factor_rows(req)
            if req.kind.startswith("homology"):
                self.homology_requests += 1
        if round_index == 0:
            self.sampled = [req for req in requests
                            if req.kind in ("factors", "kl") and not req.failed]
        kept = {id(req) for req in self.sampled}
        for req in requests:
            if id(req) not in kept:
                req.output = None

    def _check_gl4(self, req: Request) -> None:
        expected = self.gl4[req.mu]
        canonical = self.refs["A3"].canonical
        found: dict[int, set] = {}
        for degree, row in _homology_rows(req):
            if not (row["pinned"] and row["mult_lo"] == row["mult_hi"] == 1):
                fail(req, f"factor {row} is not pinned to multiplicity 1")
                return
            found.setdefault(degree, set()).add(
                (canonical(_parse_word(row["v"])), _indices(row["I"]), _indices(row["J"])))
        if found != expected and not req.failed:
            fail(req, "homology factors differ from the published lists")

    def _count_undetermined(self, req: Request) -> None:
        for _, row in _homology_rows(req):
            if row["mult_lo"] > row["mult_hi"] or row["pinned"] != (
                    row["mult_lo"] == row["mult_hi"]):
                fail(req, f"malformed interval {row}")
                return
            self.undetermined += not row["pinned"]

    def _factor_rows(self, req: Request) -> dict | None:
        """Rows ``(v, J) -> (I, mult)`` of a ``factors`` table, or None if malformed."""
        rows = {}
        for line in req.output.splitlines():
            match = _FACTOR_ROW.match(line)
            if match is None:
                fail(req, f"unreadable row {line!r}")
                return None
            v, levi, smooth = (_parse_word(match[1]), _parse_set(match[2]),
                               _parse_set(match[3]))
            if (v, smooth) in rows:
                fail(req, f"repeated row {line!r}")
                return None
            rows[(v, smooth)] = (levi, int(match[4]))
        return rows

    def _check_factor_rows(self, req: Request) -> None:
        rows = self._factor_rows(req)
        if rows is None:
            return
        ref = self.refs[req.label]
        if not rows:
            fail(req, "empty factor table")
        for (v, smooth), (levi, mult) in rows.items():
            k = ref.index.get(v)
            if k is None or levi != ref.ascents[k] or not smooth <= levi or mult <= 0:
                fail(req, f"bad row for v={format_word(v)}")
                return

    def final_check(self) -> None:
        """Re-check round 0's ``kl`` and ``factors`` answers by independent routes.

        One seeded ``kl`` pair per type against ``kl_by_inversion``, and a
        seeded sample of each ``factors`` table, present rows and absent
        pairs alike, against ``jh_multiplicity_oracle``; all on groups
        built here, so no state is shared with the requests.
        """
        rng = random.Random(f"{self.name}/{self.seed}/check")
        groups: dict[str, WeylGroup] = {}

        def group(label: str) -> WeylGroup:
            if label not in groups:
                groups[label] = fresh_group(label)
            return groups[label]

        kl_requests = [req for req in self.sampled if req.kind == "kl"]
        for label in sorted({req.label for req in kl_requests}):
            req = rng.choice([r for r in kl_requests if r.label == label])
            g = group(label)
            x, w = (g.product_of(word) for word in req.words)
            expected = str(kl_by_inversion(g, w)[x])
            if req.output.strip() != expected:
                fail(req, f"printed {req.output.strip()!r}, oracle gives {expected!r}")
        for req in self.sampled:
            if req.kind == "factors":
                self._oracle_check(req, group(req.label), rng)

    def _oracle_check(self, req: Request, g: WeylGroup, rng: random.Random) -> None:
        rows = self._factor_rows(req)
        if rows is None:
            return
        ref = self.refs[req.label]
        absent = [
            (v, smooth)
            for v, ascents in zip(ref.words, ref.ascents)
            for smooth in subsets_by_size(ascents)
            if (v, smooth) not in rows
        ]
        present = sorted(rows, key=lambda pair: (ref.index[pair[0]], sorted(pair[1])))
        picks = rng.sample(present, min(self.ORACLE_ROWS, len(present)))
        picks += rng.sample(absent, min(self.ORACLE_ROWS, len(absent)))
        w = g.product_of(req.words[0])
        for v, smooth in picks:
            mult = rows[(v, smooth)][1] if (v, smooth) in rows else 0
            oracle = jh_multiplicity_oracle(g, w, g.product_of(v), smooth)
            if oracle != mult:
                fail(req, f"row ({format_word(v)}, {sorted(smooth)}) printed {mult}, "
                          f"oracle gives {oracle}")
                return


class StructureLarge(Workload):
    name = "structure-large"
    LABELS = ("A4", "D4", "A5", "F4")
    COMMANDS = ("omega", "complex", "yspace", "double-layout")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bases = {label: fundamental_coweights(build_root_datum(cartan_type(label)))
                      for label in self.LABELS}
        self.refs: dict[str, Reference] = {}

    def round_requests(self, round_index: int) -> list[Request]:
        rng = self.rng(round_index)
        reqs = []
        for label in self.LABELS:
            rank = len(self.bases[label])
            for command in self.COMMANDS:
                mu = seeded_mu(rng, self.bases[label])
                argv = (command, "--cartan", label, "--mu", mu_arg(mu))
                subset = frozenset()
                if command in ("omega", "yspace"):
                    subset = frozenset(rng.sample(range(1, rank + 1), rng.randrange(rank)))
                    argv += ("--subset", ",".join(str(i) for i in sorted(subset)))
                reqs.append(Request(command, label, argv, mu=mu, subset=subset))
        # ``omega`` on the whole index set lists all 1152 elements of F4, so it
        # weighs the formatting of canonical words.  It also puts one more
        # request above the gap between the cheap A4 and D4 requests and the
        # A5 and F4 ones, so the median request falls inside a cluster of
        # latencies instead of straddling that gap.
        mu = seeded_mu(rng, self.bases["F4"])
        reqs.append(Request("omega", "F4", ("omega", "--cartan", "F4", "--mu", mu_arg(mu),
                                            "--subset", "1,2,3,4"),
                            mu=mu, subset=frozenset((1, 2, 3, 4))))
        return reqs

    def digest(self, requests: list[Request], round_index: int) -> None:
        """Compare every output byte for byte with the reference's text."""
        for req in requests:
            if req.failed:
                continue
            if req.label not in self.refs:
                self.refs[req.label] = Reference(cartan_type(req.label).matrix)
            ref = self.refs[req.label]
            if req.kind == "omega":
                expected = ref.omega_text(req.mu, req.subset)
            elif req.kind == "yspace":
                expected = ref.yspace_text(req.mu, req.subset)
            elif req.kind == "complex":
                expected = ref.complex_text(req.mu)
            else:
                expected = ref.double_layout_text(req.mu)
            if req.output != expected:
                fail(req, "output differs from the reference")
            req.output = None


class LibrarySweep(Workload):
    name = "library-sweep"
    traced_rounds = 3
    MIX = ("A3", "A3", "B3", "G2", "G2", "B2", "B2")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bases = {label: fundamental_coweights(build_root_datum(cartan_type(label)))
                      for label in set(self.MIX)}
        self.latest: list[Request] = []
        self.reset()

    def reset(self) -> None:
        self.groups = {label: fresh_group(label) for label in sorted(set(self.MIX))}

    def round_requests(self, round_index: int) -> list[Request]:
        rng = self.rng(round_index)
        return [Request("sweep", label, mu=seeded_mu(rng, self.bases[label]))
                for label in self.MIX]

    def execute(self, req: Request) -> None:
        req.output = steinmult.homology_bounds(self.groups[req.label], Coweight(req.mu))

    def digest(self, requests: list[Request], round_index: int) -> None:
        for req in requests:
            if not req.failed:
                self.undetermined += len(req.output.undetermined)
                self.homology_requests += 1
        for req in self.latest:
            req.output = None
        self.latest = [req for req in requests if not req.failed]

    def final_check(self) -> None:
        """Recompute the last round cold, on fresh groups, and compare.

        A cache that outlives the inputs it was filled from shows up here
        as a difference between the held groups and fresh ones.
        """
        for req in self.latest:
            cold = steinmult.homology_bounds(fresh_group(req.label), Coweight(req.mu))
            if cold.to_json() != req.output.to_json():
                fail(req, "held-group result differs from a cold recomputation")


WORKLOADS = {cls.name: cls for cls in (CliCold, StructureLarge, LibrarySweep)}
