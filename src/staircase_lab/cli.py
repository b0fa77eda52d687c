"""Batch command-line front end.

Every command writes deterministic machine-readable output: CSV by
default with a ``--json`` alternative where tabular, JSON where the
result is a structured report.  Exact rationals are printed as p/q
and never silently rounded; the only float columns are the ones
documented as approximations: total variation distances, and the
``r1``..``r4`` columns of ``converge``, each the nearest float to an
exact factorial moment.  Exit code 2 flags bad usage or a value the
library refuses, 3 a self-test mismatch.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import List, Sequence, Tuple

import click

from . import asep, constraints, dpcount, enumeration, formulas, moments, sampler
from .core import _DIAGONALS, STATISTIC_NAMES
from .measure import FourWeights, Weights, parse_rational


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ValueError as exc:
            self.fail(f"{value!r} is not an exact rational: {exc}", param, ctx)


RATIONAL = RationalType()


def _ints(text: str, what: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise click.UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _rationals(text: str, option: str, count: str, names: str) -> List[Fraction]:
    parts = text.split(",")
    if len(parts) != len(names.split(",")):
        raise click.UsageError(f"{option} needs exactly {count} rationals {names}")
    return [RATIONAL.convert(part, None, None) for part in parts]


def _emit(header: Sequence[str], rows: Sequence[Sequence], as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(
            [{key: cell if isinstance(cell, (int, float, str)) else str(cell)
              for key, cell in zip(header, row)} for row in rows], indent=2
        ))
    else:
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(str(cell) for cell in row))


class _Command(click.Command):
    """A command whose library refusals exit 2 with the library's message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main():
    """Exact distributions, samplers, and cross-checks for weighted
    staircase tableaux."""
    # exact rationals print in full, past Python's cap on int-to-str digits
    # (3.10.7 on); set here, not on import, so the library leaves it alone
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command()
@click.option("--n", type=int, required=True, help="Tableau size.")
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--four", default=None, metavar="A,B,G,D",
              help="Four symbol weights; overrides --a/--b.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of CSV.")
def count(n, a, b, four, as_json):
    """Partition value: closed product and, at small sizes, brute force."""
    if four is not None:
        w = FourWeights(*_rationals(four, "--four", "four", "A,B,G,D"))
    else:
        w = Weights(a, b)
    rows: List[Tuple[str, Fraction]] = [("closed", formulas.partition_closed(n, w))]
    if 1 <= n <= enumeration.N_ENUM:
        rows.append(("brute", enumeration.brute_partition(n, w)))
    _emit(("form", "value"), rows, as_json)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--box", required=True, metavar="I,J", help="Box as row,column.")
@click.option("--json", "as_json", is_flag=True)
def prob(n, a, b, box, as_json):
    """Exact single-box cell law."""
    law = formulas.box_law(n, Weights(a, b), _ints(box, "--box"))
    _emit(("cell", "probability"),
          [("alpha", law.alpha), ("beta", law.beta), ("empty", law.empty)],
          as_json)


@main.command()
@click.option("--diag", type=click.Choice([str(d) for d in _DIAGONALS]), required=True)
@click.option("--kind", type=click.Choice(formulas._KINDS), required=True)
@click.option("--cols", required=True, metavar="J1,J2,..")
@click.option("--n", type=int, required=True)
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def joint(diag, kind, cols, n, a, b, as_json):
    """Joint diagonal cell law by every applicable route."""
    columns = _ints(cols, "--cols")
    w = Weights(a, b)
    rows = []
    if diag == "2":
        closed = (formulas.second_diag_joint_alpha if kind == "alpha"
                  else formulas.second_diag_joint_nonempty)(n, w, columns)
        rows.append(("closed", closed.value, closed.reason or "exact"))
    else:
        term = formulas.third_diag_main_term(n, w, columns, kind)
        note = term.reason or f"remainder_order_{term.remainder_exponent}"
        if term.order_only:
            note += ",order_only"
        rows.append(("main_term", term.value, note))
    event = (constraints.second_diag_event if diag == "2"
             else constraints.third_diag_event)(n, columns, constraints.Requirement(kind))
    if n <= dpcount.N_DP:
        rows.append(("exact_dp", dpcount.event_prob(n, w, event), "exact"))
    if n <= enumeration._CACHE_MAX:
        rows.append(("oracle", enumeration.oracle_event_prob(n, w, event), "exact"))
    _emit(("route", "value", "note"), rows, as_json)


@main.command("moments")
@click.option("--diag", type=click.Choice([str(d) for d in _DIAGONALS]), required=True)
@click.option("--kind", type=click.Choice(moments._KINDS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--r", "order", type=int, required=True, help="Highest moment order.")
@click.option("--mode", type=click.Choice(moments._MODES),
              default="exact_dp", show_default=True,
              help="Third-diagonal route; ignored for --diag 2.")
@click.option("--json", "as_json", is_flag=True)
def moments_cmd(diag, kind, n, a, b, order, mode, as_json):
    """Exact factorial moments of a diagonal count."""
    w = Weights(a, b)
    if diag == "2":
        values = moments.factorial_moments_second_diag(n, w, kind, order)
    else:
        values = moments.factorial_moments_third_diag(n, w, kind, order, mode)
    _emit(("r", "value"), list(enumerate(values, start=1)), as_json)


@main.command()
@click.option("--stat", type=click.Choice(list(STATISTIC_NAMES)), required=True)
@click.option("--n", type=int, required=True)
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def pmf(stat, n, a, b, as_json):
    """Exact law of a named statistic."""
    law = moments.exact_statistic_pmf(n, Weights(a, b), stat)
    _emit(("k", "probability"), law.items(), as_json)


@main.command()
@click.option("--stat", type=click.Choice(sorted(moments.POISSON_RATES)),
              required=True)
@click.option("--ns", required=True, metavar="N1,N2,..")
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def converge(stat, ns, a, b, as_json):
    """Moment table and Poisson distances across sizes."""
    rows = moments.convergence_report(_ints(ns, "--ns"), Weights(a, b), stat)
    _emit(
        ("n", "r1", "r2", "r3", "r4", "tv"),
        [(r.n, *[repr(float(mu)) for mu in r.moments], repr(r.tv)) for r in rows],
        as_json,
    )


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--a", type=RATIONAL, default="1", show_default=True)
@click.option("--b", type=RATIONAL, default="1", show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--seed", type=int, required=True,
              help="Explicit seed; there is no default on purpose.")
@click.option("--method", type=click.Choice(sampler._METHODS),
              default="chain_rule", show_default=True)
def sample(n, a, b, count, seed, method):
    """Draw tableaux; a JSON header line, then one text block each."""
    w = Weights(a, b)
    draws = sampler.sample_many(n, w, random.Random(seed), count, method)
    click.echo(json.dumps({
        "n": n, "a": str(w.a), "b": str(w.b), "seed": seed,
        "method": method, "count": count,
    }, sort_keys=True))
    for t in draws:
        click.echo(t.to_text())
        click.echo("")


@main.command("asep-verify")
@click.option("--n", type=int, required=True)
@click.option("--rates", required=True, metavar="A,B,G,D,U,Q",
              help="alpha,beta,gamma,delta,u,q as rationals.")
def asep_verify(n, rates):
    """Cross-validate the tableaux route against the generator: its exact
    balance equations certify a tableaux law, or else it solves."""
    values = _rationals(rates, "--rates", "six", "A,B,G,D,U,Q")
    params = asep.AsepParams(*values[:4], u=values[4], q=values[5])
    report = asep.cross_validate(n, params)
    click.echo(json.dumps(report, indent=2))


def _selftest_suites():
    ones = Weights(1, 1)
    mixed = Weights(Fraction(1, 2), 3)
    fractional = Weights(Fraction(2, 3), Fraction(5, 4))  # q > 1 on both sides

    def counts():
        return all(enumeration.count_tableaux(n) == math.factorial(n + 1)
                   for n in range(1, 6))

    def partitions():
        return all(
            enumeration.brute_partition(n, w) == formulas.partition_closed(n, w)
            for n in range(1, 6) for w in (ones, mixed)
        )

    def box_laws():
        for n in (5, 6):
            for box in ((1, n), (2, 3), (3, 1)):
                for w in (mixed, fractional):
                    law = formulas.box_law(n, w, box)
                    got = dpcount.conditional_cell_law(n, w, box)
                    if (law.alpha, law.beta, law.empty) != (got.alpha, got.beta, got.empty):
                        return False
        return True

    def conditional_laws():
        # under nonempty events: each cell's law times P(event) against
        # the enumerated probability of the event with the cell fixed
        req = constraints.Requirement
        for n in (4, 5):
            events = ({(2, 2): req.MUST_NONEMPTY},
                      {(1, 1): req.MUST_ALPHA, (2, n - 2): req.MUST_EMPTY})
            for w in (mixed, fractional):
                for event in events:
                    given = constraints.ConstraintSet.of(n, event)
                    p_given = enumeration.oracle_event_prob(n, w, given)
                    if p_given == 0:
                        return False
                    for box in ((1, n), (n, 1), (1, 2), (3, 2)):
                        law = dpcount.conditional_cell_law(n, w, box, given)
                        for cell, got in ((req.MUST_ALPHA, law.alpha), (req.MUST_BETA, law.beta),
                                          (req.MUST_EMPTY, law.empty)):
                            joint = constraints.ConstraintSet.of(n, {**event, box: cell})
                            if enumeration.oracle_event_prob(n, w, joint) != got * p_given:
                                return False
        return True

    def statistic_laws():
        return all(
            dpcount.statistic_pmf(4, w, s) == enumeration.oracle_statistic_pmf(4, w, s)
            for w in (ones, mixed, fractional) for s in STATISTIC_NAMES
        )

    def moment_formulas():
        for n in (4, 5):
            for kind, stat in (("alpha", "A2"), ("nonempty", "X2")):
                R = moments.second_diag_max_count(n)
                got = moments.factorial_moments_second_diag(n, mixed, kind, R)
                oracle = enumeration.oracle_statistic_pmf(n, mixed, stat)
                if got != [oracle.factorial_moment(r) for r in range(1, R + 1)]:
                    return False
        return True

    def inversion():
        return all(
            moments.exact_statistic_pmf(8, mixed, s) == dpcount.statistic_pmf(8, mixed, s)
            for s in ("A2", "B2", "X2")
        )

    def convergence_rows():
        ns = range(6, 11)
        for stat in ("A2", "X2", "A3"):
            for n, row in zip(ns, moments.convergence_report(ns, mixed, stat)):
                law = dpcount.statistic_pmf(n, mixed, stat)
                if (row.moments != tuple(law.factorial_moment(r) for r in range(1, 5))
                        or row.tv != moments.tv_to_poisson(law, moments.POISSON_RATES[stat])):
                    return False
        return True

    def sampler_chain():
        rng = random.Random(7)
        draws = [t for _ in range(20)
                 for t in sampler.sample_many(4, mixed, rng, 200, "chain_rule")]
        seen = Counter(t.rows for t in draws)
        laws = [(seen[t.rows], float(mixed.prob(t))) for t in enumeration.all_tableaux(4)]
        # every tableau's count within 5 sigma of its exact probability
        return all(t.is_valid for t in draws) and all(
            abs(k - len(draws) * p) <= 5 * math.sqrt(len(draws) * p * (1 - p))
            for k, p in laws)

    def asep_bridge():
        p = asep.AsepParams(2, 1, 3, 1, u=1, q=Fraction(1, 2))
        return all("alpha_delta" in asep.cross_validate(n, p)["matching_conventions"]
                   for n in range(1, 9))

    def ssep_bridge():
        # at u = q = 1, gamma = delta = 0 the stationary law is the main
        # diagonal's under Weights(1/alpha, 1/beta): a filled site i is an
        # alpha at box (i, n + 1 - i), an empty one a beta
        req = constraints.Requirement
        alpha, beta = Fraction(1, 2), Fraction(7, 5)
        p = asep.AsepParams(alpha, beta, 0, 0, u=1, q=1)
        w = Weights(1 / alpha, 1 / beta)
        for n in range(1, 6):
            law = [dpcount.event_prob(n, w, constraints.ConstraintSet.of(n, {
                (i, n + 1 - i): req.MUST_ALPHA if s >> (n - i) & 1 else req.MUST_BETA
                for i in range(1, n + 1)})) for s in range(1 << n)]
            if list(asep.steady_state_via_generator(n, p).masses) != law:
                return False
        return True

    return [
        ("counts_match_factorial", counts),
        ("brute_partition_matches_closed", partitions),
        ("box_laws_match_counting_engine", box_laws),
        ("conditional_laws_match_oracle", conditional_laws),
        ("statistic_laws_match_oracle", statistic_laws),
        ("moment_formulas_match_oracle", moment_formulas),
        ("moment_inversion_matches_counting_engine", inversion),
        ("convergence_rows", convergence_rows),
        ("chain_sampler_emits_valid_tableaux", sampler_chain),
        ("asep_routes_agree", asep_bridge),
        ("ssep_law_matches_counting_engine", ssep_bridge),
    ]


@main.command()
def selftest():
    """Run the oracle-equivalence suites; exit 3 on any mismatch."""
    failed = False
    for name, check in _selftest_suites():
        ok = check()
        failed = failed or not ok
        click.echo(f"{'ok' if ok else 'MISMATCH'} {name}")
    if failed:
        sys.exit(3)


if __name__ == "__main__":  # pragma: no cover - direct module execution
    main()
