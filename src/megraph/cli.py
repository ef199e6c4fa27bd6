"""Command-line interface.

Subcommands: check, interp, rewrite, saturate, normalize, extract,
import-egraph, export-dot.  Results go to stdout, diagnostics to stderr;
exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import sys
from typing import Optional

import click

from .core import Signature
from .cospan import is_mda_well_typed, validate_cospan
from .egraph import EGraphError, translate
from .engine import (
    EngineError,
    Strategy,
    CostModel,
    export_dot,
    extract,
    normalize,
    parse_costs,
    parse_rules,
    saturate,
)
from .rewrite import RuleError, apply, find_matches
from .serialize import (
    SerializationError,
    dumps_cospan,
    loads_cospan,
    loads_egraph,
)
from .term import (
    TermSyntaxError,
    TermTypeError,
    interpret,
    parse,
    parse_signature,
    print_term,
)


class ValidationFailure(click.ClickException):
    exit_code = 1


def _fail(message: str) -> "ValidationFailure":
    return ValidationFailure(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc


def _load_cospan(path: str):
    try:
        return loads_cospan(_read(path))
    except SerializationError as exc:
        raise _fail(str(exc)) from exc


def _violations(c, sig: Optional[Signature] = None) -> list[str]:
    return validate_cospan(c, sig) + is_mda_well_typed(c)


def _load_valid_cospan(path: str, sig: Optional[Signature] = None):
    """Load a diagram that the library operations can work on (typed by
    ``sig`` when given); exit 1 listing the violated conditions otherwise."""
    c = _load_cospan(path)
    report = _violations(c, sig)
    if report:
        raise _fail("\n".join([f"{path}: not a well-formed diagram"] + report))
    return c


def _load_sig(path: str, cartesian: bool) -> Signature:
    try:
        return parse_signature(_read(path), cartesian=cartesian)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


@click.group()
def main() -> None:
    """Monoidal e-graphs: hierarchical hypergraph rewriting toolkit."""


@main.command()
@click.argument("graph", type=click.Path())
@click.option("--sig", "sig_path", type=click.Path(), default=None,
              help="Signature file for generator typing checks.")
@click.option("--cartesian", is_flag=True, help="Enable copy/delete generators.")
def check(graph: str, sig_path: str, cartesian: bool) -> None:
    """Validate a serialized diagram; exit 1 listing violated conditions."""
    c = _load_cospan(graph)
    sig = _load_sig(sig_path, cartesian) if sig_path else None
    report = _violations(c, sig)
    if report:
        for line in report:
            click.echo(line, err=True)
        sys.exit(1)
    click.echo("ok")


@main.command()
@click.argument("term_text", metavar="TERM")
@click.option("--sig", "sig_path", type=click.Path(), required=True)
@click.option("--cartesian", is_flag=True)
def interp(term_text: str, sig_path: str, cartesian: bool) -> None:
    """Interpret a term and print the serialized diagram."""
    sig = _load_sig(sig_path, cartesian)
    try:
        t = parse(term_text)
        c = interpret(t, sig)
    except (TermSyntaxError, TermTypeError) as exc:
        raise _fail(str(exc)) from exc
    click.echo(dumps_cospan(c), nl=False)


@main.command()
@click.argument("graph", type=click.Path())
@click.option("--rules", "rules_path", type=click.Path(), required=True)
@click.option("--sig", "sig_path", type=click.Path(), required=True)
@click.option("--cartesian", is_flag=True)
@click.option("--step", "mode", flag_value="step", default=True,
              help="Apply exactly one deterministic step (default).")
@click.option("--all", "mode", flag_value="all",
              help="Apply steps to a fixpoint (bounded).")
@click.option("--budget", type=int, default=1000, show_default=True)
def rewrite(graph: str, rules_path: str, sig_path: str, cartesian: bool,
            mode: str, budget: int) -> None:
    """Apply rewrite rules to a diagram."""
    if budget < 0:
        raise _fail("--budget must be non-negative")
    sig = _load_sig(sig_path, cartesian)
    c = _load_valid_cospan(graph, sig)
    try:
        rules = parse_rules(_read(rules_path), sig)
    except (EngineError, RuleError, TermSyntaxError, TermTypeError) as exc:
        raise _fail(str(exc)) from exc
    steps = 0
    while steps < (1 if mode == "step" else budget):
        stepped = False
        for rule in rules:
            ms = find_matches(rule, c)
            if ms:
                c = apply(ms[0])
                steps += 1
                stepped = True
                break
        if not stepped:
            break
    click.echo(f"applied {steps} step(s)", err=True)
    click.echo(dumps_cospan(c), nl=False)


@main.command(name="saturate")
@click.argument("graph", type=click.Path())
@click.option("--rules", "rules_path", type=click.Path(), required=True)
@click.option("--sig", "sig_path", type=click.Path(), required=True)
@click.option("--cartesian", is_flag=True)
@click.option("--max-steps", type=int, default=100, show_default=True)
@click.option("--bidirectional", is_flag=True)
def saturate_cmd(graph: str, rules_path: str, sig_path: str, cartesian: bool,
                 max_steps: int, bidirectional: bool) -> None:
    """Grow the diagram with all rule-derived alternatives."""
    sig = _load_sig(sig_path, cartesian)
    c = _load_valid_cospan(graph, sig)
    try:
        rules = parse_rules(_read(rules_path), sig)
        res = saturate(c, Strategy(rules=rules, max_steps=max_steps,
                                   bidirectional=bidirectional))
    except (EngineError, RuleError, TermSyntaxError, TermTypeError) as exc:
        raise _fail(str(exc)) from exc
    if not res.saturated:
        click.echo(f"stopped after {res.steps} step(s) before fixpoint", err=True)
    else:
        click.echo(f"saturated in {res.steps} step(s)", err=True)
    click.echo(dumps_cospan(res.result), nl=False)


@main.command(name="normalize")
@click.argument("graph", type=click.Path())
@click.option("--budget", type=int, default=10_000, show_default=True)
def normalize_cmd(graph: str, budget: int) -> None:
    """Drive structural rules to the box-free-alternatives normal form."""
    c = _load_valid_cospan(graph)
    try:
        res = normalize(c, budget=budget)
    except EngineError as exc:
        raise _fail(str(exc)) from exc
    click.echo(dumps_cospan(res), nl=False)


@main.command(name="extract")
@click.argument("graph", type=click.Path())
@click.option("--costs", "costs_path", type=click.Path(), default=None,
              help="Cost file with `name = cost` lines (default: 1 per edge).")
def extract_cmd(graph: str, costs_path: str) -> None:
    """Print a cheapest term represented by the diagram."""
    c = _load_valid_cospan(graph)
    try:
        model = parse_costs(_read(costs_path)) if costs_path else CostModel()
        t = extract(c, model)
    except EngineError as exc:
        raise _fail(str(exc)) from exc
    click.echo(print_term(t))


@main.command(name="import-egraph")
@click.argument("egraph_file", type=click.Path())
@click.option("--sig", "sig_path", type=click.Path(), required=True)
def import_egraph(egraph_file: str, sig_path: str) -> None:
    """Translate a classical e-graph into a diagram."""
    sig = _load_sig(sig_path, cartesian=True)
    try:
        eg = loads_egraph(_read(egraph_file))
        c = translate(eg, sig)
    except (SerializationError, EGraphError) as exc:
        raise _fail(str(exc)) from exc
    click.echo(dumps_cospan(c), nl=False)


@main.command(name="export-dot")
@click.argument("graph", type=click.Path())
def export_dot_cmd(graph: str) -> None:
    """Print a DOT rendering with alternatives as nested clusters."""
    c = _load_cospan(graph)
    report = validate_cospan(c)
    if report:
        for line in report:
            click.echo(line, err=True)
        sys.exit(1)
    click.echo(export_dot(c), nl=False)


if __name__ == "__main__":  # pragma: no cover
    main()
