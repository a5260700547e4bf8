"""Command-line front end.

Exit codes: 0 for success / equivalent / valid, 1 for inequivalent /
counterexample / no model, 2 for usage or input errors.  Verdicts and
machine-readable output go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import sys

import click

from . import axioms, evaltree, invert, models, normalforms, scl, semantics, syntax


class _Main(click.Group):
    """The one error boundary: bad input exits 2 with an error message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            message = str(err)
        except RecursionError:
            message = "input nested too deeply"
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


def _alphabet(ctx, param, value):
    # Comma-separated atom names, so that beta or sigma can name atoms like a0.
    return value.split(",") if value is not None and "," in value else value


_LOGIC_CHOICE = click.Choice(list(semantics.LOGICS))
_ALPHABET = click.option("--alphabet", default=None, callback=_alphabet,
                         help="Atoms of sfel's beta: one per character, or comma-separated.")


@click.group(cls=_Main)
def main():
    """Evaluation trees and normal forms for left-sequential logics."""


@main.command()
@click.argument("expr")
@click.option("--fully-parenthesized", is_flag=True)
def parse(expr, fully_parenthesized):
    """Parse EXPR and print it back."""
    e = syntax.parse(expr)
    click.echo(syntax.print_expr(e, fully_parenthesized=fully_parenthesized))


@main.command()
@click.option("--logic", "logic_name", type=_LOGIC_CHOICE, default="ffel", show_default=True)
@_ALPHABET
@click.option("--format", "fmt", type=click.Choice(["ascii", "dot", "json"]), default="ascii")
@click.argument("expr")
def tree(logic_name, alphabet, fmt, expr):
    """Print the evaluation tree of EXPR in a logic."""
    logic = semantics.logic_by_name(logic_name, alphabet)
    t = semantics.evaluate(logic, syntax.parse(expr))
    click.echo(evaltree.render(t, fmt))


@main.command()
@click.option("--logic", "logic_name", type=_LOGIC_CHOICE, default="ffel", show_default=True)
@_ALPHABET
@click.argument("expr1")
@click.argument("expr2")
def equiv(logic_name, alphabet, expr1, expr2):
    """Decide whether two expressions are equivalent in a logic."""
    logic = semantics.logic_by_name(logic_name, alphabet)
    result = semantics.equiv(logic, syntax.parse(expr1), syntax.parse(expr2))
    if result:
        click.echo("equivalent")
        return
    left, right = (evaltree.render(t, "ascii") for t in (result.left_tree, result.right_tree))
    click.echo(f"NOT equivalent\nleft tree:\n{left}\nright tree:\n{right}")
    sys.exit(1)


@main.command()
@click.option("--logic", "logic_name", type=_LOGIC_CHOICE, default="ffel", show_default=True)
@click.option("--fully-parenthesized", is_flag=True)
@click.argument("expr")
def normalize(logic_name, fully_parenthesized, expr):
    """Print the normal form of EXPR in a logic."""
    logic = semantics.logic_by_name(logic_name)
    normal_form = normalforms.NORMAL_FORMS.get(logic)
    if normal_form is None:
        raise ValueError(f"{logic} has no normal forms; compare trees instead")
    out = normal_form(syntax.parse(expr))
    click.echo(syntax.print_expr(out, fully_parenthesized=fully_parenthesized))


@main.command(name="invert")
@click.option("--fully-parenthesized", is_flag=True)
@click.argument("tree_json")
def invert_cmd(fully_parenthesized, tree_json):
    """Reconstruct the normal-form term of an evaluation tree (JSON)."""
    t = evaltree.tree_from_json(tree_json)
    try:
        e = invert.g(t)
    except invert.NotInImage as err:
        click.echo(f"not in image: {err}")
        sys.exit(1)
    click.echo(syntax.print_expr(e, fully_parenthesized=fully_parenthesized))


def _parse_kv(text: str, spec: dict) -> dict:
    out = dict()
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k not in spec:
            raise ValueError(f"unknown key {k!r} (expected {', '.join(spec)})")
        out[k] = int(v)
    return out


@main.command(name="axioms")
@click.option("--logic", "logic_name", type=_LOGIC_CHOICE, default=None,
              help="Defaults to the set's own logic.")
@click.option("--set", "set_name", required=True)
@click.option("--exhaustive", "exhaustive_opt", default=None, metavar="atoms=K,depth=D")
@click.option("--random", "random_opt", default=None, metavar="n=N,seed=S")
def axioms_cmd(logic_name, set_name, exhaustive_opt, random_opt):
    """Check an axiom set on closed instances."""
    axset = axioms.BUILTIN_SETS.get(set_name)
    if axset is None:
        raise ValueError(f"unknown set {set_name!r} (expected one of "
                         f"{', '.join(sorted(axioms.BUILTIN_SETS))})")
    logic = axioms.OWN_LOGIC[set_name] if logic_name is None else semantics.logic_by_name(logic_name)
    if exhaustive_opt and random_opt:
        raise ValueError("choose one of --exhaustive and --random")
    if random_opt:
        kv = _parse_kv(random_opt, {"n": int, "seed": int})
        strategy = axioms.Random(count=kv.get("n", 100), seed=kv.get("seed", 0))
    else:
        kv = _parse_kv(exhaustive_opt, {"atoms": int, "depth": int}) if exhaustive_opt else {}
        natoms, depth = kv.get("atoms", 2), kv.get("depth", 3)
        if not 0 <= natoms <= 8:
            raise ValueError(f"atoms must be between 0 and 8, got {natoms}")
        # Exhaustive refuses a depth below 1; depth 4 over two atoms is 21,050,320 terms.
        if depth > 3:
            raise ValueError(f"depth must be at most 3, got {depth}")
        strategy = axioms.Exhaustive(atoms=tuple("abcdefgh"[:natoms]), depth=depth)
    report = axioms.check_set(logic, axset, strategy)
    for v in report:
        if v:
            note = f" ({v.note})" if v.note else ""
            click.echo(f"{v.equation.name}: valid-on-sample [{v.instances} instances]{note}")
        else:
            witness = ", ".join(
                f"{n} -> {syntax.print_expr(t)}" for n, t in sorted(v.assignment.items())
            )
            click.echo(f"{v.equation.name}: counterexample [{witness}]")
    if not report.all_valid:
        sys.exit(1)


@main.command(name="models")
@click.option("--satisfy", required=True, help="Comma-separated set names.")
@click.option("--drop", default=None, help="Axiom name to violate.")
@click.option("--max-size", default=3, show_default=True)
@click.option("--budget", default=60.0, show_default=True)
def models_cmd(satisfy, drop, max_size, budget):
    """Search for a finite model of the given sets."""
    equations = []
    for name in satisfy.split(","):
        axset = axioms.BUILTIN_SETS.get(name.strip())
        if axset is None:
            raise ValueError(f"unknown set {name.strip()!r}")
        equations.extend(axset)
    violate = None
    if drop is not None:
        matches = [eq for eq in equations if eq.name == drop]
        if not matches:
            raise ValueError(f"no axiom named {drop!r} in the given sets")
        violate = matches[0]
        equations = [eq for eq in equations if eq.name != drop]
    result = models.find_model(equations, violate, max_size, budget)
    if result:
        click.echo(result.model.to_json())
    else:
        click.echo(result.status)
        sys.exit(1)


@main.command(name="enumerate")
@click.option("--sigma", required=True, callback=_alphabet,
              help="Atoms of sigma: one per character, or comma-separated.")
@click.option("--count-only", is_flag=True)
def enumerate_cmd(sigma, count_only):
    """Enumerate all memorising normal forms over an atom string."""
    forms = list(normalforms.enumerate_sigma_nf(sigma))
    if count_only:
        click.echo(str(len(forms)))
        return
    for nf in forms:
        click.echo(syntax.print_expr(nf.body))


@main.command()
@click.argument("expr")
def translate(expr):
    """Translate EXPR to short-circuit connectives."""
    click.echo(scl.print_scl(scl.translate_t(syntax.parse(expr))))


@main.command(name="bridge-check")
@click.argument("expr")
def bridge_check_cmd(expr):
    """Verify that the translation preserves the evaluation tree."""
    if scl.bridge_check(syntax.parse(expr)):
        click.echo("ok")
    else:
        click.echo("MISMATCH")
        sys.exit(1)


if __name__ == "__main__":
    main()
