"""Command-line experiment driver.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures,
4 equivalence-check failures.
"""

from __future__ import annotations

import sys

import click

from . import experiments as ex
from .aggregation import AggregateValidationError, AggregationStalledError
from .assembly import AssemblyError, TauUnboundedError
from .distagg import ImportProtocolError, PathReconstructionError
from .distspace import MissingImportError
from .geometry import ClassificationError
from .grid import GridError
from .partition import PartitionError
from .runtime import RuntimeProtocolError
from .solve import NotPositiveDefiniteError

# failures a valid configuration can reach; any other is a bug
_NUMERICAL_ERRORS = (
    AggregationStalledError, AggregateValidationError, AssemblyError,
    TauUnboundedError, ImportProtocolError, PathReconstructionError,
    MissingImportError, ClassificationError, RuntimeProtocolError,
    GridError, NotPositiveDefiniteError,
)


def _common_options(fn):
    opts = [
        click.option("--config", "config_path", type=click.Path(exists=True),
                     default=None, help="flat key = value config file"),
        click.option("--geometry", type=str, default=None),
        click.option("--level", type=int, default=None),
        click.option("--space", type=click.Choice(ex.SPACES), default=None),
        click.option("--beta", type=float, default=None),
        click.option("--procs", type=int, default=None),
        click.option("--rtol", type=float, default=None),
        click.option("--maxit", type=int, default=None),
        click.option("--out", type=str, default=None),
        click.option("--threads", type=int, default=None),
        click.option("--dump", type=str, default=None,
                     help="comma list: aggregates,constraints,matrix"),
        click.option("--solution", type=click.Choice(ex.SOLUTIONS),
                     default=None),
        click.option("--dimension", type=int, default=None),
        click.option("--trace", is_flag=True, default=False,
                     help="record the runtime message trace to trace.csv"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _build_config(config_path, trace=False, **overrides):
    # unset flags are None, which leaves the file's value or the default
    return ex.load_config(config_path,
                          dict(overrides, trace=1 if trace else None))


def _parse_list(raw, cast):
    try:
        return [cast(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ex.ConfigError(f"bad list {raw!r}: {exc}") from None


def _dispatch(fn):
    try:
        fn()
    except (ex.ConfigError, PartitionError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(ex.EXIT_CONFIG)
    except ex.EquivalenceError as exc:
        click.echo(f"equivalence check failed: {exc}", err=True)
        sys.exit(ex.EXIT_EQUIVALENCE)
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(ex.EXIT_NUMERICAL)


@click.group()
def main():
    """Aggregated unfitted finite elements on Cartesian grids."""


@main.command()
@_common_options
def solve(config_path, **overrides):
    """Run the full pipeline once and append a row to runs.csv."""

    def body():
        cfg = _build_config(config_path, **overrides)
        record = ex.cmd_solve(cfg)
        click.echo(
            f"solved {record['geometry']} level {record['level']} "
            f"({record['space']}, P={record['procs']}): "
            f"{record['n_interior_dofs']} DOFs, "
            f"{record['iterations']} iterations, converged="
            f"{record['converged']}, rel L2 {record['rel_l2']}")

    _dispatch(body)


@main.command("cut-sweep")
@_common_options
@click.option("--offsets", type=str,
              default="1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8",
              help="cut offsets as fractions of h")
def cut_sweep(config_path, offsets, **overrides):
    """Sweep a cut across a cell face and record conditioning."""

    def body():
        cfg = _build_config(config_path, **overrides)
        if cfg.geometry == "circle" and overrides.get("geometry") is None \
                and config_path is None:
            cfg = ex.replace(cfg, geometry="halfplane", offset=0.5)
        rows = ex.cmd_cut_sweep(cfg, _parse_list(offsets, float))
        for row in rows:
            click.echo(f"delta={row['delta']}: kappa_agg={row['kappa_agg']} "
                       f"kappa_std={row['kappa_std']}")

    _dispatch(body)


@main.command("parallel-check")
@_common_options
@click.option("--procs-list", type=str, default="1,2,4,8,16")
def parallel_check(config_path, procs_list, **overrides):
    """Assert serial/parallel equality end to end."""

    def body():
        cfg = _build_config(config_path, **overrides)
        result = ex.cmd_parallel_check(cfg, _parse_list(procs_list, int))
        click.echo(f"parallel check passed for P in {result['procs']}")

    _dispatch(body)


@main.command()
@_common_options
@click.option("--levels", type=str, default="3,4,5,6")
def convergence(config_path, levels, **overrides):
    """Error versus cell size with fitted orders."""

    def body():
        cfg = _build_config(config_path, **overrides)
        if cfg.solution == "linear" and overrides.get("solution") is None \
                and config_path is None:
            cfg = ex.replace(cfg, solution="sine")
        rows, orders = ex.cmd_convergence(cfg, _parse_list(levels, int))
        for row in rows:
            click.echo(f"level {row['level']}: rel L2 {row['rel_l2']} "
                       f"rel H1 {row['rel_h1']}")
        if orders["solver_floor"]:
            click.echo("errors at solver-tolerance floor; order not meaningful")
        elif len(rows) < 2:
            click.echo("one level: no order fitted")
        else:
            click.echo(f"fitted orders: L2 {orders['l2_order']} "
                       f"H1 {orders['h1_order']}")

    _dispatch(body)


@main.command("weight-study")
@_common_options
@click.option("--weights", type=str, default="1,10,100,1000")
def weight_study(config_path, weights, **overrides):
    """Partition balance for a range of active-cell weights."""

    def body():
        cfg = _build_config(config_path, **overrides)
        rows = ex.cmd_weight_study(cfg, _parse_list(weights, float))
        for row in rows:
            click.echo(f"w={row['weight']}: active "
                       f"{row['min_active']}..{row['max_active']}, total "
                       f"{row['min_total']}..{row['max_total']}")

    _dispatch(body)


if __name__ == "__main__":
    main()
