"""Print one evaluation table (DESIGN.md §5) by its id:

    spark-submit jobs/tables.py T2 [--sf 1.0]
    spark-submit jobs/tables.py T1a [--datasets slashdot-lite --sf 1.0 --seeds 5 --cap 60]

Each id takes only the flags its builder uses (``jobs/tables.py ID -h`` lists
them), and an omitted flag keeps the builder's default.
"""
import argparse

from repro.experiments.datasets import DATASET_ORDER
from repro.experiments.tables import TABLES, render

# Builder argument -> its flag and argparse settings.
FLAGS = {
    "datasets": ("--datasets", dict(nargs="+", choices=DATASET_ORDER, help="dataset subset")),
    "sf": ("--sf", dict(type=float, help="dataset scale factor")),
    "n_seeds": ("--seeds", dict(type=int, help="number of random seed nodes")),
    "time_cap": ("--cap", dict(type=float, help="per-phase time limit in seconds")),
}


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ids = p.add_subparsers(dest="table", required=True, metavar="ID")
    for table_id, table in TABLES.items():
        sub = ids.add_parser(table_id, help=table.title, argument_default=argparse.SUPPRESS)
        for arg in table.args:
            flag, kw = FLAGS[arg]
            sub.add_argument(flag, dest=arg, **kw)
    return p


if __name__ == "__main__":
    kwargs = vars(parser().parse_args())
    table = TABLES[kwargs.pop("table")]
    print(render(table.build(**kwargs), table.title))
