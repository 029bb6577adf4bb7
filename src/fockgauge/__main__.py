"""``python -m fockgauge``: the ``fockgauge`` console script, with no install."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="fockgauge")
